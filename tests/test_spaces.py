"""Space strings: the canonical form of every family round-trips through
``parse_space`` and ``format_space``, and each malformed string or
descriptor is refused with its own message.  A descriptor's check is the
only check of a space's fields, and the descriptor keys its ring."""

import re

import pytest

from milnortc.spaces import (
    ComplexMilnor,
    ComplexProj,
    ProductSpace,
    RealMilnor,
    RealProj,
    cohomology_of,
    format_space,
    parse_space,
)


@pytest.mark.parametrize(
    "text, space",
    [
        ("rh:4,3", RealMilnor(4, 3)),
        ("ch:4,3", ComplexMilnor(4, 3)),
        ("rh:1,0", RealMilnor(1, 0)),
        ("rp:2", RealProj(2)),
        ("cp:0", ComplexProj(0)),
        ("prod:rp3,rp2", ProductSpace((RealProj(3), RealProj(2)))),
        ("prod:cp1", ProductSpace((ComplexProj(1),))),
        (
            "prod:rh4.3,ch2.1,rp3,cp2",
            ProductSpace(
                (RealMilnor(4, 3), ComplexMilnor(2, 1), RealProj(3), ComplexProj(2))
            ),
        ),
    ],
)
def test_canonical_strings_round_trip(text, space):
    assert parse_space(text) == space
    assert format_space(space) == text
    assert format_space(parse_space(text)) == text


def test_parse_space_strips_and_lowercases():
    assert parse_space(" RH:4,3 ") == RealMilnor(4, 3)
    assert parse_space("Prod:RP3,Ch2.1") == ProductSpace(
        (RealProj(3), ComplexMilnor(2, 1))
    )


_MILNOR_FIELDS = {"gen_names": ("a", "b")}
_PROJ_FIELDS = {"gen_names": ("x",)}


@pytest.mark.parametrize(
    "space, relation, fields, dimension",
    [
        (RealMilnor(4, 3), "milnor", {**_MILNOR_FIELDS, "gen_degrees": (1, 1)}, 6),
        (ComplexMilnor(4, 3), "milnor", {**_MILNOR_FIELDS, "gen_degrees": (2, 2)}, 12),
        (RealProj(3), "truncated", {**_PROJ_FIELDS, "gen_degrees": (1,)}, 3),
        (ComplexProj(3), "truncated", {**_PROJ_FIELDS, "gen_degrees": (2,)}, 6),
    ],
)
def test_cohomology_and_dimension_of_each_family(space, relation, fields, dimension):
    P = cohomology_of(space)
    assert P.cache_key == space
    assert {name: getattr(P, name) for name in fields} == fields
    assert space.dimension == dimension == P.top_degree
    # the family's relations, read off the ring's normal form
    if relation == "milnor":
        r, s = space.r, space.s
        assert P.reduce((s + 1, 0)) == frozenset()
        assert P.reduce((0, r)) == {(k, r - k) for k in range(1, s + 1)}
        assert P.reduce((s, r - 1)) == {(s, r - 1)}
    else:
        assert P.reduce((space.m + 1,)) == frozenset()
        assert P.reduce((space.m,)) == {(space.m,)}


def test_cohomology_of_a_product_takes_its_factors_rings():
    space = parse_space("prod:rh2.1,cp2")
    P = cohomology_of(space)
    milnor, proj = cohomology_of(RealMilnor(2, 1)), cohomology_of(ComplexProj(2))
    # the factors' generators renamed by position, each rule padded with zeros
    assert space.generators == (
        ("a.1", 1, 2, ()),
        ("b.1", 1, 2, ((1, 1, 0),)),
        ("x.2", 2, 3, ()),
    )
    assert P.gen_names == ("a.1", "b.1", "x.2")
    assert P.gen_degrees == milnor.gen_degrees + proj.gen_degrees
    assert set(P.basis) == {m + x for m in milnor.basis for x in proj.basis}
    assert space.dimension == 2 + 4 == P.top_degree


@pytest.mark.parametrize(
    "text, message",
    [
        ("foo", "cannot parse space 'foo'"),
        ("rh:4", "expected 'rh:r,s', got 'rh:4'"),
        ("ch:4,3,1", "expected 'ch:r,s', got 'ch:4,3,1'"),
        ("rh:4,x", "invalid literal for int() with base 10: 'x'"),
        ("rp:1,2", "invalid literal for int() with base 10: '1,2'"),
        ("cp:x", "invalid literal for int() with base 10: 'x'"),
        ("xx:1", "unknown space family 'xx'"),
        ("prod:rp3,foo", "cannot parse product factor 'foo'"),
        ("prod:", "cannot parse product factor ''"),
        ("prod:rh4", "cannot parse product factor 'rh4'"),
        ("prod:rp3.2", "cannot parse product factor 'rp3.2'"),
        ("prod:prod3", "cannot parse product factor 'prod3'"),
        ("prod:xx3", "cannot parse product factor 'xx3'"),
        ("rh:2,3", "Milnor manifold requires r >= 1 and 0 <= s <= r, got r=2, s=3"),
        ("ch:0,0", "Milnor manifold requires r >= 1 and 0 <= s <= r, got r=0, s=0"),
        ("rp:-1", "projective space dimension must be >= 0"),
        ("prod:rh2.3", "Milnor manifold requires r >= 1 and 0 <= s <= r, got r=2, s=3"),
        # numbers are ASCII digits: int() also reads "4_3", "+2" and "\uff13"
        ("rh:4_3,2", "numbers must be written in ASCII digits, got 'rh:4_3,2'"),
        ("rp:+2", "numbers must be written in ASCII digits, got 'rp:+2'"),
        ("rh:4, 3", "numbers must be written in ASCII digits, got 'rh:4, 3'"),
        ("cp:\uff13", "numbers must be written in ASCII digits, got 'cp:\uff13'"),
        ("prod:rp\uff13,rp2", "cannot parse product factor 'rp\uff13'"),
        ("prod:rp3_1", "cannot parse product factor 'rp3_1'"),
    ],
)
def test_parse_space_refusals(text, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        parse_space(text)


@pytest.mark.parametrize(
    "build, message",
    [
        (lambda: RealMilnor(2, -1), "Milnor manifold requires r >= 1 and 0 <= s <= r, got r=2, s=-1"),
        (lambda: RealMilnor(2.0, 1), "r and s must be integers"),
        (lambda: ComplexMilnor(2, 1.0), "r and s must be integers"),
        # a bool would print as rh:True,0, which no parser reads back
        (lambda: RealMilnor(True, 0), "r and s must be integers"),
        (lambda: RealMilnor(0, 0), "Milnor manifold requires r >= 1 and 0 <= s <= r, got r=0, s=0"),
        (lambda: ComplexMilnor(2, 3), "Milnor manifold requires r >= 1 and 0 <= s <= r, got r=2, s=3"),
        (lambda: RealProj(-1), "projective space dimension must be >= 0"),
        (lambda: RealProj(2.0), "m must be an integer"),
        (lambda: ComplexProj("2"), "m must be an integer"),
        (lambda: RealProj(False), "m must be an integer"),
        (lambda: ProductSpace(()), "product space needs at least one factor"),
        (lambda: ProductSpace([RealProj(1)]),
         "factors must be of type tuple, got [RealProj(m=1)]"),
        (lambda: ProductSpace((RealProj(1), {"m": 2})), "unknown space descriptor: {'m': 2}"),
        (lambda: ProductSpace((ProductSpace((RealProj(1),)),)),
         "a product factor may not be a product"),
    ],
    ids=["milnor-negative", "milnor-float", "complex-milnor-float", "milnor-bool",
         "milnor-zero-ring", "milnor-s-above-r", "proj-negative", "proj-float",
         "complex-proj-str", "proj-bool",
         "product-empty", "product-list", "product-of-a-non-descriptor",
         "product-of-a-product"],
)
def test_descriptors_refuse_bad_fields(build, message):
    # the descriptor is the only check: no ring is built from a refused one
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        build()


@pytest.mark.parametrize("space", [None, 42, "rp:2"])
@pytest.mark.parametrize("function", [format_space, cohomology_of])
def test_unknown_descriptors_are_refused(function, space):
    message = f"unknown space descriptor: {space!r}"
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        function(space)
