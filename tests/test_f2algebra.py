import random
import re
from itertools import product as iproduct

import pytest

from milnortc.f2algebra import (
    _PRESENTATION_CACHE,
    Element,
    generator,
    multiply,
    power,
    unit,
    zero,
)
from milnortc.spaces import ProductSpace, RealMilnor, RealProj, cohomology_of, parse_space
from reference import normal_form, poincare_series, product_normal_form, ring


@pytest.mark.parametrize("s,r", [(0, 1), (1, 2), (2, 4), (3, 4), (4, 8)])
def test_basis_size(s, r):
    assert len(ring(f"rh:{r},{s}").basis) == (s + 1) * r


def test_element_rejects_non_basic_monomial():
    P = ring("rh:2,1")
    with pytest.raises(ValueError, match="non-basic"):
        Element(P, frozenset({(2, 0)}))  # a^2 = 0 when s = 1


@pytest.mark.parametrize("s,r", [(1, 2), (2, 3), (3, 4), (2, 4)])
def test_relation_reduces_to_zero(s, r):
    P = ring(f"rh:{r},{s}")
    a, b = generator(P, "a"), generator(P, "b")
    rel = power(b, r)
    for k in range(1, s + 1):
        rel = rel + multiply(power(a, k), power(b, r - k))
    assert rel.is_zero
    # and the truncation relation
    assert power(a, s + 1).is_zero
    assert not power(a, s).is_zero


@pytest.mark.parametrize("s,r", [(0, 1), (1, 2), (3, 4), (2, 5), (4, 8)])
def test_poincare_palindrome(s, r):
    series = poincare_series(ring(f"rh:{r},{s}"))
    assert series == series[::-1]
    assert sum(series) == (s + 1) * r


def test_top_degree_one_dimensional():
    P = ring("rh:4,3")
    assert P.top_degree == 6
    assert poincare_series(P)[-1] == 1


def test_normal_form_idempotent_on_basis():
    P = ring("rh:5,3")
    for exps in P.basis:
        el = normal_form(P, exps)
        assert el.support == frozenset({exps})


def test_normal_form_rewrites():
    # b^2 = ab in the (s, r) = (1, 2) ring
    P = ring("rh:2,1")
    assert normal_form(P, (0, 2)).support == frozenset({(1, 1)})
    # a^2 = 0 there
    assert normal_form(P, (2, 0)).is_zero


def test_truncated_ring():
    P = ring("rp:4")
    x = generator(P, "x")
    assert not power(x, 4).is_zero
    assert power(x, 5).is_zero
    assert poincare_series(P) == [1, 1, 1, 1, 1]


def test_gen_degree_two_grading():
    P = ring("ch:3,2")
    a = generator(P, "a")
    assert a.degree == 2
    assert P.top_degree == 2 * (2 + 3 - 1)


def test_product_presentation():
    P = ring("prod:rp3,rp2")
    assert len(P.basis) == 4 * 3
    assert P.top_degree == 5
    x1 = generator(P, "x.1")
    x2 = generator(P, "x.2")
    assert power(x1, 4).is_zero
    assert not multiply(power(x1, 3), power(x2, 2)).is_zero


@pytest.mark.parametrize(
    "text",
    ["prod:rh2.1,rp2", "prod:rp3,rh3.2", "prod:rh2.1,cp1,rp1", "prod:rh3.1,rh2.2",
     "prod:ch2.1,rp1", "prod:rp0,rh2.1", "prod:rh3.0,cp2"],
)
def test_product_normal_form_is_the_factorwise_one(text):
    # one rewriting loop over the concatenated generators gives the tensor
    # product of the factors' normal forms, for every exponent up to 2 top + 1
    space = parse_space(text)
    P = cohomology_of(space)
    for exps in iproduct(range(2 * P.top_degree + 2), repeat=P.ngens):
        assert P.reduce(exps) == product_normal_form(space, exps), exps


def test_presentation_repr_names_its_descriptor():
    assert repr(ring("rh:2,1")) == "Presentation(RealMilnor(r=2, s=1))"
    assert repr(ring("prod:rp3,cp1")) == (
        "Presentation(ProductSpace(factors=(RealProj(m=3), ComplexProj(m=1))))"
    )


def test_presentations_are_interned():
    assert ring("rh:3,2") is ring("rh:3,2") is cohomology_of(RealMilnor(3, 2))
    # equal fields, another family: another ring
    assert ring("rh:3,2") is not ring("ch:3,2")
    space = ProductSpace((RealProj(3), RealProj(2)))
    P = cohomology_of(space)
    assert P is ring("prod:rp3,rp2")
    assert P.cache_key == space
    assert P.gen_names == ("x.1", "x.2")
    # the product and each factor key their own rings in the one cache
    for s in (space, *space.factors):
        assert cohomology_of(s) is _PRESENTATION_CACHE[s]


def test_algebra_laws_random():
    P = ring("rh:4,2")
    rng = random.Random(7)

    def rand_el():
        picks = rng.sample(P.basis, rng.randint(0, 4))
        el = zero(P)
        for exps in picks:
            el = el + Element(P, frozenset({exps}))
        return el

    for _ in range(60):
        x, y, z = rand_el(), rand_el(), rand_el()
        assert multiply(x, y) == multiply(y, x)
        assert multiply(multiply(x, y), z) == multiply(x, multiply(y, z))
        assert multiply(x, y + z) == multiply(x, y) + multiply(x, z)
        assert x + x == zero(P)
        assert multiply(x, unit(P)) == x


def test_power_matches_repeated_multiply():
    P = ring("rh:4,3")
    el = generator(P, "a") + generator(P, "b")
    acc = unit(P)
    for e in range(9):
        assert power(el, e) == acc
        acc = multiply(acc, el)


def test_unknown_generator_and_negative_exponent_are_refused():
    P = ring("rh:2,1")
    with pytest.raises(ValueError, match="^expected 2 exponents, got 3$"):
        P.reduce((1, 0, 0))
    with pytest.raises(ValueError, match=re.escape("unknown generator 'x'; have ('a', 'b')")):
        generator(P, "x")
    with pytest.raises(ValueError, match="^exponent must be non-negative$"):
        power(generator(P, "a"), -1)
