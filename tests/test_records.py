"""Value semantics of the immutable records: equality by type and fields, a
hash that agrees with it, defaults, keyword construction, validation,
refused assignment and the ``Name(field=value, ...)`` repr."""

import pytest

from milnortc.bounds import BoundReport, Group, RuleTrace, eqtc_bounds
from milnortc.exprs import (
    Certificate,
    Element,
    FactorCheck,
    Gen,
    Pow,
    Prod,
    SearchFailure,
    Sum,
    Unit,
    VerificationReport,
    evaluate_text,
    generator,
)
from milnortc.spaces import (
    ComplexMilnor,
    ComplexProj,
    ProductSpace,
    RealMilnor,
    RealProj,
    parse_space,
)
from reference import KernelBasis, kernel_basis, ring

P = ring("rp:2")
RP2 = RealProj(2)
g, h = Gen("a", 1), Gen("b", 2)


def rows(lower, upper):
    """A lower and an upper claimed row, the trace a report is read off."""
    return (RuleTrace("l", "a source", "lower", lower, "claimed"),
            RuleTrace("u", "a source", "upper", upper, "claimed"))


# one constructor per record class, called twice for two equal instances
RECORDS = {
    "Group": lambda: Group("x", 3),
    "RuleTrace": lambda: RuleTrace("r", "a source", "lower", 3, "claimed"),
    "BoundReport": lambda: BoundReport("rp:2", "tc", 2, trace=rows(3, 5)),
    "Certificate": lambda: Certificate(RP2, 2, (("(x1+x2)", 3),), 3),
    "FactorCheck": lambda: FactorCheck("x1", False, 1),
    "VerificationReport": lambda: VerificationReport((), True, 3, "Verified"),
    "SearchFailure": lambda: SearchFailure("no product"),
    "Gen": lambda: Gen("a", 1),
    "Unit": Unit,
    "Sum": lambda: Sum((g, h)),
    "Prod": lambda: Prod((g, h)),
    "Pow": lambda: Pow(g, 2),
    "Element": lambda: generator(P, "x"),
    "RealMilnor": lambda: RealMilnor(4, 3),
    "ComplexMilnor": lambda: ComplexMilnor(4, 3),
    "RealProj": lambda: RealProj(2),
    "ComplexProj": lambda: ComplexProj(2),
    "ProductSpace": lambda: ProductSpace((RealProj(2), ComplexProj(1))),
}


@pytest.mark.parametrize("name", RECORDS)
def test_equal_fields_give_equal_records_and_hashes(name):
    a, b = RECORDS[name](), RECORDS[name]()
    assert type(a).__name__ == name
    assert a is not b
    assert a == b and not a != b
    assert hash(a) == hash(b)
    assert len({a, b}) == 1


@pytest.mark.parametrize("name", [*RECORDS, "KernelBasis"])
def test_fields_cannot_be_assigned_or_deleted(name):
    rec = kernel_basis(P, 2, 1) if name == "KernelBasis" else RECORDS[name]()
    for field in type(rec).__slots__:
        with pytest.raises(AttributeError):
            setattr(rec, field, None)
        with pytest.raises(AttributeError):
            delattr(rec, field)
    with pytest.raises(AttributeError):
        rec.extra = 1


def test_equality_needs_the_same_type():
    assert Sum((g, h)) != Prod((g, h))
    assert Gen("a", 1) != ("a", 1)
    assert RealProj(2) != ComplexProj(2)
    assert RealMilnor(4, 3) != ComplexMilnor(4, 3)
    assert Gen("a", 1) != Gen("a", 2)
    assert Unit() == Unit() and Unit() != Sum(())
    assert Pow(Sum((g, h)), 2) == Pow(Sum((Gen("a", 1), Gen("b", 2))), 2)


def test_defaults_and_keyword_construction():
    cert = Certificate(space=RP2, n=2, factors=(("(x1+x2)", 3),), claimed_cup=3)
    assert cert.note is None and cert.cat_witness is False
    assert cert.claimed_tc_lower == 4
    assert cert == Certificate(RP2, 2, (("(x1+x2)", 3),), 3, None, False)
    assert Certificate(RP2, 2, (("x1", 1),), 1, cat_witness=True).cat_witness
    report = BoundReport("rp:2", "tc", 2)
    assert (report.group, report.trace, report.lower, report.verified_lower) == (
        None, (), 1, None)
    report = BoundReport(space="rp:2", quantity="tc", n=2, trace=rows(3, 5))
    assert (report.lower, report.upper, report.verified_lower) == (3, 5, None)
    assert Gen(position=1, name="a") == g


def test_missing_repeated_and_unknown_arguments_raise_type_error():
    with pytest.raises(TypeError, match="missing argument 'dim'"):
        Group("x")
    with pytest.raises(TypeError, match="unexpected arguments colour"):
        Group("x", 3, colour="red")
    with pytest.raises(TypeError, match="unexpected arguments name"):
        Group("x", 3, name="y")
    with pytest.raises(TypeError, match="takes 2 arguments, got 3"):
        Group("x", 3, 4)


def test_replace_changes_fields_and_validates_again():
    report = BoundReport("rp:2", "tc", 2, trace=rows(3, 5))
    eq = report.replace(quantity="eqtc", group="z2")
    assert (eq.quantity, eq.group, eq.lower) == ("eqtc", "z2", 3)
    assert report.replace(trace=rows(4, 6)).lower == 4
    assert report.quantity == "tc"
    with pytest.raises(ValueError, match="requires r >= 1"):
        RealMilnor(4, 3).replace(s=5)
    with pytest.raises(TypeError):
        report.replace(colour="red")


@pytest.mark.parametrize(
    "build, message",
    [
        (lambda: Certificate(RP2, 2, (("x1", 2),), 3), "total factor count 2"),
        (lambda: Certificate(RP2, 2, (("x1", 3), ("x2", 0)), 3), "positive"),
        (lambda: Certificate(RP2, 0, (), 0), "arity must be >= 1"),
        # a claimed TC lower bound passed where the note goes, which the
        # file reader would refuse
        (lambda: Certificate(RP2, 2, (("(x1+x2)", 3),), 3, 4),
         "note must be None or of type str, got 4"),
        (lambda: Certificate(RP2, 2, (("x1", 1),), 1, cat_witness="yes"),
         "cat_witness must be of type bool"),
        (lambda: Certificate(RP2, 2, (("x1", 3.0),), 3), r"factor \('x1', 3.0\)"),
        (lambda: Certificate(RP2, 2, [("x1", 3)], 3), "factors must be of type tuple"),
        (lambda: Certificate(RP2, True, (), 0), "n must be of type int, got True"),
        (lambda: Certificate(7, 2, (), 0), "unknown space descriptor: 7"),
        (lambda: Certificate("rh:2,1", 2, (), 0), "unknown space descriptor: 'rh:2,1'"),
        (lambda: RealMilnor(2, 3), "requires r >= 1 and 0 <= s <= r"),
        (lambda: ComplexMilnor(0, 0), "requires r >= 1"),
        (lambda: RealMilnor(2.0, 1), "must be integers"),
        (lambda: parse_space("rp:-1"), "dimension must be >= 0"),
        (lambda: ComplexProj(-1), "dimension must be >= 0"),
        (lambda: ProductSpace(()), "at least one factor"),
        (lambda: Element(P, frozenset({(3,)})), "non-basic"),
    ],
)
def test_validation_runs_at_construction(build, message):
    with pytest.raises(ValueError, match=message):
        build()


def test_computed_elements_skip_validation():
    # the engine's own products are basic by construction
    el = Element.computed(P, frozenset({(3,)}))
    assert el.support == frozenset({(3,)})
    assert el == Element.computed(P, frozenset({(3,)}))


def test_kernel_basis_is_equal_only_to_itself():
    a, b = kernel_basis(P, 2, 1), kernel_basis(P, 2, 1)
    assert a == a and a != b
    assert (a.rows, a.slice_dim) == (b.rows, b.slice_dim)
    assert len({a, b}) == 2
    assert isinstance(a, KernelBasis) and len(a) == 1


def test_repr_names_each_field():
    assert repr(Group("x", 3)) == "Group(name='x', dim=3)"
    assert repr(Unit()) == "Unit()"
    assert repr(Sum((g, h))) == (
        "Sum(terms=(Gen(name='a', position=1), Gen(name='b', position=2)))"
    )
    assert repr(RealMilnor(4, 3)) == "RealMilnor(r=4, s=3)"
    # a report's ends are read off its trace, so they are not fields
    assert repr(BoundReport("rp:2", "tc", 2)) == (
        "BoundReport(space='rp:2', quantity='tc', n=2, group=None, trace=())"
    )
    assert repr(SearchFailure("why")) == "SearchFailure(reason='why')"
    # Element keeps its own repr, in the terms of its algebra
    assert repr(generator(P, "x")) == "Element(x)"
    assert repr(evaluate_text("(x1+x2)^2", P, 2)) == "Element((1⊗x^2) + (x^2⊗1))"
    with pytest.raises(ValueError, match=r"unsupported group Group\(name='x', dim=3\)"):
        eqtc_bounds(RealMilnor(5, 3), Group("x", 3), 2)
