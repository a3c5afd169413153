import itertools
import re

import pytest

import milnortc.bounds
from milnortc.bounds import (
    CIRCLE,
    Z2,
    FreeAction,
    RuleTrace,
    admits_free_circle,
    admits_free_involution,
    cat_bounds,
    eqtc_bounds,
    resolve_group,
    tc_bounds,
)
from milnortc.certgen import cert_case2, cert_cat_topclass
from milnortc.cuplength import cup_exact
from milnortc.errors import NoFreeActionError
from milnortc.exprs import VerificationReport
from milnortc.spaces import (
    ComplexMilnor,
    RealMilnor,
    RealProj,
    cohomology_of,
    parse_space,
)


# -- free-action predicates ---------------------------------------------------


def test_involution_predicate():
    assert admits_free_involution(5, 3) is FreeAction.YES
    assert admits_free_involution(4, 3) is FreeAction.NO
    assert admits_free_involution(6, 3) is FreeAction.OUT_OF_HYPOTHESIS
    assert admits_free_involution(3, 3) is FreeAction.OUT_OF_HYPOTHESIS  # s = r
    assert admits_free_involution(5, 1) is FreeAction.OUT_OF_HYPOTHESIS  # s = 1


def test_circle_predicate():
    assert admits_free_circle(5, 3) is FreeAction.YES
    assert admits_free_circle(4, 3) is FreeAction.NO
    assert admits_free_circle(3, 3) is FreeAction.YES
    # rh:r,0 is a space, but outside the characterization
    assert admits_free_circle(3, 0) is FreeAction.OUT_OF_HYPOTHESIS
    with pytest.raises(ValueError):
        admits_free_circle(2, 3)


def test_group_resolution():
    # the CLI's --group names, exactly as written; the library takes a Group
    assert resolve_group("z2") is Z2
    assert resolve_group("s1") is CIRCLE
    assert Z2.dim == 0 and CIRCLE.dim == 1
    for name in ("so3", "Z2", CIRCLE):
        with pytest.raises(ValueError, match="unknown group"):
            resolve_group(name)


@pytest.mark.parametrize(
    "run",
    [
        lambda: cat_bounds("rh:2,1", 1),
        lambda: tc_bounds("rh:2,1", 2),
        lambda: eqtc_bounds("rh:5,3", Z2, 2),
    ],
    ids=["cat", "tc", "eqtc"],
)
def test_bounds_refuse_a_space_given_as_text(run):
    # text is parsed only where it enters, by the CLI and the file reader
    message = "unknown space descriptor: 'rh:"
    with pytest.raises(ValueError, match=f"^{re.escape(message)}"):
        run()


# -- category -----------------------------------------------------------------


def test_cat_exact_milnor():
    report = cat_bounds(RealMilnor(4, 3), 2)
    assert (report.lower, report.upper) == (13, 13)
    assert report.verified_lower == 13
    assert not report.inconsistent
    report = cat_bounds(parse_space("rh:2,1"), 1)
    assert (report.lower, report.upper) == (3, 3)


def test_cat_projective_plane():
    report = cat_bounds(RealProj(2), 1)
    assert (report.lower, report.upper) == (3, 3)


def test_cat_n1_upper_is_dim_plus_one():
    for text in ("rh:4,3", "ch:3,2", "rp:5", "cp:2", "prod:rp3,rp2"):
        space = parse_space(text)
        assert cat_bounds(space, 1).upper == space.dimension + 1


def test_cat_product_space():
    report = cat_bounds(parse_space("prod:rp3,rp2"), 2)
    assert report.verified_lower == 2 * 5 + 1
    assert report.lower == 11
    assert report.upper == 11


def test_cat_trace_statuses():
    report = cat_bounds(parse_space("rh:4,3"), 2)
    statuses = {t.rule: t.status for t in report.trace}
    assert statuses["top-class-witness"] == "machine-verified"
    assert statuses["dimension-upper"] == "claimed"


# -- ordinary TC --------------------------------------------------------------


def test_tc_rh43():
    report = tc_bounds(parse_space("rh:4,3"), 2)
    assert (report.lower, report.upper) == (11, 13)
    assert report.verified_lower == 11
    rules = {t.rule for t in report.trace if t.bound == "lower"}
    assert "certificate-odd-power-blocks" in rules


def test_tc_rp2():
    report = tc_bounds(parse_space("rp:2"), 2)
    assert (report.lower, report.upper) == (4, 5)
    assert report.verified_lower == 4


def test_tc_klein_bottle_oracle_vs_claims():
    report = tc_bounds(parse_space("rh:2,1"), 2, use_oracle=True)
    # the oracle-certified lower is 4; the claimed closed form says 5.
    # both are reported without being merged.
    assert report.verified_lower == 4
    assert report.lower == 5
    assert report.upper == 5
    assert not report.inconsistent
    oracle = [t for t in report.trace if t.rule == "ideal-power-oracle"]
    assert oracle and oracle[0].value == 4 and oracle[0].status == "machine-verified"


@pytest.mark.parametrize("n", (3, 4, 5))
def test_tc_klein_bottle_maximal_from_n3(n):
    # the oracle's verified witness reaches zcl = n*dim, so TC_n(K) is the
    # maximal n*dim + 1 = 2n + 1.  At n = 2 mod-2 methods stop at 4; TC(K)
    # = 5 is known only by non-mod-2 methods (Cohen and Vandembroucq,
    # "Topological complexity of the Klein bottle", 2017).
    report = tc_bounds(parse_space("rh:2,1"), n, use_oracle=True)
    assert report.lower == report.upper == report.verified_lower == 2 * n + 1


def test_tc_oracle_over_the_budget_adds_a_skipped_row(monkeypatch):
    # counts, not times: the oracle forms 160 rows on rh:3,2 at n = 3, so a
    # budget of 159 refuses it, and the report is the one without the oracle
    # plus one skipped row that gives the refusal and bounds nothing
    import milnortc.cuplength as cuplength
    import milnortc.slotchain as slotchain

    monkeypatch.setattr(cuplength, "_CUP_CACHE", {})
    monkeypatch.setattr(slotchain, "BUDGET", 159)
    report = tc_bounds(RealMilnor(3, 2), 3, use_oracle=True)
    skipped = RuleTrace("ideal-power-oracle",
                        "the oracle needs more than its budget of 159 rows",
                        "lower", None, "skipped")
    assert [t for t in report.trace if t.rule == "ideal-power-oracle"] == [skipped]
    kept = tuple(t for t in report.trace if t != skipped)
    assert report.replace(trace=kept) == tc_bounds(RealMilnor(3, 2), 3, use_oracle=False)
    monkeypatch.setattr(slotchain, "BUDGET", 160)
    ran = tc_bounds(RealMilnor(3, 2), 3, use_oracle=True)
    assert [t.status for t in ran.trace if t.rule == "ideal-power-oracle"] == [
        "machine-verified"]


def test_tc_oracle_witness_that_fails_raises(monkeypatch):
    def vanishes(cert):
        return VerificationReport((), False, None, "ProductVanishes")

    monkeypatch.setattr(milnortc.bounds, "verify_certificate", vanishes)
    with pytest.raises(RuntimeError, match="does not verify"):
        tc_bounds(parse_space("rh:2,1"), 2, use_oracle=True, use_certs=False)


def test_tc_product_space():
    report = tc_bounds(parse_space("prod:rp3,rp2"), 2)
    assert report.lower >= 6
    assert report.upper == 11


def test_tc_source_toggles():
    bare = tc_bounds(parse_space("rh:4,3"), 2, use_certs=False, use_monotonicity=False)
    assert bare.verified_lower is None
    assert bare.lower == 1
    no_claims = tc_bounds(parse_space("rh:4,3"), 2, use_monotonicity=False)
    assert no_claims.lower == no_claims.verified_lower == 11


def test_no_claimed_rule_puts_the_lower_end_above_the_upper_one():
    # rh and ch with r <= 9 and every s, and rp with m <= 16, at n = 2..5.
    # At s = 0 the Milnor ring is that of RP^(r-1), where the
    # r-monotonicity rule would claim n(r - 1) + 2 for r = 2^t, above the
    # dimension bound n(r - 1) + 1: it fires only for s >= 1
    spaces = [
        family(r, s) for family in (RealMilnor, ComplexMilnor) for r in range(1, 10)
        for s in range(r + 1)
    ] + [RealProj(m) for m in range(17)]
    reports = [tc_bounds(space, n, use_certs=False) for space in spaces for n in range(2, 6)]
    assert len(reports) == 500
    assert [(r.space, r.n) for r in reports if r.inconsistent] == []
    rules = {t.rule for t in tc_bounds(parse_space("rh:4,0"), 2, use_certs=False).trace}
    assert "power-of-two-r-monotonicity" not in rules
    rules = {t.rule for t in tc_bounds(parse_space("rh:4,1"), 2, use_certs=False).trace}
    assert "power-of-two-r-monotonicity" in rules


def test_tc_verifies_certificates_over_the_complex_ring(monkeypatch):
    # the families are written for the real Milnor manifold; the
    # certificates offered to a report about a complex one are labelled with
    # that space, so the verifier checks them in its ring
    seen = []
    verify = milnortc.bounds.verify_certificate

    def spy(cert):
        seen.append(cert.space)
        return verify(cert)

    monkeypatch.setattr(milnortc.bounds, "verify_certificate", spy)
    for space, n in ((ComplexMilnor(4, 3), 2), (ComplexMilnor(3, 2), 3)):
        seen.clear()
        report = tc_bounds(space, n)
        assert len(seen) >= 2 and set(seen) == {space}, space
        assert report.verified_lower is not None, space


def test_tc_takes_a_searched_certificate_verified_in_its_own_ring(monkeypatch):
    # cert_case2 returns its search's certificate unverified; the report
    # verifies it once, in the ring of the space it is about, as it does
    # the category-of-lower-power certificate after it
    seen = []
    verify = milnortc.bounds.verify_certificate

    def spy(cert):
        seen.append((cert.factors, cohomology_of(cert.space).gen_degrees))
        return verify(cert)

    monkeypatch.setattr(milnortc.bounds, "verify_certificate", spy)
    searched = cert_case2(1, 1, 3).factors
    lower_power = cert_cat_topclass(parse_space("rh:3,2"), 2).factors
    for space, degrees in ((RealMilnor(3, 2), (1, 1)), (ComplexMilnor(3, 2), (2, 2))):
        seen.clear()
        report = tc_bounds(space, 3)
        row = next(t for t in report.trace if t.rule == "certificate-searched-bridges")
        assert (row.value, row.status) == (11, "machine-verified")
        assert seen == [(searched, degrees), (lower_power, degrees)], space


def test_tc_verified_lower_nondecreasing_in_n():
    prev = 0
    for n in (2, 3, 4):
        report = tc_bounds(parse_space("rh:4,3"), n)
        assert report.verified_lower >= prev
        prev = report.verified_lower


def test_tc_free_circle_upper():
    report = tc_bounds(parse_space("rh:3,3"), 2)
    assert report.upper == 2 * 5  # free circle action: n * dim
    assert any(t.rule == "free-circle-upper" for t in report.trace)


def test_tc_requires_n_at_least_two():
    with pytest.raises(ValueError):
        tc_bounds(parse_space("rp:2"), 1)


@pytest.mark.parametrize(
    "run, message",
    [
        (lambda: cat_bounds(parse_space("rp:2"), 0), "n must be >= 1"),
        (lambda: eqtc_bounds(parse_space("rh:5,3"), Z2, 1), "n must be >= 2"),
        (lambda: cup_exact(cohomology_of(RealProj(2)), 0), "arity must be >= 1"),
    ],
    ids=["cat-n0", "eqtc-n1", "cup-n0"],
)
def test_arities_below_the_minimum_are_refused(run, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        run()


# -- equivariant TC -----------------------------------------------------------


def test_eqtc_involution_interval():
    for n in (2, 3):
        report = eqtc_bounds(RealMilnor(5, 3), Z2, n)
        assert report.lower == n * 6 - 1
        assert report.upper == n * 7 + 1
        assert report.group == "z2"
        assert not report.inconsistent


def test_eqtc_circle_upper():
    report = eqtc_bounds(parse_space("rh:5,3"), CIRCLE, 2)
    assert report.upper == 2 * 7
    assert report.lower == 11


def test_eqtc_lower_dominates_tc():
    tc = tc_bounds(parse_space("rh:5,3"), 2)
    eq = eqtc_bounds(parse_space("rh:5,3"), Z2, 2)
    assert eq.lower >= tc.lower


def test_eqtc_refusals():
    with pytest.raises(NoFreeActionError, match="circle"):
        eqtc_bounds(RealMilnor(4, 3), CIRCLE, 2)
    with pytest.raises(NoFreeActionError, match="involution"):
        eqtc_bounds(RealMilnor(4, 3), Z2, 2)
    with pytest.raises(NoFreeActionError, match="out-of-hypothesis"):
        eqtc_bounds(RealMilnor(6, 3), Z2, 2)
    with pytest.raises(NoFreeActionError):
        eqtc_bounds(RealProj(3), Z2, 2)
    with pytest.raises(NoFreeActionError):
        eqtc_bounds(parse_space("ch:5,3"), CIRCLE, 2)


def test_eqtc_traces_hold_the_tc_lower_rows_and_the_orbit_row():
    # TC_{G,n} >= TC_n, so every TC_n lower row bounds TC_{G,n} with its own
    # status, while the orbit-space dimension is the only upper row
    admitted = []
    for family, group in itertools.product((RealMilnor, ComplexMilnor), (Z2, CIRCLE)):
        for r in range(1, 10):
            for s in range(r + 1):
                try:
                    eqtc_bounds(family(r, s), group, 2)
                except NoFreeActionError:
                    continue
                admitted.append((family(r, s), group))
    # z2 acts on rh and ch at (r, s) = (5, 3), (7, 3), (7, 5), (9, 3), (9, 5)
    # and (9, 7), and s1 on rh at odd r and s
    assert len(admitted) == 27
    for (space, group), n in itertools.product(admitted, (2, 3, 4)):
        eq, tc = eqtc_bounds(space, group, n), tc_bounds(space, n)
        orbit = RuleTrace(
            "free-action-orbit-dimension",
            "orbit-space dimension bound for a free action",
            "upper",
            n * space.dimension - group.dim + 1,
            "claimed",
        )
        assert [t for t in eq.trace if t.bound == "upper"] == [orbit]
        assert (eq.lower, eq.verified_lower) == (tc.lower, tc.verified_lower)
        assert [t for t in eq.trace if t.bound == "lower"] == [
            t for t in tc.trace if t.bound == "lower"
        ]


def test_eqtc_trace_has_both_statuses():
    report = eqtc_bounds(parse_space("rh:5,3"), Z2, 2)
    statuses = {t.status for t in report.trace}
    assert statuses == {"machine-verified", "claimed"}


def test_point_spaces_agree():
    # a Milnor manifold with r = 1, s = 0, the 0-dimensional projective
    # spaces and their product are all a point: one 0-factor witness row
    # below, the dimension rows above, the same values everywhere
    points = [parse_space(t) for t in ("rh:1,0", "rp:0", "cp:0", "prod:rp0,cp0")]
    for n in (1, 2, 3):
        for bound in (cat_bounds, tc_bounds) if n >= 2 else (cat_bounds,):
            reports = [bound(space, n) for space in points]
            traces = {
                tuple((t.rule, t.bound, t.value, t.status) for t in r.trace)
                for r in reports
            }
            assert len(traces) == 1
            rules = {t.rule for t in reports[0].trace if t.bound == "lower"}
            if bound is cat_bounds:
                assert rules == {"top-class-witness"}
            else:
                assert rules == {"category-of-lower-power"}
            for r in reports:
                assert (r.lower, r.upper, r.verified_lower) == (1, 1, 1)
