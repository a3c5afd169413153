from itertools import combinations_with_replacement

import pytest

from milnortc import certgen
from milnortc.certgen import (
    cert_case1,
    cert_case2,
    cert_cat_topclass,
    cert_proj,
    cert_r2t,
)
from milnortc.cuplength import (
    Certificate,
    SearchFailure,
    is_zero_divisor,
    verify_certificate,
)
from milnortc.exprs import evaluate_text
from milnortc.f2algebra import multiply, power, unit
from milnortc.spaces import RealMilnor, cohomology_of
from milnortc.tensorpower import TensorPower, tensor_power


def total_factors(cert):
    return sum(mult for _, mult in cert.factors)


def test_case1_rh43_n2():
    cert = cert_case1(t1=1, t2=2, n=2)
    assert cert.space == "rh:4,3"
    assert total_factors(cert) == 10
    assert cert.claimed_cup == 10
    assert cert.claimed_tc_lower == 11
    report = verify_certificate(cert)
    assert report.verdict == "Verified"
    assert all(c.is_zero_divisor for c in report.per_factor)


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_case1_counts_all_arities(n):
    # (s, r) = (3, 4): claimed count n(s+r-1) - 2
    cert = cert_case1(1, 2, n)
    assert total_factors(cert) == n * 6 - 2


def test_case1_small_verifies_odd_n():
    cert = cert_case1(t1=0, t2=1, n=3)  # (s, r) = (2, 2)
    assert verify_certificate(cert).verdict == "Verified"


def test_case1_hypothesis_errors():
    with pytest.raises(ValueError, match="hypothesis"):
        cert_case1(t1=2, t2=1, n=2)  # s = 5 > r = 2
    with pytest.raises(ValueError):
        cert_case1(-1, 2, 2)
    with pytest.raises(ValueError):
        cert_case1(1, 2, 1)


def test_case2_search_verifies():
    cert = cert_case2(p1=1, p2=1, n=2)  # (s, r) = (2, 3)
    assert isinstance(cert, Certificate)
    assert total_factors(cert) == 2 * 4 - 2
    assert verify_certificate(cert).verdict == "Verified"


def test_case2_odd_arity():
    cert = cert_case2(p1=0, p2=1, n=3)  # (s, r) = (1, 3)
    assert isinstance(cert, Certificate)
    assert cert.space == "rh:3,1"
    assert verify_certificate(cert).verdict == "Verified"


def test_r2t_counts_and_space():
    cert = cert_r2t(s=1, t=1, n=2)
    assert cert.space == "rh:2,1"
    assert cert.claimed_cup == 2 * 2 - 1 + 1  # n(r+s-1) - s + 1
    assert total_factors(cert) == cert.claimed_cup


def test_r2t_larger_verifies():
    cert = cert_r2t(s=2, t=2, n=2)  # (s, r) = (2, 4)
    assert cert.claimed_cup == 2 * 5 - 1
    assert verify_certificate(cert).verdict == "Verified"


def test_r2t_hypothesis_errors():
    with pytest.raises(ValueError, match="1 <= s"):
        cert_r2t(s=0, t=1, n=2)
    with pytest.raises(ValueError, match="1 <= s"):
        cert_r2t(s=3, t=1, n=2)


def test_proj_certificates():
    for n, cup in ((2, 3), (3, 5)):
        cert = cert_proj(t=1, n=n)
        assert cert.space == "rp:2"
        assert cert.claimed_cup == cup
        report = verify_certificate(cert)
        assert report.verdict == "Verified"
        assert report.verified_tc_lower == n * 2


def test_proj_point():
    cert = cert_proj(t=0, n=2)
    assert cert.claimed_cup == 1
    assert verify_certificate(cert).verdict == "Verified"


def test_cat_topclass():
    cert = cert_cat_topclass(RealMilnor(4, 3), 2)
    assert cert.cat_witness
    assert cert.claimed_cup == 2 * 6
    report = verify_certificate(cert)
    assert report.verdict == "Verified"
    assert not report.zero_divisors_required
    assert not any(c.is_zero_divisor for c in report.per_factor)


def test_cat_topclass_from_string():
    cert = cert_cat_topclass("ch:3,2", 1)
    assert cert.claimed_cup == 4
    assert verify_certificate(cert).verdict == "Verified"


def test_cat_topclass_any_space():
    cert = cert_cat_topclass("prod:rp3,rp2", 2)
    assert cert.factors == (("x.1.1", 3), ("x.2.1", 2), ("x.1.2", 3), ("x.2.2", 2))
    for space, n, cup in (("rp:5", 2, 10), ("cp:2", 3, 6), ("rp:0", 2, 0)):
        cert = cert_cat_topclass(space, n)
        assert cert.cat_witness and cert.claimed_cup == cup
        assert verify_certificate(cert).verdict == "Verified"


def test_generation_is_deterministic():
    assert cert_case1(1, 2, 3) == cert_case1(1, 2, 3)
    assert cert_proj(2, 4) == cert_proj(2, 4)


def test_case2_verifies_each_combination_once(monkeypatch):
    # the wide pool contains the narrow one; the wide pass must skip the
    # combinations the narrow pass has already checked and rejected.  The
    # block factors are multiplied once per search, and each bridge is
    # evaluated, checked and squared once, however many combinations use it
    multiplied, evaluated = [], []
    factor_product, checked_factor = certgen._factor_product, certgen._checked_factor

    def product_spy(P, n, factors):
        multiplied.append(tuple(factors))
        return factor_product(P, n, factors)

    def checked_spy(P, n, text):
        evaluated.append(text)
        return checked_factor(P, n, text)

    monkeypatch.setattr(certgen, "_factor_product", product_spy)
    monkeypatch.setattr(certgen, "_checked_factor", checked_spy)
    result = cert_case2(2, 3, 4)
    assert isinstance(result, SearchFailure)
    assert result.reason == "no bridging classes gave a nonzero product"
    combos = [combo for combo, _ in result.log]
    assert len(combos) == len(set(combos)) == 12
    assert {verdict for _, verdict in result.log} == {"ProductVanishes"}
    (base,) = multiplied  # the base alone goes through _factor_product
    assert len(base) == 4 and all(mult > 2 for _, mult in base)
    assert sorted(evaluated) == sorted({expr for combo in combos for expr in combo})

    multiplied.clear()
    evaluated.clear()
    result = cert_case2(2, 3, 6)  # k - 1 = 2: bridges shared by many combinations
    assert len(result.log) == 465
    assert len(multiplied) == 1
    assert sorted(evaluated) == sorted({expr for combo, _ in result.log for expr in combo})

    multiplied.clear()
    evaluated.clear()
    cert = cert_case2(1, 1, 2)  # k = 1: no bridges, one empty combination
    assert isinstance(cert, Certificate)
    # the search's verdict is the verifier's own computation, so the search
    # returns the certificate without verifying it again; tc_bounds verifies
    # it once, like every certificate it is offered
    assert multiplied == [cert.factors]
    assert evaluated == []
    assert verify_certificate(cert).verdict == "Verified"


def _case2_search_by_combination(p1, p2, n):
    """The search as it ran before prefix sharing: every combination
    evaluates, checks and squares its own bridges and multiplies them onto
    the base product, in the order given."""
    s, r, k = 2**p1, 2**p2 + 1, n // 2
    base = certgen._blocks(
        n, block=(("a", 2 * s - 1), ("b", 2 * r - 3)), tail=(("a", s), ("b", r - 1))
    )
    narrow = [expr for expr, _ in certgen._blocks(n, bridges=(("a", 0, 2), ("b", 0, 2)))]
    wide = [
        certgen._pair(g, i, j) for g in "ab" for i in range(1, n + 1) for j in range(i + 1, n + 1)
    ]
    P = cohomology_of(RealMilnor(r, s))
    base_product = unit(tensor_power(P, n))
    zero_divisors = True
    for expr, e in base:
        el = evaluate_text(expr, P, n)
        zero_divisors &= is_zero_divisor(el)
        base_product = multiply(base_product, power(el, e))
    log = []
    for pool in (narrow, wide):
        for combo in combinations_with_replacement(sorted(set(pool)), k - 1):
            if pool is wide and set(narrow).issuperset(combo):
                continue
            product, ok = base_product, zero_divisors
            for expr in combo:
                el = evaluate_text(expr, P, n)
                ok &= is_zero_divisor(el)
                product = multiply(product, power(el, 2))
            if not ok:
                verdict = "FactorNotZeroDivisor"
            else:
                verdict = "ProductVanishes" if product.is_zero else "Verified"
            log.append((combo, verdict))
            if verdict == "Verified":
                claimed = n * (s + r - 1) - 2
                factors = base + tuple((expr, 2) for expr in combo)
                return Certificate(f"rh:{r},{s}", n, factors, claimed, claimed + 1)
    return SearchFailure("no bridging classes gave a nonzero product", tuple(log))


CASE2_BOX = [
    (p1, p2, n)
    for n in (2, 3, 4, 5)
    for p1 in (0, 1, 2)
    for p2 in (0, 1, 2, 3)
    if 2**p1 <= 2**p2 + 1
] + [(2, 3, 6)]


@pytest.mark.parametrize("p1,p2,n", CASE2_BOX)
def test_case2_search_matches_the_search_by_combination(p1, p2, n):
    # certificates and whole failure logs, verdict by verdict
    assert cert_case2(p1, p2, n) == _case2_search_by_combination(p1, p2, n)


@pytest.mark.parametrize("p1,p2,n,most", [(2, 3, 6, 200), (2, 3, 4, 64)])
def test_case2_search_multiplies_each_prefix_once(monkeypatch, p1, p2, n, most):
    # a count, not a time: the search by combination made 1,437 calls at
    # (2, 3, 6), one per combination and bridge onto the 216-term base
    # product, and 64 at (2, 3, 4)
    calls = []
    mul_supports = TensorPower.mul_supports

    def spy(self, xs, ys):
        calls.append(len(xs) * len(ys))
        return mul_supports(self, xs, ys)

    monkeypatch.setattr(TensorPower, "mul_supports", spy)
    assert isinstance(cert_case2(p1, p2, n), SearchFailure)
    assert len(calls) <= most
