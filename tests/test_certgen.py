import re
from itertools import combinations_with_replacement

import pytest

from milnortc import bounds, certgen, cuplength
from milnortc.bounds import tc_bounds
from milnortc.certgen import (
    cert_case1,
    cert_case2,
    cert_cat_topclass,
    cert_proj,
    cert_r2t,
    certificates_for,
)
from milnortc.cuplength import verify_certificate
from milnortc.exprs import (
    Certificate,
    SearchFailure,
    TensorPower,
    evaluate_text,
    is_zero_divisor,
    multiply,
    power,
    sum_text,
    tensor_power,
    unit,
)
from milnortc.spaces import RealMilnor, RealProj, cohomology_of, parse_space


def total_factors(cert):
    return sum(mult for _, mult in cert.factors)


def test_case1_rh43_n2():
    cert = cert_case1(t1=1, t2=2, n=2)
    assert cert.space == RealMilnor(4, 3)
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
    assert cert.space == RealMilnor(3, 1)
    assert verify_certificate(cert).verdict == "Verified"


def test_r2t_counts_and_space():
    cert = cert_r2t(s=1, t=1, n=2)
    assert cert.space == RealMilnor(2, 1)
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


@pytest.mark.parametrize(
    "build, message",
    [
        (lambda: cert_case2(-1, 1, 2), "p1 and p2 must be non-negative"),
        (lambda: cert_case2(1, -1, 2), "p1 and p2 must be non-negative"),
        (lambda: cert_case2(1, 1, 1), "arity must be >= 2"),
        (lambda: cert_case2(2, 0, 2), "hypothesis violated: s = 4 > r = 2"),
        (lambda: cert_r2t(1, -1, 2), "t must be non-negative"),
        (lambda: cert_r2t(1, 1, 1), "arity must be >= 2"),
        (lambda: cert_proj(-1, 2), "t must be non-negative"),
        (lambda: cert_proj(1, 1), "arity must be >= 2"),
        (lambda: cert_cat_topclass(RealProj(2), 0), "arity must be >= 1"),
    ],
)
def test_generators_refuse_bad_inputs(build, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        build()


def test_proj_certificates():
    for n, cup in ((2, 3), (3, 5)):
        cert = cert_proj(t=1, n=n)
        assert cert.space == RealProj(2)
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
    assert not any(c.is_zero_divisor for c in report.per_factor)
    # the flag alone lifts the zero-divisor requirement
    assert verify_certificate(cert.replace(cat_witness=False)).verdict == "FactorNotZeroDivisor"


def test_cat_topclass_from_string():
    # the text of a space is parsed where it enters, by the CLI and the
    # certificate-file reader; the builder takes only its descriptor
    with pytest.raises(ValueError, match=r"^unknown space descriptor: 'ch:3,2'$"):
        cert_cat_topclass("ch:3,2", 1)
    cert = cert_cat_topclass(parse_space("ch:3,2"), 1)
    assert cert.claimed_cup == 4
    assert verify_certificate(cert).verdict == "Verified"


def test_cat_topclass_any_space():
    cert = cert_cat_topclass(parse_space("prod:rp3,rp2"), 2)
    assert cert.factors == (("x.1.1", 3), ("x.2.1", 2), ("x.1.2", 3), ("x.2.2", 2))
    for space, n, cup in (("rp:5", 2, 10), ("cp:2", 3, 6), ("rp:0", 2, 0)):
        cert = cert_cat_topclass(parse_space(space), n)
        assert cert.cat_witness and cert.claimed_cup == cup
        assert verify_certificate(cert).verdict == "Verified"


def test_generation_is_deterministic():
    assert cert_case1(1, 2, 3) == cert_case1(1, 2, 3)
    assert cert_proj(2, 4) == cert_proj(2, 4)


def _verifier_spy(monkeypatch, module):
    """Record every certificate module passes to verify_certificate, with
    its verdict; the verifier of every other module raises."""
    seen = []

    def spy(cert):
        report = verify_certificate(cert)
        seen.append((cert, report.verdict))
        return report

    def no_verification(cert):
        raise AssertionError(f"verified outside {module.__name__}")

    for mod in (cuplength, certgen, bounds):
        monkeypatch.setattr(mod, "verify_certificate", spy if mod is module else no_verification)
    return seen


@pytest.mark.parametrize("space,n,p1,p2", [("rh:3,2", 3, 1, 1), ("rh:9,4", 4, 2, 3)])
def test_certificates_for_offers_case2_unchecked(monkeypatch, space, n, p1, p2):
    # rh:9,4 at n = 4 is the case-2 certificate whose product vanishes
    seen = _verifier_spy(monkeypatch, bounds)
    rows = dict(certificates_for(parse_space(space), n))
    assert rows["certificate-searched-bridges"] == certgen._case2(p1, p2, n)
    assert seen == []


@pytest.mark.parametrize("space,n", [("rh:3,2", 3), ("rh:9,4", 4), ("ch:9,4", 4)])
def test_tc_bounds_verifies_each_offered_certificate_once(monkeypatch, space, n):
    space = parse_space(space)
    rows = certificates_for(space, n)
    seen = _verifier_spy(monkeypatch, bounds)
    report = tc_bounds(space, n)
    assert [cert for cert, _ in seen] == [cert for _, cert in rows] + [
        cert_cat_topclass(space, n - 1)
    ]
    # the case-2 certificate gives a row exactly when it verifies
    case2 = dict(rows)["certificate-searched-bridges"]
    verdicts = [verdict for cert, verdict in seen if cert == case2]
    rules = {t.rule for t in report.trace}
    assert ("certificate-searched-bridges" in rules) == (verdicts == ["Verified"])


@pytest.mark.parametrize("p1,p2,n", [(1, 1, 2), (1, 0, 5), (0, 0, 6), (2, 3, 4), (2, 3, 8)])
def test_cert_case2_takes_the_verifiers_verdict(monkeypatch, p1, p2, n):
    # k - 1 = 0, 1 and 2 bridges that verify, and two products that vanish
    seen = _verifier_spy(monkeypatch, certgen)
    got = cert_case2(p1, p2, n)
    [(cert, verdict)] = seen
    assert cert == certgen._case2(p1, p2, n)
    if verdict == "Verified":
        assert got == cert
    else:
        assert got == SearchFailure("no bridging classes gave a nonzero product")


def _case2_search_by_combination(p1, p2, n):
    """The search over every combination in lexicographic order, with no
    pruning: each combination's product is that of its prefix one bridge
    shorter times the square of its last bridge.  Products are kept per
    prefix, and each bridge is evaluated, checked and squared once."""
    s, r, k = 2**p1, 2**p2 + 1, n // 2
    base = certgen._blocks(
        n, block=(("a", 2 * s - 1), ("b", 2 * r - 3)), tail=(("a", s), ("b", r - 1))
    )
    narrow = [expr for expr, _ in certgen._blocks(n, bridges=(("a", 0, 2), ("b", 0, 2)))]
    wide = [
        sum_text(g, i, j) for g in "ab" for i in range(1, n + 1) for j in range(i + 1, n + 1)
    ]
    P = cohomology_of(RealMilnor(r, s))
    products = {(): unit(tensor_power(P, n))}  # combination prefix -> product
    zero_divisors = True
    for expr, e in base:
        el = evaluate_text(expr, P, n)
        zero_divisors &= is_zero_divisor(el)
        products[()] = multiply(products[()], power(el, e))
    squares = {}
    for expr in wide:
        el = evaluate_text(expr, P, n)
        squares[expr] = (power(el, 2), is_zero_divisor(el))

    def product(combo):
        if combo not in products:
            products[combo] = multiply(product(combo[:-1]), squares[combo[-1]][0])
        return products[combo]

    for pool in (narrow, wide):
        for combo in combinations_with_replacement(sorted(set(pool)), k - 1):
            if pool is wide and set(narrow).issuperset(combo):
                continue
            ok = zero_divisors and all(squares[expr][1] for expr in combo)
            if ok and not product(combo).is_zero:
                claimed = n * (s + r - 1) - 2
                factors = base + tuple((expr, 2) for expr in combo)
                return Certificate(RealMilnor(r, s), n, factors, claimed)
    return SearchFailure("no bridging classes gave a nonzero product")


CASE2_BOX = [
    (p1, p2, n)
    for n in (2, 3, 4, 5)
    for p1 in (0, 1, 2)
    for p2 in (0, 1, 2, 3)
    if 2**p1 <= 2**p2 + 1
] + [(2, 3, 6), (0, 0, 6), (1, 0, 8), (2, 3, 8), (0, 0, 12), (1, 0, 12), (3, 3, 4), (3, 3, 5)]


@pytest.mark.parametrize("p1,p2,n", CASE2_BOX)
def test_case2_search_matches_the_search_by_combination(p1, p2, n):
    # the same certificate, or a failure where the reference fails; the box
    # holds successes with two bridges, (0, 0, 6), three, (1, 0, 8), and
    # five, (0, 0, 12) and (1, 0, 12), where (b10+b12) sorts before (b2+b4)
    assert cert_case2(p1, p2, n) == _case2_search_by_combination(p1, p2, n)


@pytest.mark.parametrize("p1,p2,n,most", [(2, 3, 6, 99), (2, 3, 4, 64), (2, 3, 8, 165)])
def test_case2_search_multiplies_each_prefix_once(monkeypatch, p1, p2, n, most):
    # a count, not a time: the search by combination made 1,437 calls at
    # (2, 3, 6), one per combination and bridge onto the 216-term base
    # product, and 64 at (2, 3, 4); the search that kept a stack of prefix
    # products made 99 at (2, 3, 6) and 165 at (2, 3, 8); the closed form,
    # one product that stops at its first zero, makes 25 at each
    calls = []
    mul_supports = TensorPower.mul_supports

    def spy(self, xs, ys):
        calls.append(len(xs) * len(ys))
        return mul_supports(self, xs, ys)

    monkeypatch.setattr(TensorPower, "mul_supports", spy)
    assert isinstance(cert_case2(p1, p2, n), SearchFailure)
    assert len(calls) <= most
