import pytest

from milnortc import certgen
from milnortc.certgen import (
    cert_case1,
    cert_case2,
    cert_cat_topclass,
    cert_proj,
    cert_r2t,
)
from milnortc.cuplength import Certificate, SearchFailure, verify_certificate
from milnortc.spaces import RealMilnor


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
    # block factors are multiplied once per search and each combination of
    # bridges onto their product
    multiplied = []
    factor_product = certgen._factor_product

    def product_spy(P, n, factors, start):
        multiplied.append(tuple(factors))
        return factor_product(P, n, factors, start)

    monkeypatch.setattr(certgen, "_factor_product", product_spy)
    result = cert_case2(2, 3, 4)
    assert isinstance(result, SearchFailure)
    assert result.reason == "no bridging classes gave a nonzero product"
    combos = [combo for combo, _ in result.log]
    assert len(combos) == len(set(combos)) == 12
    assert {verdict for _, verdict in result.log} == {"ProductVanishes"}
    base, *bridges = multiplied
    assert len(base) == 4 and base not in bridges
    assert bridges == [tuple((expr, 2) for expr in combo) for combo in combos]

    multiplied.clear()
    cert = cert_case2(1, 1, 2)  # k = 1: no bridges, one empty combination
    assert isinstance(cert, Certificate)
    # the search's verdict is the verifier's own computation, so the search
    # returns the certificate without verifying it again; tc_bounds verifies
    # it once, like every certificate it is offered
    assert multiplied == [cert.factors, ()]
    assert verify_certificate(cert).verdict == "Verified"
