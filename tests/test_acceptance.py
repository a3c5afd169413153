"""Acceptance gate: one test per criterion, each timed and reported as a
single PASS/FAIL line.

Criterion 4 checks the oracle against ground truths that the test proves
without it.  For the projective-plane ring at arity 3 the exact cup-length
is 6.  The witness (x1+x2)^3 (x2+x3)^3 = x1^2 x2^2 x3^2 is a nonzero product
of six zero divisors, so cup >= 6; the top degree of the tensor cube is
n*dim = 3*2 = 6, so any seven positive-degree classes multiply to zero and
cup <= 6.  The value 5 = n*2^t - 1 is the claimed cup of cert_proj(t=1,
n=3), a lower-bound certificate that criterion 5 checks, not the exact
cup-length.

Criterion 7 recomputes the Klein-bottle adjudication and requires it to
equal the committed artifact byte for byte; it never rewrites that file.
"""

import json
import math
import pathlib
import time
from contextlib import contextmanager

import pytest

from milnortc import (
    CIRCLE,
    Z2,
    Certificate,
    RealMilnor,
    RealProj,
    cat_bounds,
    cert_case1,
    cert_proj,
    cert_r2t,
    cohomology_of,
    cup_exact,
    cup_witness,
    eqtc_bounds,
    evaluate_text,
    parse_space,
    tc_bounds,
    verify_certificate,
)
from milnortc.errors import NoFreeActionError
from milnortc.exprs import diagonal_eval, inject, parse_factor_expr, tensor_power, to_string
from milnortc.f2algebra import (
    Element,
    generator,
    multiply,
    power,
    unit,
    zero,
)
from reference import normal_form, poincare_series, ring

ARTIFACTS = pathlib.Path(__file__).parent / "artifacts"


@contextmanager
def timed(limit_s: float, label: str):
    state = {}
    t0 = time.perf_counter()
    yield state
    state["elapsed"] = elapsed = time.perf_counter() - t0
    assert elapsed < limit_s, f"{label}: {elapsed:.2f}s exceeded {limit_s}s"


def report(num: int, ok: bool, detail: str):
    line = f"[criterion {num}] {'PASS' if ok else 'FAIL'} - {detail}"
    print(line)
    assert ok, line


def test_criterion_1_ring_presentations():
    with timed(1.0, "criterion 1"):
        for r in range(1, 9):
            for s in range(r + 1):
                P = ring(f"rh:{r},{s}")
                assert len(P.basis) == (s + 1) * r
                series = poincare_series(P)
                assert series == series[::-1]
                rel = power(generator(P, "b"), r)
                for k in range(1, s + 1):
                    rel = rel + multiply(
                        power(generator(P, "a"), k),
                        power(generator(P, "b"), r - k),
                    )
                assert rel.is_zero
                assert power(generator(P, "a"), s + 1).is_zero
                for exps in P.basis:
                    assert normal_form(P, exps).support == frozenset({exps})
    report(1, True, "all (s,r) with 0<=s<=r, 1<=r<=8: basis size, palindrome, relations")


def test_criterion_2_lucas():
    # the engine's own expansion of (x1+x2)^n in the tensor square of
    # H*(RP^64), where no term is truncated, has the term x1^k x2^(n-k)
    # exactly when C(n, k) is odd, which by Lucas is when the bits of k lie
    # in those of n; so a row n = 2^i - 1 has every term
    with timed(1.0, "criterion 2"):
        z = evaluate_text("x1+x2", ring("rp:64"), 2)
        for n in range(65):
            odd = [k for k in range(n + 1) if math.comb(n, k) % 2]
            assert odd == [k for k in range(n + 1) if k & n == k]
            assert power(z, n).support == {((k,), (n - k,)) for k in odd}, n
            if n & (n + 1) == 0:
                assert len(odd) == n + 1
    report(2, True, "Mersenne rows odd; (x1+x2)^n agrees with Pascal mod 2 up to n=64")


def test_criterion_3_cat_exactness():
    with timed(5.0, "criterion 3"):
        for r, s in ((2, 1), (4, 3), (4, 2)):
            for n in (1, 2, 3):
                rep = cat_bounds(RealMilnor(r, s), n)
                want = n * (r + s - 1) + 1
                assert rep.lower == rep.upper == want
                assert rep.verified_lower == want
    report(3, True, "cat((RH_{r,s})^n) exact for (2,1),(4,3),(4,2), n=1..3")


def test_criterion_4_oracle_ground_truths():
    with timed(10.0, "criterion 4"):
        P1 = cohomology_of(parse_space("rp:1"))
        got_line = [cup_exact(P1, n) for n in range(2, 6)]
        P2 = cohomology_of(parse_space("rp:2"))
        got_n2 = cup_exact(P2, 2)
        witness = Certificate(RealProj(2), 3, (("(x1+x2)", 3), ("(x2+x3)", 3)), 6)
        rep = verify_certificate(witness)
        got_n3 = cup_exact(P2, 3)
    assert got_line == [1, 2, 3, 4]
    assert got_n2 == 3
    # cup(rp:2, 3) = 6 without the oracle: the witness gives >= 6, and the
    # top degree of the tensor cube, 3 * dim, caps it at 6.
    assert all(c.is_zero_divisor for c in rep.per_factor)
    assert rep.verdict == "Verified" and rep.verified_cup == 6
    ceiling = 3 * P2.top_degree
    assert ceiling == 6
    ok = got_n3 == 6
    report(
        4,
        ok,
        f"rp:1 cup = n-1; rp:2 cup(2) = 3; rp:2 cup(3) = 6 by witness "
        f"(x1+x2)^3(x2+x3)^3 != 0 and ceiling 3*dim = {ceiling}, oracle {got_n3}",
    )


def test_criterion_5_projective_certificates():
    with timed(5.0, "criterion 5"):
        results = {}
        for n in (2, 3):
            rep = verify_certificate(cert_proj(t=1, n=n))
            results[n] = (rep.verdict, rep.verified_cup, rep.verified_tc_lower)
        assert results[2] == ("Verified", 3, 4)
        assert results[3] == ("Verified", 5, 6)
        assert results[2][2] == 2 * 2 and results[3][2] == 3 * 2
    report(5, True, "cert_proj(t=1): cup 3 and 5; TC lower bounds 4 and 6 = n*2^t")


def test_criterion_6_case1_adjudication():
    with timed(60.0, "criterion 6"):
        cert = cert_case1(t1=1, t2=2, n=2)
        assert sum(m for _, m in cert.factors) == 10
        rep = verify_certificate(cert)
        assert all(c.is_zero_divisor for c in rep.per_factor)
        P = cohomology_of(parse_space("rh:4,3"))
        assert len(P.basis) ** 2 == 256
        oracle = cup_exact(P, 2)
        interval = None
        if rep.verdict == "Verified":
            bounds = tc_bounds(RealMilnor(4, 3), 2)
            interval = (bounds.lower, bounds.upper)
            assert interval == (11, 13)
        assert rep.verdict == "Verified"
    report(
        6,
        True,
        f"RH_4,3 n=2: verdict {rep.verdict}, oracle cup {oracle}, interval {interval}",
    )


def test_criterion_7_klein_bottle_adjudication(tmp_path):
    with timed(30.0, "criterion 7"):
        cert = cert_r2t(s=1, t=1, n=2)
        rep = verify_certificate(cert)
        assert rep.verdict in ("Verified", "ProductVanishes", "FactorNotZeroDivisor")
        P = cohomology_of(parse_space("rh:2,1"))
        oracle = {n: cup_exact(P, n) for n in (2, 3, 4)}
        adjudication = {
            "space": "rh:2,1",
            "certificate": {
                "factors": [list(f) for f in cert.factors],
                "claimedCup": cert.claimed_cup,
                "verdict": rep.verdict,
            },
            "oracle": {str(n): {"cup": v, "implied": 2 * n} for n, v in oracle.items()},
            "status": "machine-verified",
        }
        path = tmp_path / "klein_adjudication.json"
        path.write_text(json.dumps(adjudication, indent=2) + "\n", encoding="utf-8")
        committed = ARTIFACTS / "klein_adjudication.json"
        assert path.read_bytes() == committed.read_bytes()
    report(
        7,
        True,
        f"verdict {rep.verdict}; oracle cup {oracle} vs implied 2n; matches "
        f"{committed.name}",
    )


def test_criterion_8_equivariant_reports():
    with timed(1.0, "criterion 8"):
        for n in (2, 3):
            rep = eqtc_bounds(RealMilnor(5, 3), Z2, n)
            assert (rep.lower, rep.upper) == (n * 6 - 1, n * 7 + 1)
            circ = eqtc_bounds(RealMilnor(5, 3), CIRCLE, n)
            assert circ.upper == n * 7
        with pytest.raises(NoFreeActionError):
            eqtc_bounds(RealMilnor(4, 3), CIRCLE, 2)
    report(8, True, "RH_5,3 intervals [6n-1, 7n+1], circle upper 7n, (4,3) refused")


def test_criterion_9_property_suite():
    import random

    rng = random.Random(20240816)
    cases = 0

    def rand_element(P, max_terms=3):
        picks = rng.sample(P.basis, min(len(P.basis), rng.randint(0, max_terms)))
        el = zero(P)
        for exps in picks:
            el = el + Element(P, frozenset({exps}))
        return el

    def rand_tensor(P, n):
        u = unit(tensor_power(P, n))
        for i in range(1, n + 1):
            u = multiply(u, inject(P, n, i, rand_element(P)))
        return u

    with timed(60.0, "criterion 9"):
        params = [(s, r) for r in range(1, 6) for s in range(min(r, 4) + 1)]
        # diagonal-inject identity and multiplicativity
        for _ in range(120):
            s, r = rng.choice(params)
            n = rng.randint(2, 3)
            P = ring(f"rh:{r},{s}")
            if not P.basis:
                continue
            x = rand_element(P)
            i = rng.randint(1, n)
            assert diagonal_eval(inject(P, n, i, x)) == x
            u, v = rand_tensor(P, n), rand_tensor(P, n)
            assert diagonal_eval(multiply(u, v)) == multiply(
                diagonal_eval(u), diagonal_eval(v)
            )
            cases += 2
        # parser round-trip on randomly assembled expressions
        for _ in range(80):
            n = rng.randint(2, 3)
            atoms = [f"{g}{i}" for g in "ab" for i in range(1, n + 1)]
            text = "+".join(rng.sample(atoms, rng.randint(1, 3)))
            if rng.random() < 0.5:
                text = f"({text})^{rng.randint(0, 4)}"
            if rng.random() < 0.5:
                text = f"{text}*{rng.choice(atoms)}"
            node = parse_factor_expr(text, n)
            assert parse_factor_expr(to_string(node), n) == node
            cases += 1
        # oracle soundness: the witness is a nonzero product of `value`
        # zero divisors
        small = [(1, 2), (2, 2), (1, 3), (2, 3), (3, 3)]
        for _ in range(12):
            s, r = rng.choice(small)
            n = rng.randint(2, 3)
            P = ring(f"rh:{r},{s}")
            value = cup_exact(P, n)
            cert = Certificate(RealMilnor(r, s), n, cup_witness(P, n), value)
            checked = verify_certificate(cert)
            assert checked.verified_cup == value
            assert all(c.is_zero_divisor for c in checked.per_factor)
            cases += 2
        # spot-check the ceiling of the parameter box
        P = ring("rh:5,4")
        assert cup_exact(P, 2) == 14
        cases += 1
    assert cases >= 200
    report(9, True, f"{cases} randomized property cases, all held")
