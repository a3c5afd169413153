import json
import os
import subprocess
import sys
from itertools import combinations_with_replacement
from pathlib import Path

import pytest

from milnortc.bounds import tc_bounds
from milnortc.certgen import cert_r2t, certificates_for
from milnortc.cuplength import _prune, cup_exact, cup_witness, verify_certificate
from milnortc.errors import ResourceLimitError
from milnortc.exprs import (
    Certificate,
    FactorCheck,
    TensorPower,
    evaluate,
    evaluate_text,
    is_zero_divisor,
    multiply,
    parse_factor_expr,
    power,
    tensor_power,
    unit,
)
from milnortc.spaces import (
    ComplexMilnor,
    ComplexProj,
    ProductSpace,
    RealMilnor,
    RealProj,
    cohomology_of,
    parse_space,
)
from reference import cup_by_kernel_basis, kernel_powers, rank, ring, slice_dimensions


def test_zero_divisor_predicate():
    P = ring("rp:2")
    assert is_zero_divisor(evaluate_text("x1+x2", P, 2))
    assert not is_zero_divisor(evaluate_text("x1", P, 2))
    assert is_zero_divisor(evaluate_text("x1^2*x2", P, 2))


# -- certificate container invariants ----------------------------------------


def test_certificate_rejects_bad_claims():
    # the claimed TC lower bound is claimed cup + 1 by construction
    assert Certificate(parse_space("rp:2"), 2, (("(x1+x2)", 3),), 3).claimed_tc_lower == 4
    with pytest.raises(ValueError, match="factor count"):
        Certificate(parse_space("rp:2"), 2, (("(x1+x2)", 2),), 3)
    with pytest.raises(ValueError, match="positive"):
        Certificate(parse_space("rp:2"), 2, (("(x1+x2)", 0),), 0)


def test_verify_projective_plane():
    cert = Certificate(parse_space("rp:2"), 2, (("(x1+x2)", 3),), 3)
    report = verify_certificate(cert)
    assert report.verdict == "Verified"
    assert report.verified_cup == 3
    assert report.verified_tc_lower == 4
    assert report.product_nonzero


def test_verify_rejects_non_zero_divisor():
    cert = Certificate(parse_space("rp:2"), 2, (("x1", 1), ("(x1+x2)", 2)), 3)
    report = verify_certificate(cert)
    assert report.verdict == "FactorNotZeroDivisor"
    assert report.verified_cup is None
    flags = {c.expression: c.is_zero_divisor for c in report.per_factor}
    assert flags == {"x1": False, "(x1+x2)": True}


def test_verify_vanishing_product():
    # Klein-bottle ring: (a1+a2)(b1+b2)^3 reduces to zero
    cert = Certificate(parse_space("rh:2,1"), 2, (("(a1+a2)", 1), ("(b1+b2)", 3)), 4)
    report = verify_certificate(cert)
    assert report.verdict == "ProductVanishes"
    assert all(c.is_zero_divisor for c in report.per_factor)


def test_cat_witness_skips_zero_divisor_requirement():
    cert = Certificate(parse_space("rp:2"), 2, (("x1", 2), ("x2", 2)), 4, cat_witness=True)
    report = verify_certificate(cert)
    assert report.verdict == "Verified"
    assert report.verified_cup == 4
    assert not any(c.is_zero_divisor for c in report.per_factor)
    assert verify_certificate(cert.replace(cat_witness=False)).verdict == "FactorNotZeroDivisor"


def test_verdict_never_consults_claims():
    # same factors, inflated-but-consistent claim: verdict is unchanged
    good = Certificate(parse_space("rp:2"), 2, (("(x1+x2)", 3),), 3)
    assert verify_certificate(good).verified_cup == 3


def certificate_order_report(cert, P):
    """The verifier's fields computed by multiplying the factors' powers in
    the order the certificate lists them, the blocks before the bridges."""
    n = cert.n
    checks, product = [], unit(tensor_power(P, n))
    for text, mult in cert.factors:
        el = evaluate(parse_factor_expr(text, n, P), P, n)
        checks.append(FactorCheck(text, is_zero_divisor(el), el.degree))
        if not product.is_zero:
            product = multiply(product, power(el, mult))
    if not (cert.cat_witness or all(c.is_zero_divisor for c in checks)):
        verdict = "FactorNotZeroDivisor"
    else:
        verdict = "Verified" if not product.is_zero else "ProductVanishes"
    verified = sum(m for _, m in cert.factors) if verdict == "Verified" else None
    return verdict, not product.is_zero, verified, tuple(checks)


def family_certificates():
    for space in ("rh:4,3", "rh:8,5", "rh:16,9", "ch:3,2", "rp:8"):
        for n in range(2, 7):
            for _, cert in certificates_for(parse_space(space), n):
                yield cert
    yield cert_r2t(5, 3, 8)


def test_overlap_order_gives_the_certificate_order_report():
    # the ring is commutative, so the order of the product changes no field
    # of any report
    certs = list(family_certificates())
    verdicts = set()
    for cert in certs:
        P = cohomology_of(cert.space)
        report = verify_certificate(cert)
        got = (
            report.verdict,
            report.product_nonzero,
            report.verified_cup,
            report.per_factor,
        )
        assert got == certificate_order_report(cert, P), (cert.space, cert.n)
        verdicts.add(report.verdict)
    assert len(certs) >= 30
    assert verdicts == {"Verified", "ProductVanishes"}


@pytest.mark.parametrize(
    "run, expected",
    [
        (lambda: verify_certificate(cert_r2t(5, 3, 8)).verdict, "ProductVanishes"),
        (lambda: tc_bounds(parse_space("rh:16,9"), 8).verified_lower, 169),
    ],
    ids=["verify-r2t-5.3-n8", "bounds-rh16.9-n8"],
)
def test_verification_never_forms_the_product_of_disjoint_blocks(
    run, expected, monkeypatch
):
    # counts, not times: in certificate order the blocks, on disjoint
    # slots, multiply to their whole tensor product before a bridge can
    # cancel it: 65,536 terms for cert_r2t(5, 3, 8) and 1,048,576 for the
    # certificates of rh:16,9 at n = 8
    largest = [0]
    mul_supports = TensorPower.mul_supports

    def spy(self, xs, ys):
        out = mul_supports(self, xs, ys)
        largest[0] = max(largest[0], len(out))
        return out

    monkeypatch.setattr(TensorPower, "mul_supports", spy)
    assert run() == expected
    assert largest[0] <= 256


def test_verification_never_multiplies_by_the_unit(monkeypatch):
    # counts, not times: a power starts from a power of its base and a
    # certificate's product from its first factor's power.  Starting both
    # at the unit made 27 of the 174 products here have a unit operand
    operands = []
    mul_supports = TensorPower.mul_supports

    def spy(self, xs, ys):
        operands.append((self.one, xs, ys))
        return mul_supports(self, xs, ys)

    monkeypatch.setattr(TensorPower, "mul_supports", spy)
    assert tc_bounds(parse_space("rh:16,9"), 8).verified_lower == 169
    assert operands
    unit_operands = [
        (xs, ys) for one, xs, ys in operands if {one} in (set(xs), set(ys))
    ]
    assert not unit_operands


def test_power_and_the_empty_product_keep_their_values():
    P = ring("rp:2")
    x = evaluate_text("x1+x2", P, 2)
    assert power(x, 0) == unit(x.algebra)
    for e in range(1, 7):
        expected = unit(x.algebra)
        for _ in range(e):
            expected = multiply(expected, x)
        assert power(x, e) == expected, e
    cert = Certificate(parse_space("rp:2"), 2, (), 0)
    report = verify_certificate(cert)
    assert report.verdict == "Verified" and report.product_nonzero


# -- exact oracle -------------------------------------------------------------


def test_oracle_projective_line():
    P = ring("rp:1")
    for n in range(2, 6):
        assert cup_exact(P, n) == n - 1


def test_oracle_projective_plane():
    P = ring("rp:2")
    assert cup_exact(P, 2) == 3
    # witnessed by (x1+x2)^3(x2+x3)^3 = x1^2 x2^2 x3^2 at n = 3
    assert cup_exact(P, 3) == 6


def test_oracle_witness_at_rp2_n3():
    P = ring("rp:2")
    el = evaluate_text("(x1+x2)^3*(x2+x3)^3", P, 3)
    assert not el.is_zero


def test_oracle_klein_bottle():
    P = ring("rh:2,1")
    assert cup_exact(P, 2) == 3
    assert cup_exact(P, 3) == 6


def test_the_klein_bottle_witness_at_n_3_is_the_readmes():
    # (b1+b2)^3(b2+b3)^3 gives TC_3 >= 7 = 3 * dim + 1
    text = "".join(
        f"{expr}^{mult}" if mult > 1 else expr for expr, mult in cup_witness(ring("rh:2,1"), 3)
    )
    assert text == "(b1+b2)^3(b2+b3)^3"


@pytest.mark.parametrize("space, twin", [("ch:2,1", "rh:2,1"), ("cp:3", "rp:3")])
def test_a_complex_ring_has_its_real_twins_witness(space, twin):
    # ch and cp state the generators and rules of rh and rp in degree 2, and
    # the oracle reads no degree, so it runs the same steps on both
    for n in (2, 3):
        assert cup_witness(ring(space), n) == cup_witness(ring(twin), n), n


def test_the_oracle_runs_a_ring_of_mixed_degrees():
    # a product's generators may differ in degree; cup_exact answers it from
    # its factors, and the slot chain, which reads no degree, runs its ring
    # to the same value
    import milnortc.cuplength as cuplength

    P = ring("prod:rp1,cp1")
    for n in (2, 3):
        assert cuplength._oracle(P, n)[0] == cup_exact(P, n) == 2 * (n - 1)


# every presentation kind at n = 2 and 3, where the reference is quick
ORACLE_BOX = (
    ("rh:2,1", 2), ("rh:2,1", 3), ("rh:3,2", 2),
    ("ch:2,1", 2), ("ch:2,1", 3),
    ("rp:2", 2), ("rp:2", 3), ("rp:3", 2), ("rp:3", 3),
    ("cp:2", 2), ("cp:2", 3),
    ("prod:rp1,cp1", 2), ("prod:rp1,cp1", 3), ("prod:rh2.1,cp1", 2),
)


def test_oracle_generator_modes_agree():
    for space, n in ORACLE_BOX:
        P = ring(space)
        assert cup_exact(P, n) == cup_by_kernel_basis(P, n), (space, n)


def slot_chain_box():
    """rh and ch with r <= 6 and every s, rp and cp with m <= 12, at
    n = 1..5, wherever the largest slice has at most 100 monomials: beyond
    that the kernel-basis route takes seconds per case."""
    spaces = [f"{f}:{r},{s}" for f in ("rh", "ch") for r in range(1, 7) for s in range(r + 1)]
    spaces += [f"{f}:{m}" for f in ("rp", "cp") for m in range(13)]
    return [
        (space, n)
        for space in spaces
        for n in range(1, 6)
        if max(slice_dimensions(ring(space), n)) <= 100
    ]


def test_the_slot_chain_matches_the_kernel_basis_route_on_a_box():
    cases = slot_chain_box()
    assert len(cases) == 234
    # n = 1, where K = 0, and a ring with a zero generator (a, when s = 0)
    assert {("rh:3,0", 1), ("rh:6,0", 2), ("ch:4,0", 3)} <= set(cases)
    for space, n in cases:
        P = ring(space)
        assert cup_exact(P, n) == cup_by_kernel_basis(P, n), (space, n)


def test_every_slot_chain_witness_on_the_box_verifies():
    for space, n in slot_chain_box():
        P = ring(space)
        value, factors = cup_exact(P, n), cup_witness(P, n)
        assert sum(mult for _, mult in factors) == value, (space, n)
        cert = Certificate(parse_space(space), n, factors, value)
        assert verify_certificate(cert).verdict == "Verified", (space, n)


def test_n_1_has_value_0_and_the_empty_witness():
    for space in ("rp:3", "rh:4,2", "prod:rp2,rh2.1"):
        assert (cup_exact(ring(space), 1), cup_witness(ring(space), 1)) == (0, ())


# hand-built frontier states: echelon forms over four columns, each with a
# (value, path) whose path names the state
_U = (0b0100,)
_W = (0b1000, 0b0100)  # contains _U
_X = (0b0010, 0b0001)  # does not contain _U


def test_prune_keeps_a_state_that_no_state_of_higher_value_contains():
    # _X is larger and worth more, but does not contain _U: without the
    # containment test _U would go
    states = {_U: (3, "U"), _X: (5, "X")}
    assert _prune(states) == states


def test_prune_keeps_a_contained_state_of_higher_value():
    # _W contains _U but is worth less: without the value comparison _U
    # would go
    states = {_W: (2, "W"), _U: (3, "U")}
    assert _prune(states) == states


def test_prune_drops_a_contained_state_of_no_higher_value():
    for value in (1, 2):
        states = {_U: (value, "U"), _X: (9, "X"), _W: (2, "W")}
        assert list(_prune(states).items()) == [(_X, (9, "X")), (_W, (2, "W"))]


_WITNESSES = """
from reference import ring
from milnortc.cuplength import cup_witness
for space in ("rh:2,1", "rh:4,3", "rp:5", "ch:3,2", "prod:rp2,rh2.1"):
    for n in (2, 3, 4):
        print(space, n, cup_witness(ring(space), n))
"""


def test_witnesses_do_not_depend_on_the_hash_seed():
    # string hashes change with the seed; no order or tie of the frontier
    # may follow them
    runs = []
    for seed in ("0", "12345"):
        env = dict(os.environ, PYTHONHASHSEED=seed)
        env["PYTHONPATH"] = os.pathsep.join([str(Path(__file__).parent), *sys.path])
        proc = subprocess.run([sys.executable, "-c", _WITNESSES], env=env,
                              capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        runs.append(proc.stdout)
    assert runs[0] == runs[1]
    assert runs[0].count("\n") == 15


def _fresh_oracle(monkeypatch):
    """Empty the oracle's value cache and the interned tensor powers, so
    that a run starts from nothing."""
    import milnortc.cuplength as cuplength
    import milnortc.exprs as exprs

    monkeypatch.setattr(cuplength, "_CUP_CACHE", {})
    monkeypatch.setattr(exprs, "_POWER_CACHE", {})


def test_oracle_multiplies_each_base_pair_once(monkeypatch):
    # counts, not times: a run multiplies in the base ring only by its
    # generators, once per basic monomial and generator, and builds every
    # other product from those
    from milnortc.f2algebra import Presentation

    calls = []
    mono_mul = Presentation.mono_mul

    def spy(self, m1, m2):
        calls.append((m1, m2))
        return mono_mul(self, m1, m2)

    _fresh_oracle(monkeypatch)
    monkeypatch.setattr(Presentation, "mono_mul", spy)
    P = ring("rh:4,2")
    assert cup_exact(P, 3) == 15
    assert len(calls) <= len(P.gen_names) * len(P.basis)


def test_each_lower_slice_is_read_once_per_degree(monkeypatch):
    # counts, not times: a slice of the reference reads the next-lower
    # power's slice once per degree of its first slot; reading it once per
    # basis monomial made 540 tensor_slice calls for every slice of rh:4,2
    # at n = 3
    import reference

    calls = []
    tensor_slice_ = reference.tensor_slice

    def spy(P, n, d, slices):
        calls.append((n, d))
        return tensor_slice_(P, n, d, slices)

    monkeypatch.setattr(reference, "tensor_slice", spy)
    P, slices = ring("rh:4,2"), {}
    for d in range(3 * P.top_degree + 1):
        reference.tensor_slice(P, 3, d, slices)
    assert len(calls) <= 300


def test_the_oracle_leaves_no_top_slice_behind(monkeypatch):
    # bytes, not times: a run keeps nothing but its cached answer: no slice,
    # and no state or back-pointer of its frontier.  gc.collect() also
    # empties the interpreter's free lists, which would otherwise keep the
    # freed tuples
    import gc
    import tracemalloc

    _fresh_oracle(monkeypatch)
    P = ring("rh:4,2")
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.take_snapshot()
        factors = cup_witness(P, 3)
        gc.collect()
        after = tracemalloc.take_snapshot()
    finally:
        tracemalloc.stop()
    assert sum(mult for _, mult in factors) == 15
    diffs = after.compare_to(before, "filename")
    assert sum(d.size_diff for d in diffs) < 50_000


def test_runs_in_either_order_give_the_fresh_values_and_witnesses(monkeypatch):
    # a run depends only on its arguments: nothing one run leaves behind,
    # other than its cached answer, changes what a run at another n finds
    import milnortc.cuplength as cuplength

    for space in ("rp:5", "rh:3,2", "ch:2,1", "prod:rp2,rp1"):
        P = ring(space)
        fresh = {}
        for n in (2, 3):
            _fresh_oracle(monkeypatch)
            fresh[n] = (cup_exact(P, n), cup_witness(P, n))
        for order in ((2, 3), (3, 2)):
            monkeypatch.setattr(cuplength, "_CUP_CACHE", {})
            got = {n: (cup_exact(P, n), cup_witness(P, n)) for n in order}
            assert got == fresh, (space, order)


def test_oracle_witness_verifies():
    for space, n in ORACLE_BOX:
        P = ring(space)
        value = cup_exact(P, n)
        cert = Certificate(parse_space(space), n, cup_witness(P, n), value)
        report = verify_certificate(cert)
        assert report.verdict == "Verified", (space, n)
        assert report.verified_cup == value


# ROADMAP item 1's box: rh and ch with r <= 5 and every s, rp:0..9,
# cp:0..4 and five products, at n = 2 and 3 where the largest slice has at
# most 600 monomials.  The values were recorded once, from the oracle that
# multiplied level by level; the test never writes the file
ORACLE_BOX_VALUES = Path(__file__).parent / "artifacts" / "oracle_box.json"


def test_oracle_box_values_and_witnesses():
    cases = json.loads(ORACLE_BOX_VALUES.read_text(encoding="utf-8"))
    assert len(cases) == 112
    for space, n, value in cases:
        P = ring(space)
        assert cup_exact(P, n) == value, (space, n)
        factors = cup_witness(P, n)
        assert sum(mult for _, mult in factors) == value, (space, n)
        cert = Certificate(parse_space(space), n, factors, value)
        assert verify_certificate(cert).verdict == "Verified", (space, n)


def test_oracle_zero_and_trivial_rings():
    assert cup_exact(ring("rp:0"), 3) == 0
    assert cup_witness(ring("rp:0"), 3) == ()


def test_oracle_chain_containment():
    # K^(m+1) is contained in K^m, degree by degree; the oracle's own chain
    # W_m of generator products does not nest this way
    P = ring("rp:2")
    chain = kernel_powers(P, 2)
    assert len(chain) == 3
    for lvl, nxt in zip(chain, chain[1:]):
        for d, rows in nxt.items():
            assert d in lvl
            assert rank(lvl[d] + rows) == rank(lvl[d])


def test_oracle_resource_limit(monkeypatch):
    # counts, not times: rp:4 at n = 3 forms 58 rows.  Its product table
    # has 5 * 5; its one middle step contracts one row by each of its 8
    # choices, whose B hold 17 rows in all; the last step forms 16.  So a
    # budget of 57 refuses it and one of 58 does not
    import milnortc.cuplength as cuplength

    _fresh_oracle(monkeypatch)
    monkeypatch.setattr(cuplength, "BUDGET", 57)
    with pytest.raises(ResourceLimitError) as err:
        cup_exact(ring("rp:4"), 3)
    assert str(err.value) == "the oracle needs more than its budget of 57 rows"
    with pytest.raises(ResourceLimitError):
        cup_witness(ring("rp:4"), 3)
    monkeypatch.setattr(cuplength, "BUDGET", 58)
    assert cup_exact(ring("rp:4"), 3) == 12


def test_the_budget_counts_the_product_table_and_the_contracted_rows(monkeypatch):
    # counts, not times: a run forms dim * dim rows for its product table
    # and len(products) * len(B) for each contraction; within a budget of
    # exactly that it ends, and a row short it is refused
    import milnortc.cuplength as cuplength

    rows = [0]
    contract = cuplength._contract

    def spy(products, B):
        rows[0] += len(products) * len(B)
        return contract(products, B)

    monkeypatch.setattr(cuplength, "_contract", spy)
    budget = cuplength.BUDGET
    for space, n in (("rh:2,1", 2), ("rh:3,2", 3), ("rp:5", 4), ("ch:2,2", 5)):
        P = ring(space)
        _fresh_oracle(monkeypatch)
        monkeypatch.setattr(cuplength, "BUDGET", budget)
        rows[0] = len(P.basis) ** 2
        value = cup_exact(P, n)
        used = rows[0]
        _fresh_oracle(monkeypatch)
        monkeypatch.setattr(cuplength, "BUDGET", used)
        assert cup_exact(P, n) == value, (space, n)
        _fresh_oracle(monkeypatch)
        monkeypatch.setattr(cuplength, "BUDGET", used - 1)
        with pytest.raises(ResourceLimitError):
            cup_exact(P, n)


def test_oracle_cache_respects_the_cap(monkeypatch):
    # the cap is the row budget: a value is cached only once its run ends
    # within it, so a refusal leaves the cache as it was, and every cached
    # value was computed within the budget
    import milnortc.cuplength as cuplength

    _fresh_oracle(monkeypatch)
    monkeypatch.setattr(cuplength, "BUDGET", 57)
    with pytest.raises(ResourceLimitError):
        cup_exact(ring("rp:4"), 3)
    assert cuplength._CUP_CACHE == {}
    monkeypatch.setattr(cuplength, "BUDGET", 58)
    assert cup_exact(ring("rp:4"), 3) == 12
    assert list(cuplength._CUP_CACHE) == [(ring("rp:4").cache_key, 3)]


def test_a_large_arity_is_refused_before_any_contraction(monkeypatch):
    # rp:1 has three rows of B over its two choices, so its n - 2 = 999,998
    # middle steps form at least 2,999,994 rows, above the budget: the run
    # is refused before its first step
    import milnortc.cuplength as cuplength

    calls = []
    contract = cuplength._contract

    def spy(products, B):
        calls.append(B)
        return contract(products, B)

    _fresh_oracle(monkeypatch)
    monkeypatch.setattr(cuplength, "_contract", spy)
    with pytest.raises(ResourceLimitError) as err:
        cup_exact(ring("rp:1"), 10**6)
    assert str(err.value) == "the oracle needs more than its budget of 2097152 rows"
    assert calls == []


def test_a_large_ring_is_refused_before_its_tables(monkeypatch):
    # rp:2000 has 2001 basic monomials, so its product table alone would
    # have 2001 * 2001 rows, above the budget: nothing is multiplied, at
    # any n, n = 2 included, where no middle step runs
    import milnortc.cuplength as cuplength

    calls = []
    apply = cuplength._apply

    def spy(images, row):
        calls.append(row)
        return apply(images, row)

    _fresh_oracle(monkeypatch)
    monkeypatch.setattr(cuplength, "_apply", spy)
    for n in (2, 3):
        with pytest.raises(ResourceLimitError):
            cup_exact(ring("rp:2000"), n)
    assert calls == []


def test_a_long_chain_runs_within_the_budget():
    # rp:1 at n = 100,000 forms 599,993 rows; a step extends each kept
    # state's path by one back-pointer, so the run is linear in n
    P = ring("rp:1")
    assert cup_exact(P, 100_000) == 99_999
    factors = cup_witness(P, 100_000)
    assert len(factors) == 99_999
    assert factors[-1] == ("(x99999+x100000)", 1)


def test_rh_16_9_at_n_3_gives_72_and_its_witness_verifies():
    # 629,768 rows, within the budget; the witness is checked by
    # multiplying it out, a route that shares nothing with the oracle
    P = ring("rh:16,9")
    value, factors = cup_exact(P, 3), cup_witness(P, 3)
    assert value == 72 == 3 * RealMilnor(16, 9).dimension
    cert = Certificate(RealMilnor(16, 9), 3, factors, value)
    assert verify_certificate(cert).verdict == "Verified"


def test_oracle_caches():
    P = ring("rp:3")
    assert cup_exact(P, 2) == cup_exact(P, 2)


# --- a product from its factors ----------------------------------------------

# every two-factor product of these, at n = 2 and 3, where the product
# ring's largest slice has at most 3000 monomials: 268 cases
PRODUCT_FACTORS = (
    *(f"rp:{m}" for m in range(6)),
    *(f"rh:{r},{s}" for r in range(1, 4) for s in range(r + 1)),
    "cp:2",
    "ch:3,2",
)


_REAL_TWIN = {ComplexMilnor: RealMilnor, ComplexProj: RealProj}


def real_twin(space: ProductSpace) -> ProductSpace:
    """The product with each ch or cp factor replaced by its rh or rp twin:
    the same generators and rules in degree 1, so the same chain of
    generator products, and a ring whose generators share one degree."""
    return ProductSpace(
        tuple(_REAL_TWIN.get(type(f), type(f))(*f._values()) for f in space.factors)
    )


def test_a_products_oracle_is_the_sum_of_its_factors():
    # the chain of the product's degree-1 twin, walked on the twin's own
    # ring, is the reference; the oracle answers a product from its
    # factors' runs, and their witnesses, renamed, verify in the product
    # ring
    import milnortc.cuplength as cuplength

    cases = [
        (space, n)
        for pair in combinations_with_replacement(PRODUCT_FACTORS, 2)
        for space in [ProductSpace(tuple(map(parse_space, pair)))]
        for n in (2, 3)
        if max(slice_dimensions(cohomology_of(space), n)) <= 3000
    ]
    assert len(cases) == 268
    for space, n in cases:
        P = cohomology_of(space)
        value = cup_exact(P, n)
        twin = cohomology_of(real_twin(space))
        assert value == cuplength._oracle(twin, n)[0], (space, n)
        factors = cup_witness(P, n)
        cert = Certificate(space, n, factors, value)
        assert verify_certificate(cert).verdict == "Verified", (space, n)


def test_a_products_witness_is_its_factors_renamed():
    # RP^1 has zcl_2 = 1, witnessed by x1+x2; the idx-th factor's x is x.idx
    P = ring("prod:rp1,rp1")
    assert cup_exact(ring("rp:1"), 2) == 1
    assert cup_exact(P, 2) == 2
    assert cup_witness(P, 2) == (("(x.1.1+x.1.2)", 1), ("(x.2.1+x.2.2)", 1))


def test_a_product_builds_no_slice_of_its_own_ring(monkeypatch):
    # the Klein bottle squared at n = 5: the product ring's largest slice
    # has 184,756 monomials, and the oracle never runs the product ring;
    # each factor is run on its own
    import milnortc.cuplength as cuplength

    P, factor = ring("prod:rh2.1,rh2.1"), ring("rh:2,1")
    assert max(slice_dimensions(P, 5)) == 184_756
    rings = []
    oracle = cuplength._oracle

    def oracle_spy(Q, n):
        rings.append(Q)
        return oracle(Q, n)

    _fresh_oracle(monkeypatch)
    monkeypatch.setattr(cuplength, "_oracle", oracle_spy)
    assert cup_exact(P, 5) == 20
    assert rings == [factor]
    assert cuplength._CUP_CACHE.keys() == {(factor.cache_key, 5)}


def test_a_products_refusal_names_its_factor(monkeypatch):
    # under a budget of 100 rows rp:2 at n = 3 (20 rows) runs, and rh:16,9,
    # a ring of dimension 160, is refused before it builds its tables
    import milnortc.cuplength as cuplength

    _fresh_oracle(monkeypatch)
    monkeypatch.setattr(cuplength, "BUDGET", 100)
    with pytest.raises(ResourceLimitError) as err:
        cup_exact(ring("prod:rp2,rh16.9"), 3)
    assert str(err.value) == (
        "factor rh:16,9: the oracle needs more than its budget of 100 rows"
    )
    assert list(cuplength._CUP_CACHE) == [(ring("rp:2").cache_key, 3)]
