import json
import random
from pathlib import Path

import pytest

from milnortc import gf2
from milnortc.bounds import tc_bounds
from milnortc.certgen import cert_r2t, certificates_for
from milnortc.cuplength import (
    Certificate,
    FactorCheck,
    _generator_text,
    _ideal_generators,
    _mult_map,
    cup_exact,
    cup_witness,
    is_zero_divisor,
    verify_certificate,
)
from milnortc.errors import ResourceLimitError
from milnortc.exprs import evaluate, evaluate_text, parse_factor_expr
from milnortc.f2algebra import make_presentation, multiply, power, unit
from milnortc.spaces import cohomology_of, parse_space
from milnortc.tensorpower import TensorPower, tensor_power, tensor_slice
from reference import kernel_basis, rank


def ring(text):
    return cohomology_of(parse_space(text))


def test_zero_divisor_predicate():
    P = ring("rp:2")
    assert is_zero_divisor(evaluate_text("x1+x2", P, 2))
    assert not is_zero_divisor(evaluate_text("x1", P, 2))
    assert is_zero_divisor(evaluate_text("x1^2*x2", P, 2))


# -- certificate container invariants ----------------------------------------


def test_certificate_rejects_bad_claims():
    with pytest.raises(ValueError, match="claimed cup"):
        Certificate("rp:2", 2, (("(x1+x2)", 3),), 3, 5)
    with pytest.raises(ValueError, match="factor count"):
        Certificate("rp:2", 2, (("(x1+x2)", 2),), 3, 4)
    with pytest.raises(ValueError, match="positive"):
        Certificate("rp:2", 2, (("(x1+x2)", 0),), 0, 1)


def test_verify_projective_plane():
    cert = Certificate("rp:2", 2, (("(x1+x2)", 3),), 3, 4)
    report = verify_certificate(cert)
    assert report.verdict == "Verified"
    assert report.verified_cup == 3
    assert report.verified_tc_lower == 4
    assert report.product_nonzero


def test_verify_rejects_non_zero_divisor():
    cert = Certificate("rp:2", 2, (("x1", 1), ("(x1+x2)", 2)), 3, 4)
    report = verify_certificate(cert)
    assert report.verdict == "FactorNotZeroDivisor"
    assert report.verified_cup is None
    flags = {c.expression: c.is_zero_divisor for c in report.per_factor}
    assert flags == {"x1": False, "(x1+x2)": True}


def test_verify_vanishing_product():
    # Klein-bottle ring: (a1+a2)(b1+b2)^3 reduces to zero
    cert = Certificate("rh:2,1", 2, (("(a1+a2)", 1), ("(b1+b2)", 3)), 4, 5)
    report = verify_certificate(cert)
    assert report.verdict == "ProductVanishes"
    assert all(c.is_zero_divisor for c in report.per_factor)


def test_cat_witness_skips_zero_divisor_requirement():
    cert = Certificate(
        "rp:2", 2, (("x1", 2), ("x2", 2)), 4, 5, cat_witness=True
    )
    report = verify_certificate(cert)
    assert not report.zero_divisors_required
    assert report.verdict == "Verified"
    assert report.verified_cup == 4


def test_verdict_never_consults_claims():
    # same factors, inflated-but-consistent claim: verdict is unchanged
    good = Certificate("rp:2", 2, (("(x1+x2)", 3),), 3, 4)
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
                if isinstance(cert, Certificate):
                    yield cert
    yield cert_r2t(5, 3, 8)


def test_overlap_order_gives_the_certificate_order_report():
    # the ring is commutative, so the order of the product changes no field
    # of any report
    certs = list(family_certificates())
    verdicts = set()
    for cert in certs:
        P = ring(cert.space)
        report = verify_certificate(cert, presentation=P)
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
        (lambda: tc_bounds("rh:16,9", 8).verified_lower, 169),
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
    assert tc_bounds("rh:16,9", 8).verified_lower == 169
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
    cert = Certificate("rp:2", 2, (), 0, 1)
    report = verify_certificate(cert)
    assert report.verdict == "Verified" and report.product_nonzero
    zero_ring = make_presentation(kind="milnor", s=0, r=0, gen_degree=1)
    z = unit(tensor_power(zero_ring, 2))
    assert z.is_zero and power(z, 3).is_zero


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


def per_monomial_map(P, n, el, d_from, d_to):
    """Reference for cuplength._mult_map: the general product of el with
    each source monomial of slice(d_from), as the int bitset of its targets
    in slice(d_to).  el may have monomials in several non-unit slots."""
    index = {t: i for i, t in enumerate(tensor_slice(P, n, d_to))}
    targets = []
    for tup in tensor_slice(P, n, d_from):
        bits = 0
        for out in el.algebra.mul_supports(el.support, (tup,)):
            bits ^= 1 << index[out]
        targets.append(bits)
    return targets


def kernel_powers(P, n):
    """Reference chain [K^1, K^2, ...] of the nonzero powers of K, each a
    dict degree -> basis rows (gf2 int bitsets).  Each power K^(m+1) is
    spanned by the products of K^m with every element of a kernel basis, not
    only with the ideal generators g_i + g_{i+1} that cup_exact uses."""
    nd = n * P.top_degree
    kernels = [kernel_basis(P, n, d) for d in range(1, nd + 1)]
    gens = [(el, kb.degree) for kb in kernels for el in kb.elements]
    V = {kb.degree: kb.rows for kb in kernels if len(kb)}
    map_cache = {}
    chain = []
    while V:
        chain.append(V)
        products = {}
        for j, (el, dg) in enumerate(gens):
            for d, rows in V.items():
                if d + dg <= nd:
                    if (j, d) not in map_cache:
                        map_cache[j, d] = per_monomial_map(P, n, el, d, d + dg)
                    targets = map_cache[j, d]
                    products.setdefault(d + dg, []).extend(gf2.image(targets, rows))
        V = {}
        for d, rows in products.items():
            keep = gf2.independent_rows(rows)
            if keep:
                V[d] = [rows[i] for i in keep]
    return chain


def cup_by_kernel_basis(P, n):
    return len(kernel_powers(P, n))


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


def test_mult_maps_match_the_per_monomial_product():
    # the maps multiply only the one slot each generator monomial occupies;
    # the general product of each source monomial is the reference.  A map
    # is built only on the columns of its mask and is 0 on every other one
    rng = random.Random(29)
    for space, n in ORACLE_BOX:
        P = ring(space)
        nd = n * P.top_degree
        for label, degree, slot_products in _ideal_generators(P, n):
            z = evaluate_text(_generator_text(label), P, n)
            assert z.degree == degree, (space, n, label)
            for d in range(nd - z.degree + 1):
                expected = per_monomial_map(P, n, z, d, d + z.degree)
                target = tensor_slice(P, n, d + z.degree)
                index = {t: i for i, t in enumerate(target)}
                width = len(expected)
                for mask in ((1 << width) - 1, rng.getrandbits(width)):
                    got = _mult_map(P, n, slot_products, d, index, mask)
                    assert got == [
                        t if mask >> i & 1 else 0 for i, t in enumerate(expected)
                    ], (space, n, d, mask)


def test_each_mult_map_is_built_once_per_run(monkeypatch):
    # the oracle walks the chain by degree and applies each map (generator,
    # source degree) to every level that reads it, so no map is built
    # twice; the box's mixed-degree products would request some again
    import milnortc.cuplength as cuplength

    requests = []
    mult_map = cuplength._mult_map

    def spy(P, n, slot_products, d_from, *rest):
        requests.append((id(slot_products), d_from))
        return mult_map(P, n, slot_products, d_from, *rest)

    monkeypatch.setattr(cuplength, "_mult_map", spy)
    for space, n in ORACLE_BOX:
        monkeypatch.setattr(cuplength, "_CUP_CACHE", {})
        requests.clear()
        cup_exact(ring(space), n)
        assert requests and len(requests) == len(set(requests)), (space, n)


def test_oracle_multiplies_in_sorted_order(monkeypatch):
    # counts, not times: z_j multiplies only the rows whose last generator
    # is at most j, and each map is built only on the columns those rows
    # read.  Multiplying every z onto every row passes 2868 rows to image
    # and builds 6504 nonzero map entries here
    import milnortc.cuplength as cuplength

    rows_multiplied, entries_built = [], []
    image, mult_map = cuplength.gf2.image, cuplength._mult_map

    def image_spy(targets, rows):
        rows_multiplied.append(len(rows))
        return image(targets, rows)

    def mult_map_spy(*args):
        targets = mult_map(*args)
        entries_built.append(sum(1 for t in targets if t))
        return targets

    monkeypatch.setattr(cuplength.gf2, "image", image_spy)
    monkeypatch.setattr(cuplength, "_mult_map", mult_map_spy)
    monkeypatch.setattr(cuplength, "_CUP_CACHE", {})
    assert cup_exact(ring("rh:4,2"), 3) == 15
    assert sum(rows_multiplied) <= 900
    assert sum(entries_built) <= 2100


def _fresh_oracle(monkeypatch):
    """Empty the oracle's value cache and the interned tensor powers, so
    that a run builds every slice it reads."""
    import milnortc.cuplength as cuplength
    import milnortc.tensorpower as tensorpower

    monkeypatch.setattr(cuplength, "_CUP_CACHE", {})
    monkeypatch.setattr(tensorpower, "_POWER_CACHE", {})


def test_cup_exact_raises_the_poincare_series_once(monkeypatch):
    # the cap check reads every degree from one power of the series; it
    # was raised once per degree, 16 times for rh:4,2 at n = 3
    import milnortc.tensorpower as tensorpower

    calls = []
    series = tensorpower.poincare_series

    def spy(P):
        calls.append(P)
        return series(P)

    _fresh_oracle(monkeypatch)
    monkeypatch.setattr(tensorpower, "poincare_series", spy)
    P = ring("rh:4,2")
    assert cup_exact(P, 3) == 15
    assert len(calls) == 1
    assert cup_exact(P, 3) == 15  # cached, but checked against the cap
    assert len(calls) == 2


def test_oracle_multiplies_each_base_pair_once(monkeypatch):
    # counts, not times: each generator's slot products are built once per
    # run, not once per (generator, degree) map; that took 936 base
    # products for rh:4,2 at n = 3
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
    # counts, not times: a slice reads the next-lower power's slice once
    # per degree of its first slot; reading it once per basis monomial made
    # 540 tensor_slice calls for rh:4,2 at n = 3
    import milnortc.cuplength as cuplength
    import milnortc.tensorpower as tensorpower

    calls = []
    tensor_slice_ = tensorpower.tensor_slice

    def spy(P, n, d):
        calls.append((n, d))
        return tensor_slice_(P, n, d)

    _fresh_oracle(monkeypatch)
    monkeypatch.setattr(tensorpower, "tensor_slice", spy)
    monkeypatch.setattr(cuplength, "tensor_slice", spy)
    assert cup_exact(ring("rh:4,2"), 3) == 15
    assert len(calls) <= 300


def test_the_oracle_leaves_no_top_slice_behind(monkeypatch):
    # bytes, not times: the oracle's top power drops its degree slices when
    # the run ends, while the power itself stays interned.  Keeping them
    # left about 150 kB allocated here.  gc.collect() also empties the
    # interpreter's free lists, which would otherwise keep the freed tuples
    import gc
    import tracemalloc

    import milnortc.tensorpower as tensorpower

    _fresh_oracle(monkeypatch)
    P = ring("rh:4,2")
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        factors = cup_witness(P, 3)
        gc.collect()
        retained = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert sum(mult for _, mult in factors) == 15
    assert tensorpower._POWER_CACHE[(P, 3)]._slices == {}
    assert retained < 50_000


def test_oracle_witness_verifies():
    for space, n in ORACLE_BOX:
        P = ring(space)
        value = cup_exact(P, n)
        cert = Certificate(space, n, cup_witness(P, n), value, value + 1)
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
        cert = Certificate(space, n, factors, value, value + 1)
        assert verify_certificate(cert, presentation=P).verdict == "Verified", (space, n)


def test_oracle_zero_and_trivial_rings():
    assert cup_exact(ring("rp:0"), 3) == 0
    assert cup_witness(ring("rp:0"), 3) == ()
    assert cup_exact(make_presentation(kind="milnor", s=0, r=0, gen_degree=1), 2) == 0


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
    # rp:4 at n=3 has slices 1, 3, 6, 10, ...: degrees 1 and 2 fit a cap of
    # 6, degree 3 does not, and the oracle must refuse before building any
    import milnortc.cuplength as cuplength
    import milnortc.tensorpower as tensorpower

    def forbidden(*args, **kwargs):
        raise AssertionError("a slice was built before the cap check")

    monkeypatch.setattr(cuplength, "_CUP_CACHE", {})
    monkeypatch.setattr(cuplength, "tensor_slice", forbidden)
    monkeypatch.setattr(tensorpower, "tensor_slice", forbidden)
    with pytest.raises(ResourceLimitError) as err:
        cup_exact(ring("rp:4"), 3, max_slice=6)
    assert err.value.dimension == 10


def test_oracle_cache_respects_the_cap():
    # a value cached under the default cap must not answer a call whose
    # cap the slices exceed
    P = ring("rp:4")
    assert cup_exact(P, 3) == 12
    with pytest.raises(ResourceLimitError) as err:
        cup_exact(P, 3, max_slice=4)
    assert err.value.dimension == 6
    with pytest.raises(ResourceLimitError):
        cup_witness(P, 3, max_slice=4)
    assert cup_exact(P, 3, max_slice=19) == 12  # the largest slice


def test_oracle_caches():
    P = ring("rp:3")
    assert cup_exact(P, 2) == cup_exact(P, 2)
