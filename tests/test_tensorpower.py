import random
from itertools import product as iproduct

import pytest

from milnortc.errors import ResourceLimitError
from milnortc.f2algebra import (
    Element,
    Presentation,
    generator,
    multiply,
    power,
    unit,
    zero,
)
from milnortc.exprs import diagonal_eval, inject, tensor_power
from reference import kernel_basis, poincare_series, ring, slice_dimensions, tensor_slice


@pytest.fixture
def P():
    return ring("rh:3,2")


def rand_element(P, rng, max_terms=3):
    picks = rng.sample(P.basis, rng.randint(0, max_terms))
    el = zero(P)
    for exps in picks:
        el = el + Element(P, frozenset({exps}))
    return el


def rand_tensor(P, n, rng):
    u = unit(tensor_power(P, n))
    for i in range(1, n + 1):
        u = multiply(u, inject(P, n, i, rand_element(P, rng)))
    return u


def slotwise_mul_supports(T, xs, ys):
    """The reference product: every pair of tensor monomials multiplied in
    the base ring in all n slots, then the tensor of the slot supports
    expanded whole."""
    P = T.base
    out = set()
    for mu in xs:
        for mv in ys:
            slot_supports = []
            for cu, cv in zip(mu, mv):
                sup = P.mono_mul(cu, cv)
                if not sup:
                    break
                slot_supports.append(sup)
            else:
                out ^= set(iproduct(*slot_supports))
    return out


def rand_dense(P, n, rng, max_terms=6):
    """A sum of random tensor monomials: most slots are not the unit."""
    support = {
        tuple(rng.choice(P.basis) for _ in range(n))
        for _ in range(rng.randint(0, max_terms))
    }
    return Element.computed(tensor_power(P, n), frozenset(support))


def rand_sparse(P, n, rng):
    """A power of a sum of injected classes, the shape of a certificate
    factor such as (b1+b2)^3: one or two slots are not the unit."""
    u = zero(tensor_power(P, n))
    for _ in range(rng.randint(1, 2)):
        u = u + inject(P, n, rng.randint(1, n), rand_element(P, rng))
    return power(u, rng.randint(1, 3))


@pytest.mark.parametrize("space", ["rh:3,2", "ch:2,1", "rp:3", "cp:2", "prod:rp1,cp1"])
def test_multiply_matches_the_slotwise_product(space):
    P = ring(space)
    rng = random.Random(space)
    for n in range(1, 5):
        T = tensor_power(P, n)
        for _ in range(12):
            d1, d2 = rand_dense(P, n, rng), rand_dense(P, n, rng)
            s1 = rand_sparse(P, n, rng)
            for u, v in ((d1, d2), (s1, d1), (d1, s1), (s1, s1)):
                assert multiply(u, v).support == slotwise_mul_supports(
                    T, u.support, v.support
                ), (n, u, v)


def test_multiply_matches_the_slotwise_product_on_several_term_slots():
    # in rh:3,2 the Milnor rewrite gives b^3 = a*b^2 + a^2*b: one slot
    # product with two terms, which the product expands
    P = ring("rh:3,2")
    assert len(P.mono_mul((0, 1), (0, 2))) == 2
    b = generator(P, "b")
    rng = random.Random(19)
    for n in range(1, 5):
        T = tensor_power(P, n)
        factor = power(inject(P, n, 1, b) + inject(P, n, n, b), 3)
        for u in (rand_dense(P, n, rng, 20), factor):
            for x, y in ((u, factor), (factor, u)):
                assert multiply(x, y).support == slotwise_mul_supports(
                    T, x.support, y.support
                )


def test_injected_factor_multiplies_only_its_own_slots(monkeypatch):
    # a count, not a time: an element times a sum of classes injected in
    # slots 1 and 2 multiplies in the base ring at most once per pair of
    # monomials, in the one slot the injected class occupies, not in all n
    P = ring("rh:3,2")
    n = 6
    u = rand_dense(P, n, random.Random(23), max_terms=40)
    a = generator(P, "a")
    z = inject(P, n, 1, a) + inject(P, n, 2, a)
    expected = slotwise_mul_supports(tensor_power(P, n), u.support, z.support)
    calls = []
    mono_mul = Presentation.mono_mul

    def spy(self, m1, m2):
        calls.append((m1, m2))
        return mono_mul(self, m1, m2)

    monkeypatch.setattr(Presentation, "mono_mul", spy)
    for x, y in ((u, z), (z, u)):
        calls.clear()
        assert multiply(x, y).support == expected
        assert 0 < len(calls) <= len(u.support) * 2


def test_diagonal_of_inject_is_identity(P):
    rng = random.Random(11)
    for n in (2, 3):
        for i in range(1, n + 1):
            for _ in range(20):
                x = rand_element(P, rng)
                assert diagonal_eval(inject(P, n, i, x)) == x


def test_diagonal_eval_multiplicative(P):
    rng = random.Random(13)
    for n in (2, 3):
        for _ in range(30):
            u, v = rand_tensor(P, n, rng), rand_tensor(P, n, rng)
            assert diagonal_eval(multiply(u, v)) == multiply(
                diagonal_eval(u), diagonal_eval(v)
            )


def test_slice_dimensions_sum_to_total(P):
    for n in (1, 2, 3):
        dims = list(slice_dimensions(P, n))
        assert len(dims) == n * P.top_degree + 1
        assert sum(dims) == len(P.basis) ** n
        for d, dim in enumerate(dims):
            assert dim == len(tensor_slice(P, n, d, {}))


def test_slice_dimensions_are_the_coefficients_of_the_series_power():
    # against the n-fold product of the Poincaré series, convolved term by term
    for space in ("rh:4,3", "ch:3,2", "rp:5", "cp:3", "prod:rp2,rh2.1"):
        P = ring(space)
        series = poincare_series(P)
        coefficients = [1]
        for n in range(9):
            assert list(slice_dimensions(P, n)) == coefficients, (space, n)
            coefficients = [
                sum(c * series[d - i] for i, c in enumerate(coefficients)
                    if 0 <= d - i < len(series))
                for d in range(len(coefficients) + len(series) - 1)
            ]


def test_tensor_slice_sorted_and_graded(P):
    for d in range(2 * P.top_degree + 1):
        slc = tensor_slice(P, 2, d, {})
        # deterministic rank order, no duplicates
        key = lambda tup: tuple(P.rank_of[exps] for exps in tup)
        assert list(slc) == sorted(slc, key=key)
        assert len(set(slc)) == len(slc)
        for tup in slc:
            assert sum(P.monomial_degree(exps) for exps in tup) == d


def brute_force_slice(P, n, d):
    """Every n-tuple of basis monomials of total degree d, in rank order
    slot by slot."""
    key = lambda tup: tuple(P.rank_of[exps] for exps in tup)
    return tuple(
        sorted(
            (
                tup
                for tup in iproduct(P.basis, repeat=n)
                if sum(P.monomial_degree(exps) for exps in tup) == d
            ),
            key=key,
        )
    )


@pytest.mark.parametrize(
    "space", ["rh:3,2", "ch:2,1", "rp:3", "cp:2", "prod:rp1,cp1"]
)
def test_tensor_slice_matches_the_brute_force_slice(space):
    P = ring(space)
    slices = {}
    for n in range(5):
        dims = list(slice_dimensions(P, n))
        for d in range(n * P.top_degree + 2):
            slc = tensor_slice(P, n, d, slices)
            assert slc == brute_force_slice(P, n, d), (n, d)
            # the dimensions stop at the top degree, above which slices are empty
            assert len(slc) == (dims[d] if d < len(dims) else 0), (n, d)
    # a first slot of degree deg leaves d - deg for the other n - 1 slots,
    # which is empty above (n - 1) * top degree: that lower slice is never
    # built, so the only slices kept above their power's top degree are the
    # ones asked for above
    above = {(m, d) for m, d in slices if d > m * P.top_degree}
    assert above == {(n, n * P.top_degree + 1) for n in range(5)}


def test_multiplication_commutes_and_distributes(P):
    rng = random.Random(17)
    for _ in range(25):
        u, v, w = (rand_tensor(P, 2, rng) for _ in range(3))
        assert multiply(u, v) == multiply(v, u)
        assert multiply(u, v + w) == multiply(u, v) + multiply(u, w)
    u = rand_tensor(P, 2, rng)
    assert power(u, 3) == multiply(u, multiply(u, u))


def test_element_rejects_non_basic_tensor_monomial(P):
    T = tensor_power(P, 2)
    one, top = P.basis[0], P.basis[-1]
    assert Element(T, frozenset({(one, top)})).degree == P.top_degree
    with pytest.raises(ValueError, match="non-basic"):
        Element(T, frozenset({(one, (3, 0))}))  # a^3 = 0 when s = 2
    with pytest.raises(ValueError, match="non-basic"):
        Element(T, frozenset({(one, one, one)}))  # a monomial of the cube


def test_product_needs_one_algebra(P):
    a = generator(P, "a")
    with pytest.raises(ValueError, match="different algebras"):
        multiply(inject(P, 2, 1, a), inject(P, 3, 1, a))
    with pytest.raises(ValueError, match="different algebras"):
        multiply(a, inject(P, 2, 1, a))


def test_inject_refuses_a_bad_position_and_a_foreign_element(P):
    a = generator(P, "a")
    for i in (0, 3):
        with pytest.raises(ValueError, match=f"^position {i} out of range 1..2$"):
            inject(P, 2, i, a)
    x = generator(ring("rp:2"), "x")
    with pytest.raises(ValueError, match="^element is not over the given presentation$"):
        inject(P, 2, 1, x)


def test_kernel_basis_rank_nullity(P):
    for n in (2, 3):
        for d in range(1, n * P.top_degree + 1):
            kb = kernel_basis(P, n, d)
            # the diagonal is onto the degree-d slice of P: (m, 1, ..., 1) -> m
            assert len(kb) == kb.slice_dim - len(P.degree_slices.get(d, ()))
            for el in kb.elements:
                assert diagonal_eval(el).is_zero
                assert el.degree == d


def test_kernel_trivial_in_degree_zero(P):
    kb = kernel_basis(P, 2, 0)
    assert len(kb) == 0


def test_degree_zero_slice_is_unit(P):
    assert tensor_slice(P, 2, 0, {}) == ((P.basis[0],) * 2,)
    assert list(slice_dimensions(P, 2))[0] == 1


def test_resource_limit_fires(P):
    with pytest.raises(ResourceLimitError):
        kernel_basis(P, 3, P.top_degree, max_slice=2)


def test_kernel_of_projective_line():
    # RP^1: kernel in degree 1 is spanned by x1 + x2
    T = ring("rp:1")
    kb = kernel_basis(T, 2, 1)
    assert len(kb) == 1
    el = kb.elements[0]
    x = generator(T, "x")
    assert el == inject(T, 2, 1, x) + inject(T, 2, 2, x)
