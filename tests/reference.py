"""Slow, independent references that only the tests use.

The package never calls these: the oracle in :mod:`milnortc.cuplength`
contracts tensor slots one at a time and never builds a degree slice of a
tensor power, a nullspace or a kernel basis.  The tests check it against
the kernel of the diagonal map computed here, on degree slices, by plain
row reduction.
"""

from __future__ import annotations

from itertools import product as iproduct

from milnortc.errors import ResourceLimitError
from milnortc.exprs import Element, generator, inject, tensor_power
from milnortc.f2algebra import Presentation
from milnortc.record import Record
from milnortc.spaces import cohomology_of, parse_space

# the largest slice that kernel_basis builds, 2^16 monomials
MAX_SLICE = 1 << 16


def ring(text: str) -> Presentation:
    """The ring of the space written as ``text``, e.g. ``"rh:4,3"``."""
    return cohomology_of(parse_space(text))


# --- GF(2) rows held as Python ints ------------------------------------------


def independent_rows(rows) -> list:
    """Indices of a maximal linearly independent subset of the rows, each
    row kept when it is independent of the rows before it."""
    basis: dict = {}  # leading bit -> reduced row with that leading bit
    keep = []
    for i, row in enumerate(rows):
        while row:
            lead = row.bit_length() - 1
            pivot = basis.get(lead)
            if pivot is None:
                basis[lead] = row
                keep.append(i)
                break
            row ^= pivot
    return keep


def image(targets, rows) -> list:
    """Images of the rows under the linear map that sends column ``i`` to
    the row ``targets[i]``: each row becomes the XOR of ``targets[i]``
    over its set bits."""
    out = []
    for row in rows:
        acc = 0
        digits = bin(row)[:1:-1]  # bit 0 first
        i = digits.find("1")
        while i >= 0:
            acc ^= targets[i]
            i = digits.find("1", i + 1)
        out.append(acc)
    return out


def rank(rows) -> int:
    return len(independent_rows(rows))


def rref(rows) -> dict:
    """Reduced row-echelon form as {pivot column: row}: each row's lowest
    set bit is its pivot, and no other row has that bit set."""
    reduced: dict = {}
    for row in rows:
        for col, pivot in reduced.items():
            if row >> col & 1:
                row ^= pivot
        if row:
            col = (row & -row).bit_length() - 1
            for other, pivot in reduced.items():
                if pivot >> col & 1:
                    reduced[other] = pivot ^ row
            reduced[col] = row
    return reduced


def nullspace(rows, ncols: int) -> list:
    """Basis of {x : row . x = 0 for every row}, vectors over ``ncols``
    columns, one per free column in increasing order."""
    reduced = rref(rows)
    basis = []
    for free in range(ncols):
        if free in reduced:
            continue
        vec = 1 << free
        for col, row in reduced.items():
            if row >> free & 1:
                vec |= 1 << col
        basis.append(vec)
    return basis


# --- the base ring -------------------------------------------------------------


def normal_form(P: Presentation, raw_exps) -> Element:
    """Unique mod-2 sum of basic monomials equal to the raw monomial."""
    return Element(P, P.reduce(raw_exps))


def product_normal_form(space, raw_exps) -> frozenset:
    """Normal form of a raw monomial of a product's ring, factor by factor:
    each factor's exponents are reduced in that factor's own ring, and the
    tensor product of the supports is expanded."""
    parts, pos = [], 0
    for factor in space.factors:
        F = cohomology_of(factor)
        parts.append(F.reduce(raw_exps[pos : pos + F.ngens]))
        pos += F.ngens
    return frozenset(
        tuple(e for mono in combo for e in mono) for combo in iproduct(*parts)
    )


# --- degree slices and the kernel of the diagonal map -------------------------


def poincare_series(P: Presentation) -> list:
    """Per-degree basis counts, degree 0 through the top degree."""
    return [len(P.degree_slices.get(d, ())) for d in range(P.top_degree + 1)]


def slice_dimensions(P: Presentation, n: int):
    """Dimensions of the degree slices 0..n * top degree of the n-th power,
    yielded in degree order: the coefficients c_d of a^n, for a the
    Poincaré series (a_0 = 1, the unit).  From a * (a^n)' = n * a' * a^n,
    d * c_d is the sum over 1 <= k <= min(d, top) of
    ((n + 1) * k - d) * a_k * c_(d-k), so each size costs at most top
    products of the ones before it, and a caller that stops at a size
    never computes the rest."""
    series = poincare_series(P)
    dims = [1]
    yield 1
    for d in range(1, n * P.top_degree + 1):
        total = sum(
            ((n + 1) * k - d) * series[k] * dims[d - k]
            for k in range(1, min(d, P.top_degree) + 1)
        )
        dims.append(total // d)
        yield dims[-1]


def tensor_slice(P: Presentation, n: int, d: int, slices: dict):
    """All degree-d tensor monomials, sorted componentwise by basis rank:
    the first slot runs over the basis in rank order (so by ascending
    degree), and the other n - 1 slots over the degree-(d - deg) slice of
    the next-lower power, read once per degree of the first slot that
    leaves them at most (n - 1) * top degree, so no empty slice is built.
    Every slice built, of this power and the lower ones, is kept in slices
    under (power, degree) and read from there again.  The n = 0 power has
    the empty tuple in degree 0."""
    cached = slices.get((n, d))
    if cached is not None:
        return cached
    if n == 0:
        result = ((),) if d == 0 else ()
    else:
        monomials = []
        low = d - (n - 1) * P.top_degree
        for deg in sorted(P.degree_slices):
            if not low <= deg <= d:
                continue
            lower = tensor_slice(P, n - 1, d - deg, slices)
            for r in P.degree_slices[deg]:
                head = (P.basis[r],)
                monomials.extend(head + rest for rest in lower)
        result = tuple(monomials)
    slices[n, d] = result
    return result


class KernelBasis(Record):
    """Nullspace basis of the diagonal map on one degree slice, as int rows
    whose bit j is the j-th tensor monomial of the slice in
    :func:`tensor_slice` order.  Equal only to
    itself."""

    __slots__ = ("presentation", "n", "degree", "rows", "slice_dim")
    __eq__ = object.__eq__
    __hash__ = object.__hash__

    def __len__(self):
        return len(self.rows)

    @property
    def elements(self) -> tuple:
        """The basis decoded into elements of the tensor power."""
        P, n = self.presentation, self.n
        T, slc = tensor_power(P, n), tensor_slice(P, n, self.degree, {})
        return tuple(
            Element.computed(T, frozenset(m for j, m in enumerate(slc) if row >> j & 1))
            for row in self.rows
        )


def kernel_basis(
    P: Presentation, n: int, d: int, *, max_slice: int = MAX_SLICE
) -> KernelBasis:
    """Exact mod-2 nullspace of the diagonal map on the degree-d slice,
    refused when that slice has more than max_slice monomials."""
    if d < 0:
        raise ValueError("degree must be non-negative")
    dim = list(slice_dimensions(P, n))[d]
    if dim > max_slice:
        raise ResourceLimitError(
            f"degree-{d} slice has dimension {dim}, above the cap {max_slice}"
        )
    slc = tensor_slice(P, n, d, {})
    target_pos = {r: i for i, r in enumerate(P.degree_slices.get(d, ()))}
    # the map transposed: one row per target basis monomial, bit j for the
    # j-th slice monomial
    rows = [0] * len(target_pos)
    for col, tup in enumerate(slc):
        total = tuple(sum(x) for x in zip(*tup))
        for mono in P.reduce(total):
            rows[target_pos[P.rank_of[mono]]] ^= 1 << col
    return KernelBasis(P, n, d, nullspace(rows, len(slc)), len(slc))


def per_monomial_map(P, n, el, d_from, d_to, slices):
    """Multiplication by el, an element of the n-th tensor power, from the
    degree-d_from slice to the degree-d_to slice: for each source monomial
    the int bitset of the targets of its product with el.  The slices are
    read from and kept in slices (see :func:`tensor_slice`)."""
    index = {t: i for i, t in enumerate(tensor_slice(P, n, d_to, slices))}
    targets = []
    for tup in tensor_slice(P, n, d_from, slices):
        bits = 0
        for out in el.algebra.mul_supports(el.support, (tup,)):
            bits ^= 1 << index[out]
        targets.append(bits)
    return targets


def kernel_powers(P, n):
    """The chain [K^1, K^2, ...] of the nonzero powers of K, the kernel of
    the diagonal map on the n-th tensor power T, each a dict degree -> basis
    rows (int bitsets over the slice).

    K^(m+1) = K^m K = K^m T G = K^m G for any G that generates K as an
    ideal, since K^m is an ideal.  G is read off the kernel bases alone: in
    each degree, the kernel elements independent of the products x k of a
    generator x of a slot with a kernel element k of lower degree (graded
    Nakayama), not the slot differences g_i + g_(i+1) of the oracle."""
    nd = n * P.top_degree
    T, slices, maps = tensor_power(P, n), {}, {}
    kernels = {d: kernel_basis(P, n, d).rows for d in range(1, nd + 1)}

    def times(el, d, rows):
        if (el, d) not in maps:
            maps[el, d] = per_monomial_map(P, n, el, d, d + el.degree, slices)
        return image(maps[el, d], rows)

    slot_gens = [inject(P, n, i, generator(P, g)) for i in range(1, n + 1)
                 for g in P.gen_names]
    slot_gens = [x for x in slot_gens if not x.is_zero]
    ideal_gens = []
    for d, rows in kernels.items():
        lower = [r for x in slot_gens if 0 < d - x.degree
                 for r in times(x, d - x.degree, kernels[d - x.degree])]
        slc = tensor_slice(P, n, d, slices)
        for i in independent_rows(lower + rows):
            if i >= len(lower):
                row = rows[i - len(lower)]
                support = frozenset(m for j, m in enumerate(slc) if row >> j & 1)
                ideal_gens.append(Element.computed(T, support))
    V = {d: rows for d, rows in kernels.items() if rows}
    chain = []
    while V:
        chain.append(V)
        products = {}
        for z in ideal_gens:
            for d, rows in V.items():
                if d + z.degree <= nd:
                    products.setdefault(d + z.degree, []).extend(times(z, d, rows))
        V = {}
        for d, rows in products.items():
            keep = independent_rows(rows)
            if keep:
                V[d] = [rows[i] for i in keep]
    return chain


def cup_by_kernel_basis(P, n) -> int:
    """zcl_n by the kernel-basis route: the number of nonzero powers of K."""
    return len(kernel_powers(P, n))
