"""Slow, independent references that only the tests use.

The package never calls these: the oracle in :mod:`milnortc.cuplength`
multiplies ideal generators and keeps independent rows, and never needs a
nullspace, a rank or a kernel basis.  The tests check it against the
kernel of the diagonal map computed here by plain row reduction.
"""

from __future__ import annotations

from itertools import product as iproduct

from milnortc.errors import DEFAULT_MAX_SLICE, ResourceLimitError
from milnortc.exprs import tensor_power
from milnortc.f2algebra import Element, Presentation
from milnortc.gf2 import independent_rows
from milnortc.record import Record
from milnortc.spaces import cohomology_of, parse_space
from milnortc.tensorpower import slice_dimensions, tensor_slice


def ring(text: str) -> Presentation:
    """The ring of the space written as ``text``, e.g. ``"rh:4,3"``."""
    return cohomology_of(parse_space(text))


# --- GF(2) rows held as Python ints ------------------------------------------


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


# --- the kernel of the diagonal map ------------------------------------------


class KernelBasis(Record):
    """Nullspace basis of the diagonal map on one degree slice, as int rows
    whose bit j is the j-th tensor monomial of the slice in
    :func:`milnortc.tensorpower.tensor_slice` order.  Equal only to
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
    P: Presentation, n: int, d: int, *, max_slice: int = DEFAULT_MAX_SLICE
) -> KernelBasis:
    """Exact mod-2 nullspace of the diagonal map on the degree-d slice."""
    if d < 0:
        raise ValueError("degree must be non-negative")
    dim = list(slice_dimensions(P, n))[d]
    if dim > max_slice:
        raise ResourceLimitError(
            f"degree-{d} slice has dimension {dim}, above the cap {max_slice}",
            dimension=dim,
            cap=max_slice,
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
