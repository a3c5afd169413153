"""Künneth tensor powers, the diagonal homomorphism, and exact kernels.

A tensor monomial is an n-tuple of basic monomials of the base
presentation; a tensor element is a mod-2 set of such tuples.  The
diagonal map evaluates a tensor monomial to the product of its components
in the base ring; :func:`kernel_basis` computes an exact nullspace basis
of that map on a single degree slice.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product as iproduct

import numpy as np

from . import gf2
from .errors import ResourceLimitError
from .f2algebra import Element, Presentation, poincare_series

DEFAULT_MAX_SLICE = 1 << 20


@dataclass(frozen=True)
class TensorElement:
    """Mod-2 sum of n-tuples of basic monomials of one base presentation."""

    presentation: Presentation
    n: int
    support: frozenset

    @property
    def is_zero(self) -> bool:
        return not self.support

    @property
    def degree(self):
        P = self.presentation
        degs = {
            sum(P.monomial_degree(c) for c in tup) for tup in self.support
        }
        return degs.pop() if len(degs) == 1 else None

    def __add__(self, other: "TensorElement") -> "TensorElement":
        _check_compatible(self, other)
        return TensorElement(self.presentation, self.n, self.support ^ other.support)

    def __mul__(self, other: "TensorElement") -> "TensorElement":
        return t_multiply(self, other)

    def __pow__(self, e: int) -> "TensorElement":
        return t_power(self, e)

    def __repr__(self):
        if not self.support:
            return "TensorElement(0)"
        names = self.presentation.gen_names
        terms = []
        for tup in sorted(self.support):
            slots = []
            for mono in tup:
                factors = [
                    f"{g}^{e}" if e > 1 else g for g, e in zip(names, mono) if e
                ]
                slots.append("*".join(factors) or "1")
            terms.append("(" + "⊗".join(slots) + ")")
        return "TensorElement(" + " + ".join(terms) + ")"


def _check_compatible(u: TensorElement, v: TensorElement):
    if u.presentation is not v.presentation:
        raise ValueError("tensor elements over different presentations")
    if u.n != v.n:
        raise ValueError(f"arity mismatch: {u.n} vs {v.n}")


def t_zero(P: Presentation, n: int) -> TensorElement:
    return TensorElement(P, n, frozenset())


def t_unit(P: Presentation, n: int) -> TensorElement:
    one = (0,) * P.ngens
    if one not in P.rank_of:
        return t_zero(P, n)
    return TensorElement(P, n, frozenset(((one,) * n,)))


def inject(P: Presentation, n: int, i: int, x: Element) -> TensorElement:
    """Image of x under the i-th projection pullback: units in all other slots."""
    if not 1 <= i <= n:
        raise ValueError(f"position {i} out of range 1..{n}")
    if x.presentation is not P:
        raise ValueError("element is not over the given presentation")
    one = (0,) * P.ngens
    if one not in P.rank_of:
        return t_zero(P, n)
    support = frozenset(
        tuple(mono if k == i - 1 else one for k in range(n)) for mono in x.support
    )
    return TensorElement(P, n, support)


def t_multiply(u: TensorElement, v: TensorElement) -> TensorElement:
    _check_compatible(u, v)
    P = u.presentation
    out: set = set()
    for mu in u.support:
        for mv in v.support:
            slot_supports = []
            for cu, cv in zip(mu, mv):
                sup = P.mono_mul(cu, cv)
                if not sup:
                    break
                slot_supports.append(sup)
            else:
                out ^= set(iproduct(*slot_supports))
    return TensorElement(P, u.n, frozenset(out))


def t_power(u: TensorElement, e: int) -> TensorElement:
    if e < 0:
        raise ValueError("exponent must be non-negative")
    result = t_unit(u.presentation, u.n)
    base = u
    while e:
        if e & 1:
            result = t_multiply(result, base)
        base = t_multiply(base, base) if e > 1 else base
        e >>= 1
    return result


def diagonal_eval(u: TensorElement) -> Element:
    """Ring homomorphism replacing each tensor monomial by the product of
    its components in the base ring."""
    P = u.presentation
    out: set = set()
    for tup in u.support:
        total = tuple(sum(col) for col in zip(*tup))
        out ^= P.reduce(total)
    return Element(P, frozenset(out))


# --- degree slices of the tensor power --------------------------------------


def slice_dimension(P: Presentation, n: int, d: int) -> int:
    """Dimension of the degree-d slice: coefficient of the n-th power of
    the Poincaré series."""
    series = poincare_series(P)
    if not series:
        return 0
    coeffs = np.array([1], dtype=object)
    base = np.array(series, dtype=object)
    for _ in range(n):
        coeffs = np.convolve(coeffs, base)
    return int(coeffs[d]) if d < len(coeffs) else 0


def tensor_slice(P: Presentation, n: int, d: int):
    """All degree-d tensor monomials, sorted componentwise by basis rank."""
    key = (n, d)
    cached = P._tensor_slices.get(key)
    if cached is not None:
        return cached
    out = []
    mono_by_degree = {
        deg: [P.basis[r] for r in ranks] for deg, ranks in P.degree_slices.items()
    }

    def rec(slot, remaining, prefix):
        if slot == n:
            if remaining == 0:
                out.append(tuple(prefix))
            return
        max_rest = P.top_degree * (n - slot - 1)
        for deg in sorted(mono_by_degree):
            if deg > remaining or remaining - deg > max_rest:
                continue
            for mono in mono_by_degree[deg]:
                prefix.append(mono)
                rec(slot + 1, remaining - deg, prefix)
                prefix.pop()

    if P.basis:
        rec(0, d, [])
    # order must follow component ranks, not raw exponent tuples
    out.sort(key=lambda tup: tuple(P.rank_of[c] for c in tup))
    result = tuple(out)
    P._tensor_slices[key] = result
    return result


@dataclass(frozen=True, eq=False)
class KernelBasis:
    """Nullspace basis of the diagonal map on one degree slice, as packed
    rows over the slice's tensor monomials in :func:`tensor_slice` order."""

    presentation: Presentation
    n: int
    degree: int
    rows: np.ndarray
    slice_dim: int
    image_rank: int

    def __len__(self):
        return self.rows.shape[0]

    @property
    def elements(self) -> tuple:
        """The basis decoded into tensor elements."""
        P, n = self.presentation, self.n
        slc = tensor_slice(P, n, self.degree)
        return tuple(
            TensorElement(P, n, frozenset(slc[j] for j in np.nonzero(row)[0]))
            for row in gf2.unpack_rows(self.rows, len(slc))
        )


def kernel_basis(
    P: Presentation, n: int, d: int, *, max_slice: int = DEFAULT_MAX_SLICE
) -> KernelBasis:
    """Exact mod-2 nullspace of the diagonal map on the degree-d slice."""
    if d < 0:
        raise ValueError("degree must be non-negative")
    dim = slice_dimension(P, n, d)
    if dim > max_slice:
        raise ResourceLimitError(
            f"degree-{d} slice has dimension {dim}, above the cap {max_slice}",
            dimension=dim,
            cap=max_slice,
        )
    slc = tensor_slice(P, n, d)
    if len(slc) == 0:
        return KernelBasis(P, n, d, gf2.zeros(0, 0), 0, 0)
    target = P.degree_slices.get(d, ())
    target_pos = {rank: i for i, rank in enumerate(target)}
    # matrix of the map, transposed: rows = target basis, cols = slice
    dense = np.zeros((len(target), len(slc)), dtype=np.uint8)
    for col, tup in enumerate(slc):
        total = tuple(sum(x) for x in zip(*tup))
        for mono in P.reduce(total):
            dense[target_pos[P.rank_of[mono]], col] ^= 1
    null = gf2.nullspace(gf2.pack_rows(dense), len(slc))
    return KernelBasis(P, n, d, null, len(slc), len(slc) - null.shape[0])
