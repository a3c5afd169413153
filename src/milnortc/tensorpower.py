"""Künneth tensor powers, the diagonal homomorphism, and exact kernels.

:func:`tensor_power` gives the n-fold tensor power of a presentation as an
algebra that :class:`~milnortc.f2algebra.Element` and the f2algebra
arithmetic accept.  Its monomials are n-tuples of basic monomials of the
base presentation.  Its basis is never enumerated whole: degree slices are
built on demand by :func:`tensor_slice` and kept on the power.  Its
products are not memoised: a pair of tensor monomials is multiplied in the
base ring only in the slots where the sparser operand is not the unit,
which for a certificate factor (a sum of classes injected in one or two
slots) is one or two of the n slots.  The diagonal map evaluates a tensor
monomial to the product of its components in the base ring;
:func:`kernel_basis` computes an exact nullspace basis of that map on a
single degree slice, as :mod:`milnortc.gf2` int rows.  The oracle in
:mod:`milnortc.cuplength` never needs that basis: the tests use it as the
independent reference the oracle is checked against.
"""

from __future__ import annotations

from itertools import product as iproduct

from . import gf2
from .errors import ResourceLimitError
from .f2algebra import Element, Presentation, poincare_series
from .record import Record

DEFAULT_MAX_SLICE = 1 << 20

_POWER_CACHE: dict = {}


class TensorPower:
    """The n-fold tensor power of a base presentation.

    Construct via :func:`tensor_power`, which interns instances so equal
    (presentation, n) pairs share one object.
    """

    def __init__(self, base: Presentation, n: int):
        self.base = base
        self.n = n
        self.one = None if base.one is None else (base.one,) * n
        self._slices: dict = {}

    def monomial_degree(self, tup) -> int:
        return sum(self.base.monomial_degree(c) for c in tup)

    def is_basic(self, tup) -> bool:
        return (
            isinstance(tup, tuple)
            and len(tup) == self.n
            and all(self.base.is_basic(c) for c in tup)
        )

    def format_monomial(self, tup) -> str:
        return "(" + "⊗".join(map(self.base.format_monomial, tup)) + ")"

    def mul_supports(self, xs, ys) -> set:
        """Product of two supports.  A pair of tensor monomials multiplies
        in the base ring only in the slots where the sparser side (the one
        with more unit slots per monomial) is not the unit; every other
        slot keeps the other side's monomial, since the unit times m is m.
        Each slot product is looked up once per value it meets, and the
        tensor of the slot supports is expanded only over the slots whose
        product has several terms."""
        P, one = self.base, self.base.one
        if sum(mu.count(one) for mu in xs) * len(ys) < sum(
            mv.count(one) for mv in ys
        ) * len(xs):
            xs, ys = ys, xs
        mono_mul = P.mono_mul
        out: set = set()
        for mu in xs:
            # (slot, factor, its products by the values met in that slot)
            slots = [(k, c, {}) for k, c in enumerate(mu) if c != one]
            for mv in ys:
                prod = list(mv)
                multi = []
                for k, c, seen in slots:
                    sup = seen.get(mv[k])
                    if sup is None:
                        sup = seen[mv[k]] = mono_mul(c, mv[k])
                    if len(sup) == 1:
                        (prod[k],) = sup
                    elif sup:
                        multi.append((k, sup))
                    else:
                        break
                else:
                    if not multi:
                        out ^= {tuple(prod)}
                        continue
                    ks = [k for k, _ in multi]
                    for terms in iproduct(*(sup for _, sup in multi)):
                        for k, c in zip(ks, terms):
                            prod[k] = c
                        out ^= {tuple(prod)}
        return out


def tensor_power(P: Presentation, n: int) -> TensorPower:
    """The interned n-fold tensor power of P."""
    T = _POWER_CACHE.get((P, n))
    if T is None:
        T = _POWER_CACHE[(P, n)] = TensorPower(P, n)
    return T


def inject(P: Presentation, n: int, i: int, x: Element) -> Element:
    """Image of x under the i-th projection pullback: units in all other slots."""
    if not 1 <= i <= n:
        raise ValueError(f"position {i} out of range 1..{n}")
    if x.algebra is not P:
        raise ValueError("element is not over the given presentation")
    # the zero ring has no unit, but then x.support is empty too
    support = frozenset(
        tuple(mono if k == i - 1 else P.one for k in range(n)) for mono in x.support
    )
    return Element.computed(tensor_power(P, n), support)


def diagonal_eval(u: Element) -> Element:
    """Ring homomorphism replacing each tensor monomial by the product of
    its components in the base ring."""
    P = u.algebra.base
    out: set = set()
    for tup in u.support:
        total = tuple(sum(col) for col in zip(*tup))
        out ^= P.reduce(total)
    return Element(P, frozenset(out))


# --- degree slices of the tensor power --------------------------------------


def slice_dimension(P: Presentation, n: int, d: int) -> int:
    """Dimension of the degree-d slice: coefficient of the n-th power of
    the Poincaré series.  As in :func:`tensor_slice`, the zero ring has no
    monomial in any power, n = 0 included."""
    series = poincare_series(P)
    coeffs = [1 if P.basis else 0]
    for _ in range(n):
        nxt = [0] * (len(coeffs) + len(series) - 1)
        for i, a in enumerate(coeffs):
            for j, b in enumerate(series):
                nxt[i + j] += a * b
        coeffs = nxt
    return coeffs[d] if 0 <= d < len(coeffs) else 0


def tensor_slice(P: Presentation, n: int, d: int):
    """All degree-d tensor monomials, sorted componentwise by basis rank:
    the first slot runs over the basis in rank order (so by ascending
    degree), and the other n - 1 slots over the degree-(d - deg) slice of
    the next-lower power, cached on that power.  The n = 0 power has the
    empty tuple in degree 0, except over the zero ring, which has no
    monomial in any power."""
    slices = tensor_power(P, n)._slices
    cached = slices.get(d)
    if cached is not None:
        return cached
    if n == 0:
        result = ((),) if d == 0 and P.basis else ()
    else:
        result = tuple(
            (P.basis[r],) + rest
            for deg in sorted(P.degree_slices)
            if deg <= d
            for r in P.degree_slices[deg]
            for rest in tensor_slice(P, n - 1, d - deg)
        )
    slices[d] = result
    return result


class KernelBasis(Record):
    """Nullspace basis of the diagonal map on one degree slice, as
    :mod:`milnortc.gf2` int rows whose bit j is the j-th tensor monomial
    of the slice in :func:`tensor_slice` order.  Equal only to itself."""

    __slots__ = ("presentation", "n", "degree", "rows", "slice_dim")
    __eq__ = object.__eq__
    __hash__ = object.__hash__

    def __len__(self):
        return len(self.rows)

    @property
    def elements(self) -> tuple:
        """The basis decoded into elements of the tensor power."""
        P, n = self.presentation, self.n
        T, slc = tensor_power(P, n), tensor_slice(P, n, self.degree)
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
    dim = slice_dimension(P, n, d)
    if dim > max_slice:
        raise ResourceLimitError(
            f"degree-{d} slice has dimension {dim}, above the cap {max_slice}",
            dimension=dim,
            cap=max_slice,
        )
    slc = tensor_slice(P, n, d)
    target_pos = {rank: i for i, rank in enumerate(P.degree_slices.get(d, ()))}
    # the map transposed: one row per target basis monomial, bit j for the
    # j-th slice monomial
    rows = [0] * len(target_pos)
    for col, tup in enumerate(slc):
        total = tuple(sum(x) for x in zip(*tup))
        for mono in P.reduce(total):
            rows[target_pos[P.rank_of[mono]]] ^= 1 << col
    return KernelBasis(P, n, d, gf2.nullspace(rows, len(slc)), len(slc))
