"""Künneth tensor powers, the diagonal homomorphism, and degree slices.

:func:`tensor_power` gives the n-fold tensor power of a presentation as an
algebra that :class:`~milnortc.f2algebra.Element` and the f2algebra
arithmetic accept.  Its monomials are n-tuples of basic monomials of the
base presentation.  Its basis is never enumerated whole: degree slices are
built on demand by :func:`tensor_slice` into a dict the caller owns, never
kept on the power, so an oracle run's slices go with the run.  Its
products are not memoised: a pair of tensor monomials is multiplied in the
base ring only in the slots where the sparser operand is not the unit,
which for a certificate factor (a sum of classes injected in one or two
slots) is one or two of the n slots.  The diagonal map evaluates a tensor
monomial to the product of its components in the base ring.
"""

from __future__ import annotations

from itertools import product as iproduct

from .f2algebra import Element, Presentation, poincare_series

# a level of kept rows over a d-column slice holds at most d rows of d bits,
# d²/8 bytes, so the default cap bounds a level by 512 MiB.  It refuses cup
# on rh:16,9 at n = 3 (a 168,256-column slice), which would run for minutes
# and take gigabytes, and lets rh:9,2 at n = 4 (37,881 columns) run
DEFAULT_MAX_SLICE = 1 << 16

_POWER_CACHE: dict = {}


class TensorPower:
    """The n-fold tensor power of a base presentation.

    Construct via :func:`tensor_power`, which interns instances so equal
    (presentation, n) pairs share one object.
    """

    def __init__(self, base: Presentation, n: int):
        self.base = base
        self.n = n
        self.one = (base.one,) * n

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


def slice_dimensions(P: Presentation, n: int) -> list:
    """Dimensions of the degree slices 0..n * top degree of the n-th power:
    the coefficients of the n-th power of the Poincaré series, computed
    once for all degrees."""
    series = poincare_series(P)
    dims = [1]
    for _ in range(n):
        nxt = [0] * (len(dims) + len(series) - 1)
        for i, a in enumerate(dims):
            for j, b in enumerate(series):
                nxt[i + j] += a * b
        dims = nxt
    return dims


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
