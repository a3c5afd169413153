"""Exact arithmetic in finite-dimensional graded mod-2 algebras.

An algebra here is a :class:`Presentation` or a tensor power of one
(:class:`milnortc.exprs.TensorPower`); :class:`Element`,
:func:`multiply`, :func:`power`, :func:`unit` and :func:`zero` serve both.
Each algebra supplies ``one`` (its unit monomial), ``is_basic``,
``monomial_degree``, ``format_monomial`` and ``mul_supports``, its loop
multiplying two supports.

A presentation is the ring of one checked space descriptor of
:mod:`milnortc.spaces`, read off the descriptor's ``generators``: one
``(name, degree, bound, terms)`` per generator g, with the relation
``g^bound = sum(terms)``.  The monomial basis is every exponent vector
below the bounds.  The normal form of a raw monomial finds the first
generator at or above its bound, replaces ``g^bound`` by its terms once,
and reduces each result through the memoised :meth:`Presentation.reduce`;
an empty rule makes the monomial vanish.  The rewriting ends because each
term has the degree of ``g^bound``, is below the bound on g and raises only
generators before g: a rewrite keeps the later exponents and lowers g's,
so, read from the last generator back, the exponent vectors of one degree
strictly descend, and there are finitely many of them.

Elements are mod-2 sums of basic monomials; addition is symmetric
difference of supports.  All values are immutable after construction and
every operation is pure, so presentations and elements can be shared
freely across workers.
"""

from __future__ import annotations

from itertools import product as iproduct

from .record import Record

_PRESENTATION_CACHE: dict = {}


class Presentation:
    """The mod-2 cohomology ring of a space descriptor, with its monomial
    basis enumerated.

    Built only by :func:`milnortc.spaces.cohomology_of`, which keeps one
    instance per descriptor, its ``cache_key``, in ``_PRESENTATION_CACHE``,
    so identity comparison is safe.
    """

    def __init__(self, space):
        self.cache_key = space
        gens = space.generators
        self.gen_names, self.gen_degrees, self._bounds, self._rules = zip(*gens)
        self.ngens = len(self.gen_names)
        basis = iproduct(*map(range, self._bounds))
        self.basis = tuple(sorted(basis, key=lambda m: (self.monomial_degree(m), m)))
        self.rank_of = {mono: i for i, mono in enumerate(self.basis)}
        slices: dict[int, list[int]] = {}
        for i, mono in enumerate(self.basis):
            slices.setdefault(self.monomial_degree(mono), []).append(i)
        self.degree_slices = {d: tuple(v) for d, v in slices.items()}
        self.top_degree = max(self.degree_slices)
        self.one = (0,) * self.ngens
        self._nf_cache: dict = {}
        self._mul_cache: dict = {}

    def monomial_degree(self, exps) -> int:
        return sum(e * d for e, d in zip(exps, self.gen_degrees))

    def is_basic(self, mono) -> bool:
        return mono in self.rank_of

    def format_monomial(self, mono) -> str:
        factors = [
            f"{g}^{e}" if e > 1 else g for g, e in zip(self.gen_names, mono) if e
        ]
        return "*".join(factors) or "1"

    # -- normal form ----------------------------------------------------

    def reduce(self, exps) -> frozenset:
        """Normal form of a raw monomial as a set of basic monomials."""
        exps = tuple(exps)
        if len(exps) != self.ngens:
            raise ValueError(
                f"expected {self.ngens} exponents, got {len(exps)}"
            )
        cached = self._nf_cache.get(exps)
        if cached is None:
            cached = self._reduce(exps)
            self._nf_cache[exps] = cached
        return cached

    def _reduce(self, exps) -> frozenset:
        for i, bound in enumerate(self._bounds):
            if exps[i] >= bound:
                # g^bound = sum of g's terms, each result through the memo
                rest = exps[:i] + (exps[i] - bound,) + exps[i + 1 :]
                out = frozenset()
                for term in self._rules[i]:
                    out ^= self.reduce(tuple(x + y for x, y in zip(rest, term)))
                return out
        return frozenset((exps,))

    def mono_mul(self, m1, m2) -> frozenset:
        """Product of two basic monomials as a set of basic monomials."""
        key = (m1, m2) if m1 <= m2 else (m2, m1)
        cached = self._mul_cache.get(key)
        if cached is None:
            cached = self.reduce(tuple(x + y for x, y in zip(m1, m2)))
            self._mul_cache[key] = cached
        return cached

    def mul_supports(self, xs, ys) -> set:
        """Product of two supports, one memoised monomial product per pair."""
        out: set = set()
        for mx in xs:
            for my in ys:
                out ^= self.mono_mul(mx, my)
        return out

    def __repr__(self):
        return f"Presentation({self.cache_key!r})"


class Element(Record):
    """Mod-2 sum of basic monomials of one algebra: a presentation or a
    tensor power of one."""

    __slots__ = ("algebra", "support")

    def _check(self):
        for mono in self.support:
            if not self.algebra.is_basic(mono):
                raise ValueError(f"non-basic monomial in support: {mono}")

    @classmethod
    def computed(cls, algebra, support: frozenset) -> "Element":
        """An element whose support the engine computed from basic
        monomials, so it is not checked again."""
        el = object.__new__(cls)
        object.__setattr__(el, "algebra", algebra)
        object.__setattr__(el, "support", support)
        return el

    @property
    def is_zero(self) -> bool:
        return not self.support

    @property
    def degree(self):
        """Common degree of the support, or None if zero/inhomogeneous."""
        degs = {self.algebra.monomial_degree(m) for m in self.support}
        return degs.pop() if len(degs) == 1 else None

    def __add__(self, other: "Element") -> "Element":
        _check_same(self, other)
        return Element.computed(self.algebra, self.support ^ other.support)

    def __mul__(self, other: "Element") -> "Element":
        return multiply(self, other)

    def __repr__(self):
        terms = map(self.algebra.format_monomial, sorted(self.support))
        return "Element(" + (" + ".join(terms) or "0") + ")"


def _check_same(x: Element, y: Element):
    if x.algebra is not y.algebra:
        raise ValueError("elements belong to different algebras")


def zero(A) -> Element:
    return Element.computed(A, frozenset())


def unit(A) -> Element:
    """The multiplicative unit."""
    return Element.computed(A, frozenset((A.one,)))


def generator(P: Presentation, name: str) -> Element:
    if name not in P.gen_names:
        raise ValueError(f"unknown generator {name!r}; have {P.gen_names}")
    idx = P.gen_names.index(name)
    exps = tuple(1 if k == idx else 0 for k in range(P.ngens))
    return Element(P, P.reduce(exps))


def multiply(x: Element, y: Element) -> Element:
    _check_same(x, y)
    A = x.algebra
    return Element.computed(A, frozenset(A.mul_supports(x.support, y.support)))


def power(x: Element, e: int) -> Element:
    if e < 0:
        raise ValueError("exponent must be non-negative")
    if e == 0:
        return unit(x.algebra)
    # start from the first power of x taken, never from the unit
    result = None
    while e:
        if e & 1:
            result = x if result is None else multiply(result, x)
        e >>= 1
        if e:
            x = multiply(x, x)
    return result

