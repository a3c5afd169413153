"""Programmatic generators for the explicit hand-built certificates.

Each construction emits a :class:`Certificate` whose total factor count
matches the corresponding closed-form cup value.  Only :func:`cert_case2`
asserts nonzeroness: its search returns a product it found nonzero.
Verification is a separate step in :mod:`cuplength`.
Generation is deterministic: identical parameters give identical output.

This module alone knows the families: :data:`GENERATORS` maps each
``gen-cert`` method to its builder and parameter names, and
:func:`certificates_for` maps a space to the families whose hypotheses it
satisfies, for :func:`milnortc.bounds.tc_bounds`.  Only the method names
are written out again, in :mod:`milnortc.cli`, so that building its parser
does not run this module; a test keeps the two lists equal.
"""

from __future__ import annotations

from .cuplength import Certificate, SearchFailure, _factor_product
from .exprs import Gen, evaluate_text, to_string
from .f2algebra import multiply
from .spaces import (
    ComplexMilnor,
    RealMilnor,
    RealProj,
    cohomology_of,
    format_space,
    parse_space,
)


def _pair(name: str, i: int, j: int) -> str:
    return f"({name}{i}+{name}{j})"


def _log2(x: int):
    """The t with x = 2^t, or None when x is not a power of two."""
    if x < 1 or x & (x - 1):
        return None
    return x.bit_length() - 1


def _blocks(n: int, block=(), bridges=(), tail=()) -> tuple:
    """Adjacent sums laid out over n slots, with k = n // 2: each (g, e) of
    block on slots (2i-1, 2i) of every block i, each (g, o, e) of bridges
    on slots (2i+o, 2i+2+o) between blocks i and i+1, and for odd n each
    (g, e) of tail on slots (2k, 2k+1).  Factors of exponent 0 are left
    out."""
    k = n // 2
    factors = [(_pair(g, 2 * i - 1, 2 * i), e) for i in range(1, k + 1) for g, e in block]
    factors += [
        (_pair(g, 2 * i + o, 2 * i + 2 + o), e) for i in range(1, k) for g, o, e in bridges
    ]
    if n % 2 == 1:
        factors += [(_pair(g, 2 * k, 2 * k + 1), e) for g, e in tail]
    return tuple((expr, e) for expr, e in factors if e > 0)


def cert_case1(t1: int, t2: int, n: int) -> Certificate:
    """Certificate for s = 2^t1 + 1, r = 2^t2 on the real Milnor manifold.

    Even n = 2k: adjacent sums of a to the (2(s-1)-1)-st power and of b to
    the (2r-1)-st power in each even block, plus squared odd-position a sums
    bridging blocks; odd n adds an (a-sum)^s (b-sum)^(r-1) tail.
    """
    if t1 < 0 or t2 < 0:
        raise ValueError("t1 and t2 must be non-negative")
    if n < 2:
        raise ValueError("arity must be >= 2")
    s = 2**t1 + 1
    r = 2**t2
    if s > r:
        raise ValueError(f"hypothesis violated: s = {s} > r = {r}")
    factors = _blocks(
        n,
        block=(("a", 2 * (s - 1) - 1), ("b", 2 * r - 1)),
        bridges=(("a", -1, 2),),
        tail=(("a", s), ("b", r - 1)),
    )
    claimed = n * (s + r - 1) - 2
    return Certificate(format_space(RealMilnor(r, s)), n, factors, claimed, claimed + 1)


def cert_case2(p1: int, p2: int, n: int):
    """Certificate for s = 2^p1, r = 2^p2 + 1; the k-1 squared bridging
    classes are not written down in closed form, so they are searched for
    over adjacent even-position sums (widened to all position pairs on
    failure), depth first in ascending order, so that full combinations
    come in lexicographic order.  Each bridge is evaluated and squared
    once.  The search goes no deeper below a zero product, as every
    combination extending it vanishes too, so it returns the first
    combination whose product is nonzero, or a SearchFailure.  Each factor
    is a sum g_i + g_j, sent by the diagonal to 2g = 0, so a nonzero
    product is a verified certificate."""
    if p1 < 0 or p2 < 0:
        raise ValueError("p1 and p2 must be non-negative")
    if n < 2:
        raise ValueError("arity must be >= 2")
    s = 2**p1
    r = 2**p2 + 1
    if s > r:
        raise ValueError(f"hypothesis violated: s = {s} > r = {r}")
    base = _blocks(
        n,
        block=(("a", 2 * s - 1), ("b", 2 * (r - 1) - 1)),
        tail=(("a", s), ("b", r - 1)),
    )
    milnor = RealMilnor(r, s)
    claimed = n * (s + r - 1) - 2

    narrow = [expr for expr, _ in _blocks(n, bridges=(("a", 0, 2), ("b", 0, 2)))]
    wide = [
        _pair(g, i, j) for g in ("a", "b") for i in range(1, n + 1) for j in range(i + 1, n + 1)
    ]
    P = cohomology_of(milnor)
    squares = {}  # bridge -> its square

    def first_nonzero(pool, start, product, depth):
        """The first ascending run of depth bridges from pool[start:] whose
        squares times product are nonzero, or None."""
        if product.is_zero:
            return None
        if depth == 0:
            return ()
        for i in range(start, len(pool)):
            expr = pool[i]
            if expr not in squares:
                el = evaluate_text(expr, P, n)
                squares[expr] = multiply(el, el)
            rest = first_nonzero(pool, i, multiply(product, squares[expr]), depth - 1)
            if rest is not None:
                return (expr,) + rest
        return None

    base_product, _ = _factor_product(P, n, base)
    for pool in (narrow, wide):
        combo = first_nonzero(sorted(set(pool)), 0, base_product, n // 2 - 1)
        if combo is not None:
            bridges = tuple((expr, 2) for expr in combo)
            return Certificate(format_space(milnor), n, base + bridges, claimed, claimed + 1)
    return SearchFailure("no bridging classes gave a nonzero product")


def cert_r2t(s: int, t: int, n: int) -> Certificate:
    """Certificate for r = 2^t and any 1 <= s <= r: per even block an a-sum
    to the s-th and a b-sum to the (2r-1)-st power, with (s-1)-st powers of
    even-position a sums bridging blocks."""
    if t < 0:
        raise ValueError("t must be non-negative")
    if n < 2:
        raise ValueError("arity must be >= 2")
    r = 2**t
    # s = 0 makes the claimed count exceed the top degree, so the
    # construction is only meaningful for s >= 1
    if not 1 <= s <= r:
        raise ValueError(f"requires 1 <= s <= r = {r}, got s = {s}")
    factors = _blocks(
        n,
        block=(("a", s), ("b", 2 * r - 1)),
        bridges=(("a", 0, s - 1),),
        tail=(("a", s), ("b", r - 1)),
    )
    claimed = n * (r + s - 1) - s + 1
    return Certificate(format_space(RealMilnor(r, s)), n, factors, claimed, claimed + 1)


def cert_proj(t: int, n: int) -> Certificate:
    """Certificate on real projective space of dimension 2^t: adjacent sums
    of the generator to the (2^(t+1)-1)-st power per even block, linear
    even-position bridges, and a 2^t-th power tail for odd n."""
    if t < 0:
        raise ValueError("t must be non-negative")
    if n < 2:
        raise ValueError("arity must be >= 2")
    factors = _blocks(
        n, block=(("x", 2 ** (t + 1) - 1),), bridges=(("x", 0, 1),), tail=(("x", 2**t),)
    )
    claimed = n * 2**t - 1
    return Certificate(f"rp:{2**t}", n, factors, claimed, claimed + 1)


# method name of gen-cert -> (builder, names of its parameters before n)
GENERATORS = {
    "case1": (cert_case1, ("t1", "t2")),
    "case2": (cert_case2, ("p1", "p2")),
    "r2t": (cert_r2t, ("s", "t")),
    "proj": (cert_proj, ("t",)),
}


def certificates_for(space, n: int) -> list:
    """The families whose hypotheses the space satisfies, as (rule,
    Certificate | SearchFailure) rows."""
    rows = []
    if isinstance(space, (RealMilnor, ComplexMilnor)):
        r, s = space.r, space.s
        t1, t2 = _log2(s - 1), _log2(r)
        if t1 is not None and t2 is not None:
            rows.append(("certificate-odd-power-blocks", cert_case1(t1, t2, n)))
        p1, p2 = _log2(s), _log2(r - 1)
        if p1 is not None and p2 is not None:
            rows.append(("certificate-searched-bridges", cert_case2(p1, p2, n)))
        if t2 is not None and s >= 1:
            rows.append(("certificate-power-of-two-r", cert_r2t(s, t2, n)))
    elif isinstance(space, RealProj):
        t = _log2(space.m)
        if t is not None:
            rows.append(("certificate-projective", cert_proj(t, n)))
    return rows


def cert_cat_topclass(space, n: int) -> Certificate:
    """Top-class witness for the category of the n-fold power: every
    generator of every slot raised to its exponent in the top basis
    monomial (a point gives the empty product).  The factors are not zero
    divisors; the certificate is flagged accordingly and witnesses the ring
    cup-length, giving cat >= count + 1."""
    if isinstance(space, str):
        space = parse_space(space)
    if n < 1:
        raise ValueError("arity must be >= 1")
    P = cohomology_of(space)
    top = P.basis[-1]  # the top degree of a closed manifold's ring is one class
    factors = tuple(
        (to_string(Gen(name, i)), e)
        for i in range(1, n + 1)
        for name, e in zip(P.gen_names, top)
        if e > 0
    )
    claimed = n * sum(top)
    return Certificate(
        format_space(space), n, factors, claimed, claimed + 1, cat_witness=True
    )
