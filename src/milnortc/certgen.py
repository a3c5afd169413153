"""Programmatic generators for the explicit hand-built certificates.

Each construction emits a :class:`Certificate` on a space descriptor,
never on its text, whose total factor count matches the closed-form cup
value.  Only :func:`cert_case2` asserts nonzeroness: it returns its
certificate only when :func:`milnortc.cuplength.verify_certificate`, the
one code that multiplies a certificate's factors, verifies it.  Every
other construction, and every certificate :func:`certificates_for` offers,
is checked by the caller.  Identical parameters give identical output.

This module alone knows the families' hypotheses: :func:`certificates_for`
maps a space to the families whose hypotheses it satisfies, for
:func:`milnortc.bounds.tc_bounds`.  Each ``gen-cert`` method names its
builder here, with the builder's parameters before n, in
:mod:`milnortc.cli`'s method table, so that the table does not run this
module; a test keeps each entry's names equal to its builder's parameters.
"""

from .cuplength import verify_certificate
from .exprs import Certificate, Gen, SearchFailure, sum_text, to_string
from .spaces import ComplexMilnor, RealMilnor, RealProj, cohomology_of


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
    factors = [(sum_text(g, 2 * i - 1, 2 * i), e) for i in range(1, k + 1) for g, e in block]
    factors += [
        (sum_text(g, 2 * i + o, 2 * i + 2 + o), e) for i in range(1, k) for g, o, e in bridges
    ]
    if n % 2 == 1:
        factors += [(sum_text(g, 2 * k, 2 * k + 1), e) for g, e in tail]
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
    return Certificate(RealMilnor(r, s), n, factors, claimed)


def _case2(p1: int, p2: int, n: int) -> Certificate:
    """The case-2 certificate for s = 2^p1, r = 2^p2 + 1, unchecked: the
    blocks of a-sums to the (2s-1)-st and b-sums to the (2(r-1)-1)-st power,
    for odd n the tail, then the k-1 squared even-position b sums
    (b_2i + b_2i+2)^2 bridging blocks, sorted by their text."""
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
    factors = base + tuple(sorted(_blocks(n, bridges=(("b", 0, 2),))))
    claimed = n * (s + r - 1) - 2
    return Certificate(RealMilnor(r, s), n, factors, claimed)


def cert_case2(p1: int, p2: int, n: int):
    """The case-2 certificate for s = 2^p1, r = 2^p2 + 1 (see
    :func:`_case2`) when :func:`verify_certificate` verifies it, and a
    SearchFailure otherwise.  Each factor is a sum g_i + g_j, sent by the
    diagonal to 2g = 0, so the verdict fails exactly when the product
    vanishes.

    These bridges are measured, not proven, to be the ones a search over
    every combination of squared sums g_i + g_j finds: on every p1, p2 <= 3
    with s <= r at n = 2..10, r = 2 at n = 11..14 and r = 17 at n = 2..6
    (132 cases), both give the same certificate, or both fail."""
    cert = _case2(p1, p2, n)
    if verify_certificate(cert).verdict != "Verified":
        return SearchFailure("no bridging classes gave a nonzero product")
    return cert


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
    return Certificate(RealMilnor(r, s), n, factors, claimed)


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
    return Certificate(RealProj(2**t), n, factors, claimed)


def certificates_for(space, n: int) -> list:
    """The families whose hypotheses the space satisfies, as (rule,
    Certificate) rows, none of them checked yet.  Each certificate holds
    the space, whose ring it is checked in: a family written for rh:r,s
    serves ch:r,s too, whose ring is rh's with every degree doubled."""
    rows = []
    if isinstance(space, (RealMilnor, ComplexMilnor)):
        r, s = space.r, space.s
        t1, t2 = _log2(s - 1), _log2(r)
        if t1 is not None and t2 is not None:
            rows.append(("certificate-odd-power-blocks", cert_case1(t1, t2, n)))
        p1, p2 = _log2(s), _log2(r - 1)
        if p1 is not None and p2 is not None:
            rows.append(("certificate-searched-bridges", _case2(p1, p2, n)))
        if t2 is not None and s >= 1:
            rows.append(("certificate-power-of-two-r", cert_r2t(s, t2, n)))
    elif isinstance(space, RealProj):
        t = _log2(space.m)
        if t is not None:
            rows.append(("certificate-projective", cert_proj(t, n)))
    return [(rule, cert.replace(space=space)) for rule, cert in rows]


def cert_cat_topclass(space, n: int) -> Certificate:
    """Top-class witness for the category of the n-fold power: every
    generator of every slot raised to its exponent in the top basis
    monomial (a point gives the empty product).  The factors are not zero
    divisors; the certificate is flagged accordingly and witnesses the ring
    cup-length, giving cat >= count + 1."""
    P = cohomology_of(space)
    top = P.basis[-1]  # the top degree of a closed manifold's ring is one class
    factors = tuple(
        (to_string(Gen(name, i)), e)
        for i in range(1, n + 1)
        for name, e in zip(P.gen_names, top)
        if e > 0
    )
    claimed = n * sum(top)
    return Certificate(space, n, factors, claimed, cat_witness=True)
