"""Zero-divisor cup-length: the check of a certificate, and the exact
oracle's cache and witnesses.

The certificate records, the tensor-power elements that a check
multiplies and their arithmetic are in :mod:`milnortc.exprs`.  This module
reaches it only through its module object, when a check needs it, and
quotes the annotations that name it, so the oracle never runs exprs.

A certificate holds the descriptor of the space whose ring it is checked
in and lists factors with multiplicities.  :func:`verify_certificate`
evaluates and checks each factor in that order, then multiplies their
powers in slot-overlap order: each step takes the pending factor that
shares the most non-unit tensor slots with the product so far.  The ring
is commutative, so the product, and with it every verdict, is that of any
other order.  Certificates list their blocks, on disjoint slots, before
the bridges that link them; multiplied in that order the blocks form their
whole tensor product, with nothing to cancel, before a bridge can make it
vanish.

The oracle computes zcl_n, the largest m with K^m != 0 for K the kernel
of the diagonal map on the n-fold tensor power of A, by the slot chain of
:mod:`milnortc.slotchain`.  :func:`_run` reaches it through its module
object, so a command that only checks certificates never runs it.
:func:`cup_witness` names the chain's witness, which
:func:`verify_certificate` checks by multiplying it out in the tensor
power, a route that shares nothing with the contraction.  A product of
spaces is never run on its own ring: its value is the sum of its factors'
and its witness their witnesses renamed (see :func:`_product_run`).  The
oracle's only lasting state is its cache of (value, witness) per ring and
n.  The tests check it against a slower route that multiplies full kernel
bases.
"""

# exprs and slotchain run on the first use of one of their names (see the
# package docstring): cup never runs exprs, nor verify slotchain
from . import exprs, slotchain
from .errors import ResourceLimitError
from .f2algebra import Presentation
from .spaces import ProductSpace, cohomology_of, format_space


def verify_certificate(cert: "exprs.Certificate") -> "exprs.VerificationReport":
    """Check every factor, in the order given, and the full product of
    their powers in the ring of cert.space; never consults the claims.
    This is the one loop that multiplies a certificate's factors.

    The powers are multiplied in slot-overlap order: next comes the pending
    factor that shares the most non-unit slots with the product so far,
    ties going to the order given, and each power is formed only when its
    factor is taken.  The ring is commutative, so any order gives the same
    product; this one avoids forming the product of factors on disjoint
    slots, which is their whole tensor product with nothing to cancel,
    before a factor that links them can make it vanish.  The product starts
    from the first power taken, never from the unit, and once it is zero
    the remaining powers are not formed."""
    P, n = cohomology_of(cert.space), cert.n
    checks, pending = [], []
    for text, mult in cert.factors:
        el = exprs.evaluate_text(text, P, n)
        checks.append(exprs.FactorCheck(text, exprs.is_zero_divisor(el), el.degree))
        pending.append((exprs._slots(el), el, mult))
    if pending:
        slots, el, mult = pending.pop(0)
        product, covered = exprs.power(el, mult), slots
    else:
        product = exprs.unit(exprs.tensor_power(P, n))
    while pending and not product.is_zero:
        i = max(range(len(pending)), key=lambda i: len(pending[i][0] & covered))
        slots, el, mult = pending.pop(i)
        product = exprs.multiply(product, exprs.power(el, mult))
        covered |= slots
    if not (cert.cat_witness or all(c.is_zero_divisor for c in checks)):
        verdict = "FactorNotZeroDivisor"
    elif product.is_zero:
        verdict = "ProductVanishes"
    else:
        verdict = "Verified"
    verified = sum(m for _, m in cert.factors) if verdict == "Verified" else None
    return exprs.VerificationReport(
        per_factor=tuple(checks),
        product_nonzero=not product.is_zero,
        verified_cup=verified,
        verdict=verdict,
    )


# --- the oracle's cache and witnesses ---------------------------------------

_CUP_CACHE: dict = {}


def _product_run(space: ProductSpace, n: int) -> tuple:
    """The oracle's (value, factors) for the ring of a product, from its
    factors' runs: the sum of their values, and their factors with the
    idx-th one's generator g renamed g.idx, as the product ring names it.
    A factor's refusal names that factor.  The product's own ring is never
    run, and the budget bounds each factor's run.

    Why the sum: over a field, the n-fold tensor power of A ⊗ B is
    A' ⊗ B' with A' = A^(⊗n) and B' = B^(⊗n), and the diagonal map is
    Δ_A ⊗ Δ_B.  Both maps are onto, so the kernel of their tensor product
    is K = K_A ⊗ B' + A' ⊗ K_B, and K^m is the sum over i + j = m of
    K_A^i ⊗ K_B^j, which is nonzero exactly when some K_A^i and K_B^j are.
    So zcl_n(A ⊗ B) = zcl_n(A) + zcl_n(B), and a nonzero product of
    zcl_n(A) generators of K_A times one of zcl_n(B) generators of K_B is
    a nonzero product in A' ⊗ B': the factors' witnesses, renamed, are a
    witness for the product."""
    value, factors = 0, []
    for idx, factor in enumerate(space.factors, start=1):
        try:
            v, fs = _run(cohomology_of(factor), n)
        except ResourceLimitError as exc:
            raise ResourceLimitError(f"factor {format_space(factor)}: {exc}") from None
        value += v
        factors += [((f"{g}.{idx}", i), mult) for (g, i), mult in fs]
    return value, tuple(factors)


def _run(P: Presentation, n: int) -> tuple:
    """The oracle's (value, factors) for P and n, from its cache or a new
    run, which raises ResourceLimitError past the budget and then caches
    nothing; a product's comes from its factors' (see :func:`_product_run`)."""
    if n < 1:
        raise ValueError("arity must be >= 1")
    if type(P.cache_key) is ProductSpace:
        return _product_run(P.cache_key, n)
    key = (P.cache_key, n)
    if key not in _CUP_CACHE:
        _CUP_CACHE[key] = slotchain._oracle(P, n)
    return _CUP_CACHE[key]


def cup_exact(P: Presentation, n: int) -> int:
    """Largest m with K^m != 0 for K the kernel of the diagonal map."""
    return _run(P, n)[0]


def cup_witness(P: Presentation, n: int) -> tuple:
    """Factors ((expression, multiplicity), ...) of a nonzero product of
    cup_exact(P, n) ideal generators, from the same cached oracle run."""
    return tuple(
        (exprs.sum_text(name, i, i + 1), mult) for (name, i), mult in _run(P, n)[1]
    )
