"""Zero-divisor cup-length: the check of a certificate, and the exact oracle.

The certificate records, and the tensor-power elements that a check
multiplies, are in :mod:`milnortc.exprs`.  This module reaches it only
through its module object, when a check needs it, so the oracle never
runs exprs.

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
of the diagonal map on the n-fold tensor power of A.  K is generated as an
ideal by the z = g_k + g_(k+1) over the generators g of A and the slots
k < n, so K^m != 0 exactly when some product of m of them is.  Grouped by
slot pair, such a product is B_1 ... B_(n-1): B_k is
B_e = prod_g (g x 1 + 1 x g)^(e_g) in A x A, for an exponent vector e,
placed on slots k and k + 1.

Contracting the slots from the left is exact.  Let U_k be the span of the
last slot of X_k = B_1 ... B_k under every functional on the slots before
it, so U_0 = span{1}.  If X_k = sum_i a_i x x_i and B_(k+1) =
sum_l b_l x r_l over the basic monomials b_l, a functional phi x psi on
the first k + 1 slots of X_(k+1) = sum_(i,l) a_i x x_i b_l x r_l leaves
sum_l psi(u b_l) r_l, with u = sum_i phi(a_i) x_i in U_k.  So U_(k+1) is
spanned by these sums over a basis u of U_k and the coordinate
functionals psi, and the product is nonzero exactly when U_(n-1) is.
zcl_n is the largest sum of |e| over n - 1 steps, each choosing an e with
B_e != 0 (e = 0 included), that ends at a nonzero U.  Every step offers
the same choices, and none reads a degree, so any ring runs.

Pruning is sound.  A step is linear in U, so if W contains U, each choice
maps W onto a space containing U's image.  So the same choices from W end
at least as high at a nonzero space whenever U's do, and U may be dropped
when another state W contains it with a value at least as large.  That
is a strict partial order, so each dropped state lies below a kept one.
The frontier maps the reduced echelon form of each U, over A's monomial
basis, to the best value reaching it.  The last step keeps no state: it
tries states by falling value and choices by falling |e|, and stops once
no pair can beat the best nonzero image.

A run is bounded by its own work, the rows it forms, and past
:data:`BUDGET` rows in all it raises ResourceLimitError.  Its product
table has dim^2 rows, for a ring of dimension dim, and contracting a
state of r rows by a choice B forms r * len(B).  The tables of the B,
up to about 1.3 dim^2 rows on a projective space and 3.3 dim^2 on a
Milnor manifold, are not counted.  The count refuses a run as early as it can:
before the tables when the product table is over the budget, and before
the first step when the table and n - 2 steps are, since each middle
step contracts at least one state, of at least one row, by every choice.
The budget bounds the oracle, not the check of its witness.

The back-pointers of the best path give the witness, which
:func:`cup_witness` returns and :func:`verify_certificate` checks by
multiplying it out in the tensor power, a route that shares nothing with
the contraction.  A product of spaces is never run on its own ring: its
value is the sum of its factors' and its witness their witnesses renamed
(see :func:`_product_run`).  The oracle's only lasting state is its cache
of (value, witness) per ring and n.  The tests check it against a slower
route that multiplies full kernel bases.
"""

from __future__ import annotations

# exprs runs on the first use of one of its names (see the package
# docstring): cup_exact never runs it
from . import exprs, gf2
from .errors import ResourceLimitError
from .f2algebra import Presentation, multiply, power, unit
from .spaces import ProductSpace, cohomology_of, format_space


def verify_certificate(cert: exprs.Certificate) -> exprs.VerificationReport:
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
        product, covered = power(el, mult), slots
    else:
        product = unit(exprs.tensor_power(P, n))
    while pending and not product.is_zero:
        i = max(range(len(pending)), key=lambda i: len(pending[i][0] & covered))
        slots, el, mult = pending.pop(i)
        product = multiply(product, power(el, mult))
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


# --- exact slot-chain oracle -------------------------------------------------

_CUP_CACHE: dict = {}

# the rows that one oracle run may form: rh:16,9 at n = 3 forms 629,768
# and rh:16,16 at n = 3 1,440,836
BUDGET = 1 << 21


def _over_budget() -> ResourceLimitError:
    return ResourceLimitError(f"the oracle needs more than its budget of {BUDGET} rows")


def _apply(images, row) -> int:
    """The XOR of images[i] over the set bits i of row."""
    acc = 0
    while row:
        low = row & -row
        acc ^= images[low.bit_length() - 1]
        row ^= low
    return acc


def _choices(P: Presentation):
    """The choices (e, |e|, B) of a step, by falling |e|, B listing the
    (l, R_l != 0) of B_e = sum_l b_l x R_l, and right[l][i], the row of
    b_i * b_l.  Each exponent is raised in turn up to the first zero.  P
    multiplies only by generators: each b_l but 1 is some basic b_l' * g."""
    rank, dim = P.rank_of, len(P.basis)
    by_gen = [
        [sum(1 << rank[m] for m in P.mono_mul(b, g)) for b in P.basis]
        for g in (tuple(int(k == j) for k in range(P.ngens)) for j in range(P.ngens))
    ]
    right = [[1 << i for i in range(dim)]]
    for mono in P.basis[1:]:
        j = next(k for k, x in enumerate(mono) if x)
        lower = rank[mono[:j] + (mono[j] - 1,) + mono[j + 1 :]]
        right.append([_apply(by_gen[j], row) for row in right[lower]])
    grown = [((), [1] + [0] * (dim - 1))]  # 1 x 1
    for by_g in by_gen:
        # row l of B (g x 1 + 1 x g) sums R_m over the m in into[l], those
        # with b_l in b_m * g, and adds R_l * g
        into = [sum((row >> l & 1) << m for m, row in enumerate(by_g)) for l in range(dim)]
        shorter, grown = grown, []
        for e, B in shorter:
            k = 0
            while any(B):
                grown.append((e + (k,), B))
                B, k = [_apply(B, i) ^ _apply(by_g, R) for i, R in zip(into, B)], k + 1
    choices = [(e, sum(e), [(l, R) for l, R in enumerate(B) if R]) for e, B in grown]
    return sorted(choices, key=lambda c: -c[1]), right


def _contract(products, B) -> list:
    """Rows spanning a state's image under B, from products[u][l] = u * b_l
    for its rows u: per u and bit c, the sum of R_l over the l with c set."""
    rows = []
    for by_l in products:
        at: dict = {}
        for l, R in B:
            p = by_l[l]
            while p:
                low = p & -p
                at[low] = at.get(low, 0) ^ R
                p ^= low
        rows += at.values()
    return rows


def _within(U, W) -> bool:
    """Whether the rows U lie in the span of W, a reduced echelon form."""
    for u in U:
        for w in W:
            if u >> (w.bit_length() - 1) & 1:
                u ^= w
        if u:
            return False
    return True


def _prune(states: dict) -> dict:
    """The states {echelon form: (value, path)}, in their order, but for
    each one that another state contains with a value at least as large."""
    return {
        U: (value, path)
        for U, (value, path) in states.items()
        if not any(
            len(W) > len(U) and best >= value and _within(U, W)
            for W, (best, _) in states.items()
        )
    }


def _oracle(P: Presentation, n: int):
    """(zcl_n, witness) by the slot chain of the module docstring, within
    BUDGET rows.  The witness lists ((g, k), e_g) for each nonzero exponent
    of each step k, by generator and then k; (g, k) names g_k + g_(k+1)."""
    if n == 1:
        return 0, ()
    rows = len(P.basis) ** 2  # right, the product table
    if rows > BUDGET:
        raise _over_budget()
    choices, right = _choices(P)
    # the rows that contracting one row forms, over every choice
    per_row = sum(len(B) for _, _, B in choices)
    if rows + (n - 2) * per_row > BUDGET:
        raise _over_budget()
    # a path is () or (the path before, the e of its last step), so that a
    # step extends its states' paths without copying them
    frontier = {(1,): (0, ())}
    for _ in range(n - 2):
        reached: dict = {}
        for U, (value, path) in frontier.items():
            rows += len(U) * per_row
            if rows > BUDGET:
                raise _over_budget()
            products = [[_apply(r, u) for r in right] for u in U]
            for e, size, B in choices:
                W = gf2.echelon(_contract(products, B))
                if W and (W not in reached or reached[W][0] < value + size):
                    reached[W] = (value + size, (path, e))
        frontier = _prune(reached)
    best, path = -1, ()
    for U, (value, tail) in sorted(frontier.items(), key=lambda s: -s[1][0]):
        if value + choices[0][1] <= best:
            break
        products = [[_apply(r, u) for r in right] for u in U]
        for e, size, B in choices:
            if value + size <= best:
                break
            rows += len(U) * len(B)
            if rows > BUDGET:
                raise _over_budget()
            if any(_contract(products, B)):
                best, path = value + size, (tail, e)
    steps = []
    while path:
        path, e = path
        steps.append(e)
    steps.reverse()
    gens = enumerate(P.gen_names)
    return best, tuple(
        ((g, k), e[j]) for j, g in gens for k, e in enumerate(steps, 1) if e[j]
    )


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
        _CUP_CACHE[key] = _oracle(P, n)
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
