"""The exact oracle's slot-chain program: zcl_n of a ring by contracting
the tensor slots one at a time, within a budget of rows.

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
one row per nonzero R_l (from 0.14 dim^2 rows on rp:200 to 0.56 dim^2 on
ch:8,8), are not counted.  The count refuses a run as early as it can:
before the tables when the product table is over the budget, and before
the first step when the table and n - 2 steps are, since each middle step
contracts at least one state, of at least one row, by every choice.
The budget bounds the oracle, not the check of its witness.

The back-pointers of the best path give the witness, as the exponents of
the ideal generators.  :mod:`milnortc.cuplength` caches the runs, names
their witnesses and checks certificates by multiplying them out, a route
that shares nothing with this module, which never imports it.
"""

from . import gf2
from .errors import ResourceLimitError
from .f2algebra import Presentation

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
    grown = [((), {0: 1})]  # 1 x 1, as {l: R_l != 0}
    for by_g in by_gen:
        shorter, grown = grown, []
        for e, B in shorter:
            k = 0
            while B:
                grown.append((e + (k,), B))
                # B (g x 1 + 1 x g) adds R_m to row l for each b_l in
                # b_m * g, and R_m * g to row m
                after: dict = {}
                for m, R in B.items():
                    p = by_g[m]
                    while p:
                        low = p & -p
                        l = low.bit_length() - 1
                        after[l] = after.get(l, 0) ^ R
                        p ^= low
                    after[m] = after.get(m, 0) ^ _apply(by_g, R)
                B, k = {l: R for l, R in after.items() if R}, k + 1
    choices = [(e, sum(e), sorted(B.items())) for e, B in grown]
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
