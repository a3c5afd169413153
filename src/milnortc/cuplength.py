"""Zero-divisor cup-length: the check of a certificate, and the exact oracle.

The certificate records, and the tensor-power elements that a check
multiplies, are in :mod:`milnortc.exprs`, and the oracle's degree slices
in :mod:`milnortc.tensorpower`.  This module reaches each only through its
module object, when a check or an oracle run needs it, so the oracle never
runs exprs and a check never runs tensorpower.

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

The oracle computes the largest m with K^m != 0 where K is the kernel of
the diagonal ring map on the n-fold tensor power -- the exact mod-2
zero-divisor cup-length.  K is generated as an ideal by the adjacent slot
differences z = g_i + g_{i+1} of the algebra generators (the quotient by
those differences is the base ring itself), so K^m != 0 exactly when some
product of m such z is nonzero.  The oracle follows the chain W_0 = span{1},
W_m = span(z * W_(m-1)) over those z up to the last W_m != 0.  Its rows
are :mod:`milnortc.gf2` int bitsets over the monomials of one degree
slice, and multiplication by each z is a map holding the bitset of the
targets of each source monomial, so a product row is a XOR of target rows.
The oracle runs only the ring of one family, whose generators share one
degree d (1 for rh and rp, 2 for ch and cp), so W_m lies in the degree-m*d
slice and the oracle walks the chain one level at a time.  A product of
spaces is never run on its own ring: its value is the sum of its factors'
and its witness their witnesses renamed (see :func:`_product_run`).  Each
z's products with the basic monomials of the one slot each of its
monomials occupies are computed once per run, and so are the degree
slices, kept in a dict of the run's own: the oracle's only lasting state
is its cache of (value, witness) per ring and n.
The z commute, so the oracle forms only the products z_j1 ... z_jm with
j1 <= ... <= jm: z_j multiplies only the kept rows whose last generator is
at most j.  Products are appended generator by generator and rows are kept
greedily in that order, so those rows are a prefix of the kept rows, and
they span every sorted product that ends at or below j.  Each map is built
only on the source columns that the rows it multiplies have set.

Each level keeps an independent subset of the actual product rows, each
tagged with the generators it is a product of, so a row that survives the
last level is a nonzero product of ``value`` zero divisors: the witness
that :func:`cup_witness` returns and :func:`verify_certificate` checks by
a route that shares nothing with the oracle's GF(2) linear algebra.  The
tests keep a slower route that multiplies full kernel bases as the
reference this oracle is checked against.
"""

from __future__ import annotations

from bisect import bisect_right

# exprs and tensorpower run on the first use of one of their names (see the
# package docstring): cup_exact never runs exprs, nor a check tensorpower
from . import exprs, gf2, tensorpower
from .errors import DEFAULT_MAX_SLICE, ResourceLimitError
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


# --- exact ideal-power oracle ------------------------------------------------

_CUP_CACHE: dict = {}


def _ideal_generators(P: Presentation, n: int):
    """The nonzero adjacent slot differences z = g_i + g_{i+1}, each as
    (label (g, i), slot products), read off the support of each generator
    g in P.  Every monomial of z is the unit in all slots but one, k, where
    it holds a monomial c of g; its slot products pair k with the product
    of each basic monomial by c.  The tables are computed once per c and
    shared by every z it occurs in."""
    tables: dict = {}
    gens = []
    for idx, name in enumerate(P.gen_names):
        support = P.reduce(tuple(int(k == idx) for k in range(P.ngens)))
        if not support:
            continue  # g = 0, and so is every z
        for i in range(1, n):
            slot_products = []
            for c in support:
                products = tables.get(c)
                if products is None:
                    products = tables[c] = {m: P.mono_mul(m, c) for m in P.basis}
                slot_products += [(i - 1, products), (i, products)]
            gens.append(((name, i), tuple(slot_products)))
    return gens


def _mult_map(source, slot_products, index, mask):
    """Multiplication by an ideal generator, given by its slot products
    (see :func:`_ideal_generators`), from the source slice into the target
    slice whose monomials index numbers: for each source monomial whose
    bit is set in mask, the int bitset of its targets, and 0 for every
    other one.  The mask is the OR of the rows the map will multiply, and
    :func:`milnortc.gf2.image` reads a target only for a set bit of a row,
    so no product sees a missing column.  A source monomial goes to the
    monomials with slot k replaced by each term of its slot-k product, for
    each slot k of the generator."""
    targets = [0] * len(source)
    digits = bin(mask)[:1:-1]  # bit 0 first
    i = digits.find("1")
    while i >= 0:
        tup = source[i]
        bits = 0
        for k, products in slot_products:
            head, tail = tup[:k], tup[k + 1 :]
            for mono in products[tup[k]]:
                bits ^= 1 << index[head + (mono,) + tail]
        targets[i] = bits
        i = digits.find("1", i + 1)
    return targets


def _last_generator(tag) -> int:
    """The index of a row's last generator; -1 for the unit of W_0."""
    return tag[-1] if tag else -1


def _oracle(P: Presentation, n: int):
    """(value, factors) of the chain W_0 = span{1}, W_m = span(z * W_(m-1))
    over the ideal generators z: value is the largest m with W_m != 0, and
    factors collapse the generators of one nonzero product in W_value into
    (label, multiplicity) pairs, each label as in :func:`_ideal_generators`.

    Every generator of P, and so every z, has one degree d, so W_m lies in
    the degree-m*d slice: the chain is walked one level at a time, up to
    the first W_m = 0 or to m = n * top / d.  A ring whose generators differ
    in degree, such as a product's, is refused; :func:`_run` answers a
    product from its factors.  The slot products of each z come from
    :func:`_ideal_generators`, computed once per run, so building a map
    multiplies nothing in the base ring.

    Products are taken in sorted order.  The z commute, so W_m is spanned
    by the products z_j1 ... z_jm with j1 <= ... <= jm; let W_m^(<=j) be
    the span of those with jm <= j.  Then W_m^(<=j) is the sum over j' <= j
    of z_j' * W_(m-1)^(<=j'), so z_j multiplies only the kept rows whose
    last generator is at most j.  Those rows are a prefix of the kept rows
    and span W_(m-1)^(<=j): each level's products are appended generator by
    generator, and gf2.independent_rows keeps rows greedily in input order,
    so the kept rows of any prefix of the products span that prefix."""
    degrees = set(P.gen_degrees)
    if len(degrees) != 1:
        raise ValueError(
            f"the oracle needs generators of one degree, got degrees {sorted(degrees)}; "
            "a product's value comes from its factors"
        )
    (d,) = degrees
    gens = _ideal_generators(P, n)
    slices: dict = {}
    # independent rows of W_m, each tagged with the indices of the
    # generators it is a product of, in ascending order of the last one
    rows, tags = [1], [()]
    value, witness = 0, ()
    for m in range(1, n * P.top_degree // d + 1):
        source = tensorpower.tensor_slice(P, n, (m - 1) * d, slices)
        index = {t: i for i, t in enumerate(tensorpower.tensor_slice(P, n, m * d, slices))}
        prod_rows, prod_tags = [], []
        for j, (_, slot_products) in enumerate(gens):
            # the kept rows of W_(m-1) that z_j multiplies
            k = bisect_right(tags, j, key=_last_generator)
            if not k:
                continue
            mask = 0
            for row in rows[:k]:
                mask |= row
            targets = _mult_map(source, slot_products, index, mask)
            prod_rows += gf2.image(targets, rows[:k])
            prod_tags += [t + (j,) for t in tags[:k]]
        keep = gf2.independent_rows(prod_rows)
        if not keep:
            break
        rows, tags = [prod_rows[i] for i in keep], [prod_tags[i] for i in keep]
        value, witness = m, tags[0]
    factors = tuple((gens[j][0], witness.count(j)) for j in sorted(set(witness)))
    return value, factors


def _product_run(space: ProductSpace, n: int, max_slice: int) -> tuple:
    """The oracle's (value, factors) for the ring of a product, from its
    factors' runs: the sum of their values, and their factors with the
    idx-th one's generator g renamed g.idx, as the product ring names it.
    A factor's refusal names that factor.  No slice of the product's own
    tensor power is built, and its slices are never checked against the
    cap, which bounds each factor's slices instead.

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
            v, fs = _run(cohomology_of(factor), n, max_slice)
        except ResourceLimitError as exc:
            raise ResourceLimitError(
                f"factor {format_space(factor)}: {exc}",
                dimension=exc.dimension,
                cap=exc.cap,
            ) from None
        value += v
        factors += [((f"{g}.{idx}", i), mult) for (g, i), mult in fs]
    return value, tuple(factors)


def _run(P: Presentation, n: int, max_slice: int) -> tuple:
    """The oracle's (value, factors) for P and n, from its cache or a new
    run, refused when a slice is over max_slice; a product's comes from
    its factors' (see :func:`_product_run`)."""
    if n < 1:
        raise ValueError("arity must be >= 1")
    if type(P.cache_key) is ProductSpace:
        return _product_run(P.cache_key, n, max_slice)
    # refuse before reading the cache, so that a value cached under a
    # larger cap does not answer this call, and before building any slice:
    # slices grow towards the middle degree, so those below the first one
    # over the cap can be huge too.  The sizes come in degree order, and
    # none past the first one over the cap is computed
    for d, dim in enumerate(tensorpower.slice_dimensions(P, n)):
        if dim > max_slice:
            raise ResourceLimitError(
                f"degree-{d} slice has dimension {dim}, above the cap {max_slice}",
                dimension=dim,
                cap=max_slice,
            )
    key = (P.cache_key, n)
    if key not in _CUP_CACHE:
        _CUP_CACHE[key] = _oracle(P, n)
    return _CUP_CACHE[key]


def cup_exact(P: Presentation, n: int, *, max_slice: int = DEFAULT_MAX_SLICE) -> int:
    """Largest m with K^m != 0 for K the kernel of the diagonal map."""
    return _run(P, n, max_slice)[0]


def cup_witness(
    P: Presentation, n: int, *, max_slice: int = DEFAULT_MAX_SLICE
) -> tuple:
    """Factors ((expression, multiplicity), ...) of a nonzero product of
    cup_exact(P, n) ideal generators, from the same cached oracle run."""
    return tuple(
        (exprs.sum_text(name, i, i + 1), mult)
        for (name, i), mult in _run(P, n, max_slice)[1]
    )
