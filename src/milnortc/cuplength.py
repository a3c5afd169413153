"""Zero-divisor cup-length: certificates, verification, and the exact oracle.

A certificate lists factors with multiplicities.  :func:`verify_certificate`
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
The chain is graded, so the oracle walks it by degree: each map is built
once, applied to every level that reads it, and dropped, and at most
(largest generator degree + 1) degrees of the chain are held at a time.
Each z's degree and its products with the basic monomials of the one slot
each of its monomials occupies are computed once per run, and the top
power's degree slices are dropped when the run ends.
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

from . import exprs, gf2
from .errors import ResourceLimitError
from .f2algebra import Element, Presentation, multiply, power, unit
from .record import Record
from .spaces import cohomology_of, parse_space
from .tensorpower import (
    DEFAULT_MAX_SLICE,
    diagonal_eval,
    slice_dimensions,
    tensor_power,
    tensor_slice,
)


def is_zero_divisor(u: Element) -> bool:
    """True iff u lies in the kernel of the diagonal map."""
    return diagonal_eval(u).is_zero


class Certificate(Record):
    """A claimed cup-length witness: factors with multiplicities."""

    __slots__ = (
        "space",
        "n",
        "factors",  # ((expression string, multiplicity), ...)
        "claimed_cup",
        "claimed_tc_lower",
        "note",
        "cat_witness",
    )
    _defaults = {"note": None, "cat_witness": False}

    def _check(self):
        if self.n < 1:
            raise ValueError("arity must be >= 1")
        if self.claimed_tc_lower != self.claimed_cup + 1:
            raise ValueError("claimed TC lower bound must be claimed cup + 1")
        total = sum(mult for _, mult in self.factors)
        if total != self.claimed_cup:
            raise ValueError(
                f"total factor count {total} != claimed cup {self.claimed_cup}"
            )
        for _, mult in self.factors:
            if mult < 1:
                raise ValueError("factor multiplicities must be positive")


class FactorCheck(Record):
    __slots__ = ("expression", "is_zero_divisor", "degree")


class VerificationReport(Record):
    __slots__ = (
        "per_factor",
        "product_nonzero",
        "verified_cup",
        "verdict",  # Verified | FactorNotZeroDivisor | ProductVanishes
        "zero_divisors_required",
    )
    _defaults = {"zero_divisors_required": True}

    @property
    def verified_tc_lower(self) -> int | None:
        return None if self.verified_cup is None else self.verified_cup + 1


def _resolve(cert: Certificate, presentation: Presentation | None):
    if presentation is not None:
        return presentation
    return cohomology_of(parse_space(cert.space))


def _slots(el: Element) -> set:
    """The slots in which some monomial of the tensor element el is not
    the unit."""
    one, support = el.algebra.base.one, el.support
    return {k for k in range(el.algebra.n) if any(m[k] != one for m in support)}


def _factor_product(P: Presentation, n: int, factors):
    """The product of the power of each (expression, multiplicity) of
    factors, with one check per factor in the order given.

    The powers are multiplied in slot-overlap order: next comes the pending
    factor that shares the most non-unit slots with the product so far,
    ties going to the order given, and each power is formed only when its
    factor is taken.  The ring is commutative, so any order gives the same
    product; this one avoids forming the product of factors on disjoint
    slots, which is their whole tensor product with nothing to cancel,
    before a factor that links them can make it vanish.  The product starts
    from the first power taken, never from the unit, and once it is zero
    the remaining powers are not formed."""
    checks, pending = [], []
    for text, mult in factors:
        el = exprs.evaluate_text(text, P, n)
        checks.append(FactorCheck(text, is_zero_divisor(el), el.degree))
        pending.append((_slots(el), el, mult))
    if not pending:
        return unit(tensor_power(P, n)), checks
    slots, el, mult = pending.pop(0)
    product, covered = power(el, mult), slots
    while pending and not product.is_zero:
        i = max(range(len(pending)), key=lambda i: len(pending[i][0] & covered))
        slots, el, mult = pending.pop(i)
        product = multiply(product, power(el, mult))
        covered |= slots
    return product, checks


def verify_certificate(
    cert: Certificate,
    *,
    presentation: Presentation | None = None,
) -> VerificationReport:
    """Check every factor and the full product; never consults the claims."""
    P = _resolve(cert, presentation)
    product, checks = _factor_product(P, cert.n, cert.factors)
    if not (cert.cat_witness or all(c.is_zero_divisor for c in checks)):
        verdict = "FactorNotZeroDivisor"
    elif product.is_zero:
        verdict = "ProductVanishes"
    else:
        verdict = "Verified"
    verified = sum(m for _, m in cert.factors) if verdict == "Verified" else None
    return VerificationReport(
        per_factor=tuple(checks),
        product_nonzero=not product.is_zero,
        verified_cup=verified,
        verdict=verdict,
        zero_divisors_required=not cert.cat_witness,
    )


class SearchFailure(Record):
    """Search could not realize the requested certificate."""

    __slots__ = ("reason",)


# --- exact ideal-power oracle ------------------------------------------------

_CUP_CACHE: dict = {}


def _ideal_generators(P: Presentation, n: int):
    """The nonzero adjacent slot differences z = g_i + g_{i+1}, each as
    (label (g, i), degree of z, slot products), read off the support
    and degree of each generator g in P.  Every monomial of z is the unit
    in all slots but one, k, where it holds a monomial c of g; its slot
    products pair k with the product of each basic monomial by c.  The
    tables are computed once per c and shared by every z it occurs in."""
    tables: dict = {}
    gens = []
    for idx, (name, degree) in enumerate(zip(P.gen_names, P.gen_degrees)):
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
            gens.append(((name, i), degree, tuple(slot_products)))
    return gens


def _generator_text(label) -> str:
    """The factor expression of the ideal generator labelled (g, i)."""
    name, i = label
    text = exprs.to_string(exprs.Sum((exprs.Gen(name, i), exprs.Gen(name, i + 1))))
    return f"({text})"


def _mult_map(P, n, slot_products, d_from, index, mask):
    """Multiplication by an ideal generator, given by its slot products
    (see :func:`_ideal_generators`), from slice(d_from) into the target
    slice whose monomials index numbers: for each source monomial whose
    bit is set in mask, the int bitset of its targets, and 0 for every
    other one.  The mask is the OR of the rows the map will multiply, and
    :func:`milnortc.gf2.image` reads a target only for a set bit of a row,
    so no product sees a missing column.  A source monomial goes to the
    monomials with slot k replaced by each term of its slot-k product, for
    each slot k of the generator."""
    source = tensor_slice(P, n, d_from)
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

    The chain is walked by degree: the degree-dt part of every W_m is
    spanned by the z times the degree-(dt - deg z) part of W_(m-1), so each
    map (z, dt - deg z) is built once, applied to the rows of every m and
    dropped, and a degree is dropped once no later degree reads it.  The
    degree and slot products of each z come from :func:`_ideal_generators`,
    computed once per run, so building a map multiplies nothing in the
    base ring.

    Products are taken in sorted order.  The z commute, so W_m is spanned
    by the products z_j1 ... z_jm with j1 <= ... <= jm; let W_m^(<=j) be
    the span of those with jm <= j.  Then W_m^(<=j) is the sum over j' <= j
    of z_j' * W_(m-1)^(<=j'), so z_j multiplies only the kept rows whose
    last generator is at most j.  Those rows are a prefix of the kept rows
    and span W_(m-1)^(<=j): each level's products are appended generator by
    generator, and gf2.independent_rows keeps rows greedily in input order,
    so the kept rows of any prefix of the products span that prefix."""
    if not P.basis:
        return 0, ()
    nd = n * P.top_degree
    gens = _ideal_generators(P, n)
    # per degree, per m: independent rows of W_m in that degree, each tagged
    # with the indices of the generators it is a product of, in ascending
    # order of the tags' last generator
    spans = {0: {0: ([1], [()])}}
    value, witness = 0, ()
    for dt in range(1, nd + 1):
        index = None
        products: dict = {}
        for j, (_, degree, slot_products) in enumerate(gens):
            # per m: the kept rows of W_m that z_j multiplies
            prefixes = []
            mask = 0
            for m, (rows, tags) in spans.get(dt - degree, {}).items():
                k = bisect_right(tags, j, key=_last_generator)
                if k:
                    rows, tags = rows[:k], tags[:k]
                    prefixes.append((m, rows, tags))
                    for row in rows:
                        mask |= row
            if not prefixes:
                continue
            if index is None:
                index = {tup: i for i, tup in enumerate(tensor_slice(P, n, dt))}
            targets = _mult_map(P, n, slot_products, dt - degree, index, mask)
            for m, rows, tags in prefixes:
                prod_rows, prod_tags = products.setdefault(m + 1, ([], []))
                prod_rows.extend(gf2.image(targets, rows))
                prod_tags.extend(t + (j,) for t in tags)
        spans.pop(dt - max(P.gen_degrees), None)
        level = spans[dt] = {}
        for m, (rows, tags) in products.items():
            keep = gf2.independent_rows(rows)
            if keep:
                level[m] = ([rows[i] for i in keep], [tags[i] for i in keep])
                # dt ascends, so this is the lowest degree of W_m
                if m > value:
                    value, witness = m, tags[keep[0]]

    degree_bound = nd // min(P.gen_degrees)
    if value > degree_bound:
        raise RuntimeError(
            f"cup-length {value} exceeds the degree bound {degree_bound}"
        )
    factors = tuple(
        (gens[j][0], witness.count(j)) for j in sorted(set(witness))
    )
    return value, factors


def cup_exact(P: Presentation, n: int, *, max_slice: int = DEFAULT_MAX_SLICE) -> int:
    """Largest m with K^m != 0 for K the kernel of the diagonal map."""
    if n < 1:
        raise ValueError("arity must be >= 1")
    # refuse before reading the cache, so that a value cached under a
    # larger cap does not answer this call, and before building any slice:
    # slices grow towards the middle degree, so those below the first one
    # over the cap can be huge too
    for d, dim in enumerate(slice_dimensions(P, n)):
        if dim > max_slice:
            raise ResourceLimitError(
                f"degree-{d} slice has dimension {dim}, above the cap {max_slice}",
                dimension=dim,
                cap=max_slice,
            )
    key = (P.cache_key, n)
    if key not in _CUP_CACHE:
        try:
            _CUP_CACHE[key] = _oracle(P, n)
        finally:
            # the value and witness need no slice; the lower powers keep
            # theirs, which are smaller and which higher n build on
            tensor_power(P, n)._slices.clear()
    return _CUP_CACHE[key][0]


def cup_witness(
    P: Presentation, n: int, *, max_slice: int = DEFAULT_MAX_SLICE
) -> tuple:
    """Factors ((expression, multiplicity), ...) of a nonzero product of
    cup_exact(P, n) ideal generators, from the same cached oracle run."""
    cup_exact(P, n, max_slice=max_slice)
    return tuple(
        (_generator_text(label), mult) for label, mult in _CUP_CACHE[(P.cache_key, n)][1]
    )
