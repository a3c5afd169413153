"""Zero-divisor cup-length: certificates, verification, oracle, search.

The oracle computes the largest m with K^m != 0 where K is the kernel of
the diagonal ring map on the n-fold tensor power -- an exact value for the
mod-2 zero-divisor cup-length, since K^m is spanned by m-fold products of
kernel elements.  K is an ideal, and it is generated as an ideal by the
adjacent slot differences g_i + g_{i+1} of the algebra generators (the
quotient by those differences is the base ring itself), so each power is
obtained from the previous one by multiplying with that short generator
list.  The tests keep the slower route that multiplies by a full kernel
basis as the reference this oracle is checked against.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import gf2
from .errors import ResourceLimitError
from .exprs import evaluate, parse_factor_expr, to_string
from .f2algebra import Element, Presentation, generator, multiply, power, unit
from .spaces import cohomology_of, parse_space
from .tensorpower import (
    DEFAULT_MAX_SLICE,
    diagonal_eval,
    inject,
    kernel_basis,
    slice_dimension,
    tensor_power,
    tensor_slice,
)


def is_zero_divisor(u: Element) -> bool:
    """True iff u lies in the kernel of the diagonal map."""
    return diagonal_eval(u).is_zero


@dataclass(frozen=True)
class Certificate:
    """A claimed cup-length witness: factors with multiplicities."""

    space: str
    n: int
    factors: tuple  # ((expression string, multiplicity), ...)
    claimed_cup: int
    claimed_tc_lower: int
    note: str | None = None
    cat_witness: bool = False

    def __post_init__(self):
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


@dataclass(frozen=True)
class FactorCheck:
    expression: str
    is_zero_divisor: bool
    degree: int | None


@dataclass(frozen=True)
class VerificationReport:
    per_factor: tuple
    product_nonzero: bool
    verified_cup: int | None
    verdict: str  # Verified | FactorNotZeroDivisor | ProductVanishes
    zero_divisors_required: bool = True

    @property
    def verified_tc_lower(self) -> int | None:
        return None if self.verified_cup is None else self.verified_cup + 1


def _resolve(cert: Certificate, presentation: Presentation | None):
    if presentation is not None:
        return presentation
    return cohomology_of(parse_space(cert.space))


def verify_certificate(
    cert: Certificate,
    *,
    presentation: Presentation | None = None,
) -> VerificationReport:
    """Check every factor and the full product; never consults the claims."""
    P = _resolve(cert, presentation)
    n = cert.n
    checks = []
    product = unit(tensor_power(P, n))
    all_zero_divisors = True
    for text, mult in cert.factors:
        el = evaluate(parse_factor_expr(text, n, P), P, n)
        zd = is_zero_divisor(el)
        all_zero_divisors = all_zero_divisors and zd
        checks.append(FactorCheck(text, zd, el.degree))
        if not product.is_zero:
            product = multiply(product, power(el, mult))
    nonzero = not product.is_zero
    factors_ok = all_zero_divisors or cert.cat_witness
    if not factors_ok:
        verdict = "FactorNotZeroDivisor"
    elif not nonzero:
        verdict = "ProductVanishes"
    else:
        verdict = "Verified"
    verified = sum(m for _, m in cert.factors) if verdict == "Verified" else None
    return VerificationReport(
        per_factor=tuple(checks),
        product_nonzero=nonzero,
        verified_cup=verified,
        verdict=verdict,
        zero_divisors_required=not cert.cat_witness,
    )


# --- exact ideal-power oracle ------------------------------------------------

_CUP_CACHE: dict = {}


def _ideal_generators(P: Presentation, n: int):
    gens = []
    for name in P.gen_names:
        g = generator(P, name)
        for i in range(1, n):
            gens.append(inject(P, n, i, g) + inject(P, n, i + 1, g))
    return [g for g in gens if not g.is_zero]


def _mult_matrix(P, n, gen_el, d_from, d_to, cache):
    """Packed matrix of multiplication by gen_el: slice(d_from) -> slice(d_to)."""
    key = (id(gen_el), d_from)
    mat = cache.get(key)
    if mat is not None:
        return mat
    src = tensor_slice(P, n, d_from)
    dst = tensor_slice(P, n, d_to)
    index = {tup: i for i, tup in enumerate(dst)}
    dense = np.zeros((max(1, len(src)), max(1, len(dst))), dtype=np.uint8)
    mul_supports, gen_support = gen_el.algebra.mul_supports, gen_el.support
    for row, tup in enumerate(src):
        for out in mul_supports(gen_support, (tup,)):
            dense[row, index[out]] ^= 1
    mat = gf2.pack_rows(dense)[: len(src)]
    cache[key] = mat
    return mat


def cup_exact(
    P: Presentation,
    n: int,
    *,
    max_slice: int = DEFAULT_MAX_SLICE,
    collect_chain: bool = False,
):
    """Largest m with K^m != 0 for K the kernel of the diagonal map."""
    if n < 1:
        raise ValueError("arity must be >= 1")
    cache_key = (P.cache_key, n)
    if not collect_chain and cache_key in _CUP_CACHE:
        return _CUP_CACHE[cache_key]

    if not P.basis:
        return (0, []) if collect_chain else 0
    nd = n * P.top_degree
    # refuse before building any slice: slices grow towards the middle
    # degree, so those below the first one over the cap can be huge too
    for d in range(nd + 1):
        dim = slice_dimension(P, n, d)
        if dim > max_slice:
            raise ResourceLimitError(
                f"degree-{d} slice has dimension {dim}, above the cap {max_slice}",
                dimension=dim,
                cap=max_slice,
            )
    V = {}
    for d in range(1, nd + 1):
        kb = kernel_basis(P, n, d, max_slice=max_slice)
        if len(kb):
            V[d] = kb.rows
    chain = [dict(V)]
    result = 0
    gen_list = [(g, g.degree) for g in _ideal_generators(P, n)]
    mat_cache: dict = {}
    while V:
        result += 1
        nxt: dict = {}
        for gen_el, dg in gen_list:
            for d2, rows in V.items():
                dt = d2 + dg
                if dt > nd:
                    continue
                mat = _mult_matrix(P, n, gen_el, d2, dt, mat_cache)
                prods = gf2.matmul(rows, len(tensor_slice(P, n, d2)), mat)
                if gf2.is_zero_rows(prods):
                    continue
                nxt[dt] = np.vstack([nxt[dt], prods]) if dt in nxt else prods
        V = {}
        for dt, rows in nxt.items():
            basis = gf2.row_space(rows, len(tensor_slice(P, n, dt)))
            if basis.shape[0]:
                V[dt] = basis
        if V:
            chain.append(dict(V))

    degree_bound = nd // min(P.gen_degrees)
    if result > degree_bound:
        raise RuntimeError(
            f"cup-length {result} exceeds the degree bound {degree_bound}"
        )
    _CUP_CACHE[cache_key] = result
    return (result, chain) if collect_chain else result


# --- heuristic search --------------------------------------------------------


@dataclass
class SearchFailure:
    """Search could not realize the requested certificate."""

    reason: str
    log: tuple = field(default_factory=tuple)


def _expr_key(text: str) -> tuple:
    return (len(text), text)


def default_pool(P: Presentation, n: int, exponents=(1, 2)) -> list:
    """Sums of one generator over two positions, optionally raised to small
    powers: the shape of every hand construction."""
    pool = []
    for name in P.gen_names:
        for i in range(1, n + 1):
            for j in range(i + 1, n + 1):
                base = f"({name}{i}+{name}{j})"
                for e in exponents:
                    pool.append(base if e == 1 else f"{base}^{e}")
    return pool


def cup_search(
    P: Presentation,
    n: int,
    pool,
    *,
    strategy: str = "greedy-beam",
    width: int = 32,
    space_label: str | None = None,
) -> Certificate:
    """Best verified-nonzero product found over the pool; a lower bound only."""
    label = space_label or repr(P.cache_key)
    entries = []
    for item in pool:
        text = item if isinstance(item, str) else to_string(item)
        el = evaluate(parse_factor_expr(text, n, P), P, n)
        if el.is_zero:
            continue
        if not is_zero_divisor(el):
            raise ValueError(f"pool element {text!r} is not a zero divisor")
        entries.append((text, el))
    entries.sort(key=lambda e: (e[1].degree or 0, _expr_key(e[0])))

    empty = Certificate(label, n, (), 0, 1)
    if not entries:
        return empty

    nd = n * P.top_degree
    min_deg = min(el.degree or 1 for _, el in entries)
    max_len = nd // max(1, min_deg)

    def collapse(indices):
        factors = []
        for idx in indices:
            if factors and factors[-1][0] == entries[idx][0]:
                factors[-1] = (factors[-1][0], factors[-1][1] + 1)
            else:
                factors.append((entries[idx][0], 1))
        return tuple(factors)

    best: tuple | None = None  # (length, total_degree, expr tuple, indices)

    def consider(indices, product):
        nonlocal best
        length = len(indices)
        exprs = tuple(entries[i][0] for i in indices)
        key = (-length, product.degree or 0, exprs)
        if best is None or key < (-best[0], best[1], best[2]):
            best = (length, product.degree or 0, exprs, tuple(indices))

    if strategy == "exhaustive":

        def dfs(start, indices, product):
            if len(indices) >= max_len:
                return
            for idx in range(start, len(entries)):
                nxt = multiply(product, entries[idx][1])
                if nxt.is_zero:
                    continue
                indices.append(idx)
                consider(indices, nxt)
                dfs(idx, indices, nxt)
                indices.pop()

        dfs(0, [], unit(tensor_power(P, n)))
    elif strategy == "greedy-beam":
        level = [((), unit(tensor_power(P, n)))]
        while level:
            candidates = {}
            for indices, product in level:
                start = indices[-1] if indices else 0
                for idx in range(start, len(entries)):
                    nxt = multiply(product, entries[idx][1])
                    if nxt.is_zero:
                        continue
                    new_indices = indices + (idx,)
                    if new_indices not in candidates:
                        candidates[new_indices] = nxt
            if not candidates:
                break
            ranked = sorted(
                candidates.items(),
                key=lambda kv: (
                    kv[1].degree or 0,
                    tuple(entries[i][0] for i in kv[0]),
                ),
            )[:width]
            for indices, product in ranked:
                consider(indices, product)
            level = ranked
    else:
        raise ValueError(f"unknown strategy {strategy!r}")

    if best is None:
        return empty
    length, _, _, indices = best
    return Certificate(label, n, collapse(indices), length, length + 1)
