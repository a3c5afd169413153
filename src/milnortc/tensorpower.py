"""Degree slices of Künneth tensor powers, the exact oracle's basis.

The n-fold tensor power of a presentation has n-tuples of basic monomials
as its monomials.  The oracle never enumerates that basis whole:
:func:`slice_dimensions` gives the size of every degree slice from the
Poincaré series alone, and :func:`tensor_slice` builds one slice on demand
into a dict the caller owns, so an oracle run's slices go with the run.
Elements of a tensor power, and the diagonal map, are in
:mod:`milnortc.exprs`, which the oracle does not run.
"""

from __future__ import annotations

from .f2algebra import Presentation, poincare_series


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
