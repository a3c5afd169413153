"""Degree slices of Künneth tensor powers, the exact oracle's basis.

The n-fold tensor power of a presentation has n-tuples of basic monomials
as its monomials.  The oracle never enumerates that basis whole:
:func:`slice_dimensions` gives the size of each degree slice, in degree
order, from the Poincaré series alone, and :func:`tensor_slice` builds one
slice on demand into a dict the caller owns, so an oracle run's slices go
with the run.  Elements of a tensor power, and the diagonal map, are in
:mod:`milnortc.exprs`, which the oracle does not run.
"""

from __future__ import annotations

from .f2algebra import Presentation, poincare_series


def slice_dimensions(P: Presentation, n: int):
    """Dimensions of the degree slices 0..n * top degree of the n-th power,
    yielded in degree order: the coefficients c_d of a^n, for a the
    Poincaré series (a_0 = 1, the unit).  From a * (a^n)' = n * a' * a^n,
    d * c_d is the sum over 1 <= k <= min(d, top) of
    ((n + 1) * k - d) * a_k * c_(d-k), so each size costs at most top
    products of the ones before it, and a caller that stops at a size
    never computes the rest."""
    series = poincare_series(P)
    dims = [1]
    yield 1
    for d in range(1, n * P.top_degree + 1):
        total = sum(
            ((n + 1) * k - d) * series[k] * dims[d - k]
            for k in range(1, min(d, P.top_degree) + 1)
        )
        dims.append(total // d)
        yield dims[-1]


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
