"""Sizes of the degree slices of Künneth tensor powers, for the oracle's cap.

The n-fold tensor power of a presentation has n-tuples of basic monomials
as its monomials.  The oracle never builds that basis, nor any slice of
it: :func:`slice_dimensions` gives the size of each degree slice, in
degree order, from the Poincaré series alone, and the oracle refuses a
run whose largest slice is over its cap.  Elements of a tensor power, and
the diagonal map, are in :mod:`milnortc.exprs`, which the oracle does not
run.
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
