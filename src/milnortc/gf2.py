"""Exact GF(2) linear algebra on bit-packed matrices.

Rows are packed 64 columns per ``uint64`` word (column ``c`` lives in word
``c >> 6``, bit ``c & 63``).  The one backend is numpy: in-place
Gauss--Jordan elimination over packed words, and a matrix product on the
unpacked 0/1 matrices.  ``perfbench/README.md`` describes how its speed is
measured.
"""

from __future__ import annotations

import numpy as np

BACKEND = "numpy"

_U1 = np.uint64(1)


def n_words(ncols: int) -> int:
    return max(1, (ncols + 63) >> 6)


def zeros(nrows: int, ncols: int) -> np.ndarray:
    return np.zeros((nrows, n_words(ncols)), dtype=np.uint64)


def pack_rows(dense) -> np.ndarray:
    """Pack a 2-D 0/1 array into uint64 words (little-endian bit order)."""
    dense = np.asarray(dense, dtype=np.uint8) & 1
    if dense.ndim != 2:
        raise ValueError("expected a 2-D array")
    nrows, ncols = dense.shape
    nw = n_words(ncols)
    padded = np.zeros((nrows, nw * 64), dtype=np.uint8)
    padded[:, :ncols] = dense
    packed = np.packbits(padded, axis=1, bitorder="little")
    return packed.view("<u8").astype(np.uint64, copy=False)


def unpack_rows(packed: np.ndarray, ncols: int) -> np.ndarray:
    """Inverse of :func:`pack_rows`; returns a uint8 0/1 matrix."""
    if packed.size == 0:
        return np.zeros((packed.shape[0], ncols), dtype=np.uint8)
    as_bytes = packed.astype("<u8").view(np.uint8).reshape(packed.shape[0], -1)
    bits = np.unpackbits(as_bytes, axis=1, bitorder="little")
    return bits[:, :ncols]


def get_bit(row: np.ndarray, col: int) -> int:
    return int((row[col >> 6] >> np.uint64(col & 63)) & _U1)


def set_bit(row: np.ndarray, col: int) -> None:
    row[col >> 6] ^= _U1 << np.uint64(col & 63)


# --- elimination kernels -----------------------------------------------------


def _eliminate(mat: np.ndarray, ncols: int, pivots: np.ndarray) -> int:
    nrows = mat.shape[0]
    r = 0
    for col in range(ncols):
        if r == nrows:
            break
        w = col >> 6
        b = np.uint64(col & 63)
        colbits = (mat[r:, w] >> b) & _U1
        hits = np.nonzero(colbits)[0]
        if hits.size == 0:
            continue
        piv = r + int(hits[0])
        if piv != r:
            mat[[r, piv]] = mat[[piv, r]]
        others = np.nonzero((mat[:, w] >> b) & _U1)[0]
        others = others[others != r]
        if others.size:
            mat[others] ^= mat[r]
        pivots[r] = col
        r += 1
    return r


# --- public operations -------------------------------------------------------


def rref(mat: np.ndarray, ncols: int):
    """Reduced row-echelon form; returns (reduced copy, pivot column list)."""
    work = np.array(mat, dtype=np.uint64, copy=True)
    if work.ndim != 2:
        work = work.reshape(0, n_words(ncols))
    pivots = np.full(max(1, work.shape[0]), -1, dtype=np.int64)
    r = _eliminate(work, ncols, pivots) if work.shape[0] else 0
    return work, [int(c) for c in pivots[:r]]


def rank(mat: np.ndarray, ncols: int) -> int:
    return len(rref(mat, ncols)[1])


def row_space(mat: np.ndarray, ncols: int) -> np.ndarray:
    """Basis of the row space as the nonzero rows of the RREF."""
    red, piv = rref(mat, ncols)
    return red[: len(piv)].copy()


def independent_rows(mat: np.ndarray, ncols: int) -> list:
    """Indices of a maximal linearly independent subset of the rows, each
    row kept when it is independent of the rows before it: the pivot
    columns of the transpose."""
    nrows = mat.shape[0]
    if nrows == 0:
        return []
    return rref(pack_rows(unpack_rows(mat, ncols).T), nrows)[1]


def nullspace(mat: np.ndarray, ncols: int) -> np.ndarray:
    """Packed basis of {x : mat @ x = 0}; vectors have ``ncols`` columns."""
    red, piv = rref(mat, ncols)
    piv_set = set(piv)
    free = [c for c in range(ncols) if c not in piv_set]
    basis = np.zeros((len(free), ncols), dtype=np.uint8)
    for k, f in enumerate(free):
        basis[k, f] = 1
        for i, p in enumerate(piv):
            if get_bit(red[i], f):
                basis[k, p] = 1
    return pack_rows(basis) if free else zeros(0, ncols)


def matmul(a: np.ndarray, a_cols: int, b: np.ndarray) -> np.ndarray:
    """GF(2) product of packed a (m x a_cols) with packed b (a_cols x *)."""
    if a.shape[0] == 0 or b.shape[0] == 0:
        return np.zeros((a.shape[0], b.shape[1] if b.ndim == 2 else 1), dtype=np.uint64)
    a_dense = unpack_rows(a, a_cols)
    b_dense = unpack_rows(b, b.shape[1] * 64)
    # uint8 matmul wraps mod 256, which preserves parity
    prod = (a_dense @ b_dense) & 1
    return pack_rows(prod)[:, : b.shape[1]]


def is_zero_rows(mat: np.ndarray) -> bool:
    return mat.size == 0 or not mat.any()

