"""Exact GF(2) linear algebra on rows held as Python ints.

A row is an ``int`` used as a bitset: bit ``c`` is column ``c``, and the
sum of two rows is their XOR, which CPython runs over whole machine words.
A matrix is a list of rows.  ``perfbench/README.md`` describes how the
speed of this module is measured.
"""

from __future__ import annotations

BACKEND = "python-int"


def independent_rows(rows) -> list:
    """Indices of a maximal linearly independent subset of the rows, each
    row kept when it is independent of the rows before it."""
    basis: dict = {}  # leading bit -> reduced row with that leading bit
    keep = []
    for i, row in enumerate(rows):
        while row:
            lead = row.bit_length() - 1
            pivot = basis.get(lead)
            if pivot is None:
                basis[lead] = row
                keep.append(i)
                break
            row ^= pivot
    return keep


def image(targets, rows) -> list:
    """Images of the rows under the linear map that sends column ``i`` to
    the row ``targets[i]``: each row becomes the XOR of ``targets[i]``
    over its set bits."""
    out = []
    for row in rows:
        acc = 0
        digits = bin(row)[:1:-1]  # bit 0 first
        i = digits.find("1")
        while i >= 0:
            acc ^= targets[i]
            i = digits.find("1", i + 1)
        out.append(acc)
    return out

