"""Exact GF(2) linear algebra on rows held as Python ints.

A row is an ``int`` used as a bitset: bit ``c`` is column ``c``, and the
sum of two rows is their XOR, which CPython runs over whole machine words.
A matrix is a list of rows.  ``perfbench/README.md`` describes how the
speed of this module is measured.
"""

BACKEND = "python-int"


def echelon(rows) -> tuple:
    """The reduced row echelon form of the rows' span: each row's highest
    set bit is its pivot, no other row has that bit set, and the rows come
    in descending order.  Two lists of rows span the same space exactly
    when their forms are equal; the zero space's is ``()``."""
    basis: dict = {}  # pivot -> the one row with that bit set
    for row in rows:
        for lead, pivot in basis.items():
            if row >> lead & 1:
                row ^= pivot
        if row:
            lead = row.bit_length() - 1
            for other, pivot in basis.items():
                if pivot >> lead & 1:
                    basis[other] = pivot ^ row
            basis[lead] = row
    return tuple(sorted(basis.values(), reverse=True))
