import random

import pytest

from milnortc import gf2
from reference import image, independent_rows, nullspace, rank, rref


@pytest.fixture
def rng():
    return random.Random(1729)


def random_rows(rng, nrows, ncols):
    return [rng.getrandbits(ncols) for _ in range(nrows)]


def test_rref_identity_and_rank():
    eye = [1 << i for i in range(10)]
    assert rref(eye) == {i: 1 << i for i in range(10)}
    assert rank(eye) == 10
    assert rank([0] * 4) == 0
    assert nullspace(eye, 10) == []


def test_rank_matches_dense_gauss(rng):
    def dense_rank(rows, ncols):
        mat = [[row >> c & 1 for c in range(ncols)] for row in rows]
        r = 0
        for c in range(ncols):
            piv = next((i for i in range(r, len(mat)) if mat[i][c]), None)
            if piv is None:
                continue
            mat[r], mat[piv] = mat[piv], mat[r]
            for i in range(len(mat)):
                if i != r and mat[i][c]:
                    mat[i] = [x ^ y for x, y in zip(mat[i], mat[r])]
            r += 1
        return r

    for _ in range(25):
        nrows, ncols = rng.randrange(1, 30), rng.randrange(1, 30)
        rows = random_rows(rng, nrows, ncols)
        assert rank(rows) == dense_rank(rows, ncols)


def test_nullspace_annihilates_and_rank_nullity(rng):
    for _ in range(20):
        nrows, ncols = rng.randrange(1, 25), rng.randrange(1, 25)
        rows = random_rows(rng, nrows, ncols)
        null = nullspace(rows, ncols)
        assert len(null) == ncols - rank(rows)
        for vec in null:
            assert 0 < vec < 1 << ncols
            assert all((row & vec).bit_count() % 2 == 0 for row in rows)
        assert rank(null) == len(null)


def test_image_matches_naive_product(rng):
    for _ in range(20):
        m, k, p = rng.randrange(1, 40), rng.randrange(1, 40), rng.randrange(1, 40)
        rows = random_rows(rng, m, k)
        targets = random_rows(rng, k, p)
        want = [
            sum(
                (sum(row >> i & targets[i] >> j & 1 for i in range(k)) % 2) << j
                for j in range(p)
            )
            for row in rows
        ]
        assert image(targets, rows) == want
    assert image([], [0, 0]) == [0, 0]


def test_independent_rows_keeps_each_row_independent_of_earlier_ones(rng):
    for ncols in (5, 70):
        base = random_rows(rng, 4, ncols)
        # interleave zero rows, repeats and sums of earlier rows
        rows = [base[0], 0, base[1], base[0] ^ base[1], base[2], base[0],
                base[3] ^ base[2]]
        keep = independent_rows(rows)
        want = []
        for i in range(len(rows)):
            if rank([rows[j] for j in want] + [rows[i]]) > len(want):
                want.append(i)
        assert keep == want
        kept = [rows[i] for i in keep]
        assert rank(kept) == rank(rows) == len(keep)
    assert independent_rows([]) == []


def test_echelon_is_one_form_per_span(rng):
    # reference.rref pivots each row on its lowest bit; on the columns in
    # reverse order it gives the reduced form that pivots on the highest
    def flip(row, ncols):
        return int(format(row, f"0{ncols}b")[::-1], 2)

    for _ in range(40):
        nrows, ncols = rng.randrange(0, 12), rng.randrange(1, 40)
        rows = random_rows(rng, nrows, ncols) + [0]
        form = gf2.echelon(rows)
        want = rref([flip(row, ncols) for row in rows]).values()
        assert form == tuple(sorted((flip(row, ncols) for row in want), reverse=True))
        # another list of rows with the same span has the same form
        mixed = [a ^ b for a, b in zip(rows, rows[1:])] + rows[:1]
        assert gf2.echelon(rng.sample(mixed, len(mixed))) == form
    assert gf2.echelon([]) == gf2.echelon([0, 0]) == ()
