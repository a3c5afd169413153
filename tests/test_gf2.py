import numpy as np
import pytest

from milnortc import gf2


@pytest.fixture
def rng():
    return np.random.default_rng(1729)


def test_pack_unpack_round_trip(rng):
    for ncols in (1, 7, 63, 64, 65, 130):
        dense = rng.integers(0, 2, size=(5, ncols), dtype=np.uint8)
        packed = gf2.pack_rows(dense)
        assert packed.shape == (5, gf2.n_words(ncols))
        assert np.array_equal(gf2.unpack_rows(packed, ncols), dense)


def test_bit_accessors():
    row = gf2.zeros(1, 130)[0]
    for col in (0, 63, 64, 129):
        assert gf2.get_bit(row, col) == 0
        gf2.set_bit(row, col)
        assert gf2.get_bit(row, col) == 1


def test_rref_identity_and_rank(rng):
    eye = gf2.pack_rows(np.eye(10, dtype=np.uint8))
    red, piv = gf2.rref(eye, 10)
    assert piv == list(range(10))
    assert np.array_equal(red, eye)
    assert gf2.rank(eye, 10) == 10
    assert gf2.rank(gf2.zeros(4, 10), 10) == 0


def test_rank_matches_dense_gauss(rng):
    def dense_rank(mat):
        mat = mat.copy()
        r = 0
        for c in range(mat.shape[1]):
            piv = next((i for i in range(r, mat.shape[0]) if mat[i, c]), None)
            if piv is None:
                continue
            mat[[r, piv]] = mat[[piv, r]]
            for i in range(mat.shape[0]):
                if i != r and mat[i, c]:
                    mat[i] ^= mat[r]
            r += 1
        return r

    for _ in range(25):
        rows, cols = rng.integers(1, 30, size=2)
        dense = rng.integers(0, 2, size=(rows, cols), dtype=np.uint8)
        assert gf2.rank(gf2.pack_rows(dense), cols) == dense_rank(dense)


def test_nullspace_annihilates_and_rank_nullity(rng):
    for _ in range(20):
        rows, cols = rng.integers(1, 25, size=2)
        dense = rng.integers(0, 2, size=(rows, cols), dtype=np.uint8)
        packed = gf2.pack_rows(dense)
        null = gf2.nullspace(packed, cols)
        assert null.shape[0] == cols - gf2.rank(packed, cols)
        if null.shape[0]:
            vecs = gf2.unpack_rows(null, cols)
            assert not ((dense @ vecs.T) % 2).any()
            assert gf2.rank(null, cols) == null.shape[0]


def test_matmul_matches_dense(rng):
    for _ in range(20):
        m, k, p = rng.integers(1, 40, size=3)
        a = rng.integers(0, 2, size=(m, k), dtype=np.uint8)
        b = rng.integers(0, 2, size=(k, p), dtype=np.uint8)
        got = gf2.unpack_rows(gf2.matmul(gf2.pack_rows(a), k, gf2.pack_rows(b)), p)
        assert np.array_equal(got, (a.astype(np.int64) @ b) % 2)


def test_row_space_is_canonical(rng):
    dense = rng.integers(0, 2, size=(8, 12), dtype=np.uint8)
    packed = gf2.pack_rows(dense)
    basis = gf2.row_space(packed, 12)
    again = gf2.row_space(basis, 12)
    assert np.array_equal(basis, again)
    # shuffling the rows gives the same canonical basis
    perm = rng.permutation(8)
    assert np.array_equal(gf2.row_space(packed[perm], 12), basis)


def test_independent_rows_keeps_each_row_independent_of_earlier_ones(rng):
    for ncols in (5, 70):
        base = rng.integers(0, 2, size=(4, ncols), dtype=np.uint8)
        # interleave zero rows, repeats and sums of earlier rows
        rows = [base[0], base[0] * 0, base[1], base[0] ^ base[1], base[2], base[0],
                base[3] ^ base[2]]
        packed = gf2.pack_rows(np.array(rows))
        keep = gf2.independent_rows(packed, ncols)
        want = []
        for i in range(len(rows)):
            if gf2.rank(packed[want + [i]], ncols) > len(want):
                want.append(i)
        assert keep == want
        assert gf2.rank(packed[keep], ncols) == gf2.rank(packed, ncols) == len(keep)
    assert gf2.independent_rows(gf2.zeros(0, 9), 9) == []
