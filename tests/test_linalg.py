"""Matrices, subspaces and counting over GF(q)."""

import itertools
import time
from math import comb, isqrt

import numpy as np
import pytest

from gcnet.bounds import EXACT_LIMIT
from gcnet.ffield import comb_exceeds, field_from_size, power_exceeds
from gcnet.grasscode import CoveringCode
from gcnet.linalg import (
    MatrixQ,
    count_rank_matrices,
    dual,
    gaussian_binomial,
    null_space,
    product_of_arrays,
    random_matrix,
    solve_exact,
    span_dim,
)

F2 = field_from_size(2)
F3 = field_from_size(3)
F4 = field_from_size(4)


def brute_row_space_size(m: MatrixQ) -> int:
    """|row space| by enumerating every coefficient vector."""
    f = m.field
    seen = set()
    for coeffs in itertools.product(range(f.q), repeat=m.rows):
        vec = [0] * m.cols
        for c, row in zip(coeffs, m.data):
            for j in range(m.cols):
                vec[j] = f.add(vec[j], f.mul(c, int(row[j])))
        seen.add(tuple(vec))
    return len(seen)


def test_matrix_construction_and_validation():
    m = MatrixQ(F2, [[1, 0], [0, 1]])
    assert m.rows == 2 and m.cols == 2
    assert m == MatrixQ.identity(F2, 2)
    assert MatrixQ.zeros(F3, 2, 3).rank() == 0
    with pytest.raises(ValueError):
        MatrixQ(F2, [[2, 0]])
    with pytest.raises(ValueError):
        MatrixQ(F2, [1, 0])
    assert m.data.flags.writeable is False


@pytest.mark.parametrize(
    "data", [[[65537, 0]], [[70000, 0]], [[1.9, 0.2]], [[-1, 0]], [[2, 0]]],
    ids=["wraps-to-1", "int16-overflow", "float", "negative", "above-q"],
)
def test_matrix_and_subspace_reject_entries_outside_the_field(data):
    # checked on the values given, before the int16 cast could alter them;
    # a subspace is a codeword of a code's array
    with pytest.raises(ValueError):
        MatrixQ(F2, data)
    with pytest.raises(ValueError):
        CoveringCode(field=F2, n=2, k=1, delta=1, alpha=2, codewords=[data, [[1, 0]]])
    with pytest.raises(ValueError):
        MatrixQ(F2, np.array(data))


def test_matmul_against_scalar_definition():
    rng = np.random.default_rng(11)
    for f in (F2, F3, F4):
        a = random_matrix(f, 3, 4, rng)
        b = random_matrix(f, 4, 2, rng)
        prod = a @ b
        for i in range(3):
            for j in range(2):
                acc = 0
                for k in range(4):
                    acc = f.add(acc, f.mul(int(a.data[i, k]), int(b.data[k, j])))
                assert prod.data[i, j] == acc
    with pytest.raises(ValueError):
        MatrixQ(F2, [[1, 0]]) @ MatrixQ(F2, [[1, 0]])
    with pytest.raises(ValueError):
        MatrixQ(F2, [[1]]) @ MatrixQ(F3, [[1]])


@pytest.mark.parametrize("q", [2, 3, 4, 9, 16, 257, 1024])
def test_product_of_arrays_is_matmul_per_slice(q):
    f = field_from_size(q)
    rng = np.random.default_rng(q)
    a = rng.integers(0, q, size=(5, 3, 4)).astype(np.int16)
    b = rng.integers(0, q, size=(5, 4, 2)).astype(np.int16)
    b2 = rng.integers(0, q, size=(4, 2)).astype(np.int16)
    stacked = product_of_arrays(a, b, f)
    broadcast = product_of_arrays(a, b2, f)
    assert stacked.shape == broadcast.shape == (5, 3, 2)
    for s in range(5):
        m = MatrixQ(f, a[s])
        assert np.array_equal(stacked[s], (m @ MatrixQ(f, b[s])).data)
        assert np.array_equal(broadcast[s], (m @ MatrixQ(f, b2)).data)
        for i in range(3):
            for j in range(2):
                acc = 0
                for k in range(4):
                    acc = f.add(acc, f.mul(int(a[s, i, k]), int(b[s, k, j])))
                assert stacked[s, i, j] == acc
    with pytest.raises(ValueError):
        product_of_arrays(a, a, f)


def test_matmul_big_field():
    f = field_from_size(512)
    a = MatrixQ(f, [[300, 1], [0, 511]])
    ident = MatrixQ.identity(f, 2)
    assert a @ ident == a
    assert (a @ null_space(a).transpose()).rank() == 0 or null_space(a).rows == 0


def test_rank_matches_row_space_size():
    rng = np.random.default_rng(5)
    for f in (F2, F3):
        for rows, cols in [(1, 3), (2, 2), (3, 4), (4, 3)]:
            for _ in range(10):
                m = random_matrix(f, rows, cols, rng)
                assert f.q ** m.rank() == brute_row_space_size(m)


def test_rref_shape_and_idempotence():
    rng = np.random.default_rng(9)
    for _ in range(20):
        m = random_matrix(F3, 3, 5, rng)
        red, pivots = m.rref()
        assert len(pivots) == m.rank()
        again, pivots2 = red.rref()
        assert again == red and pivots2 == pivots
        # pivot columns hold standard basis vectors
        for i, c in enumerate(pivots):
            col = [int(v) for v in red.data[:, c]]
            assert col[i] == 1 and sum(col) == 1


def test_gaussian_binomial_values():
    assert gaussian_binomial(4, 2, 2) == 35
    assert gaussian_binomial(3, 1, 2) == 7
    assert gaussian_binomial(3, 1, 3) == 13
    assert gaussian_binomial(5, 0, 2) == 1
    assert gaussian_binomial(5, 5, 2) == 1
    assert gaussian_binomial(3, 4, 2) == 0
    for n in range(7):
        for k in range(n + 1):
            assert gaussian_binomial(n, k, 3) == gaussian_binomial(n, n - k, 3)


def test_power_exceeds_matches_the_power():
    for q in (2, 3, 16, 257):
        for e in range(60):
            for cap in (1, 8, 65536, 10**6):
                assert power_exceeds(q, e, cap) == (q**e > cap)


@pytest.mark.parametrize("q", [2, 3, 1021, 1024])
@pytest.mark.parametrize("cap", [1024, 2**64, 2**1024, EXACT_LIMIT], ids=["2^10", "2^64", "2^1024", "exact"])
def test_power_exceeds_at_its_bit_length_thresholds(q, cap):
    # the exponents where the bit lengths settle True, stop settling
    # False, and where q**e first exceeds cap, each within two
    b, c = q.bit_length(), cap.bit_length()
    first, power = (c - 1) // b, q ** ((c - 1) // b)
    while power <= cap:
        first, power = first + 1, power * q
    for threshold in (-(-c // (b - 1)), (c - 1) // b + 1, first):
        for e in range(max(0, threshold - 2), threshold + 3):
            assert power_exceeds(q, e, cap) == (q**e > cap), (q, e, cap.bit_length())


def test_comb_exceeds_matches_the_count():
    for n in range(40):
        for k in range(n + 1):
            count = comb(n, k)
            for cap in {0, 1, 7, 10**6, count - 1, count, count + 1, 2**64}:
                assert comb_exceeds(n, k, cap) == (count > cap), (n, k, cap)


@pytest.mark.parametrize("cap", [10**6, EXACT_LIMIT // 2], ids=["enumeration", "exact"])
def test_comb_exceeds_near_the_cap_and_far_past_it(cap):
    # the last r with C(r, 2) <= cap, found by isqrt, and its successor;
    # then counts of millions of bits, refused from bit lengths at once
    r = (isqrt(8 * cap + 1) + 1) // 2
    assert comb(r, 2) <= cap < comb(r + 1, 2)
    assert (comb_exceeds(r, 2, cap), comb_exceeds(r + 1, 2, cap)) == (False, True)
    assert (comb_exceeds(2 * r, 2, cap), comb_exceeds(r + 1, r - 1, cap)) == (True, True)
    start = time.perf_counter()
    assert comb_exceeds(10**6, 5 * 10**5, cap) and comb_exceeds(2**70, 10**6, cap)
    assert time.perf_counter() - start < 0.1


def test_gaussian_binomial_counts_subspaces():
    # exhaustive: number of distinct row spaces of 2x4 matrices of rank 2
    seen = set()
    for bits in itertools.product(range(2), repeat=8):
        m = MatrixQ(F2, np.array(bits, dtype=np.int16).reshape(2, 4))
        if m.rank() == 2:
            seen.add(m.rref()[0])
    assert len(seen) == gaussian_binomial(4, 2, 2)


def test_count_rank_matrices_census():
    # all 16 binary 2x2 matrices by brute force
    census = {0: 0, 1: 0, 2: 0}
    for bits in itertools.product(range(2), repeat=4):
        m = MatrixQ(F2, np.array(bits, dtype=np.int16).reshape(2, 2))
        census[m.rank()] += 1
    assert census == {0: 1, 1: 9, 2: 6}
    assert count_rank_matrices(2, 2, 1, 2) == 9
    for s, expect in census.items():
        assert count_rank_matrices(2, 2, s, 2) == expect


@pytest.mark.parametrize("q", [2, 3])
def test_rank_count_partition(q):
    for m in range(1, 5):
        for n in range(1, 5):
            total = sum(count_rank_matrices(m, n, s, q) for s in range(min(m, n) + 1))
            assert total == q ** (m * n)


def test_subspace_canonical_form():
    # two generating sets of one plane, the second with a third row
    s1, _ = MatrixQ(F2, [[1, 1, 0], [0, 1, 1]]).rref()
    s2, _ = MatrixQ(F2, [[1, 0, 1], [0, 1, 1], [1, 1, 0]]).rref()
    assert s1.data.tolist() == [[1, 0, 1], [0, 1, 1]]
    assert s2.data.tolist() == s1.data.tolist() + [[0, 0, 0]]
    # (1, 0, 1) lies in the plane and (1, 0, 0) does not
    assert span_dim([s1.data, [[1, 0, 1]]], F2) == 2
    assert span_dim([s1.data, [[1, 0, 0]]], F2) == 3
    zero, pivots = MatrixQ(F2, [[0, 0, 0]]).rref()
    assert zero.data.tolist() == [[0, 0, 0]] and pivots == ()
    with pytest.raises(ValueError):
        span_dim([], F2)


def test_span_and_intersection_dims():
    e1 = np.array([[1, 0, 0, 0]])
    e2 = np.array([[0, 1, 0, 0]])
    plane = np.array([[1, 0, 0, 0], [0, 1, 0, 0]])
    assert span_dim([e1, e2], F2) == 2
    assert span_dim([e1, e1], F2) == 1
    # dim(U^W) = dim U + dim W - dim(U+W): e1 lies in the plane, e2 meets e1 in 0
    assert span_dim([e1, plane], F2) == 2
    assert span_dim([e1, e2], F2) == span_dim([e1], F2) + span_dim([e2], F2)
    # the span of two row spaces is the rank of their stacked generators,
    # and a zero row changes neither, on a seeded sweep
    rng = np.random.default_rng(21)
    for _ in range(30):
        a = random_matrix(F3, 2, 4, rng)
        b = random_matrix(F3, 2, 4, rng)
        expect = MatrixQ(F3, np.vstack([a.data, b.data])).rank()
        assert span_dim([a.data, b.data], F3) == expect
        assert span_dim([a.rref()[0].data, np.zeros((1, 4), dtype=np.int16), b.data], F3) == expect


def test_null_space_annuls_matrix():
    rng = np.random.default_rng(2)
    for f in (F2, F3, F4):
        for _ in range(15):
            m = random_matrix(f, 3, 5, rng)
            ns = null_space(m)
            assert ns.rows == 5 - m.rank()  # rank-nullity
            if ns.rows:
                assert (m @ ns.transpose()).rank() == 0


def test_dual_is_involution_on_all_planes():
    planes = set()
    for bits in itertools.product(range(2), repeat=8):
        m = MatrixQ(F2, np.array(bits, dtype=np.int16).reshape(2, 4))
        if m.rank() == 2:
            planes.add(m.rref()[0])
    assert len(planes) == 35
    for s in planes:
        d = dual(s.data, F2)
        assert d.shape == (2, 4)
        assert MatrixQ(F2, d).rref()[0].data.tolist() == d.tolist()
        assert np.array_equal(dual(d, F2), s.data)
        # every pairing of basis vectors is orthogonal
        prod = s @ MatrixQ(F2, d).transpose()
        assert prod.rank() == 0


def test_dual_of_trivial_spaces():
    zero = np.zeros((1, 3), dtype=np.int16)
    assert np.array_equal(dual(zero, F3), np.eye(3))
    assert np.array_equal(dual(np.zeros((0, 3), dtype=np.int16), F3), np.eye(3))
    full = np.eye(3, dtype=np.int16)
    assert dual(full, F3).shape == (0, 3)


def test_solve_exact_round_trip():
    rng = np.random.default_rng(17)
    for f in (F2, F3, F4):
        for _ in range(15):
            # build a square invertible system
            while True:
                a = random_matrix(f, 3, 3, rng)
                if a.rank() == 3:
                    break
            x = random_matrix(f, 3, 2, rng)
            y = a @ x
            assert solve_exact(a, y) == x


def test_solve_exact_rejects_bad_systems():
    a = MatrixQ(F2, [[1, 0], [1, 0]])
    y_bad = MatrixQ(F2, [[1], [0]])
    with pytest.raises(ValueError):
        solve_exact(a, y_bad)  # inconsistent
    y_ok = MatrixQ(F2, [[1], [1]])
    with pytest.raises(ValueError):
        solve_exact(a, y_ok)  # rank-deficient: x not unique


@pytest.mark.parametrize("q", [2, 3, 4, 9, 16, 257, 1024])
def test_solve_exact_over_every_field_size(q):
    f = field_from_size(q)
    rng = np.random.default_rng(23 + q)
    for rows, cols in [(3, 3), (5, 3), (12, 12), (7, 1), (4, 0)]:
        for _ in range(4):
            while True:
                m = random_matrix(f, rows, cols, rng)
                if m.rank() == cols:
                    break
            x = random_matrix(f, cols, 2, rng)
            assert solve_exact(m, m @ x) == x
    deficient = MatrixQ(f, [[1, 1], [2 % q, 2 % q], [0, 0]])
    with pytest.raises(ValueError, match="rank below"):
        solve_exact(deficient, deficient @ MatrixQ(f, [[1], [0]]))
    wide = random_matrix(f, 2, 3, rng)
    with pytest.raises(ValueError, match="rank below"):
        solve_exact(wide, wide @ random_matrix(f, 3, 1, rng))
    with pytest.raises(ValueError, match="inconsistent"):
        solve_exact(deficient, MatrixQ(f, [[0], [0], [1]]))


def test_random_matrix_determinism():
    a = random_matrix(F4, 3, 3, np.random.default_rng(42))
    b = random_matrix(F4, 3, 3, np.random.default_rng(42))
    assert a == b
    assert int(a.data.max()) < 4


def test_big_field_rank_and_rref():
    # GF(257): the smallest field whose elements do not fit in a byte
    big = field_from_size(257)
    rng = np.random.default_rng(8)
    for _ in range(5):
        data = rng.integers(0, 257, size=(3, 4))
        m = MatrixQ(big, data)
        small = MatrixQ(F2, (data % 2).astype(np.int16))
        assert 0 <= m.rank() <= 3
        red, pivots = m.rref()
        assert len(pivots) == m.rank()
        for i, c in enumerate(pivots):
            assert red.data[i, c] == 1
    # a fixed case with a known answer
    m = MatrixQ(big, [[1, 2, 3], [2, 4, 6], [0, 0, 5]])
    assert m.rank() == 2
