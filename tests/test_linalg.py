"""Arrays, subspaces and counting over GF(q)."""

import itertools
import time
from math import comb, isqrt

import numpy as np
import pytest

from gcnet import linalg
from gcnet.bounds import EXACT_LIMIT
from gcnet.combnet import LinearSolution, NetworkParams
from gcnet.ffield import comb_exceeds, field_from_size, power_exceeds
from gcnet.grasscode import CoveringCode
from gcnet.linalg import (
    MatrixQ,
    count_rank_matrices,
    dual,
    gaussian_binomial,
    product_of_arrays,
    random_matrix,
    rank_of_array,
    rref_of_array,
    span_dim,
)

F2 = field_from_size(2)
F3 = field_from_size(3)
F4 = field_from_size(4)


def brute_row_space_size(m: np.ndarray, f) -> int:
    """|row space| by enumerating every coefficient vector."""
    seen = set()
    for coeffs in itertools.product(range(f.q), repeat=m.shape[0]):
        vec = [0] * m.shape[1]
        for c, row in zip(coeffs, m):
            for j in range(m.shape[1]):
                vec[j] = int(f.add_table[vec[j], f.mul_table[c, row[j]]])
        seen.add(tuple(vec))
    return len(seen)


def scalar_product(a: np.ndarray, b: np.ndarray, f) -> list[list[int]]:
    """``a @ b`` one field operation at a time."""
    out = []
    for i in range(a.shape[0]):
        row = []
        for j in range(b.shape[1]):
            acc = 0
            for k in range(a.shape[1]):
                acc = int(f.add_table[acc, f.mul_table[a[i, k], b[k, j]]])
            row.append(acc)
        out.append(row)
    return out


def test_matrix_construction_and_validation():
    m = MatrixQ(F2, [[1, 0], [0, 1]])
    assert m.data.shape == (2, 2) and m.data.dtype == np.int16
    assert repr(m) == "MatrixQ(GF(2), 2x2)"
    with pytest.raises(ValueError):
        MatrixQ(F2, [[2, 0]])
    with pytest.raises(ValueError):
        MatrixQ(F2, [1, 0])
    assert m.data.flags.writeable is False


@pytest.mark.parametrize(
    "data", [[[65537, 0]], [[70000, 0]], [[1.9, 0.2]], [[-1, 0]], [[2, 0]], [[[1, 0]]]],
    ids=["wraps-to-1", "int16-overflow", "float", "negative", "above-q", "wrong-shape"],
)
def test_matrix_and_subspace_reject_entries_outside_the_field(data):
    # one check, linalg.element_array, for every stored array: a message
    # matrix, a code's codewords and a solution's coding matrices.  The
    # entries are checked as given, before the int16 cast could alter
    # them; the wrong shape has an extra axis in every container.
    net = NetworkParams(h=2, r=3, alpha=2, ell=1, epsilon=0)
    makers = [
        lambda d: MatrixQ(F2, d),
        lambda d: CoveringCode(field=F2, n=2, k=1, delta=1, alpha=2, codewords=[d, d]),
        lambda d: LinearSolution(params=net, field=F2, t=1, matrices=[d] * 3),
    ]
    for make in makers:
        for given in (data, np.array(data)):
            with pytest.raises(ValueError, match="^(expected an array of shape|entries must be)"):
                make(given)
    # the same containers accept in-range entries of the right shape
    for make in makers:
        make([[1, 0]])


def test_matmul_against_scalar_definition():
    rng = np.random.default_rng(11)
    for f in (F2, F3, F4):
        a = random_matrix(f, 3, 4, rng).data
        b = random_matrix(f, 4, 2, rng).data
        prod = product_of_arrays(a, b, f)
        assert prod.dtype == np.int16 and prod.tolist() == scalar_product(a, b, f)
    with pytest.raises(ValueError):
        product_of_arrays(np.array([[1, 0]]), np.array([[1, 0]]), F2)


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
        assert np.array_equal(stacked[s], product_of_arrays(a[s], b[s], f))
        assert np.array_equal(broadcast[s], product_of_arrays(a[s], b2, f))
        assert stacked[s].tolist() == scalar_product(a[s], b[s], f)
    with pytest.raises(ValueError):
        product_of_arrays(a, a, f)


#: (a, b) shapes: deep and odd inner extents (several halving folds),
#: leading axes broadcast from either side, k = 0 and k = 1.
PRODUCT_SHAPES = [((5, 3, 13), (5, 13, 2)), ((5, 3, 4), (4, 2)), ((3, 4), (2, 4, 2)),
                  ((2, 1, 3, 7), (4, 7, 1)), ((5, 3, 0), (0, 2)), ((3, 1), (1, 4)),
                  ((20, 12, 12), (20, 12, 1))]


@pytest.mark.parametrize("q", [2, 3, 4, 9, 16, 27, 257, 1024])
def test_product_of_arrays_is_the_same_in_every_pass_size(q, monkeypatch):
    # a pass gathers the terms of several inner indices and folds them
    # pairwise; the sums must not depend on how many indices share a pass
    f = field_from_size(q)
    rng = np.random.default_rng(q)
    for sa, sb in PRODUCT_SHAPES:
        a = rng.integers(0, q, size=sa).astype(np.int16)
        b = rng.integers(0, q, size=sb).astype(np.int16)
        lead = np.broadcast_shapes(sa[:-2], sb[:-2])
        count = int(np.prod(lead))
        slices = zip(np.broadcast_to(a, lead + sa[-2:]).reshape(count, *sa[-2:]),
                     np.broadcast_to(b, lead + sb[-2:]).reshape(count, *sb[-2:]))
        want = np.array([scalar_product(x, y, f) for x, y in slices], dtype=np.int16)
        want = want.reshape(lead + (sa[-2], sb[-1]))
        for chunk in (1, 40, linalg.CHUNK_ENTRIES):
            monkeypatch.setattr(linalg, "CHUNK_ENTRIES", chunk)
            got = product_of_arrays(a, b, f)
            assert got.dtype == np.int16 and got.shape == want.shape
            assert np.array_equal(got, want), (sa, sb, chunk)


def test_matmul_big_field():
    f = field_from_size(512)
    a = np.array([[300, 1], [0, 511]], dtype=np.int16)
    assert np.array_equal(product_of_arrays(a, np.eye(2, dtype=np.int16), f), a)
    singular = np.array([[300, 1], [300, 1]], dtype=np.int16)
    null = dual(singular, f)
    assert null.shape == (1, 2)
    assert not product_of_arrays(singular, null.T, f).any()


def test_rank_matches_row_space_size():
    rng = np.random.default_rng(5)
    for f in (F2, F3):
        for rows, cols in [(1, 3), (2, 2), (3, 4), (4, 3)]:
            for _ in range(10):
                m = random_matrix(f, rows, cols, rng).data
                assert f.q ** rank_of_array(m, f) == brute_row_space_size(m, f)


def test_rref_shape_and_idempotence():
    rng = np.random.default_rng(9)
    for _ in range(20):
        m = random_matrix(F3, 3, 5, rng).data
        red, pivots = rref_of_array(m, F3)
        assert red.shape == m.shape and red.dtype == np.int16
        assert len(pivots) == rank_of_array(m, F3)
        again, pivots2 = rref_of_array(red, F3)
        assert np.array_equal(again, red) and pivots2 == pivots
        # pivot columns hold standard basis vectors
        for i, c in enumerate(pivots):
            col = [int(v) for v in red[:, c]]
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
        m = np.array(bits, dtype=np.int16).reshape(2, 4)
        if rank_of_array(m, F2) == 2:
            seen.add(rref_of_array(m, F2)[0].tobytes())
    assert len(seen) == gaussian_binomial(4, 2, 2)


def test_count_rank_matrices_census():
    # all 16 binary 2x2 matrices by brute force
    census = {0: 0, 1: 0, 2: 0}
    for bits in itertools.product(range(2), repeat=4):
        census[rank_of_array(np.array(bits, dtype=np.int16).reshape(2, 2), F2)] += 1
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
    s1, _ = rref_of_array(np.array([[1, 1, 0], [0, 1, 1]]), F2)
    s2, _ = rref_of_array(np.array([[1, 0, 1], [0, 1, 1], [1, 1, 0]]), F2)
    assert s1.tolist() == [[1, 0, 1], [0, 1, 1]]
    assert s2.tolist() == s1.tolist() + [[0, 0, 0]]
    # (1, 0, 1) lies in the plane and (1, 0, 0) does not
    assert span_dim([s1, [[1, 0, 1]]], F2) == 2
    assert span_dim([s1, [[1, 0, 0]]], F2) == 3
    zero, pivots = rref_of_array(np.zeros((1, 3), dtype=np.int16), F2)
    assert zero.tolist() == [[0, 0, 0]] and pivots == ()
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
        a = random_matrix(F3, 2, 4, rng).data
        b = random_matrix(F3, 2, 4, rng).data
        expect = rank_of_array(np.vstack([a, b]), F3)
        assert span_dim([a, b], F3) == expect
        assert span_dim([rref_of_array(a, F3)[0], np.zeros((1, 4), dtype=np.int16), b], F3) == expect


def test_null_space_annuls_matrix():
    # the dual of a row space is the null space of its generators
    rng = np.random.default_rng(2)
    for f in (F2, F3, F4):
        for _ in range(15):
            m = random_matrix(f, 3, 5, rng).data
            ns = dual(m, f)
            assert ns.shape == (5 - rank_of_array(m, f), 5)  # rank-nullity
            assert rank_of_array(ns, f) == len(ns)
            assert not product_of_arrays(m, ns.T, f).any()


def test_dual_is_involution_on_all_planes():
    planes = {}
    for bits in itertools.product(range(2), repeat=8):
        m = np.array(bits, dtype=np.int16).reshape(2, 4)
        if rank_of_array(m, F2) == 2:
            red = rref_of_array(m, F2)[0]
            planes[red.tobytes()] = red
    assert len(planes) == 35
    for s in planes.values():
        d = dual(s, F2)
        assert d.shape == (2, 4)
        assert np.array_equal(rref_of_array(d, F2)[0], d)
        assert np.array_equal(dual(d, F2), s)
        # every pairing of basis vectors is orthogonal
        assert not product_of_arrays(s, d.T, F2).any()


def test_dual_of_trivial_spaces():
    zero = np.zeros((1, 3), dtype=np.int16)
    assert np.array_equal(dual(zero, F3), np.eye(3))
    assert np.array_equal(dual(np.zeros((0, 3), dtype=np.int16), F3), np.eye(3))
    full = np.eye(3, dtype=np.int16)
    assert dual(full, F3).shape == (0, 3)


def test_random_matrix_determinism():
    a = random_matrix(F4, 3, 3, np.random.default_rng(42))
    b = random_matrix(F4, 3, 3, np.random.default_rng(42))
    assert np.array_equal(a.data, b.data)
    assert int(a.data.max()) < 4


def test_big_field_rank_and_rref():
    # GF(257): the smallest field whose elements do not fit in a byte
    big = field_from_size(257)
    rng = np.random.default_rng(8)
    for _ in range(5):
        m = rng.integers(0, 257, size=(3, 4)).astype(np.int16)
        assert 0 <= rank_of_array(m, big) <= 3
        red, pivots = rref_of_array(m, big)
        assert len(pivots) == rank_of_array(m, big)
        for i, c in enumerate(pivots):
            assert red[i, c] == 1
    # a fixed case with a known answer
    assert rank_of_array(np.array([[1, 2, 3], [2, 4, 6], [0, 0, 5]]), big) == 2
