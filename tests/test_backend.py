"""The table-driven elimination kernel against a scalar reference."""

import numpy as np
import pytest

from gcnet import backend
from gcnet.backend import backend_name
from gcnet.ffield import field_from_size

QS = [2, 3, 4, 16, 257, 512, 1024]


def reference_rref(arr, field):
    """Gauss-Jordan elimination with scalar field arithmetic."""
    rows, cols = arr.shape
    m = [[int(v) for v in row] for row in arr]
    pivots = []
    rank = 0
    for col in range(cols):
        if rank == rows:
            break
        pivot = next((i for i in range(rank, rows) if m[i][col] != 0), -1)
        if pivot < 0:
            continue
        m[rank], m[pivot] = m[pivot], m[rank]
        pinv = field.inv(m[rank][col])
        m[rank] = [field.mul(pinv, v) for v in m[rank]]
        for i in range(rows):
            if i != rank and m[i][col] != 0:
                factor = field.neg(m[i][col])
                m[i] = [field.add(vi, field.mul(factor, vr)) for vi, vr in zip(m[i], m[rank])]
        pivots.append(col)
        rank += 1
    return np.array(m, dtype=np.int16).reshape(rows, cols), tuple(pivots)


def tables(f):
    return f.add_table, f.mul_table, f.inv_table, f.neg_table


def random_matrix(rng, q, rows, cols):
    m = rng.integers(0, q, size=(rows, cols)).astype(np.int16)
    # sparse and dependent rows too, so that low ranks are exercised
    if rng.random() < 0.3:
        m[rng.random(size=m.shape) < 0.6] = 0
    if rows > 1 and rng.random() < 0.3:
        m[-1] = m[0]
    return m


@pytest.mark.parametrize("q", QS)
def test_rank_matches_reference(q):
    f = field_from_size(q)
    rng = np.random.default_rng(1234 + q)
    for rows, cols in [(1, 1), (3, 5), (5, 3), (6, 6), (8, 2)]:
        for _ in range(20):
            m = random_matrix(rng, q, rows, cols)
            _, pivots = reference_rref(m, f)
            assert backend.rank_destructive(m.copy(), *tables(f)) == len(pivots)


@pytest.mark.parametrize("q", QS)
def test_rref_matches_reference(q):
    f = field_from_size(q)
    rng = np.random.default_rng(4321 + q)
    for _ in range(40):
        m = random_matrix(rng, q, 4, 6)
        want, want_pivots = reference_rref(m, f)
        got = m.copy()
        pivots = np.zeros(4, dtype=np.int16)
        npiv = backend.rref_destructive(got, pivots, *tables(f))
        assert tuple(int(c) for c in pivots[:npiv]) == want_pivots
        assert np.array_equal(got, want)


def test_backend_name_is_reported():
    assert backend_name() == "python"
