"""The table-driven elimination kernel against a scalar reference."""

import functools
import importlib.util
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra.numpy import arrays

from gcnet import backend, linalg
from gcnet.backend import backend_name
from gcnet.ffield import field_from_size

QS = [2, 3, 4, 16, 257, 512, 1024]

#: (rows, cols) and the number of random matrices of that shape: small
#: shapes many times, and thin, wide and square ones up to 48 x 48, past
#: every shape gcnet itself reduces.
SHAPES = {
    (1, 1): 20, (3, 5): 20, (5, 3): 20, (6, 6): 20, (8, 2): 20, (4, 6): 20,
    (1, 13): 5, (13, 1): 5, (40, 8): 2, (8, 40): 2, (24, 24): 2, (48, 48): 1,
}


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
    return f.kernel_views


def random_matrix(rng, q, rows, cols):
    m = rng.integers(0, q, size=(rows, cols)).astype(np.int16)
    # sparse and dependent rows too, so that low ranks are exercised
    if rng.random() < 0.3:
        m[rng.random(size=m.shape) < 0.6] = 0
    if rows > 1 and rng.random() < 0.3:
        m[-1] = m[0]
    return m


@functools.cache
def cases(q):
    """Matrices over GF(q) with their reference reduction, shared by the
    rank and the rref test: random ones of every shape in SHAPES, plus an
    all-zero one and one made of two repeated rows per shape."""
    f = field_from_size(q)
    rng = np.random.default_rng(1234 + q)
    out = []
    for (rows, cols), count in SHAPES.items():
        mats = [random_matrix(rng, q, rows, cols) for _ in range(count)]
        mats.append(np.zeros((rows, cols), dtype=np.int16))
        twin = rng.integers(0, q, size=(2, cols)).astype(np.int16)
        mats.append(twin[np.arange(rows) % 2])
        for m in mats:
            m.setflags(write=False)
            out.append((m, *reference_rref(m, f)))
    return tuple(out)


@pytest.mark.parametrize("q", QS)
def test_rank_matches_reference(q):
    f = field_from_size(q)
    for m, _, want_pivots in cases(q):
        before = m.copy()
        # m is read-only: a write into it would raise
        assert backend.rank_destructive(m, *tables(f)) == len(want_pivots)
        assert np.array_equal(m, before)


@pytest.mark.parametrize("q", QS)
def test_rref_matches_reference(q):
    f = field_from_size(q)
    for m, want, want_pivots in cases(q):
        before = m.copy()
        # m is read-only: a write into it would raise
        rows, pivots = backend.rref_destructive(m, *tables(f))
        assert pivots == list(want_pivots)
        assert rows == want.tolist()
        assert np.array_equal(m, before)


@pytest.mark.parametrize("shape", [(0, 3), (3, 0), (0, 0)])
def test_rref_of_empty_matrices(shape):
    f = field_from_size(4)
    m = np.zeros(shape, dtype=np.int16)
    assert linalg.rank_of_array(m, f) == 0
    rows, pivots = linalg.rref_of_array(m, f)
    assert rows == m.tolist() and pivots == ()
    red, pivots = linalg.MatrixQ(f, m).rref()
    assert red.data.shape == shape and pivots == ()


def test_rref_of_a_negative_stride_view():
    f = field_from_size(4)
    m = np.array([[1, 2, 0, 3], [0, 1, 1, 2], [2, 3, 0, 1]], dtype=np.int16)
    m.setflags(write=False)
    view = m[::-1, ::-1]
    want, want_pivots = reference_rref(view, f)
    rows, pivots = linalg.rref_of_array(view, f)
    assert rows == want.tolist() and pivots == want_pivots
    assert type(pivots) is tuple
    red, pivots = linalg.MatrixQ(f, view).rref()
    assert np.array_equal(red.data, want) and pivots == want_pivots


#: (B, R, C) stacks: an empty batch, no rows, no columns, single rows,
#: single columns, tall, wide and square matrices.
STACK_SHAPES = [(0, 3, 4), (3, 0, 4), (3, 4, 0), (5, 1, 6), (5, 6, 1), (4, 9, 3), (4, 3, 9),
                (3, 8, 8)]


@st.composite
def stacks(draw, q, shape):
    """Index stacks of int16 or int64 (the search draws int64), with
    entries over the whole field or sparse 0/1 ones, and often a repeated
    row or a zero row in every matrix."""
    dtype = draw(st.sampled_from([np.int16, np.int64]))
    top = draw(st.sampled_from([1, q - 1]))
    stack = draw(arrays(dtype, shape, elements=st.integers(0, top)))
    rows = shape[1]
    if rows > 1 and draw(st.booleans()):
        stack[:, draw(st.integers(1, rows - 1))] = stack[:, 0]
    if rows and draw(st.booleans()):
        stack[:, draw(st.integers(0, rows - 1))] = 0
    return stack


@pytest.mark.parametrize("shape", STACK_SHAPES, ids=str)
@pytest.mark.parametrize("q", [2, 3, 4, 16, 257, 1024])
@settings(max_examples=20, deadline=None)
@given(data=st.data())
def test_ranks_of_stack_matches_rank_of_array(q, shape, data):
    # the batched kernel itself, on every shape the gathering passes it
    f = field_from_size(q)
    stack = data.draw(stacks(q, shape))
    before = stack.copy()
    ranks = backend.rank_stack(stack, *f.kernel_views)
    assert ranks.dtype == np.intp and ranks.shape == (shape[0],)
    assert ranks.tolist() == [linalg.rank_of_array(m, f) for m in stack]
    assert np.array_equal(stack, before)


@pytest.mark.parametrize("shape", STACK_SHAPES, ids=str)
@pytest.mark.parametrize("q", [2, 3, 4, 16, 257, 1024])
@settings(max_examples=20, deadline=None)
@given(data=st.data())
def test_ranks_of_selections_matches_rank_of_array(q, shape, data):
    # s = 1 to 3 blocks per selection, often repeated, M = 0 selections
    # among the draws, and stacks gathered a few entries at a time
    f = field_from_size(q)
    blocks = data.draw(stacks(q, shape))
    width = data.draw(st.integers(1, 3))
    count = data.draw(st.integers(0, 6)) if shape[0] else 0
    selections = data.draw(arrays(np.intp, (count, width),
                                  elements=st.integers(0, max(shape[0] - 1, 0))))
    if width > 1 and data.draw(st.booleans()):
        selections[:, -1] = selections[:, 0]
    chunk = data.draw(st.sampled_from([1, 40, linalg.CHUNK_ENTRIES]))
    inputs = blocks.copy(), selections.copy()
    with mock.patch.object(linalg, "CHUNK_ENTRIES", chunk):
        ranks = linalg.ranks_of_selections(blocks, selections, f)
    assert ranks.dtype == np.intp and ranks.shape == (count,)
    assert ranks.tolist() == [linalg.rank_of_array(np.concatenate(blocks[sel]), f)
                              for sel in selections]
    assert np.array_equal(blocks, inputs[0]) and np.array_equal(selections, inputs[1])


def test_backend_name_is_reported():
    assert backend_name() == "python"


def test_tracer_sees_the_kernel_entry_points():
    # perfbench's --trace 1 wraps the kernel by name and records
    # (q, rows, cols) from the matrix and the add table it is given
    path = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"
    spec = importlib.util.spec_from_file_location("perfbench_tracing", path)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    f = field_from_size(4)
    m = np.array([[1, 2, 3], [0, 3, 1]], dtype=np.int16)
    kernels = (backend.rank_destructive, backend.rref_destructive, linalg.rank_of_array)
    tracer = tracing.Tracer()
    tracer.install()
    try:
        rank = linalg.rank_of_array(m, f)
        red, pivots = linalg.rref_of_array(m, f)
    finally:
        tracer.uninstall()
    assert (backend.rank_destructive, backend.rref_destructive, linalg.rank_of_array) == kernels
    assert (rank, pivots) == (2, (0, 1))
    report = tracer.report()
    shapes = {(s["name"], s["q"], s["shape"]): s["calls"] for s in report["rank_by_shape"]}
    assert shapes[("backend.rank_destructive", 4, "2x3")] == 1
    assert shapes[("linalg.rank_of_array", 4, "2x3")] == 1
    assert report["spans"]["backend.rref_destructive"]["calls"] == 1
