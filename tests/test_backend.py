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
    """Gauss-Jordan elimination one field element at a time, each
    operation one lookup in the field's tables."""
    add, mul, neg, inv = field.add_table, field.mul_table, field.neg_table, field.inv_table
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
        pinv = int(inv[m[rank][col]])
        m[rank] = [int(mul[pinv, v]) for v in m[rank]]
        for i in range(rows):
            if i != rank and m[i][col] != 0:
                factor = int(neg[m[i][col]])
                m[i] = [int(add[vi, mul[factor, vr]]) for vi, vr in zip(m[i], m[rank])]
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
    red, pivots = linalg.rrefs_of_stack(m[None], f)
    assert red.shape == (1,) + shape and red.dtype == np.int16
    assert pivots.tolist() == [[shape[1]] * shape[0]]


def test_rref_of_a_negative_stride_view():
    f = field_from_size(4)
    m = np.array([[1, 2, 0, 3], [0, 1, 1, 2], [2, 3, 0, 1]], dtype=np.int16)
    m.setflags(write=False)
    view = m[::-1, ::-1]
    want, want_pivots = reference_rref(view, f)
    red, pivots = linalg.rrefs_of_stack(view[None], f)
    assert red.dtype == np.int16 and np.array_equal(red[0], want)
    assert tuple(pivots[0, :len(want_pivots)]) == want_pivots


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


#: (B, R, C) stacks for the batched rref: no matrices, one matrix tall or
#: wide, no rows, no columns, tall, wide and square ones, and the 9 x 21
#: shape of a receiver's ``[A reversed | I]`` at (h, t) = (4, 3), alpha = 3.
RREF_SHAPES = [(0, 3, 4), (1, 6, 4), (1, 4, 6), (3, 0, 4), (3, 4, 0), (5, 1, 6), (5, 6, 1),
               (4, 9, 3), (4, 3, 9), (3, 8, 8), (6, 9, 21)]


@pytest.mark.parametrize("shape", RREF_SHAPES, ids=str)
@pytest.mark.parametrize("q", [2, 3, 4, 16, 257, 1024])
@settings(max_examples=20, deadline=None)
@given(data=st.data())
def test_rref_stack_matches_rref_destructive(q, shape, data):
    f = field_from_size(q)
    stack = data.draw(stacks(q, shape))
    if shape[0] and data.draw(st.booleans()):
        stack[data.draw(st.integers(0, shape[0] - 1))] = 0  # an all-zero matrix
    before = stack.copy()
    red, pivots = backend.rref_stack(stack, *f.kernel_views)
    assert red.dtype == np.int16 and red.shape == shape
    assert pivots.dtype == np.intp and pivots.shape == shape[:2]
    for m, got, got_pivots in zip(stack, red, pivots):
        rows, want_pivots = backend.rref_destructive(m, *f.kernel_views)
        assert got.tolist() == rows
        assert got_pivots.tolist() == want_pivots + [shape[2]] * (shape[1] - len(want_pivots))
    assert np.array_equal(stack, before)


@pytest.mark.parametrize("q", [2, 3, 16, 257])
def test_rref_stack_reads_every_layout(q):
    # the same values as transposed, Fortran-ordered, negative-stride and
    # strided views: each is reduced as its C-ordered copy is
    f = field_from_size(q)
    rng = np.random.default_rng(q)
    base = np.stack([random_matrix(rng, q, 6, 4) for _ in range(8)])
    layouts = {
        "transposed": np.ascontiguousarray(base.transpose(0, 2, 1)).transpose(0, 2, 1),
        "fortran": np.asfortranarray(base),
        "reversed": base[::-1, ::-1, ::-1].copy()[::-1, ::-1, ::-1],
        "strided": np.repeat(base, 2, axis=2)[:, :, ::2],
    }
    for name, stack in layouts.items():
        assert np.array_equal(stack, base) and not stack.flags.c_contiguous, name
        red, pivots = linalg.rrefs_of_stack(stack, f)
        for m, got, got_pivots in zip(base, red, pivots):
            rows, want_pivots = backend.rref_destructive(m, *f.kernel_views)
            assert got.tolist() == rows, name
            assert got_pivots.tolist() == want_pivots + [4] * (6 - len(want_pivots)), name


@pytest.mark.parametrize("chunk", [1, 40, linalg.CHUNK_ENTRIES])
@pytest.mark.parametrize("q", [2, 16, 1024])
def test_rrefs_of_stack_matches_rref_of_array_in_every_pass_size(q, chunk):
    f = field_from_size(q)
    rng = np.random.default_rng(q + chunk)
    for shape in [(0, 2, 3), (1, 3, 5), (7, 4, 6), (30, 2, 9)]:
        stack = np.stack([random_matrix(rng, q, *shape[1:]) for _ in range(shape[0])]) \
            if shape[0] else np.zeros(shape, dtype=np.int16)
        with mock.patch.object(linalg, "CHUNK_ENTRIES", chunk):
            red, pivots = linalg.rrefs_of_stack(stack, f)
        assert red.shape == shape and pivots.shape == shape[:2]
        for m, got, got_pivots in zip(stack, red, pivots):
            rows, want_pivots = backend.rref_destructive(m, *f.kernel_views)
            assert got.tolist() == rows
            assert got_pivots.tolist() == want_pivots + [shape[2]] * (shape[1] - len(want_pivots))


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
        rows, pivots = backend.rref_destructive(m, *f.kernel_views)
    finally:
        tracer.uninstall()
    assert (backend.rank_destructive, backend.rref_destructive, linalg.rank_of_array) == kernels
    assert (rank, pivots) == (2, [0, 1])
    report = tracer.report()
    shapes = {(s["name"], s["q"], s["shape"]): s["calls"] for s in report["rank_by_shape"]}
    assert shapes[("backend.rank_destructive", 4, "2x3")] == 1
    assert shapes[("linalg.rank_of_array", 4, "2x3")] == 1
    assert report["spans"]["backend.rref_destructive"]["calls"] == 1
