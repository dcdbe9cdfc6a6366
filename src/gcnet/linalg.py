"""Arrays and subspaces over GF(q), with exact counting helpers.

An array over GF(q) holds int16 element indices; ``element_array`` is
the one check that makes one, for every stored format: a covering
code's codewords, a solution's coding matrices and the ``MatrixQ``
messages of :func:`gcnet.combnet.simulate`.  ``MatrixQ`` defines no
equality; callers compare the ``.data`` arrays.  Products index the field's
dense operation tables, and rank and reduced row echelon form run the
table-driven elimination kernel in :mod:`gcnet.backend`, for every field
order alike; ``ranks_of_selections`` gathers same-shape stacks by index
and ranks them in bounded batched passes, and ``rrefs_of_stack``
reduces a stack in such passes.  The reduced form comes back as an int16
array of its input's shape and the pivot columns; no call modifies the
arrays it is given.  A product gathers the terms of many inner indices
in one table lookup and sums them by pairwise folds.

A subspace of GF(q)^n of dimension at most k has one format: its
canonical basis, the reduced row echelon form of any k generating rows,
as a ``(k, n)`` int16 index array with its zero rows last.  A list of
such subspaces, such as a covering code's codewords, is one
``(N, k, n)`` array; two of its rows are the same subspace exactly when
they are equal.
"""

from __future__ import annotations

from typing import Iterable

import numpy as np

from . import backend
from .ffield import FieldSpec

#: Most entries one batched pass holds (one item at least): a stack that
#: ``ranks_of_selections`` or ``rrefs_of_stack`` hands the kernel, or the
#: gathered terms of one ``product_of_arrays`` pass, so that what a call
#: holds at once does not grow with its input.  Read at call time.
CHUNK_ENTRIES = 1 << 14


def items_per_pass(entries: int) -> int:
    """How many items of ``entries`` entries each fit in one pass of at
    most ``CHUNK_ENTRIES`` entries, one at least; the constant is read at
    call time."""
    return max(1, CHUNK_ENTRIES // max(1, entries))


def element_array(field: FieldSpec, data, shape: tuple) -> np.ndarray:
    """``data`` as a read-only int16 array of element indices of
    ``field``, after checking that it has ``shape`` (``None`` matches any
    extent) and integer entries in ``[0, q)``.  The entries are checked
    before the int16 cast, which would wrap big ints and truncate floats;
    an int16 input is viewed, not copied."""
    src = np.asarray(data)
    fits = src.ndim == len(shape)
    for want, got in zip(shape, src.shape):
        fits = fits and want in (None, got)
    if not fits:
        want = ", ".join("*" if w is None else str(w) for w in shape)
        raise ValueError(f"expected an array of shape ({want}), got shape {src.shape}")
    if src.size and (src.dtype.kind not in "iu" or src.min() < 0 or src.max() >= field.q):
        raise ValueError(f"entries must be integers in range for GF({field.q})")
    arr = src.astype(np.int16, copy=False).view()
    arr.setflags(write=False)
    return arr


class MatrixQ:
    """A dense matrix over a fixed finite field: ``simulate``'s message
    and decoded matrices.  It defines no equality; callers compare the
    ``.data`` arrays.

    Args:
        field: The coefficient field.
        data: Any 2-d array-like of element indices; validated by
            ``element_array``.
    """

    __slots__ = ("field", "data")

    def __init__(self, field: FieldSpec, data):
        self.field = field
        self.data = element_array(field, data, (None, None))

    def __repr__(self) -> str:
        return f"MatrixQ(GF({self.field.q}), {self.data.shape[0]}x{self.data.shape[1]})"


def product_of_arrays(a: np.ndarray, b: np.ndarray, field: FieldSpec) -> np.ndarray:
    """Product ``(..., m, k) @ (..., k, n)`` of index arrays over ``field``,
    leading axes broadcast as in ``np.matmul``, through the field's
    ``mul`` and ``add`` tables, so every field order alike.

    The inner indices go in passes of ``items_per_pass`` of the output's
    entries: one ``mul`` take gathers a pass's terms, stacked on a new
    axis, and halving folds through ``add`` sum them.  Field addition is
    associative and commutative, so the sum is exact in any order.  At
    ``CHUNK_ENTRIES = 1`` a pass is one inner index."""
    if a.shape[-1] != b.shape[-2]:
        raise ValueError(f"shape mismatch: {a.shape} @ {b.shape}")
    lead = np.broadcast_shapes(a.shape[:-2], b.shape[:-2])
    out = np.zeros(lead + (a.shape[-2], b.shape[-1]), dtype=np.int16)
    add, mul = field.add_table.reshape(-1), field.mul_table.reshape(-1)
    q = np.intp(field.q)
    step = items_per_pass(out.size)
    for start in range(0, a.shape[-1], step):
        # term s, a[..., :, start + s] times b[..., start + s, :], on axis -3
        left = np.swapaxes(a[..., start:start + step], -1, -2)[..., None]
        terms = mul.take(left * q + b[..., start:start + step, None, :])
        count = terms.shape[-3]
        while count > 1:
            half = count // 2
            terms[..., :half, :, :] = add.take(terms[..., :half, :, :] * q
                                               + terms[..., count - half:count, :, :])
            count -= half
        out = terms[..., 0, :, :] if start == 0 else add.take(out * q + terms[..., 0, :, :])
    return out


# ---------------------------------------------------------------------------
# Rank and reduction on raw arrays (hot path, also used by the search code).
# ---------------------------------------------------------------------------


def rank_of_array(arr: np.ndarray, field: FieldSpec) -> int:
    """Rank of an index array over ``field``; the array is not modified."""
    return backend.rank_destructive(arr, *field.kernel_views)


def ranks_of_selections(blocks: np.ndarray, selections: np.ndarray, field: FieldSpec) -> np.ndarray:
    """Ranks over ``field``, as a length-``M`` intp array: row ``i`` of
    the ``(M, s)`` index array ``selections`` names ``s`` blocks of the
    ``(N, R, C)`` index array ``blocks``, repeats allowed, and entry ``i``
    is the rank of those blocks stacked into ``(s*R, C)``.  The stacks
    are gathered and ranked in order, in batched passes of at most
    ``CHUNK_ENTRIES`` entries (one stack at least).  Neither input is
    modified."""
    rows, cols = selections.shape[1] * blocks.shape[1], blocks.shape[2]
    step = items_per_pass(rows * cols)
    ranks = np.empty(len(selections), dtype=np.intp)
    for start in range(0, len(selections), step):
        part = selections[start:start + step]
        ranks[start:start + len(part)] = backend.rank_stack(
            blocks[part].reshape(len(part), rows, cols), *field.kernel_views)
    return ranks


def rref_of_array(arr: np.ndarray, field: FieldSpec) -> tuple[np.ndarray, tuple[int, ...]]:
    """Reduced row echelon form of ``arr`` as ``(red, pivots)``: an int16
    array of ``arr``'s shape, zero rows last, and the pivot column of
    each nonzero row.  The array is not modified."""
    rows, pivots = backend.rref_destructive(arr, *field.kernel_views)
    return np.array(rows, dtype=np.int16).reshape(arr.shape), tuple(pivots)


def rrefs_of_stack(stack: np.ndarray, field: FieldSpec) -> tuple[np.ndarray, np.ndarray]:
    """Reduced row echelon forms of the matrices of the ``(B, R, C)``
    index array ``stack`` as ``(red, pivots)``: an int16 array of its
    shape, each matrix as ``rref_of_array`` returns it, and a ``(B, R)``
    intp array of each row's pivot column, ``C`` at the zero rows.  The
    matrices are reduced in order, in batched passes of at most
    ``CHUNK_ENTRIES`` entries (one matrix at least).  The stack is not
    modified."""
    step = items_per_pass(stack.shape[1] * stack.shape[2])
    red = np.empty(stack.shape, dtype=np.int16)
    pivots = np.empty(stack.shape[:2], dtype=np.intp)
    for start in range(0, len(stack), step):
        red[start:start + step], pivots[start:start + step] = backend.rref_stack(
            stack[start:start + step], *field.kernel_views)
    return red, pivots


# ---------------------------------------------------------------------------
# Subspaces.
# ---------------------------------------------------------------------------


def span_dim(bases: Iterable[np.ndarray], field: FieldSpec) -> int:
    """Dimension of the span of the row spaces of the given ``(rows, n)``
    index arrays (at least one)."""
    bases = list(bases)
    if not bases:
        raise ValueError("span of an empty collection is undefined here")
    return rank_of_array(np.vstack(bases), field)


def dual(basis: np.ndarray, field: FieldSpec) -> np.ndarray:
    """Canonical basis of the orthogonal complement, under the standard
    bilinear form, of the row space of the ``(rows, n)`` index array
    ``basis``: an ``(n - rank, n)`` array with no zero rows.

    The complement is ``{x : red @ x^T = 0}`` for the reduced form
    ``red``: one row per free column, 1 there and minus that column's
    entries at the pivots, reduced once more to its canonical basis."""
    n = basis.shape[1]
    red, pivots = rref_of_array(basis, field)
    free = np.setdiff1d(np.arange(n), pivots)
    null = np.zeros((len(free), n), dtype=np.int16)
    null[np.arange(len(free)), free] = 1
    null[:, list(pivots)] = field.neg_table[red[: len(pivots)][:, free]].T
    return rref_of_array(null, field)[0]


def random_matrix(field: FieldSpec, rows: int, cols: int, rng: np.random.Generator) -> MatrixQ:
    """Uniformly random matrix, entries drawn independently."""
    return MatrixQ(field, rng.integers(0, field.q, size=(rows, cols), dtype=np.int64))


# ---------------------------------------------------------------------------
# Exact combinatorial counts.
# ---------------------------------------------------------------------------


def gaussian_binomial(n: int, k: int, q: int) -> int:
    """Number of k-dimensional subspaces of GF(q)^n, exactly.

    Returns 0 when ``k`` is outside ``[0, n]``.  Computed with big
    integers; no floating point is involved.
    """
    if n < 0 or q < 2:
        raise ValueError("need n >= 0 and q >= 2")
    if k < 0 or k > n:
        return 0
    k = min(k, n - k)  # [n k]_q = [n n-k]_q, with fewer and smaller factors
    num = 1
    den = 1
    for i in range(k):
        num *= q ** (n - i) - 1
        den *= q ** (i + 1) - 1
    assert num % den == 0
    return num // den


def count_rank_matrices(m: int, n: int, s: int, q: int) -> int:
    """Number of ``m x n`` matrices over GF(q) of rank exactly ``s``."""
    if m < 0 or n < 0 or q < 2:
        raise ValueError("need m, n >= 0 and q >= 2")
    if s < 0 or s > min(m, n):
        return 0
    num = 1
    den = 1
    for j in range(s):
        num *= (q**m - q**j) * (q**n - q**j)
        den *= q**s - q**j
    assert num % den == 0
    return num // den
