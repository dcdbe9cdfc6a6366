"""Matrices and subspaces over GF(q), with exact counting helpers.

Matrices store int16 element indices in a NumPy array plus a reference
to their field.  Products index the field's dense operation tables, and
rank and reduced row echelon form run the table-driven elimination
kernel in :mod:`gcnet.backend`, for every field order alike;
``ranks_of_selections`` gathers same-shape stacks by index and ranks
them in bounded batched passes.  The reduced form comes back as the
kernel's Python row lists and pivot columns; no call modifies the
arrays it is given.

A subspace of GF(q)^n of dimension at most k has one format: its
canonical basis, the reduced row echelon form of any k generating rows,
as a ``(k, n)`` int16 index array with its zero rows last.  A list of
such subspaces, such as a covering code's codewords, is one
``(N, k, n)`` array; two of its rows are the same subspace exactly when
they are equal.
"""

from __future__ import annotations

from typing import Iterable, Sequence

import numpy as np

from . import backend
from .ffield import FieldSpec

#: Most entries ``ranks_of_selections`` gathers into one batched rank
#: pass (one matrix at least), so that what it holds at once does not
#: grow with what it ranks.  Read at call time.
CHUNK_ENTRIES = 1 << 14


def items_per_pass(entries: int) -> int:
    """How many items of ``entries`` entries each fit in one pass of at
    most ``CHUNK_ENTRIES`` entries, one at least; the constant is read at
    call time."""
    return max(1, CHUNK_ENTRIES // max(1, entries))


def _as_element_array(field: FieldSpec, data) -> np.ndarray:
    # checked before the int16 cast, which would wrap big ints and truncate floats
    src = np.asarray(data)
    if src.ndim != 2:
        raise ValueError(f"matrix data must be 2-dimensional, got shape {src.shape}")
    if src.size and (src.dtype.kind not in "iu" or src.min() < 0 or src.max() >= field.q):
        raise ValueError(f"matrix entries must be integers in range for GF({field.q})")
    return src.astype(np.int16)


class MatrixQ:
    """A dense matrix over a fixed finite field.

    Args:
        field: The coefficient field.
        data: Any 2-d array-like of element indices; copied and validated.
    """

    __slots__ = ("field", "data")

    def __init__(self, field: FieldSpec, data):
        self.field = field
        self.data = _as_element_array(field, data)
        self.data.setflags(write=False)

    @classmethod
    def zeros(cls, field: FieldSpec, rows: int, cols: int) -> "MatrixQ":
        return cls(field, np.zeros((rows, cols), dtype=np.int16))

    @classmethod
    def identity(cls, field: FieldSpec, n: int) -> "MatrixQ":
        return cls(field, np.eye(n, dtype=np.int16))

    @property
    def rows(self) -> int:
        return self.data.shape[0]

    @property
    def cols(self) -> int:
        return self.data.shape[1]

    def transpose(self) -> "MatrixQ":
        return MatrixQ(self.field, self.data.T)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, MatrixQ)
            and self.field == other.field
            and self.data.shape == other.data.shape
            and np.array_equal(self.data, other.data)
        )

    def __hash__(self) -> int:
        return hash((self.field, self.data.shape, self.data.tobytes()))

    def __repr__(self) -> str:
        return f"MatrixQ(GF({self.field.q}), {self.rows}x{self.cols})"

    def __matmul__(self, other: "MatrixQ") -> "MatrixQ":
        return matmul(self, other)

    def rank(self) -> int:
        return rank_of_array(self.data, self.field)

    def rref(self) -> tuple["MatrixQ", tuple[int, ...]]:
        rows, pivots = rref_of_array(self.data, self.field)
        red = np.array(rows, dtype=np.int16).reshape(self.data.shape)
        return MatrixQ(self.field, red), pivots


def matmul(a: MatrixQ, b: MatrixQ) -> MatrixQ:
    """Matrix product over the common field."""
    if a.field != b.field:
        raise ValueError("matrix product requires matching fields")
    if a.cols != b.rows:
        raise ValueError(f"shape mismatch: {a.rows}x{a.cols} @ {b.rows}x{b.cols}")
    return MatrixQ(a.field, product_of_arrays(a.data, b.data, a.field))


def product_of_arrays(a: np.ndarray, b: np.ndarray, field: FieldSpec) -> np.ndarray:
    """Product ``(..., m, k) @ (..., k, n)`` of index arrays over ``field``,
    leading axes broadcast as in ``np.matmul``: a fold over ``k`` through
    the field's ``mul`` and ``add`` tables, so every field order alike."""
    if a.shape[-1] != b.shape[-2]:
        raise ValueError(f"shape mismatch: {a.shape} @ {b.shape}")
    lead = np.broadcast_shapes(a.shape[:-2], b.shape[:-2])
    out = np.zeros(lead + (a.shape[-2], b.shape[-1]), dtype=np.int16)
    for k in range(a.shape[-1]):
        prod = field.mul_table[a[..., :, k, None], b[..., None, k, :]]
        out = field.add_table[out, prod]
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


def rref_of_array(arr: np.ndarray, field: FieldSpec) -> tuple[list[list[int]], tuple[int, ...]]:
    """Reduced row echelon form of ``arr`` as ``(rows, pivots)``: one list
    of element indices per row of ``arr``, zero rows last, and the pivot
    column of each nonzero row.  The array is not modified."""
    rows, pivots = backend.rref_destructive(arr, *field.kernel_views)
    return rows, tuple(pivots)


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


def _null_rows(red: Sequence[Sequence[int]], pivots: Sequence[int], n: int, field: FieldSpec) -> np.ndarray:
    """Rows spanning ``{x : red @ x^T = 0}`` for reduced echelon rows
    ``red`` of length ``n`` whose leading rows have the given pivot
    columns: one row per free column, 1 there and minus that column's
    entries at the pivots."""
    pivot_set = set(pivots)
    rows = []
    for fc in range(n):
        if fc not in pivot_set:
            row = [0] * n
            row[fc] = 1
            for r, pc in zip(red, pivots):
                row[pc] = field.neg_table[r[fc]]
            rows.append(row)
    return np.array(rows, dtype=np.int16).reshape(len(rows), n)


def null_space(m: MatrixQ) -> MatrixQ:
    """A basis of ``{x : m @ x^T = 0}`` as rows of a ``(cols - rank) x cols`` matrix."""
    red, pivots = rref_of_array(m.data, m.field)
    return MatrixQ(m.field, _null_rows(red, pivots, m.cols, m.field))


def dual(basis: np.ndarray, field: FieldSpec) -> np.ndarray:
    """Canonical basis of the orthogonal complement, under the standard
    bilinear form, of the row space of the ``(rows, n)`` index array
    ``basis``: an ``(n - rank, n)`` array with no zero rows."""
    n = basis.shape[1]
    red, pivots = rref_of_array(basis, field)
    red, pivots = rref_of_array(_null_rows(red, pivots, n, field), field)
    return np.array(red[: len(pivots)], dtype=np.int16).reshape(len(pivots), n)


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


# ---------------------------------------------------------------------------
# Exact solving.
# ---------------------------------------------------------------------------


def solve_exact(m: MatrixQ, y: MatrixQ) -> MatrixQ:
    """Solve ``m @ x = y`` when the solution is unique, from one
    reduction of ``[m | y]``.

    Raises ValueError if the system is inconsistent or the coefficient
    matrix has rank below its column count.
    """
    if m.field != y.field or m.rows != y.rows:
        raise ValueError("coefficient matrix and right-hand side do not conform")
    red, pivots = rref_of_array(np.hstack([m.data, y.data]), m.field)
    # a pivot right of m's columns is a row 0 = nonzero
    if pivots and pivots[-1] >= m.cols:
        raise ValueError("inconsistent linear system")
    if len(pivots) < m.cols:
        raise ValueError("matrix has rank below its column count; the solution is not unique")
    # with pivots 0..cols-1, reduced row i reads x_i = its right block
    x = np.array([row[m.cols :] for row in red[: m.cols]], dtype=np.int16)
    return MatrixQ(m.field, x.reshape(m.cols, y.cols))
