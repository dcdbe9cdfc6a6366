"""Matrices and subspaces over GF(q), with exact counting helpers.

Matrices store int16 element indices in a NumPy array plus a reference
to their field.  Products index the field's dense operation tables, and
rank and reduced row echelon form run the table-driven elimination
kernel in :mod:`gcnet.backend`, for every field order alike;
``ranks_of_selections`` gathers same-shape stacks by index and ranks
them in bounded batched passes.  The reduced form comes back as the
kernel's Python row lists and pivot columns; no call modifies the
arrays it is given.

Subspaces of GF(q)^n are kept in a canonical form: the unique reduced
row echelon basis with zero rows dropped.  Equality, hashing and the
total order used for deterministic enumeration all read that canonical
basis row-major.
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


def stack_matrices(mats: Sequence[MatrixQ]) -> MatrixQ:
    """Vertical concatenation; all blocks share the field and width."""
    if not mats:
        raise ValueError("cannot stack an empty sequence of matrices")
    f = mats[0].field
    w = mats[0].cols
    for m in mats[1:]:
        if m.field != f or m.cols != w:
            raise ValueError("stacked matrices must share field and width")
    return MatrixQ(f, np.vstack([m.data for m in mats]))


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
    step = max(1, CHUNK_ENTRIES // max(1, rows * cols))
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


class SubspaceQ:
    """A subspace of GF(q)^n in canonical reduced-echelon form.

    Construction reduces the generating rows, so any generating set of
    the same subspace yields an identical object.  ``basis`` is a tuple
    of ``dim`` row tuples; the zero subspace has an empty basis.
    """

    __slots__ = ("field", "ambient", "basis")

    def __init__(self, field: FieldSpec, ambient: int, rows):
        if ambient < 0:
            raise ValueError("ambient dimension must be >= 0")
        arr = np.array(list(rows))
        if arr.size == 0:
            arr = np.zeros((0, ambient), dtype=np.int16)
        if arr.ndim != 2 or arr.shape[1] != ambient:
            raise ValueError(f"generating rows must have length {ambient}")
        red, pivots = rref_of_array(_as_element_array(field, arr), field)
        self.field = field
        self.ambient = ambient
        self.basis = tuple(map(tuple, red[: len(pivots)]))

    @classmethod
    def from_matrix(cls, m: MatrixQ) -> "SubspaceQ":
        return cls(m.field, m.cols, m.data)

    @classmethod
    def _from_canonical(cls, field: FieldSpec, ambient: int, basis: tuple[tuple[int, ...], ...]) -> "SubspaceQ":
        # trusted constructor: rows are already a reduced echelon basis
        obj = cls.__new__(cls)
        obj.field = field
        obj.ambient = ambient
        obj.basis = basis
        return obj

    @property
    def dim(self) -> int:
        return len(self.basis)

    def basis_matrix(self) -> MatrixQ:
        return MatrixQ(self.field, self.basis_array())

    def basis_array(self) -> np.ndarray:
        """Canonical basis as an int16 array of shape ``(dim, ambient)``."""
        if not self.basis:
            return np.zeros((0, self.ambient), dtype=np.int16)
        return np.array(self.basis, dtype=np.int16)

    def contains(self, vector) -> bool:
        """Membership test for a length-``ambient`` vector."""
        v = np.array(vector, dtype=np.int16).reshape(1, self.ambient)
        stacked = np.vstack([self.basis_array(), v])
        return rank_of_array(stacked, self.field) == self.dim

    def sort_key(self) -> tuple:
        """Row-major flattening of the canonical basis, for total ordering."""
        return (self.dim,) + tuple(v for row in self.basis for v in row)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, SubspaceQ)
            and self.field == other.field
            and self.ambient == other.ambient
            and self.basis == other.basis
        )

    def __hash__(self) -> int:
        return hash((self.field, self.ambient, self.basis))

    def __lt__(self, other) -> bool:
        if not isinstance(other, SubspaceQ) or self.field != other.field or self.ambient != other.ambient:
            return NotImplemented
        return self.sort_key() < other.sort_key()

    def __repr__(self) -> str:
        return f"SubspaceQ(GF({self.field.q})^{self.ambient}, dim={self.dim})"


def span_dim(subspaces: Iterable[SubspaceQ]) -> int:
    """Dimension of the span of the given subspaces (at least one)."""
    subs = list(subspaces)
    if not subs:
        raise ValueError("span of an empty collection is undefined here")
    f, n = subs[0].field, subs[0].ambient
    for s in subs[1:]:
        if s.field != f or s.ambient != n:
            raise ValueError("span requires a common field and ambient space")
    stacked = np.vstack([s.basis_array() for s in subs])
    return rank_of_array(stacked, f)


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


def dual(s: SubspaceQ) -> SubspaceQ:
    """Orthogonal complement under the standard bilinear form.

    The canonical basis is already reduced, so its pivots are read off
    (the first 1 of each row) and only the null rows are reduced."""
    pivots = [row.index(1) for row in s.basis]
    red, pivots = rref_of_array(_null_rows(s.basis, pivots, s.ambient, s.field), s.field)
    return SubspaceQ._from_canonical(s.field, s.ambient, tuple(map(tuple, red[: len(pivots)])))


def intersection_dim(s: SubspaceQ, t: SubspaceQ) -> int:
    """Dimension of ``s`` intersected with ``t``."""
    return s.dim + t.dim - span_dim([s, t])


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
