"""Rank-metric codes and the covering codes they induce.

The workhorse is the classical construction of maximum rank distance
codes from linearized polynomials: messages are the polynomials
``sum_i a_i x^(q^i)`` of q-degree below ``k_g``, codewords are their
evaluations at linearly independent points of an extension field,
expanded to matrices over the base field.  Such a code on ``m x n``
matrices (``m >= n``) with q-degree bound ``k_g = n - delta + 1`` has
``q^(m k_g)`` codewords and minimum rank distance exactly ``delta``;
the transposed orientation covers ``m < n``.  The code is GF(q)-linear
in the base-q digits of the coefficients, so it is ``digits @ G`` over
GF(q), with ``G`` read off the companion matrix of the extension's
modulus, and it is expanded one digit at a time.

Lifting prepends an identity block, turning a ``k x (n-k)`` matrix
into a k-dimensional subspace of GF(q)^n.  Two distinct lifts
``[I | A]`` and ``[I | B]`` meet in dimension ``k - rank(A - B)``, at
most ``k - delta``, so they span at least ``k + delta``: a lifted MRD
code is a covering code at ``alpha = 2``.  The covering construction
repeats it ``alpha - 1`` times, so that any ``alpha`` of its codewords
hold two distinct ones.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .ffield import FieldSpec, _smallest_irreducible, field_from_size, power_exceeds
from . import grasscode
from .grasscode import CoveringCode
from .linalg import MatrixQ, SubspaceQ, product_of_arrays, ranks_of_selections

#: Refuse to materialize rank-metric codes larger than this.
CARDINALITY_LIMIT = 2**16


@dataclass(frozen=True)
class RankMetricCode:
    """A linear code of ``m x n`` matrices with a certified rank distance."""

    field: FieldSpec
    m: int
    n: int
    delta: int
    codewords: tuple[MatrixQ, ...]

    @property
    def size(self) -> int:
        return len(self.codewords)


def gabidulin_code(q: int, m: int, n: int, delta: int) -> RankMetricCode:
    """Build an MRD code of ``m x n`` matrices over GF(q) with distance ``delta``.

    Requires ``1 <= delta <= min(m, n)``.  The code has
    ``q^(max(m,n) * (min(m,n) - delta + 1))`` codewords; a ValueError is
    raised when that exceeds ``CARDINALITY_LIMIT``, read at call time.
    The minimum nonzero rank is checked to equal ``delta`` exactly, over
    every codeword, relying on linearity; a RuntimeError reports a
    mismatch.
    """
    if m < 1 or n < 1:
        raise ValueError(f"matrix shape must be positive, got {m}x{n}")
    if not 1 <= delta <= min(m, n):
        raise ValueError(f"need 1 <= delta <= min(m, n) = {min(m, n)}, got {delta}")
    base = field_from_size(q)
    transposed = m < n
    rows, cols = (n, m) if transposed else (m, n)
    kg = cols - delta + 1
    digits = rows * kg
    if power_exceeds(q, digits, CARDINALITY_LIMIT):
        raise ValueError(f"code size {q}^{digits} exceeds the cap {CARDINALITY_LIMIT}")
    size = q**digits

    # GF(q^rows) in the power basis 1, x, ..., x^(rows-1): c multiplies
    # by x, and column a of the Frobenius matrix phi is (x^a)^q = (c^q)^a e_0
    modulus = (0, 1) if rows == 1 else _smallest_irreducible(rows, base)
    c = np.eye(rows, k=-1, dtype=np.int16)
    c[:, -1] = base.neg_table[list(modulus[:rows])]
    phi = _powers(_powers(c, q + 1, base)[-1], rows, base)[:, :, 0].T
    # message digit i*rows + l is coefficient l of the polynomial's
    # coefficient a_i, so it adds x^l * x_j^(q^i) to column j: its
    # generator row is c^l phi^i[:, :cols], read row-major
    gen = product_of_arrays(
        _powers(c, rows, base)[None], _powers(phi, kg, base)[:, None, :, :cols], base
    ).reshape(digits, rows * cols)
    # codeword idx + d*q^i = codeword idx + d * generator row i, for every
    # idx below q^i: expand one digit at a time, the new digit on top
    words = np.zeros((1, rows * cols), dtype=np.int16)
    for g in gen:
        multiples = base.mul_table[np.arange(q)[:, None], g]
        words = base.add_table[words[None], multiples[:, None]].reshape(-1, rows * cols)
    words = words.reshape(size, rows, cols)
    if transposed:
        words = words.transpose(0, 2, 1)
    # codeword 0 is the zero matrix
    least = ranks_of_selections(words, np.arange(1, size)[:, None], base).min()
    if least != delta:
        raise RuntimeError(f"construction bug: minimum nonzero rank {least} != delta {delta}")
    codewords = tuple(MatrixQ(base, w) for w in words)
    return RankMetricCode(field=base, m=m, n=n, delta=delta, codewords=codewords)


def _powers(a: np.ndarray, count: int, field: FieldSpec) -> np.ndarray:
    """The stack ``[I, a, ..., a^(count-1)]`` of a square index array over ``field``."""
    out = [np.eye(len(a), dtype=np.int16)]
    for _ in range(1, count):
        out.append(product_of_arrays(a, out[-1], field))
    return np.array(out)


def lift(a: MatrixQ) -> SubspaceQ:
    """The row space of ``[I | a]``, a ``rows``-dimensional subspace.

    The lifted basis is already in reduced echelon form, so lifting is
    injective: distinct matrices give distinct subspaces.
    """
    k = a.rows
    basis = tuple(
        (0,) * i + (1,) + (0,) * (k - 1 - i) + tuple(row) for i, row in enumerate(a.data.tolist())
    )
    return SubspaceQ._from_canonical(a.field, k + a.cols, basis)


def lifted_mrd_code(q: int, n: int, k: int, delta: int) -> CoveringCode:
    """Lift an MRD code of ``k x (n-k)`` matrices into G_q(n, k).

    Any two distinct codewords meet in dimension at most ``k - delta``,
    so the result is a covering code with ``alpha = 2``.
    """
    if not 0 < k < n:
        raise ValueError(f"need 0 < k < n, got k={k}, n={n}")
    mrd = gabidulin_code(q, k, n - k, delta)
    return CoveringCode(
        field=mrd.field,
        n=n,
        k=k,
        delta=delta,
        alpha=2,
        codewords=tuple(lift(c) for c in mrd.codewords),
    )


def covering_code_from_mrd(n: int, k: int, delta: int, alpha: int, q: int) -> CoveringCode:
    """Covering code from a lifted MRD code, repeated ``alpha - 1`` times.

    Requires ``1 <= delta <= k`` and ``delta + k <= n``.  The result has
    ``(alpha - 1) * q^(max(k, n-k) * (min(k, n-k) - delta + 1))``
    codewords of dimension k in GF(q)^n, and every ``alpha`` of them
    span at least ``delta + k`` dimensions: a selection always contains
    two distinct lifts, which meet in dimension at most ``k - delta``.
    Raises ValueError, before building anything, when the result would
    have more than ``grasscode.ENUMERATION_LIMIT`` codewords, read at
    call time.
    """
    if not 1 <= delta <= k:
        raise ValueError(f"need 1 <= delta <= k, got delta={delta}, k={k}")
    if delta + k > n:
        raise ValueError(f"need delta + k <= n, got {delta} + {k} > {n}")
    if alpha < 2:
        raise ValueError(f"alpha must be >= 2, got {alpha}")
    field_from_size(q)  # refuses a bad order first
    e = max(k, n - k) * (min(k, n - k) - delta + 1)
    # gabidulin_code refuses an MRD code above CARDINALITY_LIMIT itself
    if not power_exceeds(q, e, CARDINALITY_LIMIT) and (alpha - 1) * q**e > grasscode.ENUMERATION_LIMIT:
        raise ValueError(f"covering code has {(alpha - 1) * q**e} codewords, above the cap "
                         f"{grasscode.ENUMERATION_LIMIT}")
    lifted = lifted_mrd_code(q, n, k, delta)
    return replace(lifted, alpha=alpha, codewords=lifted.codewords * (alpha - 1))
