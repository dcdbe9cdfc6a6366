"""Rank-metric codes and the covering codes they induce.

The workhorse is the classical construction of maximum rank distance
codes from linearized polynomials: messages are the polynomials
``sum_i a_i x^(q^i)`` of q-degree below ``k_g``, codewords are their
evaluations at linearly independent points of an extension field,
expanded to matrices over the base field.  Such a code on ``m x n``
matrices (``m >= n``) with q-degree bound ``k_g = n - delta + 1`` has
``q^(m k_g)`` codewords and minimum rank distance exactly ``delta``;
the transposed orientation covers ``m < n``.

Lifting prepends an identity block, turning an ``k x (n-k)`` matrix
into a k-dimensional subspace of GF(q)^n; distinct codewords at rank
distance ``d`` lift to subspaces meeting in dimension ``k - d``.  The
covering construction takes the duals of a lifted MRD code and repeats
the whole family ``alpha - 1`` times: any selection of ``alpha``
codewords then contains two distinct subspaces, whose duals span at
least ``delta + k`` dimensions by the rank-distance guarantee.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .ffield import ExtensionField, FieldSpec, field_from_size
from .grasscode import CoveringCode
from .linalg import MatrixQ, SubspaceQ, dual, rank_of_array

#: Refuse to materialize rank-metric codes larger than this.
CARDINALITY_LIMIT = 2**16

#: Exhaustive distance verification is skipped above this size.
VERIFY_LIMIT = 4096


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
    raised when that exceeds ``CARDINALITY_LIMIT``.  Up to
    ``VERIFY_LIMIT`` codewords the minimum nonzero rank is checked to
    equal ``delta`` exactly, relying on linearity.  Both limits are read
    at call time.
    """
    if m < 1 or n < 1:
        raise ValueError(f"matrix shape must be positive, got {m}x{n}")
    if not 1 <= delta <= min(m, n):
        raise ValueError(f"need 1 <= delta <= min(m, n) = {min(m, n)}, got {delta}")
    base = field_from_size(q)
    transposed = m < n
    rows, cols = (n, m) if transposed else (m, n)
    kg = cols - delta + 1
    size = q ** (rows * kg)
    if size > CARDINALITY_LIMIT:
        raise ValueError(f"code size {size} exceeds the cap {CARDINALITY_LIMIT}")

    ext = ExtensionField(base, rows)
    big = ext.q
    # frobenius powers of the evaluation points: frob[i][j] = x_j ** (q**i)
    points = [ext.basis_element(j) for j in range(cols)]
    frob = [points]
    for _ in range(1, kg):
        frob.append([ext.frobenius(v) for v in frob[-1]])

    codewords = []
    for idx in range(size):
        coeffs = [(idx // big**i) % big for i in range(kg)]
        mat = np.zeros((rows, cols), dtype=np.int16)
        for j in range(cols):
            acc = 0
            for i in range(kg):
                if coeffs[i]:
                    acc = ext.add(acc, ext.mul(coeffs[i], frob[i][j]))
            mat[:, j] = ext.to_coeffs(acc)
        if transposed:
            mat = mat.T
        codewords.append(MatrixQ(base, mat))

    code = RankMetricCode(field=base, m=m, n=n, delta=delta, codewords=tuple(codewords))
    if size <= VERIFY_LIMIT:
        ranks = [rank_of_array(c.data, base) for c in code.codewords[1:]]
        if min(ranks) != delta:
            raise RuntimeError(
                f"construction bug: minimum nonzero rank {min(ranks)} != delta {delta}"
            )
    return code


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


@dataclass(frozen=True)
class LiftedCode:
    """A constant-dimension subspace code obtained by lifting an MRD code.

    Any two distinct codewords intersect in dimension at most
    ``k - delta``.
    """

    field: FieldSpec
    n: int
    k: int
    delta: int
    codewords: tuple[SubspaceQ, ...]
    mrd: RankMetricCode

    @property
    def size(self) -> int:
        return len(self.codewords)


def lifted_mrd_code(q: int, n: int, k: int, delta: int) -> LiftedCode:
    """Lift an MRD code of ``k x (n-k)`` matrices into G_q(n, k)."""
    if not 0 < k < n:
        raise ValueError(f"need 0 < k < n, got k={k}, n={n}")
    mrd = gabidulin_code(q, k, n - k, delta)
    return LiftedCode(
        field=mrd.field,
        n=n,
        k=k,
        delta=delta,
        codewords=tuple(lift(c) for c in mrd.codewords),
        mrd=mrd,
    )


def covering_code_from_mrd(n: int, k: int, delta: int, alpha: int, q: int) -> CoveringCode:
    """Covering code from duals of a lifted MRD code, repeated ``alpha - 1`` times.

    Requires ``1 <= delta <= k`` and ``delta + k <= n``.  The result has
    ``(alpha - 1) * q^(max(k, n-k) * (min(k, n-k) - delta + 1))``
    codewords of dimension k in GF(q)^n, and every ``alpha`` of them
    span at least ``delta + k`` dimensions: a selection always contains
    two distinct duals, and their preimages meet in dimension at most
    ``(n - k) - delta``.
    """
    if not 1 <= delta <= k:
        raise ValueError(f"need 1 <= delta <= k, got delta={delta}, k={k}")
    if delta + k > n:
        raise ValueError(f"need delta + k <= n, got {delta} + {k} > {n}")
    if alpha < 2:
        raise ValueError(f"alpha must be >= 2, got {alpha}")
    lifted = lifted_mrd_code(q, n, n - k, delta)
    duals = tuple(dual(s) for s in lifted.codewords)
    return CoveringCode(
        field=lifted.field,
        n=n,
        k=k,
        delta=delta,
        alpha=alpha,
        codewords=duals * (alpha - 1),
    )
