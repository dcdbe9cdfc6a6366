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

from .ffield import FieldSpec, _smallest_irreducible, field_from_size, power_exceeds
from .grasscode import CoveringCode
from .linalg import MatrixQ, SubspaceQ, dual, product_of_arrays, rank_of_array

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
    codewords = [MatrixQ(base, w) for w in words]

    code = RankMetricCode(field=base, m=m, n=n, delta=delta, codewords=tuple(codewords))
    if size <= VERIFY_LIMIT:
        ranks = [rank_of_array(c.data, base) for c in code.codewords[1:]]
        if min(ranks) != delta:
            raise RuntimeError(
                f"construction bug: minimum nonzero rank {min(ranks)} != delta {delta}"
            )
    return code


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
