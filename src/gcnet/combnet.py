"""Generalized combination networks and their linear solutions.

The network has one source holding ``h`` messages, ``r`` middle nodes
fed by ``ell`` parallel links each, and one receiver per ``alpha``-subset
of middle nodes; a receiver sees the ``alpha * ell`` links of its middle
nodes plus ``epsilon`` direct links from the source.  A ``(q, t)``-linear
solution assigns to middle node ``i`` a coding matrix ``A_i`` of shape
``(ell*t, h*t)`` over GF(q); it is valid when every receiver's stacked
coding matrix has rank at least ``(h - epsilon) * t``; its direct links,
unit vectors read off one echelon pass per receiver, complete decoding.

Solutions correspond exactly to covering subspace codes: the row spaces
of valid ``A_i`` form a code in G_q(h*t, ell*t) in which every ``alpha``
codewords span at least ``(h - epsilon) * t`` dimensions, and back.
``compute_qs`` / ``compute_qv`` ride that bridge in one loop, deciding
solvability per (q, t) with the exhaustive covering-code search and
reporting honestly when a decision hit its node budget.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from functools import cached_property
from itertools import combinations
from math import comb, log2
from typing import Iterable, Optional

import numpy as np

from .ffield import ORDER_LIMIT, FieldSpec, field_from_size, prime_powers
from .grasscode import NODE_LIMIT, CoveringCode, SearchResult, max_covering_code
from .linalg import (
    MatrixQ,
    SubspaceQ,
    random_matrix,
    rank_of_array,
    rref_of_array,
    solve_exact,
    stack_matrices,
)


class SolvabilityClass(enum.Enum):
    TRIVIAL = "TRIVIAL"
    NONTRIVIAL = "NONTRIVIAL"
    UNSOLVABLE = "UNSOLVABLE"


@dataclass(frozen=True)
class NetworkParams:
    """Parameters (h, r, alpha, ell, epsilon) of a combination network."""

    h: int
    r: int
    alpha: int
    ell: int
    epsilon: int

    def __post_init__(self):
        if self.alpha < 2:
            raise ValueError(f"alpha must be >= 2, got {self.alpha}")
        if self.r < self.alpha:
            raise ValueError(f"need r >= alpha, got r={self.r}, alpha={self.alpha}")
        if self.h < 1 or self.ell < 1:
            raise ValueError("h and ell must be >= 1")
        if self.epsilon < 0:
            raise ValueError("epsilon must be >= 0")

    @property
    def n_receivers(self) -> int:
        return comb(self.r, self.alpha)

    def receivers(self) -> list[tuple[int, ...]]:
        """All receivers as lexicographic alpha-subsets of middle nodes (0-based)."""
        return list(combinations(range(self.r), self.alpha))

    def code_params(self, t: int) -> tuple[int, int, int, int]:
        """``(n, k, delta, alpha)`` of the covering codes that are the
        (q, t)-linear solutions: ambient ``h*t``, dimension ``ell*t``,
        surplus ``(h - ell - epsilon) * t`` and the same ``alpha``."""
        return self.h * t, self.ell * t, (self.h - self.ell - self.epsilon) * t, self.alpha


def classify(params: NetworkParams) -> SolvabilityClass:
    """TRIVIAL iff h <= ell+epsilon, UNSOLVABLE iff h > alpha*ell+epsilon."""
    if params.h <= params.ell + params.epsilon:
        return SolvabilityClass.TRIVIAL
    if params.h > params.alpha * params.ell + params.epsilon:
        return SolvabilityClass.UNSOLVABLE
    return SolvabilityClass.NONTRIVIAL


@dataclass(frozen=True)
class LinearSolution:
    """Middle-node coding matrices for a network at blocklength ``t``."""

    params: NetworkParams
    field: FieldSpec
    t: int
    matrices: tuple[MatrixQ, ...]

    def __post_init__(self):
        p = self.params
        if self.t < 1:
            raise ValueError("blocklength t must be >= 1")
        if len(self.matrices) != p.r:
            raise ValueError(f"expected {p.r} coding matrices, got {len(self.matrices)}")
        want = (p.ell * self.t, p.h * self.t)
        for i, a in enumerate(self.matrices):
            if a.field != self.field:
                raise ValueError(f"matrix {i} is over the wrong field")
            if (a.rows, a.cols) != want:
                raise ValueError(
                    f"matrix {i} has shape {a.rows}x{a.cols}, expected {want[0]}x{want[1]}"
                )

    @cached_property
    def direct_links(self) -> list[MatrixQ]:
        """``derive_direct_link_matrices(self)``, derived once per solution."""
        return derive_direct_link_matrices(self)


def verify_solution(sol: LinearSolution) -> tuple[bool, Optional[tuple[int, ...]]]:
    """Check the rank condition at every receiver.

    Returns ``(True, None)`` if for each alpha-subset the stacked matrix
    has rank at least ``(h - epsilon) * t``, else ``(False, subset)``
    with the lexicographically first violating subset (0-based middle
    node indices).  Raises ValueError on UNSOLVABLE parameters.
    """
    p = sol.params
    if classify(p) is SolvabilityClass.UNSOLVABLE:
        raise ValueError("network is unsolvable; verification is meaningless")
    need = max(0, (p.h - p.epsilon) * sol.t)
    data = [a.data for a in sol.matrices]
    for subset in combinations(range(p.r), p.alpha):
        stacked = np.vstack([data[i] for i in subset])
        if rank_of_array(stacked, sol.field) < need:
            return False, subset
    return True, None


def solution_from_code(code: CoveringCode, params: NetworkParams, t: int) -> LinearSolution:
    """Interpret covering-code codewords as middle-node coding matrices.

    Requires the code parameters to be ``params.code_params(t)`` and
    exactly ``r`` codewords.  Codewords of dimension below ``ell*t`` are
    padded with zero rows.
    """
    p = params
    want = p.code_params(t)
    got = (code.n, code.k, code.delta, code.alpha)
    if want != got:
        raise ValueError(f"code parameters {got} do not match the network's {want}")
    if code.size != p.r:
        raise ValueError(f"need exactly r={p.r} codewords, got {code.size}")
    field = code.field
    mats = []
    for c in code.codewords:
        rows = c.basis_array()
        if rows.shape[0] < p.ell * t:
            pad = np.zeros((p.ell * t - rows.shape[0], p.h * t), dtype=np.int16)
            rows = np.vstack([rows, pad])
        mats.append(MatrixQ(field, rows))
    return LinearSolution(params=p, field=field, t=t, matrices=tuple(mats))


def code_from_solution(sol: LinearSolution) -> CoveringCode:
    """Row spaces of the coding matrices as a covering-code candidate."""
    n, k, delta, alpha = sol.params.code_params(sol.t)
    return CoveringCode(
        field=sol.field,
        n=n,
        k=k,
        delta=delta,
        alpha=alpha,
        codewords=tuple(SubspaceQ.from_matrix(a) for a in sol.matrices),
    )


def derive_direct_link_matrices(sol: LinearSolution) -> list[MatrixQ]:
    """Direct-link coding matrices, one per receiver, from one echelon pass.

    For a receiver with row space ``V`` the rows of ``B_i`` are the unit
    vectors ``e_j``, in index order, at each ``j`` where no vector of
    ``V`` has its last nonzero entry, then zero rows up to shape
    ``(epsilon*t, h*t)``.  These are the picks of a greedy scan taking
    ``e_j`` whenever it raises the rank: each skipped ``e_i`` is already
    spanned, so it takes ``e_j`` iff ``e_j`` is outside ``V + span(e_0,
    ..., e_{j-1})``, iff no vector of ``V`` ends at ``j``.  Reversed,
    those ends are the pivots ``c`` of ``rref(stacked[:, ::-1])``, so
    the skipped ``j`` are ``h*t - 1 - c``.  More than ``epsilon*t``
    picks means rank below ``(h - epsilon) * t``: ValueError then names
    the first such receiver, the witness ``verify_solution`` reports.
    UNSOLVABLE parameters raise ValueError too.
    """
    p = sol.params
    if classify(p) is SolvabilityClass.UNSOLVABLE:
        raise ValueError("network is unsolvable; verification is meaningless")
    ht = p.h * sol.t
    width = p.epsilon * sol.t
    out = []
    for subset in combinations(range(p.r), p.alpha):
        stacked = np.vstack([sol.matrices[i].data for i in subset])
        _, pivots = rref_of_array(stacked[:, ::-1], sol.field)
        trailing = {ht - 1 - c for c in pivots}
        picked = [j for j in range(ht) if j not in trailing]
        if len(picked) > width:
            raise ValueError(f"solution is invalid (witness subset {subset})")
        b = np.zeros((width, ht), dtype=np.int16)
        for row, j in enumerate(picked):
            b[row, j] = 1
        out.append(MatrixQ(sol.field, b))
    return out


def simulate(sol: LinearSolution, messages: MatrixQ) -> list[MatrixQ]:
    """Encode, transmit and decode at every receiver.

    ``messages`` is an ``(h, t)`` matrix (row i = message i).  Returns
    the per-receiver decoded message matrices; each must equal the
    input when the solution verifies.  Raises ValueError on a singular
    receiver system, which signals an invalid solution.
    """
    p = sol.params
    if (messages.rows, messages.cols) != (p.h, sol.t):
        raise ValueError(f"messages must be {p.h}x{sol.t}")
    if messages.field != sol.field:
        raise ValueError("messages are over the wrong field")
    x = MatrixQ(sol.field, messages.data.reshape(p.h * sol.t, 1))
    direct = sol.direct_links
    decoded = []
    for recv_index, subset in enumerate(combinations(range(p.r), p.alpha)):
        blocks = [sol.matrices[i] for i in subset] + [direct[recv_index]]
        m = stack_matrices(blocks)
        y = m @ x
        z = solve_exact(m, y)
        decoded.append(MatrixQ(sol.field, z.data.reshape(p.h, sol.t)))
    return decoded


def random_solution_search(
    params: NetworkParams,
    field: FieldSpec,
    t: int,
    trials: int,
    seed: int,
) -> Optional[LinearSolution]:
    """Draw i.i.d. uniform coding matrices until a draw verifies.

    Each trial uses its own generator derived from ``(seed, trial)``,
    so the result is reproducible and independent of scheduling.
    Returns the first verifying solution, or None after ``trials``
    draws (absence is an outcome, not an error).
    """
    if classify(params) is not SolvabilityClass.NONTRIVIAL:
        raise ValueError("random search expects a NONTRIVIAL network")
    p = params
    for trial in range(trials):
        rng = np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(trial,)))
        mats = tuple(random_matrix(field, p.ell * t, p.h * t, rng) for _ in range(p.r))
        sol = LinearSolution(params=p, field=field, t=t, matrices=mats)
        ok, _ = verify_solution(sol)
        if ok:
            return sol
    return None


# ---------------------------------------------------------------------------
# Smallest-alphabet searches.
# ---------------------------------------------------------------------------

#: Default largest q (scalar) and q^t (vector) the alphabet searches try.
ALPHABET_CAP = 64


def _smallest_alphabet(params: NetworkParams, candidates: Iterable[tuple[int, int, int]],
                       node_limit: int) -> tuple[Optional[int], bool]:
    """The loop behind ``compute_qs`` and ``compute_qv``: the first
    ``value`` of ``(value, q, t)`` candidates, in non-decreasing
    ``value`` order, with a (q, t)-linear solution, and whether no
    decision at a strictly smaller value was inconclusive.

    A (q, t)-linear solution exists iff G_q(h*t, ell*t) holds a covering
    code of size r with the network's ``code_params(t)``.  Each decision
    is a ``max_covering_code`` search with target r: a code of size r is
    a conclusive yes, a finished tree a conclusive no, and a spent node
    budget or a Grassmannian above ``ENUMERATION_LIMIT`` inconclusive.
    Each of the r codewords of a code costs one search node, so with
    ``node_limit < r`` no decision can say yes and the answer is
    ``(None, False)`` before any search.
    """
    cls = classify(params)
    if cls is SolvabilityClass.UNSOLVABLE:
        raise ValueError("network is unsolvable at any alphabet")
    if cls is SolvabilityClass.TRIVIAL:
        return 2, True
    if node_limit < params.r:
        return None, False
    first_inconclusive = None
    for value, q, t in candidates:
        field = field_from_size(q)
        try:
            res = max_covering_code(*params.code_params(t), field,
                                    node_limit=node_limit, target_size=params.r)
        except ValueError:  # the Grassmannian is above ENUMERATION_LIMIT
            res = SearchResult(size=0, code=None, exact=False)
        if res.size >= params.r:
            return value, first_inconclusive is None or first_inconclusive >= value
        if not res.exact and first_inconclusive is None:
            first_inconclusive = value
    return None, False


def compute_qs(
    params: NetworkParams,
    q_cap: int = ALPHABET_CAP,
    node_limit: int = NODE_LIMIT,
) -> tuple[Optional[int], bool]:
    """Smallest field size admitting a scalar (t = 1) solution.

    Iterates prime powers ``q <= min(q_cap, ORDER_LIMIT)`` in increasing
    order, with ``ORDER_LIMIT`` read at call time.  Returns ``(q,
    exact)`` where ``exact`` is False if any smaller q's decision was
    inconclusive, or ``(None, False)`` when no q below the cap admits a
    solution.  TRIVIAL networks return ``(2, True)``; UNSOLVABLE
    parameters raise ValueError.
    """
    orders = prime_powers(min(q_cap, ORDER_LIMIT))
    return _smallest_alphabet(params, ((q, q, 1) for q in orders), node_limit)


def compute_qv(
    params: NetworkParams,
    qt_cap: int = ALPHABET_CAP,
    node_limit: int = NODE_LIMIT,
) -> tuple[Optional[int], bool]:
    """Smallest vector-space size q^t admitting a (q, t)-linear solution.

    Candidate pairs (q, t) with ``q^t <= qt_cap`` and ``q <=
    ORDER_LIMIT`` are tried in increasing q^t order, ties broken by
    smaller t.  Returns ``(q**t, exact)``; ``exact`` requires every
    strictly smaller q^t to have been conclusively refuted.  TRIVIAL
    networks return ``(2, True)``; UNSOLVABLE parameters raise
    ValueError.
    """
    candidates = []
    for q in prime_powers(min(qt_cap, ORDER_LIMIT)):
        t = 1
        while q**t <= qt_cap:
            candidates.append((q**t, q, t))
            t += 1
    candidates.sort(key=lambda c: (c[0], c[2]))
    return _smallest_alphabet(params, candidates, node_limit)


@dataclass(frozen=True)
class GapEstimate:
    """Measured scalar/vector alphabet minima and their log2 gap."""

    solvability: SolvabilityClass
    qs: Optional[int]
    qv: Optional[int]
    qs_exact: bool
    qv_exact: bool
    q_cap: int
    qt_cap: int

    @property
    def gap(self) -> Optional[float]:
        if self.qs is None or self.qv is None:
            return None
        return log2(self.qs) - log2(self.qv)


def estimate_gap(
    params: NetworkParams,
    q_cap: int = ALPHABET_CAP,
    qt_cap: int = ALPHABET_CAP,
    node_limit: int = NODE_LIMIT,
) -> GapEstimate:
    """Compute qs and qv by brute force and report the achieved gap."""
    qs, qs_exact = compute_qs(params, q_cap, node_limit)
    qv, qv_exact = compute_qv(params, qt_cap, node_limit)
    return GapEstimate(
        solvability=classify(params),
        qs=qs,
        qv=qv,
        qs_exact=qs_exact,
        qv_exact=qv_exact,
        q_cap=q_cap,
        qt_cap=qt_cap,
    )
