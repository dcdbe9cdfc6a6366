"""Generalized combination networks and their linear solutions.

The network has one source holding ``h`` messages, ``r`` middle nodes
fed by ``ell`` parallel links each, and one receiver per ``alpha``-subset
of middle nodes; a receiver sees the ``alpha * ell`` links of its middle
nodes plus ``epsilon`` direct links from the source.  A ``(q, t)``-linear
solution assigns to middle node ``i`` a coding matrix ``A_i`` of shape
``(ell*t, h*t)`` over GF(q), row ``i`` of one ``(r, ell*t, h*t)``
array; it is valid when every receiver's stacked coding matrix has rank
at least ``(h - epsilon) * t``; its direct links, unit vectors read off
its reduced echelon form, complete decoding.  ``decoder_plan`` reduces
every receiver in one batched pass and fills the systems and left
inverses of all receivers, two stacks, with array operations.

Solutions correspond exactly to covering subspace codes: the row spaces
of valid ``A_i`` form a code in G_q(h*t, ell*t) in which every ``alpha``
codewords span at least ``(h - epsilon) * t`` dimensions, and back.
``compute_qs`` / ``compute_qv`` ride that bridge in one loop, deciding
solvability per (q, t) with the certified upper bound ``proven_upper``
or else the exhaustive covering-code search, and reporting honestly when
a decision hit its node budget.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from functools import cached_property
from itertools import combinations
from math import comb, log2
from typing import Iterable, Optional

import numpy as np

from .ffield import ORDER_LIMIT, FieldSpec, comb_exceeds, field_from_size, prime_powers
from .grasscode import NODE_LIMIT, CoveringCode, max_covering_code, proven_upper
from . import grasscode
from .linalg import (MatrixQ, element_array, items_per_pass, product_of_arrays, rank_of_array,
                     ranks_of_selections, rrefs_of_stack)


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
        """All receivers as lexicographic alpha-subsets of middle nodes
        (0-based).  Raises ValueError, before any is listed, when there
        are more than ``grasscode.ENUMERATION_LIMIT``, read at call time."""
        if comb_exceeds(self.r, self.alpha, grasscode.ENUMERATION_LIMIT):
            raise ValueError(f"C({self.r}, {self.alpha}) receivers exceed the cap "
                             f"{grasscode.ENUMERATION_LIMIT}")
        return list(combinations(range(self.r), self.alpha))

    def code_params(self, t: int) -> tuple[int, int, int, int]:
        """``(n, k, delta, alpha)`` of the covering codes that are the
        (q, t)-linear solutions: ambient ``h*t``, dimension ``ell*t``,
        surplus ``(h - ell - epsilon) * t`` and the same ``alpha``.
        Raises ValueError for a blocklength ``t`` below 1."""
        if t < 1:
            raise ValueError("blocklength t must be >= 1")
        return self.h * t, self.ell * t, (self.h - self.ell - self.epsilon) * t, self.alpha


def classify(params: NetworkParams) -> SolvabilityClass:
    """TRIVIAL iff h <= ell+epsilon, UNSOLVABLE iff h > alpha*ell+epsilon."""
    if params.h <= params.ell + params.epsilon:
        return SolvabilityClass.TRIVIAL
    if params.h > params.alpha * params.ell + params.epsilon:
        return SolvabilityClass.UNSOLVABLE
    return SolvabilityClass.NONTRIVIAL


@dataclass(frozen=True, eq=False)
class LinearSolution:
    """Middle-node coding matrices for a network at blocklength ``t``.

    ``matrices`` is a read-only ``(r, ell*t, h*t)`` int16 array, row
    ``i`` the coding matrix of middle node ``i``; storage checks the
    blocklength, the shape and that every entry lies in GF(q).
    Solutions compare by identity.
    """

    params: NetworkParams
    field: FieldSpec
    t: int
    matrices: np.ndarray

    def __post_init__(self):
        n, k, _, _ = self.params.code_params(self.t)
        object.__setattr__(self, "matrices",
                           element_array(self.field, self.matrices, (self.params.r, k, n)))

    @cached_property
    def decoder_plan(self) -> tuple[np.ndarray, np.ndarray]:
        """Each receiver's decoding system and a left inverse of it, built
        once per solution: read-only int16 stacks of shapes ``(R, w, n)``
        and ``(R, n, w)`` in ``receivers()`` order, with ``n = h*t``,
        ``w = a + e``, ``a = alpha*ell*t`` and ``e = epsilon*t``.

        System rows ``:a`` are the receiver's stacked coding matrices
        ``A``; rows ``a:`` are its direct links ``B``, in index order and
        then zero rows, the ``e_j`` at each ``j`` where no vector of ``V =
        rowspace(A)`` ends (has its last nonzero entry): the picks of a
        greedy scan taking ``e_j`` whenever it raises the rank, as it skips
        ``e_j`` iff ``e_j`` is in ``V + span(e_0, ..., e_{j-1})``, iff some
        vector of ``V`` ends at ``j``.  Reversed, the ends are the pivots
        ``c < n`` of ``rref([A[:, ::-1] | I_a])``: ``ends = n - 1 - c``.
        Every receiver's ``[A[:, ::-1] | I_a]`` is gathered into one
        stack and reduced by one ``rrefs_of_stack`` call.  Fewer than
        ``(h - epsilon) * t`` ends at any receiver raises ValueError
        naming the first such receiver, the witness ``verify_solution``
        reports; so do UNSOLVABLE parameters.

        Pivot row ``i`` is ``[E_i A reversed | E_i]`` for the row
        operations ``E_i``; it is 1 at its own end and 0 at the others, so
        it reads ``x[ends_i] + sum_j R_i[n-1-picked_j] x[picked_j] = E_i A
        x``.  Link ``j`` carries ``x[picked_j]``, so decoder row
        ``ends_i`` is ``E_i`` and then ``-R_i[n-1-picked_j]``, and row
        ``picked_j`` is 1 at ``a + j``.  The links, ends and decoder rows
        of all receivers are written with array indexing, with no loop
        over receivers.
        """
        p = self.params
        need = _need(p, self.t)
        n, a, e = p.h * self.t, p.alpha * p.ell * self.t, p.epsilon * self.t
        subsets = np.array(p.receivers(), dtype=np.intp)
        count = len(subsets)
        systems = np.zeros((count, a + e, n), dtype=np.int16)
        decoders = np.zeros((count, n, a + e), dtype=np.int16)
        systems[:, :a] = self.matrices[subsets].reshape(count, a, n)
        stack = np.empty((count, a, n + a), dtype=np.int16)
        stack[:, :, :n] = systems[:, :a, ::-1]
        stack[:, :, n:] = np.eye(a, dtype=np.int16)
        red, pivots = rrefs_of_stack(stack, self.field)
        short = np.flatnonzero((pivots < n).sum(axis=1) < need)
        if short.size:
            witness = tuple(subsets[short[0]].tolist())
            raise ValueError(f"solution is invalid (witness subset {witness})")
        # pivot row i of receiver b, and the coordinate where it ends
        b, i = np.nonzero(pivots < n)
        ends = n - 1 - pivots[b, i]
        picked = np.ones((count, n), dtype=bool)
        picked[b, ends] = False
        links = a - 1 + np.cumsum(picked, axis=1)  # system row of each picked link
        pb, pj = np.nonzero(picked)
        systems[pb, links[pb, pj], pj] = 1
        decoders[pb, pj, links[pb, pj]] = 1
        decoders[b, ends, :a] = red[b, i, n:]
        k, j = np.nonzero(picked[b])  # pivot row k against each picked j of its receiver
        decoders[b[k], ends[k], links[b[k], j]] = self.field.neg_table[red[b[k], i[k], n - 1 - j]]
        systems.setflags(write=False)
        decoders.setflags(write=False)
        return systems, decoders


def _need(params: NetworkParams, t: int) -> int:
    """The rank ``(h - epsilon) * t`` each receiver needs; ValueError if UNSOLVABLE."""
    if classify(params) is SolvabilityClass.UNSOLVABLE:
        raise ValueError("network is unsolvable; verification is meaningless")
    return max(0, (params.h - params.epsilon) * t)


def verify_solution(sol: LinearSolution) -> tuple[bool, Optional[tuple[int, ...]]]:
    """Check the rank condition at every receiver.

    Returns ``(True, None)`` if for each alpha-subset the stacked matrix
    has rank at least ``(h - epsilon) * t``, else ``(False, subset)``
    with the lexicographically first violating subset (0-based middle
    node indices).  The receivers are ranked by ``ranks_of_selections``.
    Raises ValueError on UNSOLVABLE parameters.
    """
    need = _need(sol.params, sol.t)
    subsets = np.array(sol.params.receivers(), dtype=np.intp)
    short = np.flatnonzero(ranks_of_selections(sol.matrices, subsets, sol.field) < need)
    if short.size:
        return False, tuple(subsets[short[0]].tolist())
    return True, None


def solution_from_code(code: CoveringCode, params: NetworkParams, t: int) -> LinearSolution:
    """Interpret covering-code codewords as middle-node coding matrices.

    Requires the code parameters to be ``params.code_params(t)`` and
    exactly ``r`` codewords.  Each codeword's ``(ell*t, h*t)`` row of the
    code's array is its coding matrix, so one of dimension below ``ell*t``
    keeps its zero rows.
    """
    p = params
    want = p.code_params(t)
    got = (code.n, code.k, code.delta, code.alpha)
    if want != got:
        raise ValueError(f"code parameters {got} do not match the network's {want}")
    if code.size != p.r:
        raise ValueError(f"need exactly r={p.r} codewords, got {code.size}")
    return LinearSolution(params=p, field=code.field, t=t, matrices=code.codewords)


def simulate(sol: LinearSolution, messages: MatrixQ) -> list[MatrixQ]:
    """Encode, transmit and decode at every receiver.

    ``messages`` is an ``(h, t)`` matrix (row i = message i).  A round is
    two products over all receivers at once: each receiver's system times
    the message, then its decoder times what it received.  Returns
    the per-receiver decoded message matrices in ``receivers()`` order;
    each must equal the input when the solution verifies.  Raises
    ValueError, naming the first receiver that cannot decode, when the
    solution is invalid.
    """
    p = sol.params
    if messages.data.shape != (p.h, sol.t):
        raise ValueError(f"messages must be {p.h}x{sol.t}")
    if messages.field != sol.field:
        raise ValueError("messages are over the wrong field")
    systems, decoders = sol.decoder_plan
    received = product_of_arrays(systems, messages.data.reshape(p.h * sol.t, 1), sol.field)
    decoded = product_of_arrays(decoders, received, sol.field)
    return [MatrixQ(sol.field, d.reshape(p.h, sol.t)) for d in decoded]


def random_solution_search(
    params: NetworkParams,
    field: FieldSpec,
    t: int,
    trials: int,
    seed: int,
) -> Optional[LinearSolution]:
    """Draw i.i.d. uniform coding matrices until a draw verifies.

    One generator, ``np.random.default_rng(seed)``, serves the whole
    search, so the result is reproducible: trial ``i`` is its ``i``-th
    ``(r, ell*t, h*t)`` draw.  A trial's receivers are gathered from its
    draw in ``receivers()`` order, in passes of ``items_per_pass``
    receivers, and ranked one at a time by ``rank_of_array``; the trial
    is rejected at its first receiver below ``(h - epsilon) * t``, so a
    failing trial ranks only up to that receiver.  The first trial whose
    receivers all reach it becomes the returned solution's array, the
    one draw that is validated and cast.  Returns None after
    ``trials`` draws (absence is an outcome, not an error).
    Raises ValueError, before any draw, for a blocklength ``t`` below 1,
    for a trial of more than ``grasscode.ENUMERATION_LIMIT`` entries and
    for more receivers than ``NetworkParams.receivers`` lists.
    """
    n, k, _, _ = params.code_params(t)
    if classify(params) is not SolvabilityClass.NONTRIVIAL:
        raise ValueError("random search expects a NONTRIVIAL network")
    p = params
    entries = p.r * k * n
    if entries > grasscode.ENUMERATION_LIMIT:
        raise ValueError(f"one trial draws {entries} entries, above the cap "
                         f"{grasscode.ENUMERATION_LIMIT}")
    need = _need(p, t)
    subsets = np.array(p.receivers(), dtype=np.intp)
    rows = p.alpha * k
    step = items_per_pass(rows * n)
    rng = np.random.default_rng(seed)
    for _ in range(trials):
        coding = rng.integers(0, field.q, size=(p.r, k, n), dtype=np.int64)
        if all(rank_of_array(system, field) >= need
               for start in range(0, len(subsets), step)
               for system in coding[subsets[start:start + step]].reshape(-1, rows, n)):
            return LinearSolution(params=p, field=field, t=t, matrices=coding)
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
    code of size r with the network's ``code_params(t)``.  A
    ``proven_upper`` below r is a conclusive no, reached before the field
    is built (a Grassmannian above ``BOUND_LIMIT`` gets no bound).
    Otherwise the decision is a ``max_covering_code`` search
    with target r: a code of size r is a conclusive yes, a certified
    maximum below r a conclusive no, and a spent node budget or a
    Grassmannian above ``ENUMERATION_LIMIT`` inconclusive.  Each of the r
    codewords of a code costs one search node, so with ``node_limit < r``
    no decision can say yes and the answer is ``(None, False)`` before
    any bound or search.
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
        code_params = params.code_params(t)
        try:
            if proven_upper(*code_params, q)[0] < params.r:
                continue
        except ValueError:  # the Grassmannian is above BOUND_LIMIT
            pass
        field = field_from_size(q)
        try:
            res = max_covering_code(*code_params, field,
                                    node_limit=node_limit, target_size=params.r)
        except ValueError:  # the Grassmannian is above ENUMERATION_LIMIT
            res = None
        if res is not None and res.size >= params.r:
            return value, first_inconclusive is None or first_inconclusive >= value
        if (res is None or not res.exact) and first_inconclusive is None:
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
    """Compute qs and qv and report the achieved gap."""
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
