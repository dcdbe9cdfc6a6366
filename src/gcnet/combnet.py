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
from . import grasscode, linalg
from .linalg import MatrixQ, SubspaceQ, product_of_arrays, ranks_of_selections, rref_of_array


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
    def decoder_plan(self) -> tuple[np.ndarray, np.ndarray]:
        """Each receiver's decoding system, its coding matrices over its
        direct links, and a left inverse of that system, from one
        reduction per receiver, once per solution: int16 stacks of shapes
        ``(R, w, h*t)`` and ``(R, h*t, w)`` in ``receivers()`` order, with
        ``w = (alpha*ell + epsilon) * t``.  Raises as ``_receiver_decoders``."""
        systems, decoders = [], []
        for a, b, d in _receiver_decoders(self):
            systems.append(np.vstack([a, b]))
            decoders.append(d)
        plan = (np.stack(systems), np.stack(decoders))
        for arr in plan:
            arr.setflags(write=False)
        return plan


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
    coding = np.stack([a.data for a in sol.matrices])
    subsets = np.array(sol.params.receivers(), dtype=np.intp)
    short = np.flatnonzero(ranks_of_selections(coding, subsets, sol.field) < need)
    if short.size:
        return False, tuple(subsets[short[0]].tolist())
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
    mats = np.zeros((p.r, p.ell * t, p.h * t), dtype=np.int16)
    for m, c in zip(mats, code.codewords):
        m[: c.dim] = c.basis_array()
    return LinearSolution(params=p, field=code.field, t=t,
                          matrices=tuple(MatrixQ(code.field, m) for m in mats))


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


def _receiver_decoders(sol: LinearSolution):
    """Per receiver, in ``receivers()`` order, ``(A, B, D)`` from one
    reduction: ``A`` its stacked coding matrices (``a x n``, with
    ``a = alpha*ell*t`` and ``n = h*t``), ``B`` its direct links
    (``e x n``, ``e = epsilon*t``) and ``D`` with ``D @ [A; B] = I``.

    ``B`` holds, in index order and then zero rows, the ``e_j`` at each
    ``j`` where no vector of ``V = rowspace(A)`` ends (has its last
    nonzero entry): the picks of a greedy scan taking ``e_j`` whenever it
    raises the rank, as it skips ``e_j`` iff ``e_j`` is in ``V + span(e_0,
    ..., e_{j-1})``, iff some vector of ``V`` ends at ``j``.  Reversed,
    the ends are the pivots ``c < n`` of ``rref([A[:, ::-1] | I_a])``:
    ``ends = n - 1 - c``.  Fewer than ``(h - epsilon) * t`` of them raises
    ValueError naming the first such receiver, the witness
    ``verify_solution`` reports; so do UNSOLVABLE parameters.

    Pivot row ``i`` is ``[E_i A reversed | E_i]`` for the row operations
    ``E_i``; it is 1 at its own end and 0 at the others, so it reads
    ``x[ends_i] + sum_j R_i[n-1-picked_j] x[picked_j] = E_i A x``.  Link
    ``j`` carries ``x[picked_j]``, so row ``ends_i`` of ``D`` is ``E_i``
    and then ``-R_i[n-1-picked_j]``, and row ``picked_j`` is 1 at ``a + j``.
    """
    p = sol.params
    need = _need(p, sol.t)
    n, a_rows, e = p.h * sol.t, p.alpha * p.ell * sol.t, p.epsilon * sol.t
    ident = np.eye(a_rows, dtype=np.int16)
    coding = np.stack([m.data for m in sol.matrices])
    for subset in p.receivers():
        a = coding[list(subset)].reshape(a_rows, n)
        red, pivots = rref_of_array(np.hstack([a[:, ::-1], ident]), sol.field)
        rho = sum(c < n for c in pivots)
        if rho < need:
            raise ValueError(f"solution is invalid (witness subset {subset})")
        ends = n - 1 - np.array(pivots[:rho], dtype=np.intp)
        picked = np.array(sorted(set(range(n)).difference(ends)), dtype=np.intp)
        links = np.arange(len(picked))
        b = np.zeros((e, n), dtype=np.int16)
        b[links, picked] = 1
        d = np.zeros((n, a_rows + e), dtype=np.int16)
        d[picked, a_rows + links] = 1
        red = np.array(red, dtype=np.int16)[:rho]
        d[ends, :a_rows] = red[:, n:]
        d[ends[:, None], a_rows + links] = sol.field.neg_table[red[:, n - 1 - picked]]
        yield a, b, d


def derive_direct_link_matrices(sol: LinearSolution) -> list[MatrixQ]:
    """Each receiver's ``(epsilon*t, h*t)`` direct-link matrix, in
    ``receivers()`` order; raises as ``_receiver_decoders`` does."""
    return [MatrixQ(sol.field, b) for _, b, _ in _receiver_decoders(sol)]


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
    if (messages.rows, messages.cols) != (p.h, sol.t):
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

    Each trial uses its own generator derived from ``(seed, trial)``,
    so the result is reproducible and independent of scheduling.  A
    trial is one ``(r, ell*t, h*t)`` draw.  Trials are checked in blocks
    of doubling size (1, 2, 4, ...), each block's receivers ranked by
    one ``ranks_of_selections`` call; a block holds at most
    ``linalg.CHUNK_ENTRIES`` receiver entries, one trial at least, and no
    block draws past ``trials``.
    The first verifying trial in order is wrapped and returned.  Returns
    None after ``trials`` draws (absence is an outcome, not an error).
    Raises ValueError, before any draw, for a blocklength ``t`` below 1,
    for a trial of more than ``grasscode.ENUMERATION_LIMIT`` entries and
    for more receivers than ``NetworkParams.receivers`` lists.
    """
    if t < 1:
        raise ValueError("blocklength t must be >= 1")
    if classify(params) is not SolvabilityClass.NONTRIVIAL:
        raise ValueError("random search expects a NONTRIVIAL network")
    p = params
    entries = p.r * p.ell * t * p.h * t
    if entries > grasscode.ENUMERATION_LIMIT:
        raise ValueError(f"one trial draws {entries} entries, above the cap "
                         f"{grasscode.ENUMERATION_LIMIT}")
    need = _need(p, t)
    subsets = np.array(p.receivers(), dtype=np.intp)
    most = linalg.items_per_pass(subsets.size * p.ell * t * p.h * t)
    trial, block = 0, 1
    while trial < trials:
        count = min(block, most, trials - trial)
        codings = np.stack([
            np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(i,)))
            .integers(0, field.q, size=(p.r, p.ell * t, p.h * t), dtype=np.int64)
            for i in range(trial, trial + count)])
        # receiver j of trial i is blocks subsets[j] + i*r of the flattened codings
        pairs = (subsets + p.r * np.arange(count)[:, None, None]).reshape(-1, p.alpha)
        ranks = ranks_of_selections(codings.reshape(-1, p.ell * t, p.h * t), pairs, field)
        passed = np.flatnonzero((ranks.reshape(count, -1) >= need).all(axis=1))
        if passed.size:
            return LinearSolution(params=p, field=field, t=t,
                                  matrices=tuple(MatrixQ(field, a) for a in codings[passed[0]]))
        trial += count
        block *= 2
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
