"""Covering subspace codes in the Grassmannian G_q(n, k).

A covering code here is a multiset of k-dimensional subspaces of
GF(q)^n such that every selection of ``alpha`` codewords (with
repetition counted, i.e. every size-``alpha`` sub-multiset) spans a
subspace of dimension at least ``delta + k``.  Codes are stored as
ordered tuples; repeated codewords are legal and meaningful.

The module provides deterministic enumeration of Grassmannians, a
verifier that reports the worst witness on failure, and an exhaustive
branch-and-bound search for the maximum code size at small parameters;
both read spans from one memo.  The search is exact-or-flagged: it either
completes with a certified maximum or stops at a node budget and says so.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations, product
from typing import Optional, Sequence

import numpy as np

from .ffield import FieldSpec
from .linalg import SubspaceQ, gaussian_binomial, rank_of_array

#: Refuse to enumerate Grassmannians larger than this.
ENUMERATION_LIMIT = 10**6

#: Default node budget of the exhaustive search, for ``oracle`` and for
#: each ``qs``/``qv`` decision alike.
NODE_LIMIT = 10**7


@dataclass(frozen=True)
class CoverWitness:
    """A failing selection: codeword indices and the dimension they span."""

    indices: tuple[int, ...]
    achieved_dim: int
    required_dim: int


@dataclass(frozen=True)
class CoveringCode:
    """A multiset of subspaces with declared covering parameters.

    Storage does not enforce the covering property (``is_covering_code``
    does); it enforces only structural consistency: every codeword lives
    in GF(q)^n and has dimension at most k.  Dimension below k is
    tolerated at storage time so that degenerate inputs can be loaded
    and then rejected by verification with a useful witness.
    """

    field: FieldSpec
    n: int
    k: int
    delta: int
    alpha: int
    codewords: tuple[SubspaceQ, ...]

    def __post_init__(self):
        if self.n < 1 or self.k < 0 or self.k > self.n:
            raise ValueError(f"bad ambient/dimension pair (n={self.n}, k={self.k})")
        if self.alpha < 2:
            raise ValueError(f"alpha must be >= 2, got {self.alpha}")
        for i, c in enumerate(self.codewords):
            if c.field != self.field or c.ambient != self.n:
                raise ValueError(f"codeword {i} lives in the wrong space")
            if c.dim > self.k:
                raise ValueError(f"codeword {i} has dimension {c.dim} > k = {self.k}")

    @property
    def size(self) -> int:
        return len(self.codewords)


def enumerate_grassmannian(n: int, k: int, field: FieldSpec) -> list[SubspaceQ]:
    """All k-dimensional subspaces of GF(q)^n in a pinned canonical order.

    Subspaces are emitted grouped by the pivot-column set of their
    canonical basis (pivot sets in lexicographic order), and within a
    group by the free entries read row-major as a base-q counter, most
    significant first.  For G(2, 1) over GF(2) this yields
    span(1,0), span(1,1), span(0,1).

    Raises ValueError if the Grassmannian has more than
    ``ENUMERATION_LIMIT`` elements, read at call time.
    """
    if k < 0 or k > n:
        raise ValueError(f"need 0 <= k <= n, got k={k}, n={n}")
    total = gaussian_binomial(n, k, field.q)
    if total > ENUMERATION_LIMIT:
        raise ValueError(f"Grassmannian has {total} elements, above the cap {ENUMERATION_LIMIT}")
    q = field.q
    out: list[SubspaceQ] = []
    for pivots in combinations(range(n), k):
        pivot_set = set(pivots)
        free_cells = [
            (i, j) for i in range(k) for j in range(pivots[i] + 1, n) if j not in pivot_set
        ]
        template = [[int(j == p) for j in range(n)] for p in pivots]
        for assignment in product(range(q), repeat=len(free_cells)):
            m = [row[:] for row in template]
            for (i, j), v in zip(free_cells, assignment):
                m[i][j] = v
            out.append(SubspaceQ._from_canonical(field, n, tuple(map(tuple, m))))
    assert len(out) == total
    return out


def is_covering_code(code: CoveringCode) -> tuple[bool, Optional[CoverWitness]]:
    """Exhaustively verify the covering property.

    Scans every size-``alpha`` sub-multiset, with each codeword read as its
    first equal codeword in ``_Spans``.  On failure returns the witness with
    the smallest achieved dimension, ties going to the lexicographically
    first index tuple.  Raises ValueError when the code has fewer than
    ``alpha`` codewords or when ``delta + k`` exceeds the ambient dimension.
    """
    if code.size < code.alpha:
        raise ValueError(f"need at least alpha={code.alpha} codewords to verify, have {code.size}")
    need = code.delta + code.k
    if need > code.n:
        raise ValueError(f"required span {need} exceeds the ambient dimension {code.n}")
    first: dict[SubspaceQ, int] = {}
    rep = [first.setdefault(c, i) for i, c in enumerate(code.codewords)]
    spans = _Spans(code.codewords, code.field, need)
    worst: Optional[CoverWitness] = None
    for sel in combinations(range(code.size), code.alpha):
        got = spans[tuple(sorted({rep[i] for i in sel}))]
        if got < need and (worst is None or got < worst.achieved_dim):
            worst = CoverWitness(indices=sel, achieved_dim=got, required_dim=need)
    return (worst is None), worst


class _Spans(dict):
    """Memo of ``min(span, need)`` keyed by sorted tuples of indices that
    name pairwise distinct subspaces, valued from the distinct indices.  One
    index spans its own dimension, and several of one dimension d span at
    least d + 1; neither answer needs a rank call or is stored.
    """

    def __init__(self, subspaces: Sequence[SubspaceQ], field: FieldSpec, need: int):
        super().__init__()
        self.arrays = [c.basis_array() for c in subspaces]
        self.field = field
        self.need = need

    def __missing__(self, key: tuple[int, ...]) -> int:
        rows = [self.arrays[i] for i in set(key)]
        if len(rows) == 1:
            return min(rows[0].shape[0], self.need)
        if rows[0].shape[0] + 1 >= self.need and len({a.shape[0] for a in rows}) == 1:
            return self.need
        got = self[key] = min(rank_of_array(np.vstack(rows), self.field), self.need)
        return got


@dataclass
class SearchResult:
    """Outcome of the exhaustive maximum-size search."""

    size: int
    code: Optional[CoveringCode]
    exact: bool
    nodes: int = 0


def max_covering_code(
    n: int,
    k: int,
    delta: int,
    alpha: int,
    field: FieldSpec,
    node_limit: int = NODE_LIMIT,
    target_size: Optional[int] = None,
) -> SearchResult:
    """Exhaustive search for the largest covering code, exact or flagged.

    Explores multisets of Grassmannian elements in non-decreasing index
    order, depth first.  Each level carries a filtered candidate list:
    the candidates ``y`` (at or after the last pick) such that adding
    ``y`` keeps every size-``alpha`` sub-multiset spanning at least
    ``delta + k``.  Picking ``x`` from that list keeps a later ``y``
    (``x`` itself included) only if every ``S + (x, y)`` spans enough,
    with ``S`` running over the size-``(alpha-2)`` sub-multisets of the
    codewords chosen before ``x``; the other sub-multisets were checked
    on the way down.  Adding codewords never repairs a violated
    selection, so dropping a candidate is sound.  Spans come from a
    ``_Spans`` memo keyed by the sorted index tuple; at alpha = 2 and
    delta = 1 every pair of distinct candidates passes with no rank call.

    Alpha copies of one codeword span only ``k < k + delta``, so a
    candidate contributes at most ``alpha - 1`` picks, and a branch with
    ``|chosen| + (alpha-1) * |filtered[pos:]| <= best`` is cut.

    The first codeword is fixed to index 0.  This loses no code: every
    ``g`` in GL(n, q) maps k-subspaces to k-subspaces bijectively and
    ``dim(gU_1 + ... + gU_a) = dim g(U_1 + ... + U_a) = dim(U_1 + ...
    + U_a)``, so applying ``g`` to each codeword maps a covering code to
    a covering code of the same size.  GL(n, q) acts transitively on
    G_q(n, k): extending a basis of any codeword ``U`` to a basis of
    GF(q)^n and sending it to the unit vectors gives a ``g`` with ``gU``
    equal to candidate 0, the span of the first k unit vectors.  Every
    code, of maximum size or of size ``target_size``, therefore has an
    image of the same size that contains index 0, and index 0 comes
    first in non-decreasing order.

    ``nodes`` counts the extensions tried from filtered lists, the root
    pick of index 0 included.  If it exceeds ``node_limit`` the best
    code found so far is returned with ``exact=False``.

    ``target_size`` stops the search once a valid code of that size is
    found; the result is then a decision witness, not a maximum, and
    ``exact`` is False.

    Requires ``1 <= delta`` and ``delta + k <= n``; with ``delta == 0``
    every multiset is a covering code and no maximum exists.  The
    Grassmannian is enumerated first, so one above ``ENUMERATION_LIMIT``
    raises ValueError.
    """
    if delta < 1:
        raise ValueError("delta must be >= 1 for the maximum to be finite")
    if delta + k > n:
        raise ValueError(f"need delta + k <= n, got {delta} + {k} > {n}")
    if alpha < 2:
        raise ValueError(f"alpha must be >= 2, got {alpha}")
    candidates = enumerate_grassmannian(n, k, field)
    need = delta + k
    spans = _Spans(candidates, field, need)

    best: list[int] = []
    nodes = 0
    exhausted = False
    reached_target = False
    chosen: list[int] = []
    # per level: filtered candidates, (alpha-2)-prefixes, next position
    frames = [[list(range(len(candidates))), set(combinations(chosen, alpha - 2)), 0]]
    while frames:
        frame = frames[-1]
        cands, prefixes, pos = frame
        # the root tries index 0 only (see the docstring)
        end = len(cands) if chosen else 1
        if pos == end or len(chosen) + (alpha - 1) * (len(cands) - pos) <= len(best):
            frames.pop()
            if chosen:
                chosen.pop()
            continue
        frame[2] = pos + 1
        nodes += 1
        if nodes > node_limit:
            exhausted = True
            break
        x = cands[pos]
        heads = [s + (x,) for s in prefixes]
        kept = [y for y in cands[pos:] if all(spans[h + (y,)] == need for h in heads)]
        chosen.append(x)
        if len(chosen) > len(best):
            best = list(chosen)
            if target_size is not None and len(best) >= target_size:
                reached_target = True
                break
        # chosen is non-decreasing, so each tuple here is sorted
        frames.append([kept, set(combinations(chosen, alpha - 2)), 0])

    exact = not exhausted and not reached_target
    code = None
    if best:
        code = CoveringCode(
            field=field,
            n=n,
            k=k,
            delta=delta,
            alpha=alpha,
            codewords=tuple(candidates[i] for i in best),
        )
    return SearchResult(size=len(best), code=code, exact=exact, nodes=nodes)
