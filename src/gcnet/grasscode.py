"""Covering subspace codes in the Grassmannian G_q(n, k).

A covering code here is a multiset of k-dimensional subspaces of
GF(q)^n such that every selection of ``alpha`` codewords (with
repetition counted, i.e. every size-``alpha`` sub-multiset) spans a
subspace of dimension at least ``delta + k``.  A code is stored as one
``(size, k, n)`` int16 array, a row per codeword holding its canonical
basis (see :mod:`gcnet.linalg`); repeated codewords are legal and
meaningful.

The module provides deterministic enumeration of Grassmannians, a
verifier that reports the worst witness on failure, and an exhaustive
branch-and-bound search for the maximum code size at small parameters.
Both decide by one rule where it applies: two distinct subspaces of
dimension ``need - 1`` or more span ``need = delta + k``.  The verifier
puts the distinct codewords below ``need - 1`` first and ranks, in
batched stacks, the lexicographic prefix of multisets that holds one;
the search reads its spans from one memo, one rank call per key.  The
search is exact-or-flagged: it either certifies its maximum, by
finishing its tree or by meeting the rigorous upper bound
``proven_upper``, or stops at a node budget and says so.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import accumulate, chain, combinations, islice, takewhile
from typing import Optional

import numpy as np

from .ffield import FieldSpec, power_exceeds
from . import linalg
from .linalg import element_array, gaussian_binomial, rank_of_array, ranks_of_selections

#: Refuse to list more than this many items at once: the subspaces of
#: a Grassmannian, a network's receivers, the codewords ``construct``
#: writes, the codewords a code file declares, the entries of one
#: random-search draw and the values of a ``bounds``/``gap`` sweep range.
ENUMERATION_LIMIT = 10**6

#: Refuse to bound codes in Grassmannians with q^(k(n-k)) above this, so
#: that ``proven_upper``'s recursion stays within milliseconds.
BOUND_LIMIT = 2**1024

#: Default node budget of the exhaustive search, for ``oracle`` and for
#: each ``qs``/``qv`` decision alike.
NODE_LIMIT = 10**7


@dataclass(frozen=True)
class CoverWitness:
    """A failing selection: codeword indices and the dimension they span."""

    indices: tuple[int, ...]
    achieved_dim: int
    required_dim: int


@dataclass(frozen=True, eq=False)
class CoveringCode:
    """A multiset of subspaces with declared covering parameters.

    ``codewords`` is a read-only ``(size, k, n)`` int16 array whose rows
    are the codewords' canonical bases, zero rows last, so a codeword has
    dimension at most k.  Storage checks only the shape and that every
    entry lies in GF(q); ``is_covering_code`` checks the canonical form
    and the covering property.  Dimension below k is tolerated at storage
    time so that degenerate inputs can be loaded and then rejected by
    verification with a useful witness.  Codes compare by identity.
    """

    field: FieldSpec
    n: int
    k: int
    delta: int
    alpha: int
    codewords: np.ndarray

    def __post_init__(self):
        if self.n < 1 or self.k < 0 or self.k > self.n:
            raise ValueError(f"bad ambient/dimension pair (n={self.n}, k={self.k})")
        if self.alpha < 2:
            raise ValueError(f"alpha must be >= 2, got {self.alpha}")
        if self.delta < 0:  # delta = 0 is legal: every code covers
            raise ValueError(f"delta must be >= 0, got {self.delta}")
        object.__setattr__(self, "codewords",
                           element_array(self.field, self.codewords, (None, self.k, self.n)))

    @property
    def size(self) -> int:
        return len(self.codewords)


def enumerate_grassmannian(n: int, k: int, field: FieldSpec) -> np.ndarray:
    """All k-dimensional subspaces of GF(q)^n in a pinned canonical order,
    as one ``(N, k, n)`` array of canonical bases.

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
    q = field.q
    # |G_q(n, k)| >= q^(k(n-k)) refuses a large one before its exact count
    if power_exceeds(q, k * (n - k), ENUMERATION_LIMIT):
        raise ValueError(
            f"Grassmannian has at least {q}^{k * (n - k)} elements, above the cap {ENUMERATION_LIMIT}"
        )
    total = gaussian_binomial(n, k, q)
    if total > ENUMERATION_LIMIT:
        raise ValueError(f"Grassmannian has {total} elements, above the cap {ENUMERATION_LIMIT}")
    out = np.zeros((total, k, n), dtype=np.int16)
    digits = np.arange(q, dtype=np.int16)
    start = 0
    for pivots in combinations(range(n), k):
        free_cells = [(i, j) for i in range(k) for j in range(pivots[i] + 1, n) if j not in pivots]
        block = out[start:start + q ** len(free_cells)]
        for i, p in enumerate(pivots):
            block[:, i, p] = 1
        # the block as a (q, ..., q, k, n) grid whose axis c is free cell
        # c's digit, so the first cell is the counter's most significant
        grid = block.reshape((q,) * len(free_cells) + (k, n))
        for c, (i, j) in enumerate(free_cells):
            grid[..., i, j] = digits.reshape((q,) + (1,) * (len(free_cells) - 1 - c))
        start += len(block)
    assert start == total
    return out


def is_covering_code(code: CoveringCode) -> tuple[bool, Optional[CoverWitness]]:
    """Verify the covering property over every size-``alpha`` sub-multiset:
    a multiset of distinct codewords, each at most as often as the code
    holds it.  By the module's rule one falls short only as ``alpha``
    copies of one codeword of dimension ``need - 1``, read off the groups
    of equal codewords, or by holding a low one, of lower dimension (each
    at delta >= 2).  With the distinct codewords in a stable order, the
    low ones first, the latter are the prefix of ``_multisets`` whose
    first pick is low.  Each is built once, in batches of at most
    ``linalg.CHUNK_ENTRIES`` entries, and ranked by ``ranks_of_selections``
    on the codewords' rows; its indices are the first copies it takes,
    the least tuple that holds it.  The witness is the least (achieved
    dimension, indices).

    Equal codewords are grouped by their rows' bytes, which is sound only
    for canonical bases, so a code whose rows are not each in reduced row
    echelon form with zero rows last raises ValueError; so does one with
    fewer than ``alpha`` codewords, or whose ``need`` exceeds ``n``.
    """
    if code.size < code.alpha:
        raise ValueError(f"need at least alpha={code.alpha} codewords to verify, have {code.size}")
    need = code.delta + code.k
    if need > code.n:
        raise ValueError(f"required span {need} exceeds the ambient dimension {code.n}")
    words = code.codewords
    if not _is_canonical(words):
        raise ValueError("codewords are not canonical bases (reduced row echelon form, zero rows last)")
    dims = np.count_nonzero(words.any(axis=2), axis=1)
    copies: dict[bytes, list[int]] = {}
    # the low codewords first, so the multisets that hold one come first
    for i in np.argsort(dims >= need - 1, kind="stable").tolist():
        copies.setdefault(words[i].tobytes(), []).append(i)
    groups = list(copies.values())
    firsts = np.array([g[0] for g in groups], dtype=np.intp)
    low = (dims[firsts] < need - 1).tolist()
    # (achieved, indices) of the worst selection; (need, ()) while none falls short
    worst = min([(need, ())] + [(need - 1, tuple(g[:code.alpha])) for g in groups
                                if len(g) >= code.alpha and dims[g[0]] == need - 1])
    if any(low):
        batch = linalg.items_per_pass(code.alpha * code.k * code.n)
        sels = takewhile(lambda m: low[m[0]], _multisets([len(g) for g in groups], code.alpha))
        while (sel := np.fromiter(chain.from_iterable(islice(sels, batch)), dtype=np.intp)).size:
            sel = sel.reshape(-1, code.alpha)
            got = ranks_of_selections(words, firsts[sel], code.field)
            for i in np.flatnonzero(got < need):
                picks = sel[i].tolist()  # each pick of a codeword takes its next copy
                taken = sorted(groups[d][picks[:p].count(d)] for p, d in enumerate(picks))
                worst = min(worst, (int(got[i]), tuple(taken)))
    if worst[0] == need:
        return True, None
    return False, CoverWitness(indices=worst[1], achieved_dim=worst[0], required_dim=need)


def _is_canonical(words: np.ndarray) -> bool:
    """Whether every ``(k, n)`` block of ``words`` is in reduced row
    echelon form with its zero rows last: the leading columns rise down
    the nonzero rows, no nonzero row follows a zero one, and each leading
    entry is 1 and the only nonzero entry of its column."""
    n = words.shape[2]
    nonzero = words != 0
    # a zero row leads at n
    lead = np.where(nonzero.any(axis=2), nonzero.argmax(axis=2), n)
    at = np.minimum(lead, n - 1)
    zero = lead == n
    rising = (lead[:, 1:] > lead[:, :-1]) | zero[:, 1:]
    ones = (np.take_along_axis(words, at[:, :, None], 2)[:, :, 0] == 1) | zero
    # entry (r, i) of a block: whether row r is nonzero in row i's leading column
    column = np.take_along_axis(nonzero, at[:, None, :], 2)
    alone = (column == np.eye(words.shape[1], dtype=bool)) | zero[:, None, :]
    return bool(rising.all() and ones.all() and alone.all())


def _multisets(caps: list[int], size: int):
    """Each size-``size`` multiset of indices that holds index ``v`` at
    most ``caps[v]`` times, once, as a non-decreasing tuple in
    lexicographic order: the next one raises the last pick that can grow
    and refills the picks from there on, least first."""
    supply = list(accumulate(reversed(caps), initial=0))[::-1]  # picks from v on
    picks, i = [-1] * size, 0
    while i >= 0 and supply[v := picks[i] + 1] >= size - i:
        while i < size:
            take = min(caps[v], size - i)
            picks[i:i + take] = [v] * take
            i, v = i + take, v + 1
        yield tuple(picks)
        i = size - 1
        while i >= 0 and supply[picks[i] + 1] < size - i:
            i -= 1


class _Spans(dict):
    """The search's memo of span dimensions, keyed by sorted tuples of
    indices into its ``(N, k, n)`` array of k-dimensional subspaces.  A
    key with one distinct index spans k, with no rank call; any other key
    is one memoised rank call on its distinct indices' rows, gathered
    when the key is first read, so the memo costs nothing to build."""

    def __init__(self, subspaces: np.ndarray, field: FieldSpec):
        super().__init__()
        self.subspaces = subspaces
        self.field = field

    def __missing__(self, key: tuple[int, ...]) -> int:
        picked = list(set(key))
        if len(picked) == 1:
            return self.subspaces.shape[1]
        stack = self.subspaces.take(picked, axis=0).reshape(-1, self.subspaces.shape[2])
        got = self[key] = rank_of_array(stack, self.field)
        return got


def _cap_upper(n: int, q: int) -> Optional[tuple[int, str]]:
    """The largest cap of PG(n-1, q), a point set with no three collinear,
    where a classical theorem gives it: q+2 (q even) or q+1 (q odd) in
    PG(2, q) (Bose 1947); q^2+1 in PG(3, q) for q > 2 (Bose 1947, Qvist
    1952); 20 in PG(4, 3) (Pellegrino 1970); 2^(n-1) over GF(2), where a
    cap is a set S of nonzero vectors with no s + s' in S, so S and x + S
    are disjoint for x in S and 2|S| <= 2^n.  None elsewhere."""
    if n == 3:
        return (q + 2 if q % 2 == 0 else q + 1), "arc"
    if n == 4 and q > 2:
        return q * q + 1, "ovoid"
    if (n, q) == (5, 3):
        return 20, "pellegrino"
    if q == 2:
        return 2 ** (n - 1), "binary-cap"
    return None


def _least_upper(n: int, k: int, delta: int, alpha: int, q: int,
                 point: int, plane: int) -> tuple[int, str]:
    """``proven_upper`` at one (n, k), given its bounds ``point`` on
    M(n-1, k-1) and ``plane`` on M(n-1, k); both are read only when
    ``1 <= k`` and ``delta + k <= n``, where they exist."""
    if k == 0 or delta + k > n or alpha * k < delta + k:
        return alpha - 1, "empty"
    points = gaussian_binomial(n, 1, q)
    found = [((alpha - 1) * gaussian_binomial(n, k, q), "multiplicity")]
    if alpha == 2 and delta == k:
        found.append((points // gaussian_binomial(k, 1, q), "partial-spread"))
        if k >= 2 and n % k == 1:
            found.append(((q**n - q ** (k + 1)) // (q**k - 1) + 1, "beutelspacher"))
    if (k, delta, alpha) == (1, 2, 3):
        cap = _cap_upper(n, q)
        if cap is not None:
            found.append(cap)
    found.append((points * point // gaussian_binomial(k, 1, q), "johnson-point"))
    found.append((points * plane // gaussian_binomial(n - k, 1, q), "johnson-hyperplane"))
    return min(found, key=lambda f: f[0])


@lru_cache(maxsize=None)
def proven_upper(n: int, k: int, delta: int, alpha: int, q: int) -> tuple[int, str]:
    """A rigorous upper bound on M, the largest size of a covering code
    (n, k, delta, alpha) over GF(q), and the name of its source: the
    least of the bounds below that apply, the first listed on a tie.

    Write [j] = (q^j - 1)/(q - 1) for the number of points of GF(q)^j.
    Every bound holds for multisets at every alpha:

    - ``empty``: M = alpha - 1 when k = 0, delta + k > n or
      alpha * k < delta + k, since then no alpha codewords span
      delta + k, while alpha - 1 copies of one subspace have no
      alpha-selection at all;
    - ``multiplicity``: alpha copies of one codeword span k < delta + k,
      so each of the |G_q(n, k)| subspaces repeats at most alpha - 1
      times;
    - ``partial-spread`` (alpha = 2, delta = k): codewords meet pairwise
      in 0, so their point sets are disjoint and M <= floor([n] / [k]);
      ``beutelspacher``: for k >= 2 and n = 1 mod k the largest partial
      spread has exactly (q^n - q^(k+1)) / (q^k - 1) + 1 members
      (Beutelspacher 1975);
    - caps (k = 1, delta = 2, alpha = 3): a repeated point makes every
      third codeword fall short, so a code of 3 or more points is a cap,
      bounded by ``_cap_upper`` where a theorem gives its largest size;
    - ``johnson-point``, M <= floor([n] * M(n-1, k-1) / [k]): for a
      point P, the codewords through P, read in GF(q)^n / P, form an
      (n-1, k-1, delta, alpha) code, since alpha of them span
      dim(U_1 + ... + U_alpha) - 1 >= delta + (k-1).  Each codeword
      holds [k] points, so counting (P, U) with P in U gives
      M * [k] = sum over the [n] points of |C_P| <= [n] * M(n-1, k-1);
    - ``johnson-hyperplane``, M <= floor([n] * M(n-1, k) / [n-k]): the
      codewords inside a hyperplane H form an (n-1, k, delta, alpha)
      code of H, with the same spans.  Each codeword lies in [n-k] of
      the [n] hyperplanes, so M * [n-k] <= [n] * M(n-1, k).

    The two recursions are the q-Johnson bounds (Xia-Fu, "Johnson type
    bounds on constant dimension codes", Des. Codes Cryptogr. 2009;
    Etzion-Vardy, "Error-correcting codes in projective space", IEEE
    T-IT 2011).  They read the least bound at (n-1, k-1) and (n-1, k),
    so the spread and cap values bound the larger codes built on them.
    The table of M(k' + d', k') for k' <= k, d' <= n - k is filled from
    the bases up, with no call stack.  Raises ValueError unless
    0 <= k <= n, delta >= 1, alpha >= 2 and q >= 2, and when
    q^(k(n-k)) exceeds ``BOUND_LIMIT``, read at call time.
    """
    if not 0 <= k <= n or delta < 1 or alpha < 2 or q < 2:
        raise ValueError(f"need 0 <= k <= n, delta >= 1, alpha >= 2 and q >= 2, "
                         f"got n={n}, k={k}, delta={delta}, alpha={alpha}, q={q}")
    if power_exceeds(q, k * (n - k), BOUND_LIMIT):
        raise ValueError(f"Grassmannian has at least {q}^{k * (n - k)} elements, "
                         f"above the bound cap 2^{BOUND_LIMIT.bit_length() - 1}")
    table: dict[tuple[int, int], tuple[int, str]] = {}
    for kk in range(k + 1):
        for dd in range(n - k + 1):
            point = table.get((kk - 1, dd), (0, ""))[0]
            plane = table.get((kk, dd - 1), (0, ""))[0]
            table[kk, dd] = _least_upper(kk + dd, kk, delta, alpha, q, point, plane)
    return table[k, n - k]


@dataclass
class SearchResult:
    """Outcome of the exhaustive maximum-size search.  ``certified_by``
    says why it stopped: ``exhausted`` (the tree finished),
    ``bound:<source>`` (``size`` met ``proven_upper``), ``budget`` (the
    node budget ran out) or ``target`` (a code of ``target_size`` was
    found)."""

    size: int
    code: Optional[CoveringCode]
    nodes: int = 0
    certified_by: str = "exhausted"

    @property
    def exact(self) -> bool:
        """Whether ``size`` is certified the maximum: the stop is
        ``exhausted`` or ``bound:<source>``."""
        return self.certified_by == "exhausted" or self.certified_by.startswith("bound:")


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
    order, depth first.  A level is a position in a candidate list: the
    candidates ``y`` (at or after the last pick) such that adding ``y``
    keeps every size-``alpha`` sub-multiset spanning at least
    ``delta + k``.  At delta >= 2 picking ``x`` gives the level below its
    own list, keeping a later ``y`` (``x`` itself included) only if every
    ``S + (x, y)`` spans enough by the ``_Spans`` memo, with ``S``
    running over the size-``(alpha-2)`` sub-multisets of the codewords
    chosen before ``x``; the others were checked on the way down.  Adding
    codewords never repairs a violated selection, so dropping a candidate
    is sound.  At delta = 1, by the module's rule, only ``x`` drops, once
    the last ``alpha - 1`` picks are all ``x``: the level below reads its
    parent's list, from ``x`` or the next candidate, copying nothing.

    Alpha copies of one codeword span only ``k < k + delta``, so a
    candidate contributes at most ``alpha - 1`` picks, and a branch with
    ``|chosen| + (alpha-1) * |cands[pos:]| <= best`` is cut.

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

    The search stops with ``exact=True`` as soon as ``best`` meets
    ``proven_upper``: no code is larger.  ``best`` is replaced only on a
    strict increase, so this is the code the finished tree returns.  While
    no pick has been undone since ``best`` was last set, a strict increase
    appends the new pick to it; only after a backtrack is the path copied,
    so a straight dive costs linear, not quadratic, time.

    ``nodes`` counts the extensions tried, the root pick of index 0
    included, up to that stop.  An extension past ``node_limit`` is not
    tried: the search stops at ``nodes == node_limit`` and returns the
    best code found so far with ``exact=False``.

    ``target_size`` stops the search once a valid code of that size is
    found; unless that size meets the bound, the result is then a
    decision witness, not a maximum, and ``exact`` is False.
    ``certified_by`` names the stop (see ``SearchResult``).

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
    upper, source = proven_upper(n, k, delta, alpha, field.q)
    need = delta + k
    spans = _Spans(candidates, field)

    best: list[int] = []
    # best == chosen while no pick has been undone since best was last set
    diving = True
    nodes = 0
    certified_by = "exhausted"
    chosen: list[int] = []
    # per level: its candidate list, next position
    frames = [[range(len(candidates)), 0]]
    while frames:
        frame = frames[-1]
        cands, pos = frame
        # the root tries index 0 only (see the docstring)
        end = len(cands) if chosen else 1
        if pos == end or len(chosen) + (alpha - 1) * (len(cands) - pos) <= len(best):
            frames.pop()
            if chosen:
                chosen.pop()
                diving = False
            continue
        frame[1] = pos + 1
        if nodes == node_limit:
            certified_by = "budget"
            break
        nodes += 1
        x = cands[pos]
        chosen.append(x)
        if len(chosen) > len(best):
            if diving:
                best.append(x)
            else:
                best, diving = list(chosen), True
            if len(best) >= upper:
                certified_by = "bound:" + source
                break
            if target_size is not None and len(best) >= target_size:
                certified_by = "target"
                break
        # a node that ends the search filters nothing
        if delta == 1:
            # chosen is non-decreasing, so this reads its last alpha - 1 picks
            full = len(chosen) >= alpha - 1 and chosen[1 - alpha] == x
            frames.append([cands, pos + 1 if full else pos])
        else:
            # chosen is non-decreasing, so each key here is sorted
            heads = [s + (x,) for s in set(combinations(chosen[:-1], alpha - 2))]
            kept = [y for y in cands[pos:] if all(spans[h + (y,)] >= need for h in heads)]
            frames.append([kept, 0])

    code = CoveringCode(field=field, n=n, k=k, delta=delta, alpha=alpha,
                        codewords=candidates[best]) if best else None
    return SearchResult(size=len(best), code=code, nodes=nodes, certified_by=certified_by)
