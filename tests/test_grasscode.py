"""Covering Grassmannian codes: enumeration, verification, exhaustive search."""

import sys
from itertools import combinations

import numpy as np
import pytest

from gcnet import grasscode
from gcnet.ffield import field_from_size
from gcnet.grasscode import (
    CoverWitness,
    CoveringCode,
    enumerate_grassmannian,
    is_covering_code,
    max_covering_code,
)
from gcnet.linalg import SubspaceQ, gaussian_binomial, random_matrix, rank_of_array, span_dim
from gcnet.rankmetric import covering_code_from_mrd

F2 = field_from_size(2)
F3 = field_from_size(3)


def test_enumeration_order_is_pivot_then_counter():
    # pivot column sets in lexicographic order, free entries counted
    # row-major in base q
    lines = enumerate_grassmannian(2, 1, F2)
    assert [s.basis for s in lines] == [((1, 0),), ((1, 1),), ((0, 1),)]


@pytest.mark.parametrize("n,k,q", [(3, 1, 2), (4, 2, 2), (4, 2, 3), (5, 3, 2), (4, 0, 2), (3, 3, 2)])
def test_enumeration_count_matches_q_binomial(n, k, q):
    field = field_from_size(q)
    subs = enumerate_grassmannian(n, k, field)
    assert len(subs) == gaussian_binomial(n, k, q)
    assert len(set(subs)) == len(subs)
    assert all(s.dim == k for s in subs)


def test_enumeration_cap():
    with pytest.raises(ValueError):
        enumerate_grassmannian(10, 5, F2, cap=1000)


def one_dim(field, vec):
    return SubspaceQ(field, len(vec), [vec])


def test_is_covering_code_accepts_spread():
    # the three lines of GF(2)^2: every pair spans the plane
    code = CoveringCode(
        field=F2, n=2, k=1, delta=1, alpha=2,
        codewords=tuple(enumerate_grassmannian(2, 1, F2)),
    )
    ok, witness = is_covering_code(code)
    assert ok and witness is None


def test_is_covering_code_reports_worst_witness():
    e1 = one_dim(F2, [1, 0, 0])
    code = CoveringCode(field=F2, n=3, k=1, delta=1, alpha=2,
                        codewords=(e1, e1, one_dim(F2, [0, 1, 0])))
    ok, witness = is_covering_code(code)
    assert not ok
    assert witness.indices == (0, 1)
    assert witness.achieved_dim == 1
    assert witness.required_dim == 2


def test_is_covering_code_domain_errors():
    e1 = one_dim(F2, [1, 0])
    with pytest.raises(ValueError):
        is_covering_code(CoveringCode(field=F2, n=2, k=1, delta=1, alpha=2, codewords=(e1,)))
    with pytest.raises(ValueError):
        is_covering_code(CoveringCode(field=F2, n=2, k=1, delta=2, alpha=2, codewords=(e1, e1)))


def reference_worst_witness(code):
    """The per-subset loop is_covering_code ran before the span memo: one
    rank call per size-alpha index tuple, keeping the smallest dimension
    and, among equals, the first tuple."""
    need = code.delta + code.k
    arrays = [c.basis_array() for c in code.codewords]
    worst = None
    for sel in combinations(range(code.size), code.alpha):
        got = rank_of_array(np.vstack([arrays[i] for i in sel]), code.field)
        if got < need and (worst is None or got < worst.achieved_dim):
            worst = CoverWitness(indices=sel, achieved_dim=got, required_dim=need)
    return (worst is None), worst


def random_code(rng, field, alpha):
    """A code of 4-7 codewords of dimension at most k.  Each codeword is
    either a fresh random span (often below k) or the span of random
    combinations of an earlier codeword's basis, which gives the same
    subspace under another basis or a subspace nested inside it."""
    n = int(rng.integers(2, 6))
    k = int(rng.integers(1, n))
    delta = int(rng.integers(1, n - k + 1))
    words = []
    for _ in range(int(rng.integers(4, 8))):
        if words and rng.random() < 0.5:
            src = words[int(rng.integers(len(words)))]
            if src.dim == 0:
                rows = np.zeros((1, n), dtype=np.int64)
            else:
                mix = random_matrix(field, int(rng.integers(1, src.dim + 2)), src.dim, rng)
                rows = (mix @ src.basis_matrix()).data
        else:
            rows = random_matrix(field, int(rng.integers(1, k + 1)), n, rng).data
        words.append(SubspaceQ(field, n, rows))
    return CoveringCode(field=field, n=n, k=k, delta=delta, alpha=alpha, codewords=tuple(words))


@pytest.mark.parametrize("alpha", [2, 3, 4])
@pytest.mark.parametrize("q", [2, 3, 4, 257])
def test_is_covering_code_matches_per_subset_reference(q, alpha):
    field = field_from_size(q)
    rng = np.random.default_rng(1000 * q + alpha)
    seen = set()
    for _ in range(40):
        code = random_code(rng, field, alpha)
        verdict = is_covering_code(code)
        assert verdict == reference_worst_witness(code)
        words = code.codewords
        if not verdict[0]:
            seen.add("fails")
        if len(set(words)) < len(words):
            seen.add("repeat")
        if min(c.dim for c in words) < code.k:
            seen.add("below k")
        if any(a.dim < b.dim and span_dim([a, b]) == b.dim for a in words for b in words):
            seen.add("nested")
    assert seen >= {"fails", "repeat", "below k", "nested"}


@pytest.fixture
def rank_calls(monkeypatch):
    """Shapes of the rank_of_array calls grasscode makes."""
    calls = []

    def counting(arr, field):
        calls.append(arr.shape)
        return rank_of_array(arr, field)

    monkeypatch.setattr(grasscode, "rank_of_array", counting)
    return calls


def test_delta_one_pairs_need_no_rank_call(rank_calls):
    # any two distinct lines of GF(7)^3 span a plane
    assert max_covering_code(3, 1, 1, 2, field_from_size(7)).size == 57
    assert rank_calls == []


def test_verifier_shares_spans_between_repeated_codewords(rank_calls):
    # each lifted-MRD dual appears alpha - 1 = 2 times
    assert is_covering_code(covering_code_from_mrd(4, 2, 1, 3, 2)) == (True, None)
    assert rank_calls == []
    assert is_covering_code(covering_code_from_mrd(4, 2, 2, 3, 4)) == (True, None)
    assert 0 < len(rank_calls) <= 800


def test_max_code_binary_line_cases():
    # alpha=2, delta=1: codewords must be pairwise distinct lines, so the
    # maximum is the whole Grassmannian
    assert max_covering_code(2, 1, 1, 2, F2).size == 3
    assert max_covering_code(3, 1, 1, 2, F2).size == 7
    assert max_covering_code(2, 1, 1, 2, F3).size == 4


def test_max_code_respects_delta_two():
    # every pair of lines in GF(2)^3 spans at most dimension 2 < 1+2
    result = max_covering_code(3, 1, 2, 2, F2)
    assert result.size == 1
    assert result.exact
    # the best multiset is below alpha, so the property is vacuous
    with pytest.raises(ValueError):
        is_covering_code(result.code)


def test_max_code_multiset_duplicates():
    # alpha=3 over the 3 lines of GF(2)^2: two copies of each line work,
    # three copies of one line would fail, so the maximum is 6
    result = max_covering_code(2, 1, 1, 3, F2)
    assert result.size == 6
    assert result.exact
    ok, _ = is_covering_code(result.code)
    assert ok
    distinct = set(result.code.codewords)
    assert len(distinct) == 3 and len(result.code.codewords) == 6


def test_max_code_exactness_flags():
    starved = max_covering_code(3, 1, 1, 2, F2, node_limit=3)
    assert not starved.exact
    assert starved.size <= 7
    early = max_covering_code(3, 1, 1, 2, F2, target_size=2)
    assert early.size == 2
    assert not early.exact


def test_max_code_found_code_verifies():
    result = max_covering_code(4, 2, 1, 2, F2)
    assert result.exact
    ok, _ = is_covering_code(result.code)
    assert ok
    # every pair of planes spans >= 3 dimensions
    for i, a in enumerate(result.code.codewords):
        for b in result.code.codewords[i + 1:]:
            assert span_dim([a, b]) >= 3


def unpruned_max(n, k, delta, alpha, field):
    """Reference maximum: grows every valid multiset in non-decreasing
    index order, checking each new alpha-subset with span_dim, with no
    bound, no fixed first codeword and no forward checking."""
    cands = enumerate_grassmannian(n, k, field)
    need = delta + k
    dims = {}

    def spans_enough(sel):
        key = frozenset(sel)
        if key not in dims:
            dims[key] = span_dim([cands[i] for i in key])
        return dims[key] >= need

    best = 0

    def grow(chosen, start):
        nonlocal best
        best = max(best, len(chosen))
        for i in range(start, len(cands)):
            if all(spans_enough(sub + (i,)) for sub in combinations(chosen, alpha - 1)):
                grow(chosen + (i,), i)

    grow((), 0)
    return best


SEARCH_GRID = [
    (2, 1, 1, 2, 2), (3, 1, 1, 2, 2), (2, 1, 1, 2, 3), (3, 1, 2, 2, 2),
    (4, 2, 2, 2, 2), (3, 1, 1, 2, 3),
    (2, 1, 1, 3, 2), (3, 1, 1, 3, 2), (3, 1, 2, 3, 2), (2, 1, 1, 3, 4), (4, 1, 2, 3, 2),
    (2, 1, 1, 4, 2), (2, 1, 1, 4, 3), (3, 1, 2, 4, 2),
]


@pytest.mark.parametrize("n,k,delta,alpha,q", SEARCH_GRID)
def test_max_code_matches_unpruned_reference(n, k, delta, alpha, q):
    field = field_from_size(q)
    result = max_covering_code(n, k, delta, alpha, field)
    assert result.exact
    assert result.size == unpruned_max(n, k, delta, alpha, field)
    # the first codeword is fixed to candidate 0
    assert result.code.codewords[0] == enumerate_grassmannian(n, k, field)[0]
    if result.size >= alpha:
        assert is_covering_code(result.code)[0]


def test_max_code_node_counts():
    # the five planes of a spread of GF(2)^4, found in few extensions
    assert max_covering_code(4, 2, 2, 2, F2).nodes <= 100


def test_max_code_certifies_alpha_three_planes():
    # any three of the planes must span GF(2)^4; the search finishes
    result = max_covering_code(4, 2, 2, 3, F2)
    assert result.exact
    assert result.size == 10
    assert is_covering_code(result.code)[0]


def _stack_depth():
    frame, depth = sys._getframe(1), 0
    while frame is not None:
        frame, depth = frame.f_back, depth + 1
    return depth


def test_max_code_depth_is_not_bounded_by_the_recursion_limit():
    # the 57 points of PG(2, 7): one search level per codeword, run with
    # only 40 frames to spare
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(_stack_depth() + 40)
    try:
        result = max_covering_code(3, 1, 1, 2, field_from_size(7))
    finally:
        sys.setrecursionlimit(limit)
    assert (result.size, result.exact) == (57, True)


def test_max_code_domain_errors():
    with pytest.raises(ValueError):
        max_covering_code(3, 1, 0, 2, F2)  # unbounded without a span surplus
    with pytest.raises(ValueError):
        max_covering_code(3, 1, 3, 2, F2)  # delta + k > n
    with pytest.raises(ValueError):
        max_covering_code(3, 1, 1, 1, F2)  # alpha below 2


def test_covering_code_validation():
    e1 = one_dim(F2, [1, 0])
    with pytest.raises(ValueError):
        CoveringCode(field=F2, n=2, k=1, delta=1, alpha=1, codewords=(e1, e1))
    with pytest.raises(ValueError):
        CoveringCode(field=F2, n=3, k=1, delta=1, alpha=2, codewords=(e1, e1))
