"""Covering Grassmannian codes: enumeration, verification, exhaustive search."""

import sys
from itertools import combinations

import pytest

from gcnet.ffield import field_from_size
from gcnet.grasscode import (
    CoveringCode,
    enumerate_grassmannian,
    is_covering_code,
    max_covering_code,
)
from gcnet.linalg import SubspaceQ, gaussian_binomial, span_dim

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
