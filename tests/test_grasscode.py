"""Covering Grassmannian codes: enumeration, verification, exhaustive search."""

import sys
import time
import tracemalloc
from itertools import combinations, product
from math import comb

import numpy as np
import pytest

from gcnet import backend, grasscode, linalg
from gcnet.ffield import field_from_size
from gcnet.grasscode import (
    CoverWitness,
    CoveringCode,
    SearchResult,
    enumerate_grassmannian,
    is_covering_code,
    max_covering_code,
    proven_upper,
)
from gcnet.linalg import (
    gaussian_binomial,
    product_of_arrays,
    random_matrix,
    rank_of_array,
    span_dim,
)
from gcnet.rankmetric import covering_code_from_mrd

F2 = field_from_size(2)
F3 = field_from_size(3)


def test_enumeration_order_is_pivot_then_counter():
    # pivot column sets in lexicographic order, free entries counted
    # row-major in base q
    lines = enumerate_grassmannian(2, 1, F2)
    assert lines.tolist() == [[[1, 0]], [[1, 1]], [[0, 1]]]


@pytest.mark.parametrize("n,k,q", [(3, 1, 2), (4, 2, 2), (4, 2, 3), (5, 3, 2), (4, 0, 2), (3, 3, 2)])
def test_enumeration_count_matches_q_binomial(n, k, q):
    field = field_from_size(q)
    subs = enumerate_grassmannian(n, k, field)
    assert subs.shape == (gaussian_binomial(n, k, q), k, n)
    assert len({s.tobytes() for s in subs}) == len(subs)
    assert all(rank_of_array(s, field) == k for s in subs)


def reference_grassmannian(n, k, field):
    """Brute force: the reduced form of every rank-k ``k x n`` matrix,
    without repeats, sorted by pivot columns and then by the entries
    off the pivot columns, read row-major."""
    found = {}
    for entries in product(range(field.q), repeat=k * n):
        m = np.array(entries, dtype=np.int16).reshape(k, n)
        rows, pivots = backend.rref_destructive(m, *field.kernel_views)
        pivots = tuple(pivots)
        if len(pivots) == k:
            free = tuple(row[j] for row in rows for j in range(n) if j not in pivots)
            found[pivots, free] = rows
    return np.array([found[key] for key in sorted(found)], dtype=np.int16).reshape(len(found), k, n)


@pytest.mark.parametrize("n,k,q", [(5, 2, 2), (4, 2, 3), (3, 1, 4), (4, 0, 2), (4, 4, 2), (6, 3, 2)])
def test_enumeration_matches_the_brute_force_order(n, k, q):
    field = field_from_size(q)
    assert np.array_equal(enumerate_grassmannian(n, k, field), reference_grassmannian(n, k, field))


def test_enumeration_of_a_large_grassmannian_is_fast():
    # G_2(9, 3) has 788 035 subspaces, filled block by block from counters
    start = time.perf_counter()
    subs = enumerate_grassmannian(9, 3, F2)
    assert time.perf_counter() - start < 1.0
    assert subs.shape == (788035, 3, 9)
    assert np.array_equal(subs[[0, -1]], [np.eye(9, dtype=int)[:3], np.eye(9, dtype=int)[6:]])


def test_enumeration_cap():
    # G_2(10, 5) has 109 221 651 >= 2^25 elements, refused by the bound alone
    with pytest.raises(ValueError, match=r"at least 2\^25 elements, above the cap 1000000"):
        enumerate_grassmannian(10, 5, F2)
    # G_2(20, 1) has 2^20 - 1 elements, over the cap although 2^19 is not
    with pytest.raises(ValueError, match="has 1048575 elements, above the cap 1000000"):
        enumerate_grassmannian(20, 1, F2)


def canonical(field, k, rows):
    """The canonical basis, shape ``(k, n)``, of the span of the rows of
    the 2-d ``rows``, which is at most k-dimensional: the rows padded
    with k zero rows, reduced, and cut to their first k."""
    rows = np.asarray(rows)
    padded = np.vstack([rows, np.zeros((k, rows.shape[1]), dtype=rows.dtype)])
    return np.array(backend.rref_destructive(padded, *field.kernel_views)[0][:k], dtype=np.int16)


def one_dim(field, vec, k=1):
    return canonical(field, k, [vec])


def dim(word):
    return int(np.count_nonzero(word.any(axis=1)))


def test_is_covering_code_accepts_spread():
    # the three lines of GF(2)^2: every pair spans the plane
    code = CoveringCode(field=F2, n=2, k=1, delta=1, alpha=2,
                        codewords=enumerate_grassmannian(2, 1, F2))
    ok, witness = is_covering_code(code)
    assert ok and witness is None


def test_is_covering_code_reports_worst_witness():
    e1 = one_dim(F2, [1, 0, 0])
    code = CoveringCode(field=F2, n=3, k=1, delta=1, alpha=2,
                        codewords=np.array([e1, e1, one_dim(F2, [0, 1, 0])]))
    ok, witness = is_covering_code(code)
    assert not ok
    assert witness.indices == (0, 1)
    assert witness.achieved_dim == 1
    assert witness.required_dim == 2


def test_is_covering_code_domain_errors():
    e1 = one_dim(F2, [1, 0])
    with pytest.raises(ValueError):
        is_covering_code(CoveringCode(field=F2, n=2, k=1, delta=1, alpha=2, codewords=[e1]))
    with pytest.raises(ValueError):
        is_covering_code(CoveringCode(field=F2, n=2, k=1, delta=2, alpha=2, codewords=[e1, e1]))


@pytest.mark.parametrize("rows", [
    [[2, 0, 0]],  # a line under a pivot of 2
    [[2, 0, 0], [0, 1, 0]],  # a plane under a pivot of 2
    [[1, 1, 0], [0, 1, 0]],  # a pivot column not cleared above
    [[1, 0, 2], [1, 0, 0]],  # a pivot column not cleared below
    [[0, 1, 0], [1, 0, 0]],  # pivots falling
    [[0, 0, 0], [1, 0, 0]],  # a zero row first
], ids=["line", "pivot-2", "above", "below", "falling", "zero-first"])
def test_verifier_refuses_one_subspace_in_two_bases(rows):
    # the rows span the subspace that the other codeword holds in
    # canonical form: grouped by rows, the two would count as distinct,
    # while two copies of one subspace span less than delta + k
    word = np.array(rows)
    k = len(rows)
    same = canonical(F3, k, word)
    assert not np.array_equal(word, same) and dim(same) == rank_of_array(word, F3)
    code = CoveringCode(field=F3, n=3, k=k, delta=1, alpha=2, codewords=np.array([same, word]))
    with pytest.raises(ValueError, match="not canonical"):
        is_covering_code(code)
    twice = CoveringCode(field=F3, n=3, k=k, delta=1, alpha=2, codewords=np.array([same, same]))
    assert is_covering_code(twice)[0] is False


def test_verifier_accepts_canonical_bases_in_any_layout():
    # a code keeps the view it is given, here the canonical MRD rows of a
    # transposed array, and the canonical check reads values, not strides
    mrd = covering_code_from_mrd(6, 3, 2, 2, 2)
    words = np.ascontiguousarray(mrd.codewords.transpose(0, 2, 1)).transpose(0, 2, 1)
    code = CoveringCode(field=F2, n=6, k=3, delta=2, alpha=2, codewords=words)
    assert code.codewords.shape == (64, 3, 6) and not code.codewords.flags.c_contiguous
    assert is_covering_code(code) == (True, None)


def reference_worst_witness(code):
    """Brute force: every size-alpha index tuple read with span_dim,
    keeping the least (achieved_dim, indices) among those that fall
    short."""
    need = code.delta + code.k
    spans = [(span_dim([code.codewords[i] for i in sel], code.field), sel)
             for sel in combinations(range(code.size), code.alpha)]
    short = [(got, sel) for got, sel in spans if got < need]
    if not short:
        return True, None
    got, sel = min(short)
    return False, CoverWitness(indices=sel, achieved_dim=got, required_dim=need)


def random_code(rng, field, alpha):
    """A code of alpha to alpha + 4 codewords of dimension at most k in
    GF(q)^n, n <= 5.  Each codeword is a fresh random span (often below
    k), the zero subspace, or the span of random combinations of an
    earlier codeword's basis, which gives the same subspace under another
    basis or a subspace nested inside it.  A third of the codes hold only
    fresh spans of k rows, which often pass."""
    n = int(rng.integers(2, 6))
    k = int(rng.integers(1, n))
    delta = int(rng.integers(1, n - k + 1))
    zero = np.zeros((1, n), dtype=np.int64)
    fresh_only = rng.random() < 1 / 3
    words = []
    for _ in range(int(rng.integers(alpha, alpha + 5))):
        pick = 1 if fresh_only else rng.random()
        if words and pick < 0.4:
            src = words[int(rng.integers(len(words)))]
            rows = zero
            if dim(src):
                mix = random_matrix(field, int(rng.integers(1, dim(src) + 2)), dim(src), rng)
                rows = product_of_arrays(mix.data, src[:dim(src)], field)
        elif pick < 0.5:
            rows = zero
        else:
            rows = random_matrix(field, k if fresh_only else int(rng.integers(1, k + 1)), n, rng).data
        words.append(canonical(field, k, rows))
    return CoveringCode(field=field, n=n, k=k, delta=delta, alpha=alpha, codewords=np.array(words))


@pytest.mark.parametrize("alpha", [2, 3, 4])
@pytest.mark.parametrize("q", [2, 3, 4, 5, 257])
def test_is_covering_code_matches_per_subset_reference(q, alpha):
    field = field_from_size(q)
    rng = np.random.default_rng(1000 * q + alpha)
    seen = set()
    for _ in range(60):
        code = random_code(rng, field, alpha)
        verdict = is_covering_code(code)
        assert verdict == reference_worst_witness(code)
        words = code.codewords
        dims = [dim(c) for c in words]
        need = code.delta + code.k
        seen.add("passes" if verdict[0] else "fails")
        if len({c.tobytes() for c in words}) < len(words):
            seen.add("repeat")
        if min(dims) < code.k:
            seen.add("below k")
        if 0 in dims:
            seen.add("dimension 0")
        if need - 1 in dims and min(dims) < need - 1:
            seen.add("mixed around need - 1")
        if code.delta >= 2:
            seen.add("delta >= 2")
        if any(dim(a) < dim(b) and span_dim([a, b], field) == dim(b) for a in words for b in words):
            seen.add("nested")
    assert seen >= {"passes", "fails", "repeat", "below k", "dimension 0",
                    "mixed around need - 1", "delta >= 2", "nested"}


@pytest.mark.parametrize("alpha", [2, 3])
@pytest.mark.parametrize("q", [2, 3, 4])
def test_repeated_codewords_of_one_dimension_match_the_scan(q, alpha):
    # all codewords of one dimension d with d + 1 >= delta + k: the groups
    # of equal codewords decide, and must agree with the per-subset scan
    field = field_from_size(q)
    rng = np.random.default_rng(100 * q + alpha)
    seen = set()
    for d, delta in [(2, 1), (2, 0), (1, 0)]:
        # the d-dimensional subspaces, padded to k = 2 rows
        pool = np.pad(enumerate_grassmannian(4, d, field), ((0, 0), (0, 2 - d), (0, 0)))
        for _ in range(15):
            picks = rng.choice(len(pool), size=3, replace=False)
            words = pool[picks[rng.integers(0, 3, size=rng.integers(alpha, 9))]]
            code = CoveringCode(field=field, n=4, k=2, delta=delta, alpha=alpha, codewords=words)
            verdict = is_covering_code(code)
            assert verdict == reference_worst_witness(code)
            if not verdict[0]:
                seen.add(("fails", d))
                if verdict[1].indices[0] > 0:
                    seen.add("witness after the first codeword")
            elif len({c.tobytes() for c in words}) < len(words):
                seen.add(("repeats pass", delta))
    assert seen >= {("fails", 2), ("fails", 1), ("repeats pass", 0),
                    "witness after the first codeword"}


@pytest.mark.parametrize("entries", [1, 50, 200])
def test_is_covering_code_agrees_across_batches(monkeypatch, entries):
    # one linalg.CHUNK_ENTRIES bounds the selections built and the stacks
    # ranked, alpha * k * n entries per selection, so 1 to 50 selections
    # per stack: the least witness must come through batch boundaries,
    # with repeats split between them
    shapes = []
    kernel = backend.rank_stack

    def recording(stack, *views):
        shapes.append(stack.shape)
        return kernel(stack, *views)

    monkeypatch.setattr(linalg, "CHUNK_ENTRIES", entries)
    monkeypatch.setattr(backend, "rank_stack", recording)
    for q, alpha in [(2, 2), (3, 3), (4, 2)]:
        field = field_from_size(q)
        rng = np.random.default_rng(10 * q + alpha + entries)
        for _ in range(30):
            code = random_code(rng, field, alpha)
            assert is_covering_code(code) == reference_worst_witness(code)
    assert shapes
    assert all(b * r * c <= max(entries, r * c) for b, r, c in shapes)
    assert max(b for b, _, _ in shapes) > 1 or entries == 1


def test_is_covering_code_tells_selections_apart_at_a_large_alpha():
    # 32 codewords at alpha = 31: the selections differ in one codeword
    # out of 31, and the one without the line off the plane must not
    # share a rank with those that hold it
    lines = enumerate_grassmannian(3, 1, F2)
    in_plane = np.array([span_dim([c, lines[0], lines[1]], F2) == 2 for c in lines])
    plane = lines[in_plane]
    words = np.concatenate([lines[~in_plane][:1], plane[np.arange(31) % 3]])
    code = CoveringCode(field=F2, n=3, k=1, delta=2, alpha=31, codewords=words)
    assert is_covering_code(code) == reference_worst_witness(code)
    assert is_covering_code(code)[1].indices == tuple(range(1, 32))


@pytest.fixture
def rank_calls(monkeypatch):
    """The matrices handed to either rank kernel, as lists of rows: each
    single matrix, and every matrix of each stack."""
    calls = []
    single, batched = backend.rank_destructive, backend.rank_stack

    def counting(m, *views):
        calls.append(m.tolist())
        return single(m, *views)

    def counting_stack(stack, *views):
        calls.extend(np.asarray(stack).tolist())
        return batched(stack, *views)

    monkeypatch.setattr(backend, "rank_destructive", counting)
    monkeypatch.setattr(backend, "rank_stack", counting_stack)
    return calls


def test_delta_one_pairs_need_no_rank_call(rank_calls):
    # any two distinct lines of GF(7)^3 span a plane
    assert max_covering_code(3, 1, 1, 2, field_from_size(7)).size == 57
    assert rank_calls == []


@pytest.mark.parametrize("point,size", [
    ((4, 2, 1, 2, 2), 35), ((3, 1, 1, 3, 3), 26), ((3, 1, 1, 3, 4), 42), ((4, 2, 1, 3, 4), 714),
], ids=str)
def test_delta_one_search_reads_no_span(rank_calls, point, size):
    # two distinct k-subspaces span k + 1, so only copies of one fall short
    n, k, delta, alpha, q = point
    result = max_covering_code(n, k, delta, alpha, field_from_size(q))
    assert (result.size, result.exact, rank_calls) == (size, True, [])


@pytest.mark.parametrize("alpha", [2, 3])
def test_delta_one_verifier_ranks_only_selections_with_the_lower_codeword(rank_calls, alpha):
    # planes of GF(3)^4 with repeats, and one line: two distinct planes
    # span 3 = delta + k, so every selection without the line is decided
    # by the groups of equal planes
    field = field_from_size(3)
    planes = enumerate_grassmannian(4, 2, field)
    rng = np.random.default_rng(alpha)
    line = one_dim(field, [1, 1, 0, 2], k=2)
    for place in (0, 3, 7):
        words = np.insert(planes[rng.integers(0, 6, size=7)], place, line, axis=0)
        code = CoveringCode(field=field, n=4, k=2, delta=1, alpha=alpha, codewords=words)
        rank_calls.clear()
        verdict = is_covering_code(code)
        assert 0 < len(rank_calls) <= comb(code.size - 1, alpha - 1)
        assert all(line[0].tolist() in rows for rows in rank_calls)
        assert verdict == reference_worst_witness(code)


def _stacks_n_columns(calls, n):
    return all(rows and all(len(row) == n for row in rows) for rows in calls)


def test_memo_hands_the_kernel_rows_by_n_columns(rank_calls):
    # the tracer reads each matrix's shape as (rows, cols); a code mixing
    # the zero subspace, a line and planes makes the memo stack all three
    field = field_from_size(3)
    planes = enumerate_grassmannian(4, 2, field)
    words = np.array([np.zeros((2, 4), dtype=np.int16), one_dim(field, [1, 2, 0, 1], k=2),
                      planes[0], planes[5], planes[9]])
    code = CoveringCode(field=field, n=4, k=2, delta=2, alpha=3, codewords=words)
    assert is_covering_code(code) == reference_worst_witness(code)
    assert rank_calls and _stacks_n_columns(rank_calls, 4)
    rank_calls.clear()
    assert max_covering_code(4, 1, 2, 3, F2).size == 8
    assert rank_calls and _stacks_n_columns(rank_calls, 4)


def test_delta_one_search_stays_small():
    # a level reads its parent's list, so the dive through 2850 planes
    # holds no copy per level
    field = field_from_size(7)
    tracemalloc.start()
    try:
        result = max_covering_code(4, 2, 1, 2, field)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (result.size, result.nodes, result.certified_by) == (2850, 2850, "bound:multiplicity")
    assert peak < 4 * 2**20


def test_verifier_shares_spans_between_repeated_codewords(rank_calls):
    # each lifted-MRD codeword appears alpha - 1 times, and each multiset of
    # alpha of the 16 distinct lifts, but alpha copies of one, is ranked
    # once: C(16+2, 3) - 16 = 800 at alpha 3, C(16+3, 4) - 16 = 3860 at 4
    codes = [covering_code_from_mrd(4, 2, 1, 3, 2), covering_code_from_mrd(4, 2, 2, 3, 4),
             covering_code_from_mrd(4, 2, 2, 4, 4)]
    # the construction's self-check ranks its codewords first
    rank_calls.clear()
    assert is_covering_code(codes[0]) == (True, None)
    assert rank_calls == []
    assert is_covering_code(codes[1]) == (True, None)
    assert len(rank_calls) == 800
    rank_calls.clear()
    assert is_covering_code(codes[2]) == (True, None)
    assert len(rank_calls) == 3860


def test_verifier_builds_only_the_multisets_the_code_holds(rank_calls):
    # the 31 points of PG(4, 2) once each at alpha = 30: the code holds
    # 31 multisets of 30 points, although 30 picks from 31 points with
    # repetition number C(60, 30)
    points = enumerate_grassmannian(5, 1, F2)
    code = CoveringCode(field=F2, n=5, k=1, delta=2, alpha=30, codewords=points)
    assert is_covering_code(code) == (True, None)
    assert len(rank_calls) == 31


@pytest.mark.parametrize("alpha", [2, 3, 4])
def test_verifier_ranks_exactly_the_multisets_that_hold_the_lower_codeword(rank_calls, alpha):
    # a line after twelve copies of ten distinct planes of GF(2)^4 at
    # delta = 1: every multiset without the line is decided by the groups
    # of equal planes, and each multiset with it is ranked once
    planes = enumerate_grassmannian(4, 2, F2)
    line = one_dim(F2, [1, 0, 1, 1], k=2)
    words = np.concatenate([planes[[0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 0, 1]], [line]])
    code = CoveringCode(field=F2, n=4, k=2, delta=1, alpha=alpha, codewords=words)
    keys = [c.tobytes() for c in code.codewords]
    ids = {c: i for i, c in enumerate(dict.fromkeys(keys))}
    holding = {tuple(sorted(ids[keys[i]] for i in sel))
               for sel in combinations(range(code.size), alpha) if code.size - 1 in sel}
    expected = reference_worst_witness(code)
    rank_calls.clear()
    assert is_covering_code(code) == expected
    assert len(rank_calls) == len(holding)
    assert all(line[0].tolist() in rows for rows in rank_calls)


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
    distinct = {c.tobytes() for c in result.code.codewords}
    assert len(distinct) == 3 and len(result.code.codewords) == 6


def test_max_code_exactness_flags():
    starved = max_covering_code(3, 1, 1, 2, F2, node_limit=3)
    assert not starved.exact
    assert starved.size <= 7
    assert starved.certified_by == "budget"
    early = max_covering_code(3, 1, 1, 2, F2, target_size=2)
    assert early.size == 2
    assert not early.exact
    assert early.certified_by == "target"


@pytest.mark.parametrize("certified_by,exact", [
    ("exhausted", True), ("bound:x", True), ("budget", False), ("target", False)])
def test_search_result_exact_is_read_from_its_stop(certified_by, exact):
    # exact is derived, so no result carries a flag its stop does not certify
    result = SearchResult(size=3, code=None, nodes=3, certified_by=certified_by)
    assert result.exact is exact
    with pytest.raises(AttributeError):
        result.exact = not exact
    with pytest.raises(TypeError):
        SearchResult(size=3, code=None, exact=exact, nodes=3, certified_by=certified_by)


@pytest.mark.parametrize("limit,certified_by", [(482, "exhausted"), (481, "budget")])
def test_max_code_budget_counts_only_the_nodes_tried(limit, certified_by):
    # the tree of (3,1,2,5,2) finishes in 482 nodes: a budget of exactly
    # that many lets it finish, one fewer stops at the limit
    result = max_covering_code(3, 1, 2, 5, F2, node_limit=limit)
    assert (result.nodes, result.certified_by) == (limit, certified_by)


def test_max_code_names_what_certified_it():
    # the five planes of a spread of GF(2)^4 meet the spread bound
    spread = max_covering_code(4, 2, 2, 2, F2)
    assert (spread.size, spread.exact, spread.certified_by) == (5, True, "bound:partial-spread")
    # eight points of PG(2, 2), every five spanning the plane, fall short
    # of the bound 9: only the finished tree certifies them
    points = max_covering_code(3, 1, 2, 5, F2)
    assert proven_upper(3, 1, 2, 5, 2) == (9, "johnson-hyperplane")
    assert (points.size, points.exact, points.certified_by) == (8, True, "exhausted")
    # a target that is also the bound certifies the maximum
    both = max_covering_code(4, 2, 2, 2, F2, target_size=5)
    assert (both.exact, both.certified_by) == (True, "bound:partial-spread")


def test_max_code_found_code_verifies():
    result = max_covering_code(4, 2, 1, 2, F2)
    assert result.exact
    ok, _ = is_covering_code(result.code)
    assert ok
    # every pair of planes spans >= 3 dimensions
    for i, a in enumerate(result.code.codewords):
        for b in result.code.codewords[i + 1:]:
            assert span_dim([a, b], F2) >= 3


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
            dims[key] = span_dim([cands[i] for i in key], field)
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
    assert proven_upper(n, k, delta, alpha, q)[0] >= result.size
    # the first codeword is fixed to candidate 0
    assert np.array_equal(result.code.codewords[0], enumerate_grassmannian(n, k, field)[0])
    if result.size >= alpha:
        assert is_covering_code(result.code)[0]


def test_max_code_node_counts():
    # the five planes of a spread of GF(2)^4, found in few extensions
    assert max_covering_code(4, 2, 2, 2, F2).nodes <= 100


#: Points whose search finishes in about 1 s with no bound to stop it,
#: covering the empty, multiplicity, spread, cap and hyperplane sources.
BOUND_GRID = [
    (2, 1, 1, 2, 2), (3, 1, 1, 3, 3), (4, 2, 1, 2, 2), (3, 2, 1, 3, 2),
    (3, 1, 2, 2, 2), (5, 1, 3, 2, 2),
    (3, 1, 2, 3, 2), (3, 1, 2, 3, 3), (3, 1, 2, 3, 4), (3, 1, 2, 3, 5),
    (4, 1, 2, 3, 2), (5, 1, 2, 3, 2),
    (4, 2, 2, 2, 2), (4, 2, 2, 2, 3),
    (3, 1, 2, 4, 2), (3, 1, 2, 4, 3), (4, 1, 2, 4, 2), (4, 1, 3, 4, 2),
    (3, 1, 2, 5, 2), (4, 1, 3, 5, 2), (3, 1, 2, 6, 2),
]


@pytest.mark.parametrize("point", BOUND_GRID, ids=str)
def test_proven_upper_holds_where_the_search_finishes(monkeypatch, point):
    n, k, delta, alpha, q = point
    field = field_from_size(q)
    upper = proven_upper(*point)
    stopped = max_covering_code(n, k, delta, alpha, field)
    # with no bound to stop it, the search runs to the end of its tree
    monkeypatch.setattr(grasscode, "proven_upper", lambda *p: (float("inf"), "none"))
    full = max_covering_code(n, k, delta, alpha, field)
    assert (full.exact, full.certified_by) == (True, "exhausted")
    assert upper[0] >= full.size
    # the best code is replaced only by a larger one, so the search that
    # meets the bound stops with the code the finished tree returns
    assert stopped.exact and np.array_equal(stopped.code.codewords, full.code.codewords)
    assert stopped.nodes <= full.nodes


#: Sizes of codes the search has found, each a lower bound on the maximum
#: (exact where the search or the bound certifies it): the suite's
#: pinned maxima, the benchmark's oracle points and larger searches.
FOUND_SIZES = {
    (2, 1, 1, 2, 2): 3, (3, 1, 1, 2, 2): 7, (2, 1, 1, 2, 3): 4, (3, 1, 2, 2, 2): 1,
    (2, 1, 1, 3, 2): 6, (5, 1, 3, 2, 2): 1, (3, 1, 1, 2, 7): 57, (4, 2, 1, 2, 2): 35,
    (4, 2, 2, 2, 2): 5, (3, 1, 1, 3, 3): 26, (3, 1, 1, 3, 4): 42, (4, 1, 2, 3, 2): 8,
    (4, 2, 2, 3, 2): 10, (5, 2, 1, 2, 3): 1210, (5, 2, 2, 2, 2): 9, (6, 2, 2, 2, 2): 21,
    (8, 2, 2, 2, 2): 85, (4, 2, 2, 2, 3): 10, (4, 2, 2, 2, 4): 17, (4, 2, 2, 3, 3): 20,
    (4, 2, 2, 3, 4): 34, (5, 2, 3, 3, 2): 8, (4, 1, 2, 3, 3): 10, (4, 1, 2, 3, 4): 17,
    (5, 1, 2, 3, 3): 20, (4, 2, 1, 3, 4): 714, (5, 2, 1, 2, 4): 5797,
}


def test_proven_upper_is_at_least_every_found_size():
    for point, size in FOUND_SIZES.items():
        assert proven_upper(*point)[0] >= size, point


@pytest.mark.parametrize("point,upper", [
    ((6, 2, 2, 2, 2), (21, "partial-spread")),
    ((5, 2, 2, 2, 2), (9, "beutelspacher")),
    ((4, 1, 2, 3, 2), (8, "binary-cap")),
    ((4, 1, 2, 3, 4), (17, "ovoid")),
    ((5, 1, 2, 3, 3), (20, "pellegrino")),
    ((3, 1, 2, 3, 7), (8, "arc")),
    ((2, 1, 1, 2, 1024), (1025, "multiplicity")),
    ((5, 2, 3, 3, 2), (8, "johnson-hyperplane")),
    ((6, 3, 2, 2, 2), (81, "johnson-point")),
    ((3, 1, 2, 2, 2), (1, "empty")),
], ids=str)
def test_proven_upper_values(point, upper):
    assert proven_upper(*point) == upper


def test_proven_upper_domain_errors():
    for point in [(3, 4, 1, 2, 2), (3, 1, 0, 2, 2), (3, 1, 1, 1, 2), (3, 1, 1, 2, 1)]:
        with pytest.raises(ValueError):
            proven_upper(*point)
    # a recursion over 2 x 5000 big-integer entries is refused at once
    with pytest.raises(ValueError, match=r"at least 64\^4999 elements, above the bound cap 2\^1024"):
        proven_upper(5000, 1, 1, 2, 64)


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
        CoveringCode(field=F2, n=2, k=1, delta=1, alpha=1, codewords=[e1, e1])
    code = CoveringCode(field=F2, n=2, k=1, delta=1, alpha=2, codewords=[e1, e1])
    assert code.codewords.dtype == np.int16 and not code.codewords.flags.writeable
