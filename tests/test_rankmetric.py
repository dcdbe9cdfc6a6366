"""Rank-metric codes, lifting, and the derived covering codes."""

import itertools

import numpy as np
import pytest

from gcnet import backend, grasscode, rankmetric
from gcnet.ffield import field_from_size
from gcnet.grasscode import CoveringCode, is_covering_code
from gcnet.linalg import rank_of_array, span_dim
from gcnet.rankmetric import covering_code_from_mrd, gabidulin_code

F2 = field_from_size(2)


def rank_distance(f, a, b) -> int:
    return rank_of_array(f.add_table[a, f.neg_table[b]], f)


def with_identity(words):
    """The canonical bases ``[I | A]`` of the lifts of the words ``A``, one at a time."""
    return np.array([np.hstack([np.eye(len(a), dtype=np.int16), a]) for a in words])


@pytest.mark.parametrize("q,m,n,delta,size", [
    (2, 2, 2, 2, 4),
    (2, 2, 2, 1, 16),
    (2, 3, 2, 2, 8),   # tall matrices
    (3, 2, 3, 2, 27),  # wide matrices: the transposed orientation
    (3, 2, 2, 2, 9),
])
def test_gabidulin_cardinality_and_distance(q, m, n, delta, size):
    words = gabidulin_code(q, m, n, delta)
    assert isinstance(words, np.ndarray) and words.dtype == np.int16
    assert words.shape == (size, m, n) and len(words) == size
    assert not words.flags.writeable
    assert len({c.tobytes() for c in words}) == size
    # linearity makes pairwise distance equal nonzero-codeword rank,
    # but check a few true pairs anyway
    for a, b in itertools.combinations(words[:8], 2):
        assert rank_distance(field_from_size(q), a, b) >= delta


def test_gabidulin_distance_is_tight():
    words = gabidulin_code(2, 3, 3, 2)
    nonzero_ranks = {r for c in words if (r := rank_of_array(c, F2)) > 0}
    assert min(nonzero_ranks) == 2


def test_gabidulin_self_check_is_one_batched_rank_call(monkeypatch):
    # each code's nonzero codewords are ranked in one stack, with no
    # single-matrix rank call
    def refuse(*args):
        raise AssertionError("single-matrix rank call")

    stacks = []
    kernel = backend.rank_stack

    def recording(stack, *views):
        stacks.append(stack.shape)
        return kernel(stack, *views)

    monkeypatch.setattr(backend, "rank_destructive", refuse)
    monkeypatch.setattr(backend, "rank_stack", recording)
    assert len(gabidulin_code(4, 3, 3, 3)) == 64
    assert len(gabidulin_code(2, 4, 2, 1)) == 256
    assert stacks == [(63, 3, 3), (255, 4, 2)]


def test_gabidulin_self_check_reads_the_batched_ranks(monkeypatch):
    # a kernel that overstates every rank by one trips the check
    kernel = backend.rank_stack
    monkeypatch.setattr(backend, "rank_stack", lambda stack, *views: kernel(stack, *views) + 1)
    with pytest.raises(RuntimeError, match="minimum nonzero rank 3 != delta 2"):
        gabidulin_code(2, 3, 3, 2)


def test_gabidulin_self_check_runs_at_every_size(monkeypatch):
    # 2^14 = 16 384 codewords: the check still reads every nonzero rank
    kernel = backend.rank_stack
    monkeypatch.setattr(backend, "rank_stack", lambda stack, *views: kernel(stack, *views) + 1)
    with pytest.raises(RuntimeError, match="minimum nonzero rank 7 != delta 6"):
        gabidulin_code(2, 7, 7, 6)


def test_gabidulin_domain_errors():
    with pytest.raises(ValueError):
        gabidulin_code(2, 2, 2, 3)
    with pytest.raises(ValueError):
        gabidulin_code(2, 2, 2, 0)
    with pytest.raises(ValueError):
        gabidulin_code(2, 8, 8, 1)  # 2^64 codewords over the cap


def test_cardinality_limit_is_read_at_call_time(monkeypatch):
    # 16 codewords: under the default limit, over a patched one
    assert len(gabidulin_code(2, 2, 2, 1)) == 16
    monkeypatch.setattr(rankmetric, "CARDINALITY_LIMIT", 8)
    with pytest.raises(ValueError, match="exceeds the cap 8"):
        gabidulin_code(2, 2, 2, 1)
    with pytest.raises(ValueError, match="exceeds the cap 8"):
        covering_code_from_mrd(4, 2, 1, 2, 2)


def test_lift_shape_and_injectivity():
    words = gabidulin_code(2, 2, 2, 1)
    code = covering_code_from_mrd(4, 2, 1, 2, 2)
    assert code.codewords.shape == (16, 2, 4)
    assert len({c.tobytes() for c in code.codewords}) == 16
    assert all(rank_of_array(c, F2) == 2 for c in code.codewords)
    # the rows of [I | A] are the lifted subspace's canonical basis
    rows = words[3].tolist()
    assert code.codewords[3].tolist() == [[1, 0, *rows[0]], [0, 1, *rows[1]]]
    rows, _ = backend.rref_destructive(code.codewords[3], *F2.kernel_views)
    assert rows == code.codewords[3].tolist()


@pytest.mark.parametrize("q,n,k,delta", [(2, 4, 2, 2), (2, 4, 2, 1)])
def test_lifted_mrd_subspace_distance(q, n, k, delta):
    lifted = covering_code_from_mrd(n, k, delta, 2, q)
    assert len(lifted.codewords) == q ** (max(k, n - k) * (min(k, n - k) - delta + 1))
    assert isinstance(lifted, CoveringCode) and (lifted.k, lifted.alpha) == (k, 2)
    assert is_covering_code(lifted) == (True, None)
    # minimum subspace distance 2*delta means pairwise intersections
    # of the k-dim codewords have dimension at most k - delta, that is
    # pairwise spans of dimension at least k + delta
    for a, b in itertools.combinations(lifted.codewords, 2):
        assert span_dim([a, b], lifted.field) >= k + delta


@pytest.mark.parametrize("n,k,delta,alpha,q,size", [
    (3, 1, 1, 2, 2, 4),
    (3, 1, 1, 3, 2, 8),
    (4, 2, 1, 2, 2, 16),
    (4, 2, 2, 2, 2, 4),
    (4, 2, 2, 3, 4, 32),
    (4, 1, 1, 2, 3, 27),
    (5, 2, 2, 2, 2, 8),
    (5, 2, 1, 3, 2, 128),
    (6, 3, 2, 2, 2, 64),
])
def test_covering_code_construction(n, k, delta, alpha, q, size):
    code = covering_code_from_mrd(n, k, delta, alpha, q)
    assert code.size == size == (alpha - 1) * q ** (max(k, n - k) * (min(k, n - k) - delta + 1))
    assert code.n == n and code.k == k and code.delta == delta and code.alpha == alpha
    ok, witness = is_covering_code(code)
    assert ok, witness


def test_covering_code_repeats_the_lifted_gabidulin_code(monkeypatch):
    # alpha - 1 equal blocks of lift(w), one per Gabidulin codeword in
    # order, built with no single-matrix elimination
    def refuse(*args):
        raise AssertionError("single-matrix elimination")

    monkeypatch.setattr(backend, "rref_destructive", refuse)
    monkeypatch.setattr(backend, "rank_destructive", refuse)
    for n, k, delta, alpha, q in [(5, 2, 1, 3, 2), (5, 3, 1, 2, 3), (4, 2, 2, 4, 4)]:
        code = covering_code_from_mrd(n, k, delta, alpha, q)
        block = with_identity(gabidulin_code(q, k, n - k, delta))
        assert np.array_equal(code.codewords, np.concatenate([block] * (alpha - 1)))


def test_covering_code_above_the_enumeration_limit_is_refused(monkeypatch):
    # (alpha - 1) * 4 codewords at (3, 1, 1, alpha, 2): 8 are built, 12 refused
    monkeypatch.setattr(grasscode, "ENUMERATION_LIMIT", 8)
    assert covering_code_from_mrd(3, 1, 1, 3, 2).size == 8
    with pytest.raises(ValueError, match="covering code has 12 codewords, above the cap 8"):
        covering_code_from_mrd(3, 1, 1, 4, 2)
    # an MRD code above its own cap is named first, whatever alpha
    monkeypatch.setattr(rankmetric, "CARDINALITY_LIMIT", 8)
    with pytest.raises(ValueError, match="code size 2\\^4 exceeds the cap 8"):
        covering_code_from_mrd(4, 2, 1, 10**11, 2)


def test_covering_code_multiset_copies():
    # alpha - 1 identical blocks of lifts: verify the copy structure
    code = covering_code_from_mrd(3, 1, 1, 3, 2)
    assert code.size == 8
    block = code.codewords[:4]
    assert np.array_equal(code.codewords[4:], block)
    assert len({c.tobytes() for c in block}) == 4


def test_covering_code_domain_errors():
    with pytest.raises(ValueError):
        covering_code_from_mrd(3, 1, 0, 2, 2)
    with pytest.raises(ValueError):
        covering_code_from_mrd(3, 2, 2, 2, 2)  # delta + k > n
    with pytest.raises(ValueError):
        covering_code_from_mrd(3, 1, 1, 1, 2)
    with pytest.raises(ValueError):
        covering_code_from_mrd(3, 1, 2, 2, 2)  # delta > k
