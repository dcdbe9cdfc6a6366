"""Networks, solutions, verification, search, and qs/qv decisions."""

import itertools
import time
import tracemalloc

import numpy as np
import pytest

from gcnet import backend, combnet, grasscode, linalg
from gcnet.combnet import (
    GapEstimate,
    LinearSolution,
    NetworkParams,
    SolvabilityClass,
    classify,
    compute_qs,
    compute_qv,
    estimate_gap,
    random_solution_search,
    simulate,
    solution_from_code,
    verify_solution,
)
from gcnet.ffield import field_from_size
from gcnet.grasscode import CoveringCode, is_covering_code
from gcnet.linalg import MatrixQ, product_of_arrays, random_matrix, rank_of_array
from gcnet.rankmetric import covering_code_from_mrd

F2 = field_from_size(2)
F11 = field_from_size(11)

THREE_LINE = NetworkParams(h=2, r=3, alpha=2, ell=1, epsilon=0)


def three_line_solution() -> LinearSolution:
    return LinearSolution(params=THREE_LINE, field=F2, t=1, matrices=[[[1, 0]], [[0, 1]], [[1, 1]]])


def test_classify_three_regimes():
    assert classify(NetworkParams(h=2, r=4, alpha=2, ell=1, epsilon=1)) is SolvabilityClass.TRIVIAL
    assert classify(THREE_LINE) is SolvabilityClass.NONTRIVIAL
    assert classify(NetworkParams(h=3, r=4, alpha=2, ell=1, epsilon=1)) is SolvabilityClass.NONTRIVIAL
    assert classify(NetworkParams(h=4, r=4, alpha=2, ell=1, epsilon=1)) is SolvabilityClass.UNSOLVABLE


def test_network_params_validation():
    with pytest.raises(ValueError):
        NetworkParams(h=2, r=3, alpha=1, ell=1, epsilon=0)
    with pytest.raises(ValueError):
        NetworkParams(h=2, r=1, alpha=2, ell=1, epsilon=0)
    with pytest.raises(ValueError):
        NetworkParams(h=0, r=3, alpha=2, ell=1, epsilon=0)
    with pytest.raises(ValueError):
        NetworkParams(h=2, r=3, alpha=2, ell=1, epsilon=-1)


def test_receivers_are_lexicographic():
    p = NetworkParams(h=2, r=4, alpha=2, ell=1, epsilon=0)
    assert p.n_receivers == 6
    assert list(p.receivers()) == list(itertools.combinations(range(4), 2))


def test_receivers_above_the_enumeration_limit_are_refused(monkeypatch):
    # C(7, 3) = 35 receivers: listed at a limit of 35, refused at 34, which
    # every caller reaches before it ranks anything
    p = NetworkParams(h=3, r=7, alpha=3, ell=1, epsilon=1)
    monkeypatch.setattr(grasscode, "ENUMERATION_LIMIT", 35)
    assert len(p.receivers()) == 35
    monkeypatch.setattr(grasscode, "ENUMERATION_LIMIT", 34)
    sol = LinearSolution(params=p, field=F2, t=1,
                         matrices=[[[1, i & 1, i >> 1 & 1]] for i in range(7)])
    for call in (p.receivers, lambda: verify_solution(sol), lambda: sol.decoder_plan,
                 lambda: random_solution_search(p, F2, 1, 1, 0)):
        with pytest.raises(ValueError, match=r"C\(7, 3\) receivers exceed the cap 34"):
            call()
    # C(10^6, 5 * 10^5) is decided without building it
    start = time.perf_counter()
    with pytest.raises(ValueError, match="exceed the cap 34"):
        NetworkParams(h=2, r=10**6, alpha=5 * 10**5, ell=1, epsilon=0).receivers()
    assert time.perf_counter() - start < 0.1


def test_random_search_refuses_a_draw_above_the_enumeration_limit():
    # one trial of the (3, 5, 2, 1, 1) network at t draws 5 * t * 3t
    # entries: 998 460 at t = 258, 1 006 215 at t = 259
    p = NetworkParams(h=3, r=5, alpha=2, ell=1, epsilon=1)
    assert random_solution_search(p, F2, 258, 0, 0) is None
    with pytest.raises(ValueError, match="one trial draws 1006215 entries, above the cap 1000000"):
        random_solution_search(p, F2, 259, 0, 0)


def test_verify_three_line_solution():
    ok, witness = verify_solution(three_line_solution())
    assert ok and witness is None


def test_verify_reports_first_violating_receiver():
    sol = LinearSolution(params=THREE_LINE, field=F2, t=1, matrices=[[[1, 0]], [[1, 0]], [[1, 1]]])
    ok, witness = verify_solution(sol)
    assert not ok
    assert witness == (0, 1)


def test_verify_unsolvable_raises():
    p = NetworkParams(h=5, r=4, alpha=2, ell=1, epsilon=1)
    sol = LinearSolution(params=p, field=F2, t=1, matrices=np.zeros((4, 1, 5), dtype=np.int16))
    with pytest.raises(ValueError):
        verify_solution(sol)


def test_solution_shape_validation():
    with pytest.raises(ValueError, match=r"shape \(3, 1, 2\), got shape \(2, 1, 2\)"):
        LinearSolution(params=THREE_LINE, field=F2, t=1, matrices=[[[1, 0]]] * 2)
    with pytest.raises(ValueError, match=r"shape \(3, 1, 2\), got shape \(3, 1, 3\)"):
        LinearSolution(params=THREE_LINE, field=F2, t=1, matrices=[[[1, 0, 0]]] * 3)
    with pytest.raises(ValueError, match="blocklength t must be >= 1"):
        LinearSolution(params=THREE_LINE, field=F2, t=0, matrices=np.zeros((3, 0, 0)))
    sol = three_line_solution()
    assert sol.matrices.dtype == np.int16 and not sol.matrices.flags.writeable


def test_code_solution_round_trip():
    sol = three_line_solution()
    assert THREE_LINE.code_params(1) == (2, 1, 1, 2)
    assert NetworkParams(h=4, r=6, alpha=3, ell=2, epsilon=1).code_params(3) == (12, 6, 3, 3)
    # the row spaces of the coding matrices form the network's covering code
    code = CoveringCode(field=F2, n=2, k=1, delta=1, alpha=2,
                        codewords=np.array([backend.rref_destructive(m, *F2.kernel_views)[0]
                                            for m in sol.matrices]))
    ok, _ = is_covering_code(code)
    assert ok
    back = solution_from_code(code, THREE_LINE, 1)
    ok, _ = verify_solution(back)
    assert ok


def test_solution_from_constructed_code():
    # the lifted-MRD code for (3,1,1,2) has 4 codewords: a network with
    # r=4 middle nodes, h=3, ell=1, eps=1
    code = covering_code_from_mrd(3, 1, 1, 2, 2)
    p = NetworkParams(h=3, r=4, alpha=2, ell=1, epsilon=1)
    sol = solution_from_code(code, p, 1)
    ok, witness = verify_solution(sol)
    assert ok, witness
    with pytest.raises(ValueError):
        solution_from_code(code, NetworkParams(h=3, r=5, alpha=2, ell=1, epsilon=1), 1)
    with pytest.raises(ValueError):
        solution_from_code(code, NetworkParams(h=4, r=4, alpha=2, ell=1, epsilon=1), 1)


def direct_links(sol):
    """Each receiver's ``(epsilon*t, h*t)`` direct-link matrix: the rows
    of its decoding system below its ``alpha*ell*t`` coding rows."""
    p = sol.params
    return sol.decoder_plan[0][:, p.alpha * p.ell * sol.t:]


def test_direct_link_matrices_complete_decoding():
    code = covering_code_from_mrd(3, 1, 1, 2, 2)
    p = NetworkParams(h=3, r=4, alpha=2, ell=1, epsilon=1)
    sol = solution_from_code(code, p, 1)
    bs = direct_links(sol)
    assert bs.shape == (p.n_receivers, p.epsilon * 1, p.h * 1)
    for recv, b in zip(p.receivers(), bs):
        stacked = np.vstack([*sol.matrices[list(recv)], b])
        assert rank_of_array(stacked, sol.field) == p.h * 1  # decodable: full column rank


def test_receiver_matrices_stack_each_receiver_over_its_direct_links():
    code = covering_code_from_mrd(3, 1, 1, 2, 2)
    p = NetworkParams(h=3, r=4, alpha=2, ell=1, epsilon=1)
    sol = solution_from_code(code, p, 1)
    plan = sol.decoder_plan
    assert sol.decoder_plan is plan  # built once per solution
    systems, decoders = plan
    coding = p.alpha * p.ell * sol.t
    for recv, m in zip(p.receivers(), systems):
        assert np.array_equal(m[:coding], np.vstack(sol.matrices[list(recv)]))
        # each direct link carries one message symbol
        assert np.array_equal(np.sort(m[coding:], axis=1)[:, -1], [1] * p.epsilon)
        assert np.count_nonzero(m[coding:]) == p.epsilon
    ident = np.eye(p.h * sol.t)
    assert all(np.array_equal(product_of_arrays(d, m, sol.field), ident)
               for d, m in zip(decoders, systems))
    assert not systems.flags.writeable and not decoders.flags.writeable


def reference_direct_links(sol):
    """Greedy unit-vector scan: take e_j whenever it raises the rank."""
    p = sol.params
    ht = p.h * sol.t
    out = []
    for subset in p.receivers():
        current = np.vstack(sol.matrices[list(subset)])
        rank = rank_of_array(current, sol.field)
        picked = []
        for j in range(ht):
            e = np.zeros((1, ht), dtype=np.int16)
            e[0, j] = 1
            trial = np.vstack([current, e])
            if rank_of_array(trial, sol.field) > rank:
                picked.append(j)
                current = trial
                rank += 1
        b = np.zeros((p.epsilon * sol.t, ht), dtype=np.int16)
        for row, j in enumerate(picked):
            b[row, j] = 1
        out.append(b)
    return out


DIRECT_LINK_NETWORKS = [
    NetworkParams(h=3, r=4, alpha=2, ell=1, epsilon=1),
    NetworkParams(h=4, r=4, alpha=2, ell=1, epsilon=2),
    NetworkParams(h=4, r=4, alpha=3, ell=1, epsilon=1),
    NetworkParams(h=3, r=3, alpha=2, ell=2, epsilon=0),
]


@pytest.mark.parametrize("q", [2, 3, 4, 16, 257])
@pytest.mark.parametrize("t", [1, 2, 3])
def test_direct_links_match_greedy_reference(q, t):
    field = field_from_size(q)
    rng = np.random.default_rng(1000 * q + t)
    receivers = 0
    for p in DIRECT_LINK_NETWORKS:
        for _ in range(12):
            mats = []
            for _ in range(p.r):
                a = rng.integers(0, q, size=(p.ell * t, p.h * t))
                # zero columns and repeated rows move the trailing pivots
                # and drop the rank below full
                if rng.random() < 0.5:
                    a[:, rng.random(p.h * t) < 0.2] = 0
                if p.ell * t > 1 and rng.random() < 0.3:
                    a[-1] = a[0]
                mats.append(a)
            sol = LinearSolution(params=p, field=field, t=t, matrices=mats)
            if not verify_solution(sol)[0]:
                continue
            systems, decoders = sol.decoder_plan
            ident = np.eye(p.h * t)
            for recv, b, m, d in zip(p.receivers(), reference_direct_links(sol), systems, decoders):
                assert np.array_equal(m, np.vstack([*sol.matrices[list(recv)], b]))
                assert np.array_equal(product_of_arrays(d, m, field), ident)
            receivers += p.n_receivers
    assert receivers >= 20


def reference_plan(sol):
    """The decoder plan one receiver at a time, each from its own
    ``backend.rref_destructive`` of ``[A reversed | I]``, with the
    ValueError of the first receiver that has too few ends."""
    p = sol.params
    n, a, e = p.h * sol.t, p.alpha * p.ell * sol.t, p.epsilon * sol.t
    need = (p.h - p.epsilon) * sol.t
    systems, decoders = [], []
    for subset in p.receivers():
        system = np.zeros((a + e, n), dtype=np.int16)
        decoder = np.zeros((n, a + e), dtype=np.int16)
        system[:a] = np.vstack(sol.matrices[list(subset)])
        rows, pivots = backend.rref_destructive(
            np.hstack([system[:a, ::-1], np.eye(a, dtype=np.int16)]), *sol.field.kernel_views)
        red = np.array(rows, dtype=np.int16).reshape(a, n + a)
        ends = [n - 1 - c for c in pivots if c < n]
        if len(ends) < need:
            raise ValueError(f"solution is invalid (witness subset {subset})")
        picked = [j for j in range(n) if j not in ends]
        for link, j in enumerate(picked):
            system[a + link, j] = 1
            decoder[j, a + link] = 1
        for row, end in enumerate(ends):
            decoder[end, :a] = red[row, n:]
            for link, j in enumerate(picked):
                decoder[end, a + link] = sol.field.neg_table[red[row, n - 1 - j]]
        systems.append(system)
        decoders.append(decoder)
    return np.array(systems), np.array(decoders)


#: The direct-link networks, one whose receivers stack 9 x 12 systems
#: at t = 3, and a TRIVIAL one with more direct links than coordinates.
PLAN_NETWORKS = DIRECT_LINK_NETWORKS + [NetworkParams(h=4, r=6, alpha=3, ell=1, epsilon=1),
                                        NetworkParams(h=2, r=3, alpha=2, ell=1, epsilon=3)]


@pytest.mark.parametrize("chunk", [1, 40, linalg.CHUNK_ENTRIES])
def test_decoder_plan_matches_the_per_receiver_reduction(monkeypatch, chunk):
    # the batched plan has the bytes of one reduction per receiver, and an
    # invalid solution names the same first witness, whatever the pass size
    monkeypatch.setattr(linalg, "CHUNK_ENTRIES", chunk)
    rng = np.random.default_rng(chunk)
    valid = invalid = 0
    for q in (2, 3, 4, 16, 257):
        field = field_from_size(q)
        for t in (1, 2, 3):
            for p in PLAN_NETWORKS:
                mats = rng.integers(0, q, size=(p.r, p.ell * t, p.h * t))
                if rng.random() < 0.5:
                    mats[:, :, rng.random(p.h * t) < 0.3] = 0
                if rng.random() < 0.3:
                    mats[rng.integers(p.r)] = 0
                sol = LinearSolution(params=p, field=field, t=t, matrices=mats)
                try:
                    want = reference_plan(sol)
                except ValueError as exc:
                    with pytest.raises(ValueError) as got:
                        sol.decoder_plan
                    assert str(got.value) == str(exc)
                    invalid += 1
                    continue
                systems, decoders = sol.decoder_plan
                assert systems.dtype == decoders.dtype == np.int16
                assert systems.shape == want[0].shape and decoders.shape == want[1].shape
                assert systems.tobytes() == want[0].tobytes()
                assert decoders.tobytes() == want[1].tobytes()
                valid += 1
    assert valid >= 20 and invalid >= 20


def test_direct_links_name_the_first_failing_receiver():
    # receivers (1, 2) and (2, 3) see only one line; (1, 2) comes first
    p = NetworkParams(h=2, r=4, alpha=2, ell=1, epsilon=0)
    sol = LinearSolution(params=p, field=F2, t=1, matrices=[[[1, 0]], [[0, 1]], [[0, 1]], [[0, 1]]])
    assert verify_solution(sol) == (False, (1, 2))
    with pytest.raises(ValueError, match=r"witness subset \(1, 2\)"):
        sol.decoder_plan
    with pytest.raises(ValueError, match=r"witness subset \(1, 2\)"):
        simulate(sol, MatrixQ(F2, [[1], [0]]))


def test_simulate_three_line():
    sol = three_line_solution()
    messages = MatrixQ(F2, [[1], [0]])
    decoded = simulate(sol, messages)
    assert len(decoded) == 3
    assert all(np.array_equal(d.data, messages.data) for d in decoded)


def test_simulate_seeded_sweep():
    code = covering_code_from_mrd(3, 1, 1, 2, 2)
    p = NetworkParams(h=3, r=4, alpha=2, ell=1, epsilon=1)
    sol = solution_from_code(code, p, 1)
    rng = np.random.default_rng(404)
    for _ in range(100):
        messages = random_matrix(F2, 3, 1, rng)
        assert all(np.array_equal(d.data, messages.data) for d in simulate(sol, messages))


def test_simulate_validates_message_shape():
    sol = three_line_solution()
    with pytest.raises(ValueError):
        simulate(sol, MatrixQ(F2, [[1, 0]]))


def test_random_search_finds_solution_at_q11():
    p = NetworkParams(h=3, r=3, alpha=2, ell=1, epsilon=1)
    sol = random_solution_search(p, F11, t=1, trials=1000, seed=0)
    assert sol is not None
    ok, _ = verify_solution(sol)
    assert ok


def test_random_search_is_deterministic():
    p = NetworkParams(h=3, r=3, alpha=2, ell=1, epsilon=1)
    a = random_solution_search(p, F11, t=1, trials=60, seed=7)
    b = random_solution_search(p, F11, t=1, trials=60, seed=7)
    assert (a.params, a.field, a.t) == (b.params, b.field, b.t)
    assert np.array_equal(a.matrices, b.matrices)


def test_random_search_wraps_only_the_draw_that_verifies(monkeypatch):
    # seed 0 passes at its fourth trial; a rejected draw is never
    # validated, and the one that passes is validated once, as one array
    p = NetworkParams(h=3, r=3, alpha=2, ell=1, epsilon=1)
    assert random_solution_search(p, F2, t=1, trials=1, seed=0) is None
    checked = []
    element_array = combnet.element_array

    def counting(field, data, shape):
        checked.append(shape)
        return element_array(field, data, shape)

    monkeypatch.setattr(combnet, "element_array", counting)
    sol = random_solution_search(p, F2, t=1, trials=1000, seed=0)
    assert checked == [(3, 1, 3)]
    assert verify_solution(sol) == (True, None)


#: (h, r, alpha, ell, eps, q, t) of the benchmark's ``verify`` searches
#: (``SEARCHES`` in perfbench/workloads.py): two networks just inside the
#: field-size threshold, where most trials fail, and two where nearly
#: every trial verifies.
BENCHMARK_SEARCHES = [
    (3, 5, 2, 1, 1, 2, 1),
    (3, 10, 2, 1, 1, 4, 1),
    (4, 6, 3, 1, 1, 16, 2),
    (3, 4, 2, 1, 1, 257, 1),
]


def first_verifying_trial(params, field, t, trials, seed):
    """The reference the search must agree with: trial i is the i-th draw
    of one generator seeded by ``seed``, every receiver ranked alone, and
    the first trial that verifies wins."""
    need = (params.h - params.epsilon) * t
    rng = np.random.default_rng(seed)
    for trial in range(trials):
        coding = rng.integers(0, field.q, size=(params.r, params.ell * t, params.h * t),
                              dtype=np.int64)
        if all(rank_of_array(coding[list(s)].reshape(-1, params.h * t), field) >= need
               for s in params.receivers()):
            return trial, coding
    return None, None


@pytest.mark.parametrize("net", BENCHMARK_SEARCHES, ids=str)
def test_block_search_returns_the_first_verifying_trial(net):
    h, r, alpha, ell, eps, q, t = net
    p, field = NetworkParams(h=h, r=r, alpha=alpha, ell=ell, epsilon=eps), field_from_size(q)
    later = 0
    for seed in range(50):
        trial, coding = first_verifying_trial(p, field, t, 2000, seed)
        sol = random_solution_search(p, field, t, 2000, seed)
        assert np.array_equal(sol.matrices, coding)
        later += trial > 0
    if q <= 4:
        assert later >= 40  # most searches need more than one trial


@pytest.mark.parametrize("trials", [3, 5])
def test_block_search_draws_no_trial_past_the_budget(monkeypatch, trials):
    # the q = 2 benchmark network fails about 93% of its trials; a miss
    # draws exactly the budget, and a hit stops at the trial that verifies
    p, field = NetworkParams(h=3, r=5, alpha=2, ell=1, epsilon=1), F2
    draws = []
    default_rng = np.random.default_rng

    class Counting:
        # a generator whose draws are counted, one count per search
        def __init__(self, seed):
            self.rng = default_rng(seed)
            draws.append(0)

        def integers(self, *args, **kwargs):
            draws[-1] += 1
            return self.rng.integers(*args, **kwargs)

    monkeypatch.setattr(np.random, "default_rng", Counting)
    found = [random_solution_search(p, field, 1, trials, seed) is not None for seed in range(50)]
    monkeypatch.undo()
    assert not all(found) and any(found)
    for seed, hit, count in zip(range(50), found, draws, strict=True):
        trial, _ = first_verifying_trial(p, field, 1, trials, seed)
        assert hit == (trial is not None)
        assert count == (trial + 1 if hit else trials)


def test_search_memory_does_not_grow_with_the_block():
    # (2, 6, 2, 1, 0) at q = 2, t = 8: each of the 15 receivers is a
    # square 16 x 16 matrix over GF(2), all invertible almost never, so no
    # trial verifies.  Holding 256 trials at once would take
    # 256 * 15 * 256 gathered int64 entries, about 7.5 MiB.
    p = NetworkParams(h=2, r=6, alpha=2, ell=1, epsilon=0)
    random_solution_search(p, F2, 8, 3, 0)
    tracemalloc.start()
    try:
        found = random_solution_search(p, F2, 8, 300, 0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert found is None
    assert peak < 1 << 20


def test_search_gathers_receivers_in_bounded_passes():
    # (2, 60, 2, 1, 0) at q = 2, t = 8: 1 770 receivers of 16 x 16 per
    # trial, almost never all invertible.  Gathering a trial's receivers
    # at once would hold 1 770 * 256 int64 entries, about 3.5 MiB.
    p = NetworkParams(h=2, r=60, alpha=2, ell=1, epsilon=0)
    random_solution_search(p, F2, 8, 3, 0)
    tracemalloc.start()
    try:
        found = random_solution_search(p, F2, 8, 50, 0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert found is None
    assert peak < 1 << 20


def test_search_stops_at_a_trials_first_short_receiver(monkeypatch):
    # the q = 2 benchmark network fails about 93% of its trials: each
    # receiver is ranked alone, in receivers() order, and a trial stops
    # at its first short receiver, so the search ranks, per trial of the
    # stream, that receiver's index plus one, or all R when it verifies
    p, field, trials = NetworkParams(h=3, r=5, alpha=2, ell=1, epsilon=1), F2, 5
    subsets = p.receivers()
    expected, drawn = [], 0
    for seed in range(50):
        hit, _ = first_verifying_trial(p, field, 1, trials, seed)
        rng = np.random.default_rng(seed)
        ranked = 0
        for trial in range(trials if hit is None else hit + 1):
            coding = rng.integers(0, field.q, size=(p.r, p.ell, p.h), dtype=np.int64)
            short = [i for i, s in enumerate(subsets)
                     if rank_of_array(coding[list(s)].reshape(-1, p.h), field) < p.h - p.epsilon]
            assert (trial == hit) == (not short)
            drawn += 1
            ranked += short[0] + 1 if short else len(subsets)
        expected.append(ranked)
    singles, stacks = [], []
    rank_destructive, rank_stack = backend.rank_destructive, backend.rank_stack

    def single(m, *views):
        singles.append(m.shape)
        return rank_destructive(m, *views)

    def stack(s, *views):
        stacks.append(s.shape)
        return rank_stack(s, *views)

    monkeypatch.setattr(backend, "rank_destructive", single)
    monkeypatch.setattr(backend, "rank_stack", stack)
    counts = []
    for seed in range(50):
        before = len(singles)
        random_solution_search(p, field, 1, trials, seed)
        counts.append(len(singles) - before)
    monkeypatch.undo()
    assert stacks == []
    assert counts == expected
    assert set(singles) == {(2, 3)}
    assert 2 * sum(expected) < drawn * len(subsets)  # most trials stop early


def first_short_receiver(sol):
    need = (sol.params.h - sol.params.epsilon) * sol.t
    return next((s for s in sol.params.receivers()
                 if rank_of_array(sol.matrices[list(s)].reshape(-1, sol.params.h * sol.t),
                                  sol.field) < need), None)


@pytest.mark.parametrize("entries", [1, 40, 200])
def test_receivers_are_ranked_in_bounded_stacks(monkeypatch, entries):
    # one linalg.CHUNK_ENTRIES bounds every stack the kernel sees, to one
    # receiver when a receiver alone holds more, and the verdicts,
    # witnesses and found trials agree with per-receiver ranks across
    # chunk boundaries
    p = NetworkParams(h=3, r=6, alpha=2, ell=1, epsilon=1)
    rng = np.random.default_rng(entries)
    sols = [LinearSolution(params=p, field=f, t=t, matrices=rng.integers(0, f.q, size=(6, t, 3 * t)))
            for f, t in [(F2, 1), (F2, 2), (field_from_size(4), 1)] for _ in range(10)]
    shapes = []
    kernel = backend.rank_stack

    def recording(stack, *views):
        shapes.append(stack.shape)
        return kernel(stack, *views)

    monkeypatch.setattr(linalg, "CHUNK_ENTRIES", entries)
    monkeypatch.setattr(backend, "rank_stack", recording)
    for sol in sols:
        bad = first_short_receiver(sol)
        assert verify_solution(sol) == (bad is None, bad)
    for seed in range(20):
        trial, coding = first_verifying_trial(p, F2, 1, 200, seed)
        sol = random_solution_search(p, F2, 1, 200, seed)
        assert np.array_equal(sol.matrices, coding)
    assert all(b * r * c <= max(entries, r * c) for b, r, c in shapes)
    assert max(b for b, _, _ in shapes) > 1 or entries == 1


def test_random_search_zero_trials():
    p = NetworkParams(h=3, r=3, alpha=2, ell=1, epsilon=1)
    assert random_solution_search(p, F11, t=1, trials=0, seed=0) is None


def test_random_search_miss_returns_none():
    # r=4 distinct lines needed but GF(2)^2 has only 3: no solution exists
    p = NetworkParams(h=2, r=4, alpha=2, ell=1, epsilon=0)
    assert random_solution_search(p, F2, t=1, trials=64, seed=3) is None


def test_compute_qs_values():
    assert compute_qs(NetworkParams(h=2, r=3, alpha=2, ell=1, epsilon=0)) == (2, True)
    assert compute_qs(NetworkParams(h=2, r=4, alpha=2, ell=1, epsilon=0)) == (3, True)
    assert compute_qs(NetworkParams(h=2, r=5, alpha=2, ell=1, epsilon=0)) == (4, True)


def test_compute_qs_trivial_and_unsolvable():
    assert compute_qs(NetworkParams(h=2, r=4, alpha=2, ell=1, epsilon=1)) == (2, True)
    with pytest.raises(ValueError):
        compute_qs(NetworkParams(h=5, r=4, alpha=2, ell=1, epsilon=1))


def test_compute_qs_cap_miss():
    q, exact = compute_qs(NetworkParams(h=2, r=8, alpha=2, ell=1, epsilon=0), q_cap=5)
    assert q is None and exact is False


def test_compute_qv_values():
    # scalar and vector optima coincide here: q^t = 3 needs q=3, t=1
    assert compute_qv(NetworkParams(h=2, r=4, alpha=2, ell=1, epsilon=0)) == (3, True)
    assert compute_qv(NetworkParams(h=2, r=3, alpha=2, ell=1, epsilon=0)) == (2, True)


#: Nine points of PG(2, q), every five of them spanning the plane: the
#: bound allows 9 at q = 2, where the search refutes it in 482 nodes, and
#: the search finds 9 at q = 3 in 266 nodes.
NINE_POINTS = NetworkParams(h=3, r=9, alpha=5, ell=1, epsilon=0)


def test_compute_qs_inexact_after_an_inconclusive_decision():
    assert compute_qs(NINE_POINTS, node_limit=300) == (3, False)
    assert compute_qs(NINE_POINTS, node_limit=481) == (3, False)
    assert compute_qs(NINE_POINTS, node_limit=482) == (3, True)


def test_compute_qs_is_exact_where_the_bound_refutes():
    # five points of PG(2, q), no three collinear: an arc of PG(2, q) has
    # at most q + 2 points, so q = 2 and 3 need no search, and q = 4
    # finds one in 6 nodes
    assert compute_qs(NetworkParams(h=3, r=5, alpha=3, ell=1, epsilon=0),
                      node_limit=6) == (4, True)


def test_compute_qv_inexact_after_an_inconclusive_decision():
    # q^t = 2 and 3 come before any t = 2 candidate
    assert compute_qv(NINE_POINTS, qt_cap=8, node_limit=300) == (3, False)
    assert compute_qv(NINE_POINTS, qt_cap=8, node_limit=482) == (3, True)


def count_calls(monkeypatch, module, name):
    """Wrap ``module.name`` so each call's arguments are recorded."""
    calls = []
    fn = getattr(module, name)

    def counted(*args, **kwargs):
        calls.append(args)
        return fn(*args, **kwargs)

    monkeypatch.setattr(module, name, counted)
    return calls


def test_budget_below_r_makes_no_search(monkeypatch):
    # r = 8 codewords need 8 search nodes, so a budget of 6 cannot say
    # yes at any (q, t): the answer comes before any Grassmannian is built
    calls = count_calls(monkeypatch, combnet, "max_covering_code")
    assert compute_qv(NetworkParams(h=3, r=8, alpha=2, ell=1, epsilon=1),
                      qt_cap=8, node_limit=6) == (None, False)
    assert compute_qs(NetworkParams(h=3, r=8, alpha=2, ell=1, epsilon=1),
                      node_limit=7) == (None, False)
    assert calls == []
    assert compute_qv(NINE_POINTS, qt_cap=8, node_limit=482) == (3, True)
    assert len(calls) == 2


@pytest.mark.parametrize("search", ["qs", "qv"])
def test_candidates_stop_at_the_field_order_limit(monkeypatch, search):
    # 18 points of PG(2, q), no three collinear: the arc bound q + 2
    # refutes every q < 16 with no field built, and the search needs 19
    # nodes to reach the hyperoval of PG(2, 16), so with fields capped at
    # 16 and a budget of 18 the search runs out of candidates without a
    # larger field; the small enumeration limit leaves the big
    # Grassmannians of qv undecided
    monkeypatch.setattr(combnet, "ORDER_LIMIT", 16)
    monkeypatch.setattr(grasscode, "ENUMERATION_LIMIT", 400)
    orders = count_calls(monkeypatch, combnet, "field_from_size")
    p = NetworkParams(h=3, r=18, alpha=3, ell=1, epsilon=0)
    if search == "qs":
        assert compute_qs(p, q_cap=1100, node_limit=18) == (None, False)
    else:
        assert compute_qv(p, qt_cap=32, node_limit=18) == (None, False)
    assert max(q for (q,) in orders) == 16


def test_grassmannian_above_the_enumeration_limit_is_inconclusive(monkeypatch):
    # seven points of PG(2, q), no three collinear: the arc bound refutes
    # q < 7, and the search finds one at q = 7 in G_7(3, 1), 57 points
    p = NetworkParams(h=3, r=7, alpha=3, ell=1, epsilon=0)
    monkeypatch.setattr(grasscode, "ENUMERATION_LIMIT", 100)
    assert compute_qs(p, q_cap=8) == (7, True)
    # q^t = 4 at (2, 2) needs G_2(6, 2), 651 lines, where the bound allows
    # 8: above the limit it cannot be refuted, so q^t = 7 is only an upper
    # bound
    assert compute_qv(p, qt_cap=8) == (7, False)


def test_the_bound_refutes_without_a_field_or_a_search(monkeypatch):
    # a line of GF(q)^2 has q + 1 points, below 2000 at every q <= 1024
    fields = count_calls(monkeypatch, combnet, "field_from_size")
    searches = count_calls(monkeypatch, combnet, "max_covering_code")
    start = time.perf_counter()
    assert compute_qs(NetworkParams(h=2, r=2000, alpha=2, ell=1, epsilon=0),
                      q_cap=1024) == (None, False)
    assert time.perf_counter() - start < 1
    assert fields == searches == []
    # q^t = 4 at (2, 2), 35 planes above a limit of 30, is refuted by the
    # spread bound 5 before any enumeration, so q^t = 5 stays exact
    monkeypatch.setattr(grasscode, "ENUMERATION_LIMIT", 30)
    assert compute_qv(NetworkParams(h=2, r=6, alpha=2, ell=1, epsilon=0),
                      qt_cap=8) == (5, True)


def test_grassmannians_above_both_caps_get_no_bound_and_no_search():
    start = time.perf_counter()
    assert compute_qs(NetworkParams(h=5000, r=3, alpha=2, ell=1, epsilon=4998)) == (None, False)
    assert time.perf_counter() - start < 1


def test_compute_qv_trivial():
    assert compute_qv(NetworkParams(h=2, r=4, alpha=2, ell=1, epsilon=1)) == (2, True)


def test_estimate_gap_zero_at_desk_scale():
    est = estimate_gap(NetworkParams(h=2, r=4, alpha=2, ell=1, epsilon=0), q_cap=8, qt_cap=8)
    assert est.solvability is SolvabilityClass.NONTRIVIAL
    assert est.qs == 3 and est.qv == 3
    assert est.qs_exact and est.qv_exact
    assert est.gap == 0.0


def test_gap_estimate_arithmetic():
    est = GapEstimate(solvability=SolvabilityClass.NONTRIVIAL, qs=8, qv=2,
                      qs_exact=True, qv_exact=True, q_cap=16, qt_cap=16)
    assert est.gap == 2.0
