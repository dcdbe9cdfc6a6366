"""Networks, solutions, verification, search, and qs/qv decisions."""

import itertools
import time

import numpy as np
import pytest

from gcnet import combnet, grasscode
from gcnet.combnet import (
    GapEstimate,
    LinearSolution,
    NetworkParams,
    SolvabilityClass,
    classify,
    code_from_solution,
    compute_qs,
    compute_qv,
    derive_direct_link_matrices,
    estimate_gap,
    random_solution_search,
    simulate,
    solution_from_code,
    verify_solution,
)
from gcnet.ffield import field_from_size
from gcnet.grasscode import is_covering_code
from gcnet.linalg import MatrixQ, random_matrix, rank_of_array, stack_matrices
from gcnet.rankmetric import covering_code_from_mrd

F2 = field_from_size(2)
F11 = field_from_size(11)

THREE_LINE = NetworkParams(h=2, r=3, alpha=2, ell=1, epsilon=0)


def three_line_solution() -> LinearSolution:
    mats = (MatrixQ(F2, [[1, 0]]), MatrixQ(F2, [[0, 1]]), MatrixQ(F2, [[1, 1]]))
    return LinearSolution(params=THREE_LINE, field=F2, t=1, matrices=mats)


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


def test_verify_three_line_solution():
    ok, witness = verify_solution(three_line_solution())
    assert ok and witness is None


def test_verify_reports_first_violating_receiver():
    a = MatrixQ(F2, [[1, 0]])
    sol = LinearSolution(params=THREE_LINE, field=F2, t=1,
                         matrices=(a, a, MatrixQ(F2, [[1, 1]])))
    ok, witness = verify_solution(sol)
    assert not ok
    assert witness == (0, 1)


def test_verify_unsolvable_raises():
    p = NetworkParams(h=5, r=4, alpha=2, ell=1, epsilon=1)
    mats = tuple(MatrixQ.zeros(F2, 1, 5) for _ in range(4))
    sol = LinearSolution(params=p, field=F2, t=1, matrices=mats)
    with pytest.raises(ValueError):
        verify_solution(sol)


def test_solution_shape_validation():
    with pytest.raises(ValueError):
        LinearSolution(params=THREE_LINE, field=F2, t=1,
                       matrices=(MatrixQ(F2, [[1, 0]]),) * 2)
    with pytest.raises(ValueError):
        LinearSolution(params=THREE_LINE, field=F2, t=1,
                       matrices=(MatrixQ(F2, [[1, 0, 0]]),) * 3)


def test_code_solution_round_trip():
    sol = three_line_solution()
    code = code_from_solution(sol)
    assert (code.n, code.k, code.delta, code.alpha) == (2, 1, 1, 2)
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


def test_direct_link_matrices_complete_decoding():
    code = covering_code_from_mrd(3, 1, 1, 2, 2)
    p = NetworkParams(h=3, r=4, alpha=2, ell=1, epsilon=1)
    sol = solution_from_code(code, p, 1)
    bs = derive_direct_link_matrices(sol)
    assert len(bs) == p.n_receivers
    for recv, b in zip(p.receivers(), bs):
        assert b.rows == p.epsilon * 1 and b.cols == p.h * 1
        stacked = stack_matrices([sol.matrices[i] for i in recv] + [b])
        assert stacked.rank() == p.h * 1  # decodable: full column rank


def test_receiver_matrices_stack_each_receiver_over_its_direct_links():
    code = covering_code_from_mrd(3, 1, 1, 2, 2)
    p = NetworkParams(h=3, r=4, alpha=2, ell=1, epsilon=1)
    sol = solution_from_code(code, p, 1)
    plan = sol.decoder_plan
    assert sol.decoder_plan is plan  # built once per solution
    systems, decoders = plan
    want = [stack_matrices([sol.matrices[i] for i in recv] + [b])
            for recv, b in zip(p.receivers(), derive_direct_link_matrices(sol))]
    assert [MatrixQ(sol.field, m) for m in systems] == want
    ident = MatrixQ.identity(sol.field, p.h * sol.t)
    assert all(MatrixQ(sol.field, d) @ m == ident for d, m in zip(decoders, want))
    assert not systems.flags.writeable and not decoders.flags.writeable


def reference_direct_links(sol):
    """Greedy unit-vector scan: take e_j whenever it raises the rank."""
    p = sol.params
    ht = p.h * sol.t
    out = []
    for subset in p.receivers():
        current = np.vstack([sol.matrices[i].data for i in subset])
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
        out.append(MatrixQ(sol.field, b))
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
                mats.append(MatrixQ(field, a))
            sol = LinearSolution(params=p, field=field, t=t, matrices=tuple(mats))
            if not verify_solution(sol)[0]:
                continue
            links = reference_direct_links(sol)
            assert derive_direct_link_matrices(sol) == links
            systems, decoders = sol.decoder_plan
            ident = MatrixQ.identity(field, p.h * t)
            for recv, b, m, d in zip(p.receivers(), links, systems, decoders):
                assert MatrixQ(field, m) == stack_matrices([sol.matrices[i] for i in recv] + [b])
                assert MatrixQ(field, d) @ MatrixQ(field, m) == ident
            receivers += p.n_receivers
    assert receivers >= 20


def test_direct_links_name_the_first_failing_receiver():
    # receivers (1, 2) and (2, 3) see only one line; (1, 2) comes first
    p = NetworkParams(h=2, r=4, alpha=2, ell=1, epsilon=0)
    a, b, c = MatrixQ(F2, [[1, 0]]), MatrixQ(F2, [[0, 1]]), MatrixQ(F2, [[1, 1]])
    sol = LinearSolution(params=p, field=F2, t=1, matrices=(a, b, b, b))
    assert verify_solution(sol) == (False, (1, 2))
    with pytest.raises(ValueError, match=r"witness subset \(1, 2\)"):
        derive_direct_link_matrices(sol)
    with pytest.raises(ValueError, match=r"witness subset \(1, 2\)"):
        simulate(sol, MatrixQ(F2, [[1], [0]]))


def test_simulate_three_line():
    sol = three_line_solution()
    messages = MatrixQ(F2, [[1], [0]])
    decoded = simulate(sol, messages)
    assert len(decoded) == 3
    assert all(d == messages for d in decoded)


def test_simulate_seeded_sweep():
    code = covering_code_from_mrd(3, 1, 1, 2, 2)
    p = NetworkParams(h=3, r=4, alpha=2, ell=1, epsilon=1)
    sol = solution_from_code(code, p, 1)
    rng = np.random.default_rng(404)
    for _ in range(100):
        messages = random_matrix(F2, 3, 1, rng)
        assert all(d == messages for d in simulate(sol, messages))


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
    assert a == b


def test_random_search_wraps_only_the_draw_that_verifies(monkeypatch):
    # seed 1 passes at its fourth trial; a rejected draw stays one array
    p = NetworkParams(h=3, r=3, alpha=2, ell=1, epsilon=1)
    assert random_solution_search(p, F2, t=1, trials=1, seed=1) is None
    built = {"MatrixQ": 0, "LinearSolution": 0}

    def counting(cls, init):
        def wrapper(self, *args, **kwargs):
            built[cls.__name__] += 1
            init(self, *args, **kwargs)
        monkeypatch.setattr(cls, init.__name__, wrapper)

    counting(MatrixQ, MatrixQ.__init__)
    counting(LinearSolution, LinearSolution.__post_init__)
    sol = random_solution_search(p, F2, t=1, trials=1000, seed=1)
    assert built == {"MatrixQ": 3, "LinearSolution": 1}
    assert verify_solution(sol) == (True, None)


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


def test_code_params_matches_code_from_solution():
    sol = three_line_solution()
    code = code_from_solution(sol)
    assert (code.n, code.k, code.delta, code.alpha) == THREE_LINE.code_params(1)
    assert NetworkParams(h=4, r=6, alpha=3, ell=2, epsilon=1).code_params(3) == (12, 6, 3, 3)


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
