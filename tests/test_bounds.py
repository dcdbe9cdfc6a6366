"""Bound evaluators: exact values, validity flags, and cross-checks."""

import math
import time
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from gcnet import bounds
from gcnet.bounds import (
    GAMMA,
    BoundReport,
    bad_event_prob_ub,
    beta,
    dependency_degree,
    dependency_degree_report,
    f_exponent,
    field_size_necessary,
    field_size_sufficient,
    g_exponent,
    gamma_exact,
    gap_lower_bound,
    gap_lower_bound_closed,
    middle_lb_lll,
    middle_lb_mrd,
    middle_ub_exact,
    middle_ub_pairwise,
    middle_ub_relaxed,
    theta,
)
from gcnet.ffield import field_from_size
from gcnet.grasscode import max_covering_code
from gcnet.linalg import gaussian_binomial


def test_constants_and_exponents():
    assert theta(4, 1, 0, 4) == 1
    assert theta(3, 1, 1, 2) == 1
    assert theta(2, 1, 1, 2) == 2
    assert beta(2) == pytest.approx(0.026428120773810515, rel=1e-12)
    assert f_exponent(3, 1, 1, 2, 1) == 2
    assert f_exponent(2, 1, 1, 2, 3) == 16  # quadratic in t: 9 + 6 + 1
    assert g_exponent(2, 1, 1, 4) == 20
    assert g_exponent(3, 1, 1, 1) == 2


def test_gamma_exact_values():
    assert gamma_exact(2) == pytest.approx(3.462746619455064, rel=1e-12)
    assert gamma_exact(3) == pytest.approx(1.7853123419985346, rel=1e-12)
    assert gamma_exact(4) == pytest.approx(1.4523536424495969, rel=1e-12)
    # the fixed default dominates every actual gamma_q
    for q in (2, 3, 4, 5, 7, 8, 9, 11, 13, 16):
        assert gamma_exact(q) < GAMMA


def test_q_binomial_sandwich_uses_gamma():
    for n in range(1, 9):
        for k in range(n + 1):
            for q in (2, 3, 4):
                val = gaussian_binomial(n, k, q)
                assert q ** (k * (n - k)) <= val < GAMMA * q ** (k * (n - k))


def test_middle_ub_exact_values():
    rep = middle_ub_exact(4, 1, 0, 4, 2, 1)
    assert rep.value == 5 and rep.valid
    rep = middle_ub_exact(4, 1, 0, 2, 2, 1)
    assert rep.value == -1 and not rep.valid
    assert rep.failed_assumptions() == ["alpha*ell >= h - eps"]


def test_middle_ub_relaxed_value():
    rep = middle_ub_relaxed(4, 1, 0, 4, 2, 1)
    assert rep.valid
    assert rep.value == pytest.approx(9.96, rel=1e-12)


def test_middle_ub_relaxed_dominates_exact_at_q3():
    # the floating relaxation stays above the exact count away from q=2
    for h in (2, 3, 4):
        for ell in (1, 2):
            for eps in (0, 1):
                for alpha in (2, 3, 4):
                    exact = middle_ub_exact(h, ell, eps, alpha, 3, 1)
                    relaxed = middle_ub_relaxed(h, ell, eps, alpha, 3, 1)
                    if exact.valid and relaxed.valid:
                        assert relaxed.value >= exact.value


def test_middle_ub_relaxed_q2_counterexample():
    # at q=2 the constant-gamma relaxation can dip below the exact value
    exact = middle_ub_exact(6, 2, 2, 3, 2, 1)
    relaxed = middle_ub_relaxed(6, 2, 2, 3, 2, 1)
    assert exact.valid and relaxed.valid
    assert exact.value == 456
    assert relaxed.value < exact.value
    # doubling gamma restores domination here and across the small sweep
    for h in (2, 3, 4, 5, 6):
        for ell in (1, 2):
            for eps in (0, 1, 2):
                for alpha in (2, 3, 4):
                    e = middle_ub_exact(h, ell, eps, alpha, 2, 1)
                    r2 = middle_ub_relaxed(h, ell, eps, alpha, 2, 1, gamma=2 * GAMMA)
                    if e.valid and r2.valid:
                        assert r2.value >= e.value


def test_middle_ub_pairwise_values():
    assert middle_ub_pairwise(2, 1, 0, 2, 1).value == 3
    assert middle_ub_pairwise(3, 1, 1, 2, 1).value == 7
    # m exceeds ell*t: the denominator q-binomial vanishes
    rep = middle_ub_pairwise(2, 1, 1, 2, 1)
    assert rep.value is None and not rep.valid


def test_middle_ub_pairwise_is_tight_at_line_cases():
    f2 = field_from_size(2)
    assert max_covering_code(2, 1, 1, 2, f2).size == middle_ub_pairwise(2, 1, 0, 2, 1).value
    assert max_covering_code(3, 1, 1, 2, f2).size == middle_ub_pairwise(3, 1, 1, 2, 1).value


def test_middle_lb_lll_value_and_variant():
    rep = middle_lb_lll(3, 1, 1, 2, 11, 1)
    assert rep.valid
    assert rep.value == pytest.approx(3.1978026136310724, rel=1e-12)
    assert rep.details["f"] == 2
    plus = middle_lb_lll(3, 1, 1, 2, 11, 1, plus_one=True)
    assert plus.value == pytest.approx(rep.value + 1.0, rel=1e-12)


def test_middle_lb_lll_flags_out_of_regime():
    assert not middle_lb_lll(2, 1, 1, 2, 2, 1).valid   # trivial: h <= ell+eps
    assert not middle_lb_lll(4, 1, 1, 2, 2, 1).valid   # unsolvable: h > alpha*ell+eps


def test_middle_lb_mrd_values_and_branches():
    rep = middle_lb_mrd(3, 1, 1, 2, 2, 1)
    assert rep.value == 4 and rep.valid
    assert rep.details["g"] == 2
    low = middle_lb_mrd(4, 2, 1, 2, 3, 1)
    assert low.value == (2 - 1) * 3 ** 4
    assert "ell*eps*t^2 + ell*t" in low.details["branch"]


@pytest.mark.parametrize("evaluate,last", [
    # leading exponents t(t+1), 2t(t+1) and 2t(t+1) at q = 2
    (lambda t: middle_ub_exact(3, 1, 1, 2, 2, t), 255),
    (lambda t: middle_lb_mrd(4, 2, 1, 2, 2, t), 180),
    (lambda t: middle_ub_pairwise(4, 2, 1, 2, t), 180),
], ids=["ub_exact", "lb_mrd", "pairwise"])
def test_exact_values_stop_at_the_limit(evaluate, last):
    kept, refused = evaluate(last), evaluate(last + 1)
    assert kept.valid and 2**65000 < kept.value < 2**65540
    assert (refused.value, refused.valid) == (None, False)
    assert refused.failed_assumptions() == ["leading power <= 2^65536"]
    assert bounds.EXACT_LIMIT == 2**65536


def test_exact_values_below_the_limit_build_no_larger_integers():
    # at eps >> ell, [eps+ell, eps]_q is computed as [eps+ell, ell]_q: a
    # 20 002-bit value does not build 20 000 factors of up to 20 001 bits
    for n, q in [(7, 2), (6, 3), (5, 4)]:
        assert all(gaussian_binomial(n, k, q) == gaussian_binomial(n, n - k, q)
                   for k in range(n + 1))
    start = time.perf_counter()
    rep = middle_ub_exact(20002, 1, 20000, 2, 2, 1)
    assert time.perf_counter() - start < 2
    assert rep.valid and rep.value == 2**20002 - 1


def test_middle_lb_mrd_below_brute_force_maximum():
    f2 = field_from_size(2)
    rep = middle_lb_mrd(3, 1, 1, 2, 2, 1)
    best = max_covering_code(3, 1, 1, 2, f2)
    assert best.exact
    assert rep.value <= best.size


def test_bad_event_prob_values():
    rep = bad_event_prob_ub(2, 1, 0, 2, 2, 1)
    assert rep.value == pytest.approx(3.48, rel=1e-12)  # vacuous but stated
    rep = bad_event_prob_ub(3, 1, 1, 2, 11, 1)
    assert rep.value == pytest.approx(0.0575206611570248, rel=1e-12)
    assert rep.details["exponent"] == -2


def test_dependency_degree_values():
    assert dependency_degree(5, 2) == (8, 7)
    rep = dependency_degree_report(5, 2)
    assert rep.valid and rep.value == 8 and rep.details == {"exact": 7}
    assert rep.assumptions == (("2 <= alpha <= r", True),)
    for r, alpha in ((3, 4), (3, 1)):
        with pytest.raises(ValueError):
            dependency_degree(r, alpha)
        rep = dependency_degree_report(r, alpha)
        assert not rep.valid and rep.value is None and rep.details == {"exact": None}


def test_dependency_degree_stops_at_the_limit():
    # at alpha = 2 the estimate is 2 * (r - 1): 2^65536 is kept, one more refused
    kept = dependency_degree_report(2**65535 + 1, 2)
    assert kept.valid and kept.value == 2**65536 and kept.details == {"exact": 2**65536 - 1}
    for r, alpha in ((2**65535 + 2, 2), (10**6, 10**5), (2**70, 10**6)):
        start = time.perf_counter()
        rep = dependency_degree_report(r, alpha)
        assert time.perf_counter() - start < 0.1
        assert (rep.value, rep.valid, rep.details) == (None, False, {"exact": None})
        assert rep.failed_assumptions() == ["leading power <= 2^65536"]
    # the largest r with 3 * C(r - 1, 2) <= 2^65536 is kept, exactly
    r = 2 + (math.isqrt(8 * (bounds.EXACT_LIMIT // 3) + 1) - 1) // 2
    assert 3 * math.comb(r - 1, 2) <= bounds.EXACT_LIMIT < 3 * math.comb(r, 2)
    assert dependency_degree_report(r, 3).value == 3 * math.comb(r - 1, 2)
    assert dependency_degree_report(r + 1, 3).value is None


def test_dependency_degree_dominates_exact():
    for r in range(2, 31):
        for alpha in range(2, r + 1):
            bound, exact = dependency_degree(r, alpha)
            assert exact <= bound


def test_field_size_necessary_value():
    rep = field_size_necessary(4, 1, 0, 4, 20, 1)
    assert rep.valid
    assert rep.value == pytest.approx(4.885057471264368, rel=1e-12)
    assert rep.details["case"] == "h >= 2ell+eps"


def test_field_size_sufficient_values():
    rep = field_size_sufficient(3, 1, 1, 2, 3, 1)
    assert rep.value == pytest.approx(10.654362916498092, rel=1e-12)
    assert rep.details["case"] == "h >= 2ell+eps"
    # the boundary h = 2ell+eps belongs to the first case
    rep = field_size_sufficient(2, 1, 0, 2, 3, 1)
    assert rep.value == pytest.approx(113.51544915644972, rel=1e-12)
    assert rep.details["case"] == "h >= 2ell+eps"
    rep = field_size_sufficient(4, 2, 1, 2, 3, 1)
    assert rep.value == pytest.approx(1.3160740129524924, rel=1e-12)
    assert rep.details["case"] == "h < 2ell+eps"
    assert rep.details["g"] == 4


def test_field_size_sufficient_matches_search_example():
    # q = 11 >= threshold 10.65: the seeded search does find a solution
    rep = field_size_sufficient(3, 1, 1, 2, 3, 1)
    assert rep.value < 11


def test_field_thresholds_necessary_below_sufficient():
    for h in (2, 3, 4, 5):
        for ell in (1, 2):
            for eps in (0, 1, 2):
                for alpha in (2, 3):
                    for r in (4, 16, 64, 256):
                        lo = field_size_necessary(h, ell, eps, alpha, r, 1)
                        hi = field_size_sufficient(h, ell, eps, alpha, r, 1)
                        if lo.valid and hi.valid and ell + eps < h <= alpha * ell + eps:
                            assert lo.value <= hi.value


def test_gap_lower_bound_values():
    rep = gap_lower_bound(2, 1, 1, 2, 2 ** 20)
    assert rep.valid
    assert rep.value == pytest.approx(5.100456346962998, rel=1e-12)
    assert rep.details["t"] == 4
    rep = gap_lower_bound(6, 2, 1, 3, 2 ** 20)
    assert rep.value == pytest.approx(-1.6997721704839668, rel=1e-12)
    assert rep.details["t"] == 6
    rep = gap_lower_bound(3, 1, 1, 2, 2)
    assert rep.value == pytest.approx(-6.899543653037002, rel=1e-12)
    assert rep.details["t"] == 6


def test_gap_lower_bound_slowest_scan_ends_valid():
    # f(t) = t + 1 and alpha - 1 = 170, the largest divisor with a finite
    # beta, with r/beta just below the double range: the longest scan
    rep = gap_lower_bound(170, 1, 0, 171, 2 ** 1023)
    assert rep.valid
    assert rep.details["t"] == 172902


def test_gap_bounds_with_a_huge_ell_do_not_raise():
    # f(1)/(alpha-1) is far beyond the double range: t = 1 passes at once
    ell = 10 ** 400
    rep = gap_lower_bound(2 * ell + 1, ell, 1, 3, 10)
    assert rep.details["t"] == 1
    assert rep.failed_assumptions() == ["finite"]
    # ell*(eps+1) does not convert to a float
    rep = gap_lower_bound_closed(2 * ell, ell, 1, 2, 10 ** 6)
    assert rep.value is None and rep.failed_assumptions() == ["finite"]


def test_gap_reads_the_two_field_size_thresholds():
    # gap = log2 field_size_necessary(t=1) - t, with t the first
    # blocklength whose sufficient threshold is at most 2^t
    checked = 0
    for h in range(1, 9):
        for ell in range(1, 4):
            for eps in range(4):
                for alpha in range(2, 6):
                    for r in (2, 3, 10, 100, 2**10, 2**20, 2**40, 2**60):
                        gap = gap_lower_bound(h, ell, eps, alpha, r)
                        if not gap.valid:
                            continue
                        checked += 1
                        t = gap.details["t"]
                        necessary = field_size_necessary(h, ell, eps, alpha, r, 1)
                        assert gap.value == pytest.approx(
                            math.log2(necessary.value) - t, rel=1e-12, abs=1e-12
                        )
                        assert field_size_sufficient(h, ell, eps, alpha, r, t).value <= (
                            2.0 ** t * (1 + 1e-12)
                        )
                        if t > 1:
                            below = field_size_sufficient(h, ell, eps, alpha, r, t - 1)
                            assert below.value > 2.0 ** (t - 1) * (1 - 1e-12)
    assert checked == 2451


@pytest.mark.parametrize("h, eps, r", [(2, 0, 5), (5, 1, 1000)])
def test_gap_lower_bound_scan_stops_when_f_stops_rising(monkeypatch, h, eps, r):
    # f(t) = 1 at (2, 1, 0, 2) and f(t) = -2t^2 - t + 1 at (5, 1, 1, 2):
    # no t passes, and the scan must stop at once
    calls = []

    def counting(*args):
        calls.append(args)
        return f_exponent(*args)

    monkeypatch.setattr(bounds, "f_exponent", counting)
    rep = gap_lower_bound(h, 1, eps, 2, r)
    assert rep.value is None and rep.details["t"] is None
    assert "t-search terminated" in rep.failed_assumptions()
    assert len(calls) <= 2


def test_gap_lower_bound_closed_values():
    rep = gap_lower_bound_closed(2, 1, 1, 2, 2 ** 20)
    assert rep.valid
    assert rep.value == pytest.approx(4.52786404500042, rel=1e-12)
    rep = gap_lower_bound_closed(6, 2, 1, 3, 2 ** 20)
    assert rep.value == pytest.approx(-2.395049972613175, rel=1e-12)


def test_gap_lower_bound_closed_rejects_no_direct_links():
    rep = gap_lower_bound_closed(2, 1, 0, 2, 1024)
    assert not rep.valid


def test_gap_closed_form_can_exceed_the_search_form():
    # the closed form is not a uniform lower bound for the searched one.
    # The overshoot (31.08) is not rounding: at h = 2ell+eps the searched
    # form takes the f-branch, where f(t) = t + 1 is linear and t = 35,
    # while the closed form takes the g-branch and subtracts only
    # sqrt(log2 r/(ell*eps)) = 3.87
    search = gap_lower_bound(5, 2, 1, 2, 2 ** 30)
    closed = gap_lower_bound_closed(5, 2, 1, 2, 2 ** 30)
    assert search.valid and closed.valid
    assert closed.value > search.value


def test_gap_grows_with_log_r():
    # not monotone per step: each jump of the searched blocklength dents
    # the value, but the overall trend follows log r
    values, ts = [], []
    for k in range(10, 31):
        rep = gap_lower_bound(2, 1, 1, 2, 2 ** k)
        assert rep.valid
        values.append(rep.value)
        ts.append(rep.details["t"])
    assert ts == sorted(ts)
    assert values[-1] > values[0] + 3
    # within a fixed blocklength the bound increases with r
    for (v1, t1), (v2, t2) in zip(zip(values, ts), zip(values[1:], ts[1:])):
        if t1 == t2:
            assert v2 > v1


def test_middle_ub_pairwise_flags_alpha_above_two():
    # at the three alpha = 3 points of the exhaustive search the pairwise
    # count falls below the certified maximum
    for (n, k, delta, q), value in {(3, 1, 1, 3): 13, (3, 1, 1, 4): 21, (4, 1, 2, 2): 1}.items():
        best = max_covering_code(n, k, delta, 3, field_from_size(q))
        rep = middle_ub_pairwise(n, k, n - k - delta, q, 1, alpha=3)
        assert best.exact and rep.value == value < best.size
        assert not rep.valid
        assert rep.failed_assumptions() == ["alpha == 2"]
    # alpha = 2 lists exactly the checks it always did
    rep = middle_ub_pairwise(3, 1, 1, 2, 1, alpha=2)
    assert rep.valid and [label for label, _ in rep.assumptions] == [
        "h, ell, t >= 1", "eps >= 0", "2*ell*t - (h-eps)*t + 1 >= 0",
        "m <= ell*t (denominator nonzero)",
    ]


def test_relaxed_forms_beyond_the_double_range():
    # q^(ell*t*(eps*t+1)) = 1024^1640 does not fit a double
    rep = middle_ub_relaxed(3, 1, 1, 2, 1024, 40)
    assert rep.value is None and not rep.valid
    assert rep.failed_assumptions() == ["finite"]
    # the exact forms stay exact
    assert middle_ub_exact(3, 1, 1, 2, 1024, 40).valid
    pair = middle_ub_pairwise(2, 1, 1, 2, 1100)
    assert pair.details["relaxed"] is None
    lll = middle_lb_lll(3, 1, 1, 2, 2, 2000)
    assert lll.value is None and "finite" in lll.failed_assumptions()


def test_middle_ub_relaxed_decides_overflow_before_the_power():
    def plain(h, ell, eps, alpha, q, t):
        th = theta(h, ell, eps, alpha)
        try:
            val = GAMMA * th * q ** (ell * t * (eps * t + 1)) + alpha - th
        except OverflowError:
            return None
        return val if math.isfinite(val) else None

    # the plain formula, bit for bit, up to and across the edge of the
    # double range: q^power crosses 2^1024 at power 1024 (q = 2) and
    # 646 (q = 3)
    points = [(h, ell, eps, alpha, q, t)
              for h in range(1, 9) for ell in range(1, 4) for eps in range(4)
              for alpha in range(2, 6) for q in (2, 3, 4, 5, 16, 257, 1024) for t in range(1, 5)]
    points += [(2 * ell, ell, 0, 2, 2, 1) for ell in range(1015, 1031)]
    points += [(2 * ell, ell, 0, 2, 3, 1) for ell in range(640, 652)]
    finite = 0
    for point in points:
        got, want = middle_ub_relaxed(*point).value, plain(*point)
        assert (got is None) == (want is None), point
        if want is not None:
            assert type(got) is float and got.hex() == want.hex(), point
            finite += 1
    assert finite > 1000
    # far beyond the range the answer comes without building q^power,
    # which takes seconds here or never finishes
    for point in [(3, 1, 1, 2, 1024, 2000), (3, 10**400, 1, 2, 1024, 1)]:
        start = time.perf_counter()
        rep = middle_ub_relaxed(*point)
        assert time.perf_counter() - start < 0.05
        assert rep.value is None and "finite" in rep.failed_assumptions()


def test_middle_ub_relaxed_at_an_int_beyond_the_double_range():
    # an int gamma keeps the value an exact int, 2**1024 here, which
    # isfinite cannot convert
    rep = middle_ub_relaxed(2048, 1024, 0, 2, 2, 1, gamma=1)
    assert rep.value is None and not rep.valid
    assert rep.failed_assumptions() == ["finite"]


def _float_value_is_finite(rep: BoundReport) -> bool:
    return isinstance(rep.value, (int, Fraction)) or math.isfinite(rep.value)


@settings(max_examples=300, deadline=None)
@given(
    h=st.integers(-2, 24),
    ell=st.integers(-2, 6),
    eps=st.integers(-2, 6),
    alpha=st.one_of(st.integers(-1, 12), st.integers(150, 400)),
    q=st.integers(-1, 1024),
    t=st.integers(-2, 16),
    r=st.one_of(st.integers(-2, 10**4), st.integers(1, 2**1100)),
    gamma=st.one_of(
        st.just(GAMMA),
        st.floats(1.0, 1e6),
        st.sampled_from([0.0, -1.0, 1e-320, 1e308, math.inf, math.nan]),
    ),
    plus_one=st.booleans(),
)
def test_bound_evaluators_never_raise(h, ell, eps, alpha, q, t, r, gamma, plus_one):
    reports = [
        middle_ub_exact(h, ell, eps, alpha, q, t),
        middle_ub_relaxed(h, ell, eps, alpha, q, t, gamma=gamma),
        middle_ub_pairwise(h, ell, eps, q, t, gamma=gamma, alpha=alpha),
        middle_lb_lll(h, ell, eps, alpha, q, t, gamma=gamma, plus_one=plus_one),
        middle_lb_mrd(h, ell, eps, alpha, q, t),
        bad_event_prob_ub(h, ell, eps, alpha, q, t, gamma=gamma),
        field_size_necessary(h, ell, eps, alpha, r, t, gamma=gamma),
        field_size_sufficient(h, ell, eps, alpha, r, t, gamma=gamma),
        gap_lower_bound(h, ell, eps, alpha, r, gamma=gamma),
        gap_lower_bound_closed(h, ell, eps, alpha, r, gamma=gamma),
    ]
    for rep in reports:
        assert isinstance(rep, BoundReport)
        if rep.valid:
            assert rep.value is not None and _float_value_is_finite(rep)
