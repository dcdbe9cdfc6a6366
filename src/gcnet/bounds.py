"""Closed-form bounds on network size, field size and the scalar/vector gap.

Every evaluator returns a :class:`BoundReport` rather than raising on a
domain violation: parameter sweeps must not abort mid-table, so side
conditions are recorded as named assumption checks and ``valid`` is the
conjunction.  Values are exact (int or Fraction) where the formula is
integral and double-precision floats where it involves the constants
``gamma`` (the q-binomial ratio bound, 3.48 by default) or ``beta``
(the random-coding constant).  A value that cannot be computed at all
(division by zero, log of a non-positive number) is reported as None
with ``valid=False``.  That covers every input outside the basic domain
(see :func:`_evaluable`), and real values beyond the double range,
which carry a failing ``finite`` check instead of raising
``OverflowError``.

Shared constants and exponents:

- ``theta(h, ell, eps, alpha) = alpha - floor((h-eps)/ell) + 1``
- ``f(t) = (alpha*ell+eps-h)*eps*t^2 + (alpha*ell+2*eps-h)*t + 1``,
  the exponent of the random-coding (local lemma) lower bound,
- ``g(t) = max(ell*t, (h-ell)*t) * (min(ell*t, (h-ell)*t) - (h-ell-eps)*t + 1)``,
  the exponent of the rank-metric construction lower bound.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dc_field
from fractions import Fraction
from math import comb, e as EULER_E, factorial, inf, isfinite, log2, sqrt
from typing import Callable, NamedTuple, Optional, Union

from .ffield import comb_exceeds, power_exceeds
from .linalg import gaussian_binomial

#: Default constant bounding [n k]_q / q^(k(n-k)) from above, any q >= 2.
GAMMA = 3.48

#: Largest leading power ``q**e`` the exact evaluators build a value
#: from, and largest union-bound count of ``dependency_degree_report``.
#: Past it the value is reported as None with a failing check, decided
#: from the exponent or from bit lengths before any big integer is
#: built: exact values grow as q^(c*t^2) and the count as r^(alpha-1),
#: and printing one of millions of bits takes minutes.  The largest
#: value the tests and the benchmark pin has 16 401 bits.
EXACT_LIMIT = 2**65536

Number = Union[int, float, Fraction]


def gamma_exact(q: int) -> float:
    """The exact supremum of [n k]_q / q^(k(n-k)): prod_{i>=1} (1-q^-i)^-1."""
    if q < 2:
        raise ValueError("need q >= 2")
    prod = 1.0
    i = 1
    while True:
        nxt = prod / (1.0 - q**-i)
        if nxt == prod:
            return prod
        prod = nxt
        i += 1


def theta(h: int, ell: int, eps: int, alpha: int) -> int:
    """Hyperplane-count parameter of the scalar upper bounds."""
    return alpha - (h - eps) // ell + 1


def beta(alpha: int, gamma: float = GAMMA) -> float:
    """Random-coding constant ((alpha-1)! / (2 e gamma alpha))^(1/(alpha-1))."""
    if alpha < 2:
        raise ValueError("need alpha >= 2")
    return (factorial(alpha - 1) / (2 * EULER_E * gamma * alpha)) ** (1.0 / (alpha - 1))


def f_exponent(h: int, ell: int, eps: int, alpha: int, t: int) -> int:
    """Exponent polynomial of the random-coding lower bound."""
    return (alpha * ell + eps - h) * eps * t * t + (alpha * ell + 2 * eps - h) * t + 1


def g_exponent(h: int, ell: int, eps: int, t: int) -> int:
    """Exponent polynomial of the rank-metric lower bound."""
    a = max(ell * t, (h - ell) * t)
    b = min(ell * t, (h - ell) * t)
    return a * (b - (h - ell - eps) * t + 1)


@dataclass(frozen=True)
class BoundReport:
    """A bound value together with its validity domain audit trail."""

    name: str
    value: Optional[Number]
    valid: bool
    assumptions: tuple[tuple[str, bool], ...]
    details: dict = dc_field(default_factory=dict)

    def failed_assumptions(self) -> list[str]:
        return [name for name, ok in self.assumptions if not ok]


def _evaluable(h: int, ell: int, eps: int, alpha: int = 2, q: int = 2, t: int = 1, r: int = 1,
               gamma: float = GAMMA) -> bool:
    """The basic domain on which the formulas can be evaluated at all:
    ``h, ell, t, r >= 1``, ``eps >= 0``, ``alpha >= 2``, ``q >= 2`` and
    a positive finite ``gamma``.  Outside it an evaluator reports None;
    every such input but ``q`` and ``gamma`` also fails one of its
    listed checks.  Arguments a formula does not take keep their
    defaults."""
    return (h >= 1 and ell >= 1 and t >= 1 and r >= 1 and eps >= 0 and alpha >= 2 and q >= 2
            and 0 < gamma < inf)


def _finite(compute) -> Optional[float]:
    """The real value ``compute()`` returns, or None when it leaves the
    double range: an ``OverflowError``, also the one ``isfinite`` raises
    on an int of 2**1024 or more, or an infinite result."""
    try:
        val = compute()
        return val if isfinite(val) else None
    except OverflowError:
        return None


def _beta_or_none(alpha: int, gamma: float) -> Optional[float]:
    """:func:`beta`, or None where it leaves the double range: the
    factorial overflows for alpha above 171, and an extreme gamma drives
    the value to 0 or infinity."""
    if alpha > 171:  # decided without computing the factorial
        return None
    return _finite(lambda: beta(alpha, gamma)) or None


def _log2_ratio(num: Number, den: float) -> float:
    """``log2(num/den)`` for positive ``num`` and ``den``.  A ratio that
    left the double range (``den`` overflowed to infinity, so the ratio
    is 0) raises ``OverflowError`` for :func:`_finite` to report."""
    ratio = num / den
    if ratio <= 0:
        raise OverflowError("ratio underflows the double range")
    return log2(ratio)


def _pow2_at_least(num: int, den: int, y: float) -> bool:
    """``2**(num/den) >= y`` for a finite ``y``, without overflowing at a
    large ``num``: from ``num/den >= 1024`` on it holds outright.  The
    divisor ``den`` is 1 or ``alpha - 1 <= 170`` (beta is finite only for
    alpha <= 171), so ``num/den`` stays below 1024 when ``num`` does
    not reach ``1024*den``."""
    return num >= 1024 * den or 2.0 ** (num / den) >= y


#: The check an evaluator adds when its real value leaves the double range.
_NOT_FINITE = ("finite", False)

#: The check an exact evaluator adds when its value's leading power of q,
#: or the union-bound dependency count, exceeds ``EXACT_LIMIT``.
_TOO_LARGE = (f"leading power <= 2^{EXACT_LIMIT.bit_length() - 1}", False)


def _report(name: str, value, checks: list[tuple[str, bool]], **details) -> BoundReport:
    """The report of ``name``; ``valid`` is the conjunction of ``checks``
    and a value being present.  ``value`` is a number or None, reported
    as it is, or a zero-argument formula, evaluated under
    :func:`_finite`: beyond the double range it reports None with a
    failing ``finite`` check."""
    if callable(value):
        value = _finite(value)
        if value is None:
            checks = checks + [_NOT_FINITE]
    return BoundReport(
        name=name,
        value=value,
        valid=all(ok for _, ok in checks) and value is not None,
        assumptions=tuple(checks),
        details=details,
    )


def _covering_count_checks(h: int, ell: int, eps: int, alpha: int, t: int) -> list:
    """The domain of the covering-count upper bound, exact and relaxed."""
    return [
        ("alpha >= 2", alpha >= 2),
        ("h, ell, t >= 1", h >= 1 and ell >= 1 and t >= 1),
        ("eps >= 0", eps >= 0),
        ("h - eps >= 2*ell", h - eps >= 2 * ell),
        ("alpha*ell >= h - eps", alpha * ell >= h - eps),
    ]


def middle_ub_exact(h: int, ell: int, eps: int, alpha: int, q: int, t: int) -> BoundReport:
    """Exact covering-count upper bound on the number of middle nodes.

    ``[(eps+ell)t, eps*t]_q * (theta * (q^(ell*t+1)-1)/(q-1) - 1)
    + floor((h-eps)/ell) - 1``, an integer.  Meaningful for
    ``h - eps >= 2*ell`` and ``theta >= 1``; computed regardless and
    flagged.
    """
    checks = _covering_count_checks(h, ell, eps, alpha, t)
    if not _evaluable(h, ell, eps, alpha, q, t):
        return _report("middle_ub_exact", None, checks)
    th = theta(h, ell, eps, alpha)
    # the value is within a small factor of theta * q^(ell*t*(eps*t+1))
    if power_exceeds(q, ell * t * (eps * t + 1), EXACT_LIMIT):
        return _report("middle_ub_exact", None, checks + [_TOO_LARGE], theta=th)
    gb = gaussian_binomial((eps + ell) * t, eps * t, q)
    col = gaussian_binomial(ell * t + 1, 1, q)  # (q^(ell*t+1) - 1) / (q - 1)
    val = gb * (th * col - 1) + (h - eps) // ell - 1
    return _report("middle_ub_exact", val, checks, theta=th)


def middle_ub_relaxed(
    h: int, ell: int, eps: int, alpha: int, q: int, t: int, gamma: float = GAMMA
) -> BoundReport:
    """Relaxed form of the covering-count upper bound.

    ``gamma * theta * q^(ell*t*(eps*t+1)) + alpha - theta``; a real
    number comparable across q.  Same domain as the exact form; beyond
    the double range the value is None with a failing ``finite`` check.
    """
    checks = _covering_count_checks(h, ell, eps, alpha, t)
    if not _evaluable(h, ell, eps, alpha, q, t, gamma=gamma):
        return _report("middle_ub_relaxed", None, checks, gamma=gamma)
    th = theta(h, ell, eps, alpha)
    power = ell * t * (eps * t + 1)
    if power > 1025 / log2(q):
        # q^power > 2^1025 does not convert to a double: decided without
        # building the integer, which can take seconds or never finish
        return _report("middle_ub_relaxed", None, checks + [_NOT_FINITE], theta=th, gamma=gamma)
    return _report(
        "middle_ub_relaxed", lambda: gamma * th * q**power + alpha - th,
        checks, theta=th, gamma=gamma,
    )


def middle_ub_pairwise(
    h: int, ell: int, eps: int, q: int, t: int, gamma: float = GAMMA, *, alpha: int = 2
) -> BoundReport:
    """Packing upper bound for two-subset coverage (alpha = 2).

    Exact value ``[ht, m]_q / [ell*t, m]_q`` with
    ``m = 2*ell*t - (h-eps)*t + 1`` as a Fraction; the relaxed real form
    ``gamma * q^((h-ell)(2*ell+eps-h)t^2 + (h-ell)t)`` is reported in
    details, as None beyond the double range.  Undefined when the
    denominator q-binomial vanishes (m > ell*t, i.e. the subspace
    dimension cannot host m dimensions).

    The bound counts pairs, so it holds only at ``alpha == 2``: at
    alpha = 3 it falls below certified maxima, e.g. 13 at
    (h, ell, eps, q, t) = (3, 1, 1, 3, 1), where 26 codewords exist.
    The ``alpha == 2`` check is listed only when it fails.
    """
    m = 2 * ell * t - (h - eps) * t + 1
    checks = [
        ("h, ell, t >= 1", h >= 1 and ell >= 1 and t >= 1),
        ("eps >= 0", eps >= 0),
        ("2*ell*t - (h-eps)*t + 1 >= 0", m >= 0),
        ("m <= ell*t (denominator nonzero)", 0 <= m <= ell * t),
    ]
    if alpha != 2:
        checks.append(("alpha == 2", False))
    if not _evaluable(h, ell, eps, q=q, t=t, gamma=gamma):
        return _report("middle_ub_pairwise", None, checks, m=m)
    relaxed = _finite(
        lambda: gamma * float(q) ** ((h - ell) * (2 * ell + eps - h) * t * t + (h - ell) * t)
    )
    if not 0 <= m <= ell * t:  # the denominator vanishes
        return _report("middle_ub_pairwise", None, checks, relaxed=relaxed, m=m)
    # the value is about q^((h-ell)*t*m), the power in the relaxed form
    if power_exceeds(q, (h - ell) * t * m, EXACT_LIMIT):
        return _report("middle_ub_pairwise", None, checks + [_TOO_LARGE], relaxed=relaxed, m=m)
    val = Fraction(gaussian_binomial(h * t, m, q), gaussian_binomial(ell * t, m, q))
    if val.denominator == 1:
        val = int(val)
    return _report("middle_ub_pairwise", val, checks, relaxed=relaxed, m=m)


def middle_lb_lll(
    h: int,
    ell: int,
    eps: int,
    alpha: int,
    q: int,
    t: int,
    gamma: float = GAMMA,
    plus_one: bool = False,
) -> BoundReport:
    """Random-coding lower bound on achievable middle-layer size.

    Any ``r <= beta * q^(f(t)/(alpha-1))`` admits a (q, t)-linear
    solution.  ``plus_one=True`` restores the additive 1 that the
    simplified form drops.
    """
    checks = [
        ("alpha >= 2", alpha >= 2),
        ("h, ell, t >= 1", h >= 1 and ell >= 1 and t >= 1),
        ("ell + eps < h", ell + eps < h),
        ("h <= alpha*ell + eps", h <= alpha * ell + eps),
    ]
    if not _evaluable(h, ell, eps, alpha, q, t, gamma=gamma):
        return _report("middle_lb_lll", None, checks)
    b = _beta_or_none(alpha, gamma)
    ft = f_exponent(h, ell, eps, alpha, t)
    if b is None:
        return _report("middle_lb_lll", None, checks + [_NOT_FINITE], f=ft, plus_one=plus_one)
    return _report(
        "middle_lb_lll", lambda: b * float(q) ** (ft / (alpha - 1)) + (1.0 if plus_one else 0.0),
        checks, beta=b, f=ft, plus_one=plus_one,
    )


def middle_lb_mrd(h: int, ell: int, eps: int, alpha: int, q: int, t: int) -> BoundReport:
    """Rank-metric construction lower bound ``(alpha-1) * q^g(t)``, exact.

    Valid for ``h <= 2*ell + eps`` (the construction regime); the
    branch of ``g`` is reported: ``ell*eps*t^2 + ell*t`` when
    ``h <= 2*ell``, else ``(h-ell)(2*ell+eps-h)t^2 + (h-ell)t``.
    """
    checks = [
        ("alpha >= 2", alpha >= 2),
        ("h, ell, t >= 1", h >= 1 and ell >= 1 and t >= 1),
        ("ell + eps < h", ell + eps < h),
        ("h <= 2*ell + eps", h <= 2 * ell + eps),
    ]
    gt = g_exponent(h, ell, eps, t)
    branch = "ell*eps*t^2 + ell*t" if h <= 2 * ell else "(h-ell)(2ell+eps-h)t^2 + (h-ell)t"
    if not (_evaluable(h, ell, eps, alpha, q, t) and gt >= 0):
        return _report("middle_lb_mrd", None, checks, g=gt, branch=branch)
    if power_exceeds(q, gt, EXACT_LIMIT):
        return _report("middle_lb_mrd", None, checks + [_TOO_LARGE], g=gt, branch=branch)
    return _report("middle_lb_mrd", (alpha - 1) * q**gt, checks, g=gt, branch=branch)


def bad_event_prob_ub(
    h: int, ell: int, eps: int, alpha: int, q: int, t: int, gamma: float = GAMMA
) -> BoundReport:
    """Upper bound on the probability that one receiver fails under
    uniform random coding matrices:
    ``2*gamma * q^((h-alpha*ell-eps)*eps*t^2 + (h-alpha*ell-2*eps)*t - 1)``.
    """
    checks = [
        ("alpha >= 2", alpha >= 2),
        ("h, ell, t >= 1", h >= 1 and ell >= 1 and t >= 1),
        ("h <= alpha*ell + eps", h <= alpha * ell + eps),
    ]
    exponent = (h - alpha * ell - eps) * eps * t * t + (h - alpha * ell - 2 * eps) * t - 1
    if not _evaluable(h, ell, eps, alpha, q, t, gamma=gamma):
        return _report("bad_event_prob_ub", None, checks, exponent=exponent)
    return _report(
        "bad_event_prob_ub", lambda: 2 * gamma * float(q) ** exponent, checks, exponent=exponent
    )


def dependency_degree(r: int, alpha: int) -> tuple[int, int]:
    """Dependency counts among receiver failure events.

    Returns ``(bound, exact)``: the union-bound estimate
    ``alpha * C(r-1, alpha-1)`` and the exact overlap count
    ``C(r, alpha) - C(r-alpha, alpha)``.
    """
    if alpha < 2 or r < alpha:
        raise ValueError("need 2 <= alpha <= r")
    bound = alpha * comb(r - 1, alpha - 1)
    exact = comb(r, alpha) - comb(r - alpha, alpha)
    return bound, exact


def dependency_degree_report(r: int, alpha: int) -> BoundReport:
    """:func:`dependency_degree` as a report: the union-bound estimate as
    the value and the exact count in details, both None outside
    ``2 <= alpha <= r``, and both None with a failing check when the
    estimate exceeds ``EXACT_LIMIT``, decided before either is built."""
    checks = [("2 <= alpha <= r", 2 <= alpha <= r)]
    if not checks[0][1]:
        return _report("dependency_degree", None, checks, exact=None)
    # alpha * C(r-1, alpha-1) > EXACT_LIMIT exactly when C(r-1, alpha-1) > EXACT_LIMIT // alpha
    if comb_exceeds(r - 1, alpha - 1, EXACT_LIMIT // alpha):
        return _report("dependency_degree", None, checks + [_TOO_LARGE], exact=None)
    bound, exact = dependency_degree(r, alpha)
    return _report("dependency_degree", bound, checks, exact=exact)


class _Case(NamedTuple):
    """One side of the ``h >= 2*ell + eps`` split shared by the two
    field-size thresholds and the gap.

    The necessary threshold is ``(num/den)^(1/(ell*(eps*t+1)))`` for
    ``base = (num, den)``, None when one of ``checks`` fails.  The
    sufficient one is ``need^(divisor*t/exponent(t))``: a (q, t)-linear
    solution exists once ``q^(exponent(t)/divisor) >= need``.  ``need``
    is None beyond the double range (and in the first case when beta
    is), and ``stalled(t)`` says the exponent never rises again after t.
    ``details`` names the case, and theta in the first one.
    """

    details: dict
    checks: list[tuple[str, bool]]
    base: Optional[tuple[int, float]]
    beta: Optional[float]
    need: Optional[float]
    exponent_name: str
    exponent: Callable[[int], int]
    divisor: int
    stalled: Callable[[int], bool]


def _case(h: int, ell: int, eps: int, alpha: int, r: int, gamma: float) -> _Case:
    if h >= 2 * ell + eps:
        th = theta(h, ell, eps, alpha)
        checks = [("theta >= 1", th >= 1), ("r + theta - alpha > 0", r + th - alpha > 0)]
        b = _beta_or_none(alpha, gamma)
        # f(t) = a*t^2 + lin*t + 1 rises by a*(2t+1) + lin from t to t+1; with
        # a <= 0 that step only shrinks, so once it is <= 0 f never rises again
        a, lin = (alpha * ell + eps - h) * eps, alpha * ell + 2 * eps - h
        return _Case({"case": "h >= 2ell+eps", "theta": th}, checks,
                     (r + th - alpha, gamma * th) if th >= 1 and r + th - alpha > 0 else None,
                     b, None if b is None else _finite(lambda: r / b),
                     "f", lambda t: f_exponent(h, ell, eps, alpha, t), alpha - 1,
                     lambda t: a <= 0 and a * (2 * t + 1) + lin <= 0)
    return _Case({"case": "h < 2ell+eps"}, [], (r, gamma * (alpha - 1)),
                 None, _finite(lambda: r / (alpha - 1)),
                 "g", lambda t: g_exponent(h, ell, eps, t), 1, lambda t: False)


def field_size_necessary(
    h: int, ell: int, eps: int, alpha: int, r: int, t: int, gamma: float = GAMMA
) -> BoundReport:
    """Necessary lower threshold on q^t for a (q, t)-linear solution.

    ``((r+theta-alpha)/(gamma*theta))^(1/(ell*(eps*t+1)))`` when
    ``h >= 2*ell + eps``, else
    ``(r/(gamma*(alpha-1)))^(1/(ell*(eps*t+1)))``.
    """
    checks = [
        ("alpha >= 2", alpha >= 2),
        ("r, h, ell, t >= 1", r >= 1 and h >= 1 and ell >= 1 and t >= 1),
        ("eps >= 0", eps >= 0),
    ]
    if not _evaluable(h, ell, eps, alpha, t=t, r=r, gamma=gamma):
        return _report("field_size_necessary", None, checks)
    c = _case(h, ell, eps, alpha, r, gamma)
    value = None if c.base is None else (
        lambda: (c.base[0] / c.base[1]) ** (1.0 / (ell * (eps * t + 1))))
    return _report("field_size_necessary", value, checks + c.checks, **c.details)


def field_size_sufficient(
    h: int, ell: int, eps: int, alpha: int, r: int, t: int, gamma: float = GAMMA
) -> BoundReport:
    """Sufficient threshold on q^t: any q^t at or above it solves the network.

    ``(r/beta)^((alpha-1)*t/f(t))`` when ``h >= 2*ell + eps``, else
    ``(r/(alpha-1))^(t/g(t))``.
    """
    checks = [
        ("alpha >= 2", alpha >= 2),
        ("r, h, ell, t >= 1", r >= 1 and h >= 1 and ell >= 1 and t >= 1),
        ("eps >= 0", eps >= 0),
        ("h <= alpha*ell + eps", h <= alpha * ell + eps),
    ]
    if not _evaluable(h, ell, eps, alpha, t=t, r=r, gamma=gamma):
        return _report("field_size_sufficient", None, checks)
    c = _case(h, ell, eps, alpha, r, gamma)
    e = c.exponent(t)
    checks.append((f"{c.exponent_name}(t) > 0", e > 0))
    details = {"case": c.details["case"], c.exponent_name: e}
    if e <= 0:
        return _report("field_size_sufficient", None, checks, **details)
    if c.beta is not None:
        details["beta"] = c.beta
    if c.need is None:
        return _report("field_size_sufficient", None, checks + [_NOT_FINITE], **details)
    return _report(
        "field_size_sufficient", lambda: c.need ** (c.divisor * t / e), checks, **details
    )


def _smallest_t(predicate, stalled) -> Optional[int]:
    """Smallest ``t >= 1`` meeting ``predicate``, or None after a failing
    t for which ``stalled(t)`` says no later t can meet it."""
    t = 1
    while not predicate(t):
        if stalled(t):
            return None
        t += 1
    return t


def gap_lower_bound(
    h: int, ell: int, eps: int, alpha: int, r: int, gamma: float = GAMMA
) -> BoundReport:
    """Lower bound on log2(qs) - log2(qv) via a base-2 blocklength search.

    The gap reads the two field-size thresholds: it is
    ``log2 field_size_necessary(t=1) - t``, where t is the smallest
    blocklength with ``field_size_sufficient(t) <= 2^t``, i.e. the
    first t at which a (2, t)-linear solution is guaranteed:

    - ``log2((r+theta-alpha)/(gamma*theta))/(ell*(eps+1)) - t_delta``
      when ``h >= 2*ell + eps``, with ``2^(f(t_delta)/(alpha-1)) >= r/beta``;
    - ``log2(r/(gamma*(alpha-1)))/(ell*(eps+1)) - t_star`` otherwise,
      with ``2^g(t_star) >= r/(alpha-1)``.

    Growth per doubling of r: while the blocklength stays fixed, the
    value rises by exactly ``1/(ell*(eps+1))`` per unit of log2 r; each
    unit jump of the blocklength takes 1 off.  Over log2 r in
    ``[k1, k2]`` the slope is therefore
    ``1/(ell*(eps+1)) - (t(k2) - t(k1))/(k2 - k1)``.  When the exponent
    polynomial is quadratic in t, t grows like ``sqrt(log2 r)`` and the
    nominal ``1/(ell*(eps+1))`` is reached only in the limit r -> oo.
    At ``(h, ell, eps, alpha) = (2, 1, 1, 2)``, ``t_star`` is the
    smallest t with ``t^2 + t >= log2 r``; it climbs from 3 to 5 over
    r = 2^10..2^30, so the slope there is exactly
    ``0.5 - 2/20 = 0.40`` (least squares 0.39), not 0.5.  When f is
    linear in t (``(alpha*ell+eps-h)*eps == 0``), t_delta grows linearly
    in log2 r and the bound falls, e.g. by 0.5 per doubling at
    (3, 1, 1, 2).

    The t-scan has no limit and always ends.  It runs only when the
    ratio ``r/beta`` or ``r/(alpha-1)`` is below 2^1024, and beta is
    finite only for alpha <= 171.  ``g(t) >= t``, so t_star <= 1024.
    When f stops rising (its t^2 coefficient is <= 0 and its next step
    is <= 0) the scan ends there, reported as an invalid result with a
    failing ``t-search terminated`` check; this covers an f constant in
    t (e.g. eps = 0, h = alpha*ell).  Otherwise f rises by at least 1
    per step, so ``f/(alpha-1)`` reaches 1024 by t = 1024*170 = 174080.
    The slowest case, ``(170, 1, 0, 171, 2**1023)`` with f(t) = t + 1,
    ends valid at t = 172902.
    """
    checks = [
        ("alpha >= 2", alpha >= 2),
        ("r, h, ell >= 1", r >= 1 and h >= 1 and ell >= 1),
        ("eps >= 0", eps >= 0),
    ]
    if not _evaluable(h, ell, eps, alpha, r=r, gamma=gamma):
        return _report("gap_lower_bound", None, checks)
    c = _case(h, ell, eps, alpha, r, gamma)
    checks += c.checks
    if c.need is None:
        # no t is scanned; the second case still names it, as None
        no_t = {} if c.checks else {"t": None}
        return _report("gap_lower_bound", None, checks + [_NOT_FINITE], **c.details, **no_t)
    # plain locals: the scan can take 10^5 steps, each reading all three
    exponent, divisor, need = c.exponent, c.divisor, c.need
    t = _smallest_t(lambda t: _pow2_at_least(exponent(t), divisor, need), c.stalled)
    checks.append(("t-search terminated", t is not None))
    value = None if c.base is None or t is None else (
        lambda: _log2_ratio(*c.base) / (ell * (eps + 1)) - t)
    return _report("gap_lower_bound", value, checks, **c.details, t=t)


def gap_lower_bound_closed(
    h: int, ell: int, eps: int, alpha: int, r: int, gamma: float = GAMMA
) -> BoundReport:
    """Closed-form gap lower bound (no integer search), direct-link case.

    Requires ``eps >= 1``.  For ``h <= 2*ell + eps``:
    ``(log2(r/(alpha-1)) - 2)/(ell*(eps+1)) - sqrt(log2(r/(alpha-1))/(ell*eps))``;
    otherwise
    ``log2((r+theta-alpha)/(gamma*theta))/(ell*(eps+1))
    - sqrt((alpha-1)*log2(r/beta) / ((alpha*ell+eps-h)*eps))``.

    Values and validity flags follow the paper's statement, but the
    derivation (blocklength bounded by ``sqrt(log r)``) does not hold in
    every regime, and the value can exceed :func:`gap_lower_bound`:

    - ``h = 2*ell + eps``: this form takes the g-branch, while
      :func:`gap_lower_bound` takes the f-branch.  g's quadratic
      coefficient ``(h-ell)(2*ell+eps-h)`` vanishes there, and the
      f-branch blocklength is about
      ``sqrt((alpha-1)*log2 r/((alpha-2)*ell*eps))``, above the
      ``sqrt(log2 r/(ell*eps))`` subtracted here; at alpha = 2 f is
      linear in t and the blocklength grows linearly in log r.
    - ``2*ell < h < 2*ell + eps``: g's quadratic coefficient is
      ``(h-ell)(2*ell+eps-h)``, not the ``ell*eps`` used here.
    - ``h <= 2*ell`` and ``h > 2*ell + eps``: the real root is used where
      the search needs an integer t; the ceiling can cost up to 1 more.

    Worked case (3, 1, 1, 2): a (q, t)-linear solution is a partial
    spread of t-subspaces in GF(q)^(3t), which exists iff
    ``r <= Q^2 + Q + 1`` with ``Q = q^t``.  Scalar and vector solutions
    thus need the same smallest prime power, so ``q_s = q_v`` and the
    true gap is 0; this form gives 0.84 at r = 2^10 and 8.52 at
    r = 2^30.
    """
    checks = [
        ("alpha >= 2", alpha >= 2),
        ("r, h, ell >= 1", r >= 1 and h >= 1 and ell >= 1),
        ("eps >= 1", eps >= 1),
    ]
    if eps < 1 or not _evaluable(h, ell, eps, alpha, r=r, gamma=gamma):
        return _report("gap_lower_bound_closed", None, checks)
    if h <= 2 * ell + eps:
        ratio = _finite(lambda: r / (alpha - 1))
        if ratio is None:
            checks.append(_NOT_FINITE)
            return _report("gap_lower_bound_closed", None, checks, case="h <= 2ell+eps")
        checks.append(("log2(r/(alpha-1)) >= 0", ratio >= 1))
        if ratio < 1:
            return _report("gap_lower_bound_closed", None, checks, case="h <= 2ell+eps")
        big_l = log2(ratio)
        return _report("gap_lower_bound_closed",
                       lambda: (big_l - 2) / (ell * (eps + 1)) - sqrt(big_l / (ell * eps)),
                       checks, case="h <= 2ell+eps")
    th = theta(h, ell, eps, alpha)
    b = _beta_or_none(alpha, gamma)
    if b is None:
        checks.append(_NOT_FINITE)
        return _report("gap_lower_bound_closed", None, checks, case="h > 2ell+eps", theta=th)
    denom = (alpha * ell + eps - h) * eps
    checks.append(("theta >= 1", th >= 1))
    checks.append(("r + theta - alpha > 0", r + th - alpha > 0))
    checks.append(("(alpha*ell+eps-h)*eps > 0", denom > 0))
    checks.append(("r >= beta", r >= b))
    if th < 1 or r + th - alpha <= 0 or denom <= 0 or r < b:
        return _report("gap_lower_bound_closed", None, checks, case="h > 2ell+eps", theta=th)
    return _report(
        "gap_lower_bound_closed",
        lambda: _log2_ratio(r + th - alpha, gamma * th) / (ell * (eps + 1))
        - sqrt((alpha - 1) * log2(r / b) / denom),
        checks, case="h > 2ell+eps", theta=th,
    )
