"""Monte Carlo and exact sign-type estimation of tail events and expectation bounds.

A Monte Carlo run can never prove an inequality; verdicts therefore only
report `violation_evidence` when the exact Clopper-Pearson lower confidence
bound exceeds the closed-form bound.
"""

from __future__ import annotations

import functools
import math
from collections.abc import Callable
from dataclasses import dataclass

import numpy as np

__all__ = [
    "MCEstimate",
    "TailEvent",
    "clopper_pearson",
    "evaluate_event",
    "closed_ge",
    "estimate_tail_from",
    "SignTypes",
    "check_enumeration_size",
    "exact_tail_rademacher",
    "optimize_over_p_from",
    "optimize_expectation_values",
    "exact_optimized_bound_rademacher",
    "golden_section_min",
    "domination_check",
    "exact_verdict",
    "exp_growth_coefficient",
    "ENUMERATION_CAP",
    "P_SEARCH_WINDOW",
]

ENUMERATION_CAP = 20
# inf over p > 1 is searched on ln(p - 1) over this window.
P_SEARCH_WINDOW = (1e-3, 50.0)
_GOLDEN_ITERS = 60
# The objective passes np.exp no exponent below _EXP_ZERO_CUT.  At and above
# the cut np.exp returns a normal double on its fast path; below about -707.8
# it costs about 20x more per lane, and over 100x on a subnormal result.
# While the largest exponent is at or above _EXP_SHIFT_CUT, the exponents
# below the cut are raised to it: each such term then moves by less than
# e^-707 < e^-64 of the largest term, so N of them move the mean by less than
# N * e^-64 ~ N * 1.6e-28 of it, under one ulp for N up to 10^11.  Below
# _EXP_SHIFT_CUT the largest term is factored out (it becomes e^0 = 1), and
# the terms below the cut, left out, total less than N * e^-707 of it.
_EXP_ZERO_CUT = -707.0
_EXP_SHIFT_CUT = _EXP_ZERO_CUT + 64.0


def clopper_pearson(hits: int, n_rep: int, gamma: float) -> tuple[float, float]:
    """Two-sided exact binomial confidence interval at confidence level gamma.

    Each end is a Beta quantile, computed as the inverse regularized
    incomplete beta function I_x(a, b) (``scipy.special.betaincinv``).
    SciPy is imported here, so runs without a Monte Carlo estimate (bound
    evaluation, the exact oracle) never load it.
    """
    from scipy.special import betaincinv

    if not 0 <= hits <= n_rep:
        raise ValueError(f"hits={hits} outside [0, {n_rep}]")
    if not 0.0 < gamma < 1.0:
        raise ValueError(f"gamma must be in (0, 1), got {gamma}")
    alpha = 1.0 - gamma
    lo = 0.0 if hits == 0 else float(betaincinv(hits, n_rep - hits + 1, alpha / 2.0))
    hi = 1.0 if hits == n_rep else float(betaincinv(hits + 1, n_rep - hits, 1.0 - alpha / 2.0))
    return lo, hi


@dataclass(frozen=True)
class MCEstimate:
    """Binomial Monte Carlo estimate with an exact confidence interval."""

    n_rep: int
    hits: int
    p_hat: float
    ci_lo: float
    ci_hi: float
    gamma: float

    @classmethod
    def from_hits(cls, hits: int, n_rep: int, gamma: float) -> "MCEstimate":
        lo, hi = clopper_pearson(hits, n_rep, gamma)
        return cls(n_rep=n_rep, hits=hits, p_hat=hits / n_rep, ci_lo=lo, ci_hi=hi, gamma=gamma)


def domination_check(estimate, bound: float) -> str:
    """The status of an estimate against a bound (pass, violation_evidence or
    vacuous); statistically sound: a violation only when ci_lo exceeds the bound."""
    if bound < 0:
        raise ValueError(f"bound must be >= 0, got {bound}")
    if bound >= 1.0:
        return "vacuous"
    return "violation_evidence" if estimate.ci_lo > bound else "pass"


def exact_verdict(exact_p: float, bound: float) -> str:
    """Verdict against an exact probability: any excess beyond relative rounding
    slack is a violation, however small the bound."""
    if bound >= 1.0:
        return "vacuous"
    return "violation_evidence" if exact_p > bound * (1.0 + 1e-12) else "pass"


@dataclass(frozen=True)
class TailEvent:
    """Event {S_n / N >= x} with an optional window lo <= W <= hi.

    N and W are functions of a stats object that return one value per path,
    e.g. ``lambda st: np.sqrt(st.b_n(y))``.  normalizer None means the raw
    event {S_n >= x}.  A nonpositive normalizer realization makes the ratio
    event false (degenerate-normalizer rule).
    """

    x: float
    normalizer: Callable | None = None
    window: tuple[Callable, float, float] | None = None


_EVENT_TOL = 1e-12


def closed_ge(values: np.ndarray, threshold: float) -> np.ndarray:
    # The theorems state closed events; a hair of relative slack keeps
    # exact-boundary atoms (e.g. ratio sqrt(2) vs threshold sqrt(2)) from
    # being dropped by one-ulp rounding.  The slack only enlarges the event.
    return values >= threshold - _EVENT_TOL * max(1.0, abs(threshold))


def evaluate_event(stats, event: TailEvent) -> np.ndarray:
    """Boolean vector of the event on every path of a stats batch."""
    s = stats.s()
    if event.normalizer is None:
        ok = closed_ge(s, event.x)
    else:
        norm = event.normalizer(stats)
        ratio = np.divide(s, norm, out=np.full(np.shape(s), -np.inf), where=norm > 0)
        ok = (norm > 0) & closed_ge(ratio, event.x)
    if event.window is not None:
        wstat, lo, hi = event.window
        w = wstat(stats)
        ok = ok & closed_ge(w, lo) & closed_ge(-w, -hi)
    return ok


def estimate_tail_from(stats, event: TailEvent, gamma: float) -> MCEstimate:
    inside = evaluate_event(stats, event)
    return MCEstimate.from_hits(int(np.count_nonzero(inside)), inside.size, gamma)


# ---------------------------------------------------------------------------
# Exact sign-type oracle for fair-sign paths.
#
# Every bracket statistic of a +-1 path depends on it only through k, its
# count of +1 steps, so the oracle evaluates one row per type k and weights
# it by comb(n, k) / 2^n (the method of types).  Each statistic is a closed
# form of k with the +-1 moment constants inline, independent of the
# processes module, so the oracle can catch bookkeeping bugs on the Monte
# Carlo side; tests check the closed forms against all 2^n enumerated paths.
# ---------------------------------------------------------------------------


class SignTypes:
    """Bracket statistics of the n + 1 sign types of n fair signs, row k
    holding the paths with k steps of +1, and the probability of a set of types."""

    def __init__(self, n: int):
        if n < 1:
            raise ValueError(f"sign types need n >= 1, got {n}")
        self.n = n
        self.k = np.arange(n + 1, dtype=float)

    def s(self):
        return 2.0 * self.k - self.n

    def sq_var(self):
        return np.full(self.n + 1, float(self.n))  # xi^2 = 1

    def cond_var(self):
        return np.full(self.n + 1, float(self.n))  # E[xi^2] = 1

    def b_n(self, y):
        # xi^2 1{xi > y} counts the +1 steps when y < 1; E[xi^2 1{xi <= y}]
        return self.k * (y < 1.0) + self.n * (1.0 if y >= 1.0 else 0.5)

    def h_n(self, a):
        # xi^2 1{|xi| > a} counts every step when a < 1; E[xi^2] = 1
        return np.full(self.n + 1, self.n * (a < 1.0) + self.n * 1.0)

    def g_n(self, beta):
        return self.k + self.n * 0.5  # (xi^+)^beta counts the +1 steps; E[(xi^-)^beta] = 1/2

    def mass(self, inside: np.ndarray) -> float:
        """P(type k is marked by inside[k]): the integer count of paths over 2^n,
        so it is correctly rounded."""
        return sum(math.comb(self.n, k) for k in np.flatnonzero(inside)) / (1 << self.n)


def check_enumeration_size(n: int) -> None:
    """The domain of code that builds all 2^n paths: 1 <= n <= ENUMERATION_CAP."""
    if not 1 <= n <= ENUMERATION_CAP:
        raise ValueError(f"exact enumeration needs n >= 1, capped at n = {ENUMERATION_CAP}; got {n}")


def exact_tail_rademacher(n: int, event: TailEvent) -> float:
    """Exact P(event) over fair-sign paths, evaluated once per sign type."""
    types = SignTypes(n)
    return types.mass(evaluate_event(types, event))


# ---------------------------------------------------------------------------
# Expectation-type bounds and the inf over p > 1.
# ---------------------------------------------------------------------------


def golden_section_min(f, lo: float, hi: float):
    """Deterministic golden-section minimization on [lo, hi] in _GOLDEN_ITERS steps."""
    if hi <= lo:
        raise ValueError("need lo < hi")
    invphi = (math.sqrt(5.0) - 1.0) / 2.0
    a, b = lo, hi
    x1 = b - invphi * (b - a)
    x2 = a + invphi * (b - a)
    f1, f2 = f(x1), f(x2)
    for _ in range(_GOLDEN_ITERS):
        if f1 <= f2:
            b, x2, f2 = x2, x1, f1
            x1 = b - invphi * (b - a)
            f1 = f(x1)
        else:
            a, x1, f1 = x1, x2, f2
            x2 = a + invphi * (b - a)
            f2 = f(x2)
    if f1 <= f2:
        return x1, f1
    return x2, f2


@dataclass(frozen=True)
class OptimizedBound:
    p_star: float
    value: float


def optimize_expectation_values(
    rate: float, weights: np.ndarray, n_all: int | None = None, lanes: np.ndarray | None = None
) -> OptimizedBound:
    """The minimizing p and value of (sum of exp(-(p-1)*rate*w) over the terms / n_all)^(1/p)
    over p > 1, with common random numbers: every p sees one fixed set of terms.

    Without lanes the terms are the weights w; with lanes, weights holds one
    value per type and lanes the type of each term in order.  n_all, the
    count the mean divides by, defaults to the number of terms.

    With c = -(p-1)*rate, an evaluation takes exp(c*w) of every weight in order
    while its largest exponent is at or above _EXP_SHIFT_CUT, with the
    exponents below _EXP_ZERO_CUT raised to the cut, and then gathers one per
    lane; where none is below the cut this is the plain mean, bit for bit
    (a lane's product and exp do not depend on where it sits), and elsewhere
    the raised terms move it by less than one ulp.  Below _EXP_SHIFT_CUT the
    largest exponent s is factored out and the value is m^(1/p) * e^(s/p),
    m the mean of the terms exp(c*w - s) at or above the cut, which are a
    prefix of the weights the terms read in ascending order (sorted once per
    call, on the first evaluation with an exponent below the cut) and are
    summed in that order.  The value is then 0 only when it underflows a
    double."""
    terms = len(weights) if lanes is None else len(lanes)
    n_all = terms if n_all is None else n_all
    w_hi = float(weights.max()) if terms else 0.0
    w_sorted = None  # the weights the terms read, ascending, sorted on first use

    def objective(log_pm1: float) -> float:
        nonlocal w_sorted
        if not terms:
            return 0.0
        p = 1.0 + math.exp(log_pm1)
        c = -(p - 1.0) * rate
        # c <= 0 and rounding is monotone, so c * w_hi is the smallest exponent
        # (NaN takes this path and comes out NaN)
        if not c * w_hi < _EXP_ZERO_CUT:
            z = c * weights
        else:
            if w_sorted is None:
                w_sorted = np.sort(weights if lanes is None else weights[lanes])
            w_lo = float(w_sorted[0])
            s = c * w_lo
            if s < _EXP_SHIFT_CUT and c * float(w_sorted[-1]) < _EXP_ZERO_CUT:
                kept = int(np.searchsorted(w_sorted, w_lo + _EXP_ZERO_CUT / c, side="right"))
                z = w_sorted[:kept] - w_lo
                z *= c
                # the prefix holds w - w_lo <= cut / c, whose exponent can round below the cut
                np.maximum(z, _EXP_ZERO_CUT, out=z)
                np.exp(z, out=z)
                m = float(np.sum(z)) / n_all
                return m ** (1.0 / p) * math.exp(s / p)
            z = c * weights
            np.maximum(z, _EXP_ZERO_CUT, out=z)
        np.exp(z, out=z)
        if lanes is not None:
            z = z[lanes]
        m = float(np.sum(z)) / n_all
        return 0.0 if m <= 0.0 else m ** (1.0 / p)

    lo, hi = math.log(P_SEARCH_WINDOW[0]), math.log(P_SEARCH_WINDOW[1])
    t_star, value = golden_section_min(objective, lo, hi)
    # every p gives a valid bound, so keep the best of the converged point,
    # the window endpoints, and p = 2 (guards against non-unimodal objectives)
    for t in (lo, hi, 0.0):
        candidate = objective(t)
        if candidate < value:
            t_star, value = t, candidate
    return OptimizedBound(p_star=1.0 + math.exp(t_star), value=value)


def optimize_over_p_from(
    stats, event: TailEvent, rate: float, with_indicator: bool = True
) -> OptimizedBound:
    """inf over p of the expectation bound of `event` on a stats batch: its
    normalizer weighs each path, and the event itself is the indicator."""
    norm = event.normalizer(stats)
    weights = norm[evaluate_event(stats, event)] if with_indicator else norm
    return optimize_expectation_values(rate, weights, len(norm))


def exact_optimized_bound_rademacher(
    n: int, event: TailEvent, rate: float, with_indicator: bool = True
) -> OptimizedBound:
    """inf over p of the exact expectation bound of `event` for fair-sign paths.

    Normalizer and indicator are computed once per sign type.  The optimizer
    takes exp once per type and gathers one term per path in the event, in
    the order of the paths' binary codes (step j is +1 iff bit j is set), so
    it sums the same floats, in the same order, as a full enumeration."""
    check_enumeration_size(n)
    st = SignTypes(n)
    path_type = _path_types(n)
    lanes = path_type[evaluate_event(st, event)[path_type]] if with_indicator else path_type
    norm = event.normalizer(st)
    return optimize_expectation_values(rate, norm, 1 << n, lanes.astype(np.intp))


@functools.cache
def _path_types(n: int) -> np.ndarray:
    """The sign type (count of +1 steps) of each of the 2^n paths, in path order.
    Read-only, since every caller shares it; n <= ENUMERATION_CAP keeps the
    cache under 2 MiB."""
    path_type = np.bitwise_count(np.arange(1 << n, dtype=np.uint32))
    path_type.flags.writeable = False
    return path_type


# ---------------------------------------------------------------------------
# The growth coefficient of the supermartingale certificate U_n.
# ---------------------------------------------------------------------------


def exp_growth_coefficient(lam: float, y: float) -> float:
    """(e^{lam*y} - 1 - lam*y) / y^2, with the y -> 0 limit lam^2/2."""
    if lam <= 0:
        raise ValueError(f"lambda must be > 0, got {lam}")
    if y < 0:
        raise ValueError(f"y must be >= 0, got {y}")
    u = lam * y
    if u < 1e-4:
        return 0.5 * lam * lam * (1.0 + u / 3.0 + u * u / 12.0)
    return (math.expm1(u) - u) / (y * y)
