"""Closed-form rate functions and exponential tail bounds for self-normalized sums.

All calculators here are pure functions of their parameters.  Bounds larger
than 1 are returned as-is (valid but vacuous); use :func:`clamp_probability`
when a reportable probability is wanted.
"""

from __future__ import annotations

import inspect
import math
import numbers
import sys

__all__ = [
    "BOUND_KINDS",
    "psi",
    "f_rate",
    "optimal_lambda",
    "evaluate_bound",
    "field_violation",
    "peeling_prefactor",
    "clamp_probability",
]

SQRT_E = math.sqrt(math.e)

# Below this value of the product x*y the direct formulas lose all their
# significant digits to cancellation; three Taylor terms are exact to ~1e-12.
_SERIES_CUTOFF = 1e-4


def psi(x: float) -> float:
    """Variance-correction factor psi(x) = (2/x^2) * integral_0^x ln(1+u) du.

    Evaluated through the closed form 2*((1+x)ln(1+x) - x)/x^2, which equals
    the defining integral exactly.  psi(0) = 1 (continuous limit), psi is
    decreasing, and psi(x) >= 1/(1 + x/3) for all x >= 0.
    """
    if x < 0:
        raise ValueError(f"psi: x must be >= 0, got {x}")
    if x < _SERIES_CUTOFF:
        return 1.0 - x / 3.0 + x * x / 6.0
    return 2.0 * ((1.0 + x) * math.log1p(x) - x) / (x * x)


def f_rate(x: float, y: float) -> float:
    """Optimal exponential rate for a sum normalized by a truncated bracket.

    f(x, y) = [x*y*(ln(x*y + 1) - 1) + ln(x*y + 1)] / y^2 for y > 0, with the
    continuous extension f(x, 0) = x^2/2.  Satisfies f(x, y) = x^2 psi(x*y)/2
    and f(x, y) >= x^2 / (2*(1 + x*y/3)).
    """
    if x < 0 or y < 0:
        raise ValueError(f"f_rate: inputs must be >= 0, got x={x}, y={y}")
    if y == 0.0:
        return 0.5 * x * x
    u = x * y
    if u < _SERIES_CUTOFF:
        # (1+u)ln(1+u) - u = u^2/2 - u^3/6 + u^4/12 - ..., divided by y^2.
        return 0.5 * x * x - x ** 3 * y / 6.0 + x ** 4 * y * y / 12.0
    return (u * (math.log1p(u) - 1.0) + math.log1p(u)) / (y * y)


def optimal_lambda(x: float, y: float) -> float:
    """Argmin of lambda -> (e^{lambda*y} - 1 - lambda*y)/y^2 - lambda*x.

    Equals ln(x*y + 1)/y for y > 0 and x in the limit y -> 0.
    """
    if x <= 0:
        raise ValueError(f"optimal_lambda: x must be > 0, got {x}")
    if y < 0:
        raise ValueError(f"optimal_lambda: y must be >= 0, got {y}")
    if y == 0.0:
        return x
    return math.log1p(x * y) / y


def beta_decay_coefficient(x: float, beta: float) -> float:
    """Decay coefficient (beta - 1) * (x/beta)^{beta/(beta-1)} of the heavy-tail rate."""
    if x <= 0:
        raise ValueError(f"beta_decay_coefficient: x must be > 0, got {x}")
    if not 1.0 < beta < 2.0:
        raise ValueError(f"beta_decay_coefficient: beta must be in (1, 2), got {beta}")
    return (beta - 1.0) * (x / beta) ** (beta / (beta - 1.0))


def peeling_prefactor(x: float, M: float) -> float:
    """Slice-count prefactor sqrt(e) * (1 + 2*(1+x)*ln M) of the peeling device."""
    if x < 0:
        raise ValueError(f"peeling_prefactor: x must be >= 0, got {x}")
    if M < 1:
        raise ValueError(f"peeling_prefactor: M must be >= 1, got {M}")
    return SQRT_E * (1.0 + 2.0 * (1.0 + x) * math.log(M))


def clamp_probability(value: float) -> float:
    """Clamp a (possibly vacuous) bound into [0, 1] for reporting."""
    if value < 0:
        raise ValueError(f"clamp_probability: negative value {value}")
    return min(value, 1.0)


# The parameter catalogue: every input name a bound kind may read, with the
# rule its value must meet.  Each calculator below takes by name the inputs
# its kind reads; each given input is checked, even one the kind ignores.
_FIELD_RULES = {
    "x": (lambda v: v >= 0, "must be >= 0"),  # deviation level
    "y": (lambda v: v >= 0, "must be >= 0"),  # truncation / upper-bound level
    "z": (lambda v: v > 0, "must be > 0"),  # variance-process level
    "b": (lambda v: v > 0, "must be > 0"),  # peeling base scale
    "M": (lambda v: v >= 1, "must be >= 1"),  # peeling range ratio
    "beta": (lambda v: 1.0 < v < 2.0, "must be in (1, 2)"),  # moment order
    "n": (lambda v: isinstance(v, int) and v >= 1, "must be a positive integer"),  # sample size
    "sigma": (lambda v: v > 0, "must be > 0"),  # noise standard deviation
    "t": (lambda v: v > 0, "must be > 0"),  # tour-length deviation level
    "d": (lambda v: isinstance(v, int) and v >= 2, "must be an integer >= 2"),  # spatial dimension
    "a_bnd": (lambda v: v >= 0, "must be >= 0"),  # increment bound / affine offset
    "L": (lambda v: v > 0, "must be > 0"),  # variance cap
}


def is_finite_real(value) -> bool:
    # JSON true/false load as bool, which Python counts as int; NaN fails the
    # comparison, and so does an integer too large to convert to a float
    real = isinstance(value, numbers.Real) and not isinstance(value, bool)
    return real and abs(value) <= sys.float_info.max


def field_violation(name: str, value) -> str | None:
    """The rule that ``value`` breaks as catalogue input ``name``, or None.

    Only finite real numbers can meet a rule: JSON true/false must not pass
    as 1 and 0, and a bound at an infinite level is NaN or 0.
    """
    if not is_finite_real(value):
        return "must be a finite number"
    ok, rule = _FIELD_RULES[name]
    return None if ok(value) else rule


def _bernstein(z, L, a_bnd) -> float:
    return math.exp(-0.5 * z * z / (L + a_bnd * z / 3.0))


def _freedman(x, L, a_bnd) -> float:
    return math.exp(-0.5 * x * x / (L + a_bnd * x / 3.0))


def _dvz(x, L, a_bnd) -> float:
    return math.exp(-0.5 * (x * x / L) * psi(a_bnd * x / L))


def _dlp_point(x, y) -> float:
    return math.exp(-0.5 * x * x * y)


def _bercu_touati(x, y, b, a_bnd) -> float:
    return math.exp(-x * x * (a_bnd * b + 0.5 * b * b * y))


def _thm21_point(x, y, z) -> float:
    return math.exp(-0.5 * x * x * z / (1.0 + x * y / 3.0))


def _thm22_peeling(x, y, M, b=None) -> float:
    if y > 0:
        if b is None:
            raise ValueError("evaluate_bound(thm22_peeling): missing parameter(s) b")
        denom = 1.0 + x * y / (3.0 * b)
    else:
        denom = 1.0
    return peeling_prefactor(x, M) * math.exp(-0.5 * x * x / denom)


def _sq_peeling(x, M) -> float:
    return peeling_prefactor(x, M) * math.exp(-0.5 * x * x)


def _delyon(x, y) -> float:
    if y <= 0:
        raise ValueError("evaluate_bound(delyon): y must be > 0")
    return math.exp(-0.5 * x * x / y)


def _thm24_peeling(x, beta, M) -> float:
    rate = (x / beta) ** (beta / (beta - 1.0)) * (1.0 - 1.0 / beta)
    return (1.0 + 2.0 * (1.0 + x) * math.log(M)) * math.exp(-rate)


def _thm31_tstat(x, n, M) -> float:
    shrink = math.sqrt(n / (n + x * x - 1.0))
    return SQRT_E * (1.0 + 2.0 * (1.0 + x * shrink) * math.log(M)) * math.exp(
        -0.5 * n * x * x / (n + x * x - 1.0)
    )


def _thm33_regression(x, sigma, y, b, M) -> float:
    prefactor = 2.0 * SQRT_E * (1.0 + 2.0 * (1.0 + x / sigma) * math.log(M))
    return prefactor * math.exp(-0.5 * x * x / (sigma * sigma + x * y / (3.0 * b)))


def _thm34_tsp(t, n, d) -> float:
    return SQRT_E * (1.0 + (2.0 / d) * (1.0 + t) * math.log(n)) * math.exp(-0.5 * t * t)


_CALCULATORS = {
    "bernstein": _bernstein,
    "freedman": _freedman,
    "dvz": _dvz,
    "dlp_point": _dlp_point,
    "bercu_touati": _bercu_touati,
    "thm21_point": _thm21_point,
    "thm22_peeling": _thm22_peeling,
    "cor22_peeling": _sq_peeling,
    "thm25_peeling": _sq_peeling,
    "delyon": _delyon,
    "thm23_exponent": beta_decay_coefficient,
    "thm24_peeling": _thm24_peeling,
    "thm31_tstat": _thm31_tstat,
    "thm33_regression": _thm33_regression,
    "thm34_tsp": _thm34_tsp,
}

BOUND_KINDS = tuple(sorted(_CALCULATORS))


def evaluate_bound(kind: str, /, **inputs) -> float:
    """Evaluate the closed-form right-hand side of bound ``kind``; ``inputs``
    are catalogue names (the keys of ``_FIELD_RULES``), e.g.
    ``evaluate_bound("freedman", x=1, L=1, a_bnd=0)``.

    Every given input is validated; one the kind does not read is accepted
    and ignored, an unknown name raises TypeError, and a missing one raises
    ValueError naming it.  Values above 1 are returned unclamped;
    ``thm23_exponent`` returns a decay coefficient rather than a probability.
    """
    for name, value in inputs.items():
        if name not in _FIELD_RULES:
            raise TypeError(f"evaluate_bound({kind}): unknown parameter {name!r}")
        rule = field_violation(name, value)
        if rule is not None:
            raise ValueError(f"evaluate_bound({kind}): {name}={value!r} {rule}")
    if kind not in _CALCULATORS:
        raise ValueError(f"unknown bound kind {kind!r}; expected one of {', '.join(BOUND_KINDS)}")
    calc = _CALCULATORS[kind]
    params = inspect.signature(calc).parameters.values()
    missing = [p.name for p in params if p.default is p.empty and p.name not in inputs]
    if missing:
        raise ValueError(f"evaluate_bound({kind}): missing parameter(s) {', '.join(missing)}")
    return calc(**{p.name: inputs[p.name] for p in params if p.name in inputs})
