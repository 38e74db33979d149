"""Experiment configuration, grid orchestration, and report emission.

An experiment names one verification target, a difference model (or the
regression/TSP configuration), parameter grids, and Monte Carlo settings.
Re-running the same spec with the same master seed reproduces identical
records at any worker count.
"""

from __future__ import annotations

import functools
import itertools
import json
import math
import time
from dataclasses import MISSING, asdict, dataclass, field, is_dataclass, replace

import numpy as np

from .bounds import beta_decay_coefficient, evaluate_bound, f_rate, field_violation, is_finite_real
from .montecarlo import (
    TailEvent,
    check_enumeration_size,
    domination_check,
    estimate_tail_from,
    exact_optimized_bound_rademacher,
    exact_tail_rademacher,
    exact_verdict,
    optimize_over_p_from,
)
from .processes import BatchStats, build_model, map_jobs, sample_batch
from .applications.regression import exact_oracle_scale, noise_bounds
from .applications.regression import exact_regression_records, verify_regression
from .applications.student import self_normalized_threshold
from .applications.tsp import check_tsp_size, verify_tsp

__all__ = [
    "ExperimentSpec",
    "ResultRecord",
    "SpecValidationError",
    "VERIFY_TARGETS",
    "load_spec",
    "run_experiment",
    "load_report",
    "CSV_COLUMNS",
]

DEFAULT_N_REP = 100_000
DEFAULT_INNER_REP = 2000
DEFAULT_GAMMA = 0.99

# Philox keys are pairs of uint64, so a master seed must fit in 64 bits.
SEED_LIMIT = 2 ** 64

# Sparse-hit threshold below which an expectation-bound check says nothing
# about the tail depth it nominally probes.
UNTESTED_DEPTH_FACTOR = 10

CSV_COLUMNS = (
    "experiment_id",
    "theorem",
    "x",
    "y",
    "z",
    "b",
    "M",
    "beta",
    "bound",
    "p_hat",
    "ci_lo",
    "ci_hi",
    "exact",
    "status",
    "seed",
    "wall_ms",
)
# Characters that would split a CSV row; no spec id or reloaded report field may hold one.
CSV_BREAKS = ',"\r\n'


class SpecValidationError(ValueError):
    """Carries every validation failure found in a spec, not just the first."""

    def __init__(self, errors):
        self.errors = list(errors)
        super().__init__("; ".join(self.errors))


@dataclass(frozen=True)
class ExperimentSpec:
    id: str
    theorem: str
    n: int
    grids: dict
    model: dict | None = None
    n_rep: int = DEFAULT_N_REP
    inner_rep: int = DEFAULT_INNER_REP
    gamma: float = DEFAULT_GAMMA
    master_seed: int = 0
    mode: str = "mc"
    theta: float = 1.0
    phi: str = "uniform"
    d: int = 2
    c1: float | None = None
    c_const: None = None  # always None: validation rejects it; reports echo it as null


@dataclass(frozen=True)
class ResultRecord:
    """One verified grid point; wall time never participates in equality."""

    experiment_id: str
    theorem: str
    x: float | None
    y: float | None
    z: float | None
    b: float | None
    M: float | None
    beta: float | None
    bound: float
    p_hat: float | None
    ci_lo: float | None
    ci_hi: float | None
    hits: int | None
    n_rep: int | None
    exact: float | None
    status: str
    seed: int
    grid: tuple = ()
    note: str = ""
    wall_ms: float | None = field(default=None, compare=False)


@dataclass(frozen=True)
class _Target:
    """Everything the package knows about one verification target."""

    grid_keys: tuple
    run: object                # (spec, jobs) -> records
    # diff targets: (spec, grid point, model, key) -> plans; b resolved where it anchors a window
    plan: object = None
    optional_keys: tuple = ()  # each a list of exactly one value when given
    model_req: str | None = None  # a key of _MODEL_REQUIREMENTS
    uses_model: bool = True    # without a model there are no paths for an exact oracle
    check: object = None       # theorem rules, on valid fields only: (fields, model) -> errors
    # diff targets: the one bracket they read besides S_n, as (method, parameter),
    # the parameter a grid key or a constant; None for S_n alone.  The only place
    # a target names it: a plan gets its grid point's key (method, value)
    reads: tuple | None = None


# What a diff target needs of its model: (predicate, what the model is not).
_MODEL_REQUIREMENTS = {
    "sq": (lambda m: m.square_integrable, "is not square integrable"),
    "sym": (lambda m: m.conditionally_symmetric, "is not conditionally symmetric"),
    "heavy": (lambda m: m.heavy_on_left, "is not heavy on left"),
    "bounded_abs": (
        lambda m: m.square_integrable and math.isfinite(m.abs_bound),
        "has unbounded increments",
    ),
}

_SPEC_FIELDS = ExperimentSpec.__dataclass_fields__


def _is_percentile(value) -> bool:
    return isinstance(value, str) and value.startswith("p")


def _is_int(value) -> bool:
    return is_finite_real(value) and isinstance(value, int)


def _check_grids(target: _Target, theorem: str, grids: dict, mode) -> list:
    errors = []
    allowed = target.grid_keys + target.optional_keys
    for key in grids:
        if key not in allowed:
            errors.append(f"grids.{key}: not used by theorem {theorem}")
    for key in allowed:
        values = grids.get(key)
        if key in target.optional_keys:
            if values is None:
                continue
            if not isinstance(values, list) or len(values) != 1:
                errors.append(f"grids.{key}: optional, a list of exactly one value")
                continue
        elif not isinstance(values, list) or not values:
            errors.append(f"grids.{key}: required nonempty list")
            continue
        for v in values:
            # a percentile anchors the b of a [b, b*M] window only
            if key == "b" and "M" in target.grid_keys and _is_percentile(v):
                if mode != "mc":
                    errors.append(
                        f"grids.b: percentile entry {v!r} needs mode=mc "
                        "(give a numeric b for exact enumeration)"
                    )
                elif not v[1:].isdigit() or not 0 < int(v[1:]) < 100:
                    errors.append(f"grids.b: bad percentile spec {v!r}")
                continue
            rule = field_violation("a_bnd" if key == "a" else key, v)
            if rule is not None:
                errors.append(f"grids.{key}: value {v!r} {rule}")
    return errors


def load_spec(raw: dict) -> ExperimentSpec:
    """Fully validate an already-parsed spec; SpecValidationError lists every
    failure."""
    if not isinstance(raw, dict):
        raise SpecValidationError(["spec must be a JSON object"])
    errors = [f"unknown field {key!r}" for key in raw if key not in _SPEC_FIELDS]
    # every spec field, with its default where the spec leaves it out
    fields = {
        name: raw.get(name, None if f.default is MISSING else f.default)
        for name, f in _SPEC_FIELDS.items()
    }

    sid = fields["id"]
    if not isinstance(sid, str) or not sid:
        errors.append("id: required nonempty string")
    elif any(c in sid for c in CSV_BREAKS):
        errors.append(f"id: {sid!r} holds a comma, quote, CR or LF, which would split its CSV row")
    theorem = fields["theorem"]
    target = VERIFY_TARGETS.get(theorem)
    if target is None:
        errors.append(
            f"theorem: {theorem!r} is not a verification target "
            f"(expected one of {', '.join(sorted(VERIFY_TARGETS))})"
        )

    n = fields["n"]
    if not _is_int(n) or n < 1:
        errors.append("n: required positive integer")

    mode = fields["mode"]
    if mode not in ("mc", "exact_oracle", "both"):
        errors.append(f"mode: {mode!r} not in (mc, exact_oracle, both)")

    n_rep = fields["n_rep"]
    if not _is_int(n_rep) or n_rep < 100:
        errors.append("n_rep: integer >= 100 required")
    inner_rep = fields["inner_rep"]
    if not _is_int(inner_rep) or inner_rep < 1:
        errors.append("inner_rep: positive integer required")
    gamma = fields["gamma"]
    if not isinstance(gamma, (int, float)) or not 0.0 < gamma < 1.0:
        errors.append(f"gamma: {gamma!r} must be in (0, 1)")
    master_seed = fields["master_seed"]
    if not _is_int(master_seed) or not 0 <= master_seed < SEED_LIMIT:
        errors.append("master_seed: integer in [0, 2**64) required")
    theta = fields["theta"]
    if not is_finite_real(theta):
        errors.append("theta: finite number required")
    phi = fields["phi"]
    if phi not in ("uniform", "ones"):
        errors.append(f"phi: {phi!r} not in (uniform, ones)")
    d_rule = field_violation("d", fields["d"])
    if d_rule is not None:
        errors.append(f"d: {d_rule}")
    c1 = fields["c1"]
    if c1 is not None and not (is_finite_real(c1) and c1 > 0):
        errors.append("c1: must be a positive number when given")
    if fields["c_const"] is not None:
        errors.append("c_const: no verification target reads it; leave it out")

    grids = fields["grids"]
    if not isinstance(grids, dict):
        errors.append("grids: required object of value lists")
        grids = fields["grids"] = {}
    if target is not None:
        errors += _check_grids(target, theorem, grids, mode)

    model = None
    if target is not None and target.uses_model:
        if fields["model"] is None:
            errors.append("model: required for this theorem")
        else:
            try:
                model = build_model(fields["model"])
            except (ValueError, TypeError) as exc:
                errors.append(f"model: {exc}")
    elif target is not None and fields["model"] is not None:
        errors.append(f"model: theorem {theorem} reads no model; leave it out")
    if model is not None and target.model_req is not None:
        ok, what = _MODEL_REQUIREMENTS[target.model_req]
        if not ok(model):
            errors.append(f"model: {model.family} {what}")

    if target is not None and mode in ("exact_oracle", "both"):
        if not target.uses_model:
            errors.append(f"mode: theorem {theorem} has no exact-enumeration oracle")
        elif target.plan is not None:
            if model is not None and model.family != "rademacher":
                errors.append("mode: exact enumeration needs the rademacher model")
    if not errors and target.check is not None:
        # target rules call the code that owns them, which needs valid fields
        errors += target.check(fields, model)

    if errors:
        raise SpecValidationError(errors)
    fields.update(
        grids={k: list(v) for k, v in grids.items()}, gamma=float(gamma), theta=float(theta)
    )
    return ExperimentSpec(**fields)


def _rule_errors(where: str, rule, *args) -> list:
    """The message of the code that owns a rule, as a config error at `where`."""
    try:
        rule(*args)
    except ValueError as exc:
        return [f"{where}: {exc}"]
    return []


def _grid_rule_errors(grids: dict, keys: tuple, rule) -> list:
    """`rule` on every combination of the grid values of `keys`."""
    return [
        error
        for combo in itertools.product(*(grids[key] for key in keys))
        for error in _rule_errors(f"grid point {dict(zip(keys, combo))}", rule, *combo)
    ]


def _check_beta_moments(fields: dict, model) -> list:
    return [
        f"model: {model.family} lacks a finite beta={beta} moment"
        for beta in fields["grids"]["beta"]
        if not model.beta_integrable(beta)
    ]


def _check_enumeration(fields: dict, model) -> list:
    # the exact expectation bound sums over all 2^n paths
    if fields["mode"] != "exact_oracle":
        return []
    return _rule_errors("mode", check_enumeration_size, fields["n"])


def _check_thm23(fields: dict, model) -> list:
    errors = _check_enumeration(fields, model) + _check_beta_moments(fields, model)
    return errors + _grid_rule_errors(fields["grids"], ("x", "beta"), beta_decay_coefficient)


def _check_delyon(fields: dict, model) -> list:
    delyon = lambda x, y: evaluate_bound("delyon", x=x, y=y)
    return _grid_rule_errors(fields["grids"], ("x", "y"), delyon)


def _check_tstat_domain(fields: dict, model) -> list:
    n = fields["n"]
    return _grid_rule_errors(fields["grids"], ("x",), lambda x: self_normalized_threshold(x, n))


def _check_regression(fields: dict, model) -> list:
    mode, phi = fields["mode"], fields["phi"]
    errors = [] if mode == "exact_oracle" else _rule_errors("model", noise_bounds, model, phi)
    if mode != "mc":
        errors += _rule_errors("mode", exact_oracle_scale, fields["n"], model, phi)
    return errors


def _check_thm34(fields: dict, model) -> list:
    return _rule_errors("thm34_tsp", check_tsp_size, fields["n"], fields["inner_rep"])


# ---------------------------------------------------------------------------
# Grid execution.
# ---------------------------------------------------------------------------


def _grid_points(spec: ExperimentSpec) -> list[dict]:
    keys = VERIFY_TARGETS[spec.theorem].grid_keys
    values = [spec.grids[k] for k in keys]
    return [dict(zip(keys, combo)) for combo in itertools.product(*values)]


def _append_note(note: str, extra: str) -> str:
    return f"{note}; {extra}" if note else extra


_ECHO_FIELDS = ("x", "y", "z", "b", "M", "beta")
_ESTIMATE_FIELDS = ("p_hat", "ci_lo", "ci_hi", "hits", "n_rep")


def _record(spec, echo, grid, bound, estimate=None, exact=None, note="", suffix="",
            bound_estimated=False):
    """Build a record, untimed; the exact tail decides its verdict when there
    is one, unless the bound is itself a Monte Carlo estimate, which only the
    Monte Carlo interval is compared against."""
    if estimate is None or (exact is not None and not bound_estimated):
        status = exact_verdict(exact, bound)
    else:
        status = domination_check(estimate, bound)
        if exact is not None:
            note = _append_note(note, "exact tail not compared (estimated bound)")
    return ResultRecord(
        experiment_id=spec.id + suffix,
        theorem=spec.theorem,
        **{key: echo.get(key) for key in _ECHO_FIELDS},
        bound=bound,
        **{key: None if estimate is None else getattr(estimate, key) for key in _ESTIMATE_FIELDS},
        exact=exact,
        status=status,
        seed=spec.master_seed,
        grid=tuple(sorted(grid.items())),
        note=note,
    )


def _timed(records: list, t0: float) -> list:
    """The records, each given an equal share of the time since t0, so their
    wall_ms sum to the time they took together."""
    share = (time.perf_counter() - t0) * 1e3 / len(records)
    return [replace(rec, wall_ms=share) for rec in records]


@dataclass
class _PointPlan:
    echo: dict               # canonical CSV fields
    event: TailEvent
    bound: float | None      # None when `expectation` gives the bound
    expectation: float | None = None  # the rate of an inf-over-p bound on `event`
    note: str = ""
    suffix: str = ""


def _bracket(key: tuple, root: bool = False):
    """The statistic st -> the bracket `key` = (method, value) of a batch or of
    the sign types; with `root`, the scale of a peeling window: its square
    root, or G_n(beta)^{1/beta} for ("g_n", beta)."""
    method, value = key
    args = () if value is None else (value,)

    def stat(st):
        bracket = getattr(st, method)(*args)
        if not root:
            return bracket
        return bracket ** (1.0 / value) if method == "g_n" else np.sqrt(bracket)

    return stat


def _plan_bernstein(spec, gp, model, key):
    z = gp["z"]
    bound = evaluate_bound("bernstein", z=z, L=spec.n * model.var(), a_bnd=model.abs_bound)
    return [_PointPlan({"z": z}, TailEvent(x=z), bound)]


def _plan_freedman(spec, gp, model, key):
    x, L = gp["x"], gp["L"]
    event = TailEvent(x=x, window=(_bracket(key), 0.0, L))
    bound = evaluate_bound("freedman", x=x, L=L, a_bnd=model.abs_bound)
    return [_PointPlan({"x": x, "z": L}, event, bound)]


def _plan_dvz(spec, gp, model, key):
    x, L, a = gp["x"], gp["L"], gp["a"]
    event = TailEvent(x=x, window=(_bracket(key), 0.0, L))
    return [_PointPlan({"x": x, "y": a, "z": L}, event, evaluate_bound("dvz", x=x, L=L, a_bnd=a))]


def _plan_point(spec, gp, model, key):
    """dlp_point (the sum of squares) and cor21_point (B_n(0))."""
    x, y = gp["x"], gp["y"]
    stat = _bracket(key)
    event = TailEvent(x=x, normalizer=stat, window=(stat, y, math.inf))
    return [_PointPlan({"x": x, "y": y}, event, evaluate_bound("dlp_point", x=x, y=y))]


def _plan_b_n_expectation(spec, gp, model, key):
    """cor21_expectation (y = 0) and thm21_expectation."""
    x, y = gp["x"], key[1]
    event = TailEvent(x=x, normalizer=_bracket(key))
    return [_PointPlan({"x": x, "y": y}, event, None, f_rate(x, y))]


def _plan_thm21_point(spec, gp, model, key):
    x, y, z = gp["x"], gp["y"], gp["z"]
    bound = evaluate_bound("thm21_point", x=x, y=y, z=z)
    norm = _bracket(key)
    ge = TailEvent(x=x, normalizer=norm, window=(norm, z, math.inf))
    le = TailEvent(x=x, normalizer=norm, window=(norm, 0.0, z))
    echo = {"x": x, "y": y, "z": z}
    return [
        _PointPlan(echo, ge, bound, note="window B_n(y) >= z", suffix=":orient_ge"),
        _PointPlan(echo, le, bound, note="window B_n(y) <= z (printed orientation)",
                   suffix=":orient_le"),
    ]


def _plan_bercu_touati(spec, gp, model, key):
    # b is the normalizer's coefficient, not a window base
    x, y, a, b = gp["x"], gp["y"], gp["a"], gp["b"]
    stat = _bracket(key)
    event = TailEvent(x=x, normalizer=lambda st: a + b * stat(st), window=(stat, y, math.inf))
    bound = evaluate_bound("bercu_touati", x=x, y=y, b=b, a_bnd=a)
    return [_PointPlan({"x": x, "y": y, "b": b}, event, bound, note=f"a={a!r}")]


def _plan_peeling(spec, gp, model, key):
    """thm22_peeling (B_n(y)), cor22_peeling (B_n(0)) and thm25_peeling (the
    sum of squares): the root bracket normalizes, on the window [b, b*M]."""
    x, y, b, M = gp["x"], key[1], gp["b"], gp["M"]
    stat = _bracket(key, root=True)
    echo = {"x": x, "y": y, "b": b, "M": M}
    bound = evaluate_bound(spec.theorem, **{k: v for k, v in echo.items() if v is not None})
    event = TailEvent(x=x, normalizer=stat, window=(stat, b, b * M))
    return [_PointPlan(echo, event, bound)]


def _plan_delyon(spec, gp, model, key):
    x, y = gp["x"], gp["y"]
    event = TailEvent(x=x, window=(_bracket(key), 0.0, y))
    return [_PointPlan({"x": x, "y": y}, event, evaluate_bound("delyon", x=x, y=y))]


def _plan_thm23_expectation(spec, gp, model, key):
    x, beta = gp["x"], gp["beta"]
    event = TailEvent(x=x, normalizer=_bracket(key))
    return [_PointPlan({"x": x, "beta": beta}, event, None, beta_decay_coefficient(x, beta))]


def _plan_thm24_peeling(spec, gp, model, key):
    x, beta, b, M = gp["x"], gp["beta"], gp["b"], gp["M"]
    stat = _bracket(key, root=True)
    bound = evaluate_bound("thm24_peeling", x=x, beta=beta, M=M)
    expo = 1.0 / (beta - 1.0)
    event = TailEvent(x=x, normalizer=stat, window=(stat, b ** expo, (b * M) ** expo))
    return [_PointPlan({"x": x, "beta": beta, "b": b, "M": M}, event, bound)]


def _plan_thm31_tstat(spec, gp, model, key):
    x, b, M = gp["x"], gp["b"], gp["M"]
    stat = _bracket(key, root=True)
    threshold = self_normalized_threshold(x, spec.n)
    bound = evaluate_bound("thm31_tstat", x=x, n=spec.n, M=M)
    event = TailEvent(x=threshold, normalizer=stat, window=(stat, b, b * M))
    return [_PointPlan({"x": x, "b": b, "M": M}, event, bound,
                       note="event via the equivalent self-normalized form")]


def _diff_record(spec, stats, plan: _PointPlan, gp: dict) -> ResultRecord:
    note, bound, estimate, exact = plan.note, plan.bound, None, None
    if plan.expectation is not None:
        if spec.mode == "exact_oracle":
            bound = exact_optimized_bound_rademacher(spec.n, plan.event, plan.expectation).value
        else:
            opt = optimize_over_p_from(stats, plan.event, plan.expectation)
            bound = opt.value
            note = _append_note(note, f"p_star={opt.p_star:.6g}")
    if stats is not None:
        estimate = estimate_tail_from(stats, plan.event, spec.gamma)
        if plan.expectation is not None and estimate.hits < UNTESTED_DEPTH_FACTOR:
            note = _append_note(note, "untested_depth")
    if spec.mode != "mc":
        exact = exact_tail_rademacher(spec.n, plan.event)
    return _record(spec, plan.echo, gp, bound, estimate, exact, note, plan.suffix,
                   bound_estimated=plan.expectation is not None)


def _run_diff_target(spec: ExperimentSpec, jobs: int) -> list[ResultRecord]:
    model = build_model(spec.model)
    target = VERIFY_TARGETS[spec.theorem]
    method, param = target.reads or (None, None)
    # each grid point with its bracket key: `reads` at the point's value of a
    # grid-key parameter, or at a constant one; None where S_n is read alone
    points = [(gp, method and (method, gp.get(param, param))) for gp in _grid_points(spec)]
    stats = None
    sample_ms = 0.0
    if spec.mode in ("mc", "both"):
        t0 = time.perf_counter()
        # S_n and the bracket at every grid point; cond_var is a closed form
        read = [key for _, key in points if method not in (None, "cond_var")]
        keys = list(dict.fromkeys([("s", None), *read]))
        table = sample_batch(model, spec.n, spec.n_rep, spec.master_seed, keys, jobs)
        stats = BatchStats(table, keys, model, spec.n)
        sample_ms = (time.perf_counter() - t0) * 1e3

    @functools.cache
    def resolve_b(raw_b, key: tuple) -> float:
        """A numeric b as given; a percentile "pNN" of the root bracket over the
        batch (mode mc only), once per run.  G_n(beta)'s window edge is
        b^{1/(beta-1)}, so its anchor maps back through the inverse power."""
        if not _is_percentile(raw_b):
            return float(raw_b)
        b = float(np.percentile(_bracket(key, root=True)(stats), float(raw_b[1:])))
        return b ** (key[1] - 1.0) if key[0] == "g_n" else b

    windowed = "M" in target.grid_keys  # b anchors a [b, b*M] window, as in _check_grids

    def run_point(point: tuple) -> list[ResultRecord]:
        gp, key = point
        t0 = time.perf_counter()
        try:
            # the plan reads a window's b resolved; the record echoes gp as given
            plan_gp = {**gp, "b": resolve_b(gp["b"], key)} if windowed else gp
            plans = target.plan(spec, plan_gp, model, key)
            return _timed([_diff_record(spec, stats, plan, gp) for plan in plans], t0)
        except Exception as exc:
            raise RuntimeError(f"{spec.theorem} at grid point {gp}: {exc}") from exc

    records = [rec for group in map_jobs(run_point, points, jobs) for rec in group]
    # every record shares the one draw-and-reduce step equally
    share = sample_ms / len(records)
    return [replace(rec, wall_ms=rec.wall_ms + share) for rec in records]


def _run_regression_target(spec: ExperimentSpec, jobs: int) -> list[ResultRecord]:
    t0 = time.perf_counter()
    model = build_model(spec.model)
    x_grid = spec.grids["x"]
    b = spec.grids.get("b", [None])[0]
    M = spec.grids.get("M", [None])[0]
    mc_tails = exact_tails = [None] * len(x_grid)
    if spec.mode in ("exact_oracle", "both"):
        window, bounds, exact_tails = exact_regression_records(
            spec.theorem, n=spec.n, x_grid=x_grid, eps_model=model, b=b, M=M
        )
    if spec.mode in ("mc", "both"):
        # a Monte Carlo run gives the records their window and bounds
        window, bounds, mc_tails = verify_regression(
            spec.theorem,
            phi_kind=spec.phi,
            eps_model=model,
            n=spec.n,
            x_grid=x_grid,
            n_rep=spec.n_rep,
            gamma=spec.gamma,
            master_seed=spec.master_seed,
            b=b,
            M=M,
            jobs=jobs,
        )
    echo = dict(zip(("b", "M"), window))
    note = f"theta={spec.theta!r}; phi={spec.phi}"
    return _timed([
        _record(spec, {"x": float(x), **echo}, {"x": float(x)}, bound, mc, exact, note,
                bound_estimated=spec.theorem == "thm32_regression")
        for x, bound, mc, exact in zip(x_grid, bounds, mc_tails, exact_tails)
    ], t0)


def _run_thm34_target(spec: ExperimentSpec, jobs: int) -> list[ResultRecord]:
    t0 = time.perf_counter()
    result = verify_tsp(
        n=spec.n,
        d=spec.d,
        t_grid=spec.grids["t"],
        n_instances=spec.n_rep,
        inner_rep=spec.inner_rep,
        gamma=spec.gamma,
        master_seed=spec.master_seed,
        c1=spec.c1,
    )
    note = (
        f"c1={result.c1:.6g}; window=[{result.window[0]:.6g},{result.window[1]:.6g}]; "
        f"d_sign +{result.sign_positive}/-{result.sign_negative}"
        f"/?{result.sign_indeterminate}; recon_pass={result.recon_pass_fraction:.4f}"
    )
    if not result.window_hits:
        note = _append_note(note, "vacuous-window")
    return _timed([
        _record(spec, {"x": float(t)}, {"t": float(t)}, bound, estimate, note=note)
        for t, bound, estimate in zip(spec.grids["t"], result.bounds, result.estimates)
    ], t0)


def _diff(grid_keys, plan, model_req, reads, check=None):
    return _Target(grid_keys, _run_diff_target, plan, model_req=model_req, check=check,
                   reads=reads)


VERIFY_TARGETS = {
    "bernstein": _diff(("z",), _plan_bernstein, "bounded_abs", None),
    "freedman": _diff(("x", "L"), _plan_freedman, "bounded_abs", ("cond_var", None)),
    "dvz": _diff(("x", "L", "a"), _plan_dvz, "sq", ("h_n", "a")),
    "dlp_point": _diff(("x", "y"), _plan_point, "sym", ("sq_var", None)),
    "cor21_point": _diff(("x", "y"), _plan_point, "sq", ("b_n", 0.0)),
    "cor21_expectation": _diff(("x",), _plan_b_n_expectation, "sq", ("b_n", 0.0),
                               _check_enumeration),
    "thm21_point": _diff(("x", "y", "z"), _plan_thm21_point, "sq", ("b_n", "y")),
    "thm21_expectation": _diff(("x", "y"), _plan_b_n_expectation, "sq", ("b_n", "y"),
                               _check_enumeration),
    "bercu_touati": _diff(("x", "y", "a", "b"), _plan_bercu_touati, "heavy", ("sq_var", None)),
    "thm22_peeling": _diff(("x", "y", "b", "M"), _plan_peeling, "sq", ("b_n", "y")),
    "cor22_peeling": _diff(("x", "b", "M"), _plan_peeling, "sq", ("b_n", 0.0)),
    "thm25_peeling": _diff(("x", "b", "M"), _plan_peeling, "heavy", ("sq_var", None)),
    "delyon": _diff(("x", "y"), _plan_delyon, "sq", ("b_n", 0.0), _check_delyon),
    "thm23_expectation": _diff(("x", "beta"), _plan_thm23_expectation, None, ("g_n", "beta"),
                               _check_thm23),
    "thm24_peeling": _diff(("x", "beta", "b", "M"), _plan_thm24_peeling, None, ("g_n", "beta"),
                           _check_beta_moments),
    "thm31_tstat": _diff(("x", "b", "M"), _plan_thm31_tstat, "heavy", ("sq_var", None),
                         _check_tstat_domain),
    "thm32_regression": _Target(("x",), _run_regression_target, check=_check_regression),
    "thm33_regression": _Target(
        ("x",), _run_regression_target, optional_keys=("b", "M"), check=_check_regression
    ),
    "thm34_tsp": _Target(("t",), _run_thm34_target, uses_model=False, check=_check_thm34),
}


def run_experiment(spec: ExperimentSpec, jobs: int = 1) -> list[ResultRecord]:
    """Execute the full grid; record order is canonical (grid product order)."""
    if jobs < 1:
        raise ValueError(f"jobs must be >= 1, got {jobs}")
    try:
        return VERIFY_TARGETS[spec.theorem].run(spec, jobs)
    except Exception as exc:
        raise RuntimeError(f"experiment {spec.id}: {exc}") from exc


def any_violation(records) -> bool:
    return any(rec.status == "violation_evidence" for rec in records)


# ---------------------------------------------------------------------------
# Reports.
# ---------------------------------------------------------------------------


def _fmt(value) -> str:
    if value is None:
        return ""
    if isinstance(value, float):
        return format(value, ".17g")
    return str(value)


def _record_dict(rec: ResultRecord, include_timing: bool) -> dict:
    data = asdict(rec)
    data["grid"] = [list(pair) for pair in rec.grid]
    if not include_timing:
        data.pop("wall_ms")
    return data


def render_report(
    records,
    fmt: str,
    spec: ExperimentSpec | dict | None = None,
    include_timing: bool = False,
) -> str:
    """Render records as JSON (spec echo + records) or fixed-column CSV.  The
    echo is the spec's fields, or a reloaded report's echo as it was read.

    Timing is excluded by default so that reports are byte-identical across
    re-runs and worker counts.
    """
    records = list(records)
    if not records:
        raise ValueError("no records to report")
    if fmt == "json":
        payload = {
            "spec": asdict(spec) if is_dataclass(spec) else spec,
            "records": [_record_dict(rec, include_timing) for rec in records],
        }
        return json.dumps(payload, indent=2, sort_keys=True) + "\n"
    if fmt == "csv":
        lines = [",".join(CSV_COLUMNS)]
        for rec in records:
            row = []
            for col in CSV_COLUMNS:
                if col == "wall_ms" and not include_timing:
                    row.append("")
                else:
                    row.append(_fmt(getattr(rec, col)))
            lines.append(",".join(row))
        return "\n".join(lines) + "\n"
    raise ValueError(f"format must be json or csv, got {fmt!r}")


def load_report(path) -> tuple[dict | None, list[ResultRecord]]:
    """Reload a JSON report; reloaded records compare equal to the originals.
    A record whose CSV fields hold a CSV_BREAKS character is rejected."""
    with open(path) as fh:
        payload = json.load(fh)
    records = []
    for data in payload["records"]:
        data = dict(data)
        for col in CSV_COLUMNS:
            value = data.get(col)
            if isinstance(value, str) and any(c in value for c in CSV_BREAKS):
                raise ValueError(
                    f"{col}: {value!r} holds a comma, quote, CR or LF, which would split its CSV row"
                )
        data["grid"] = tuple(tuple(pair) for pair in data.get("grid", ()))
        data.setdefault("wall_ms", None)
        records.append(ResultRecord(**data))
    if not records:
        raise ValueError("the report holds no records")
    return payload.get("spec"), records

