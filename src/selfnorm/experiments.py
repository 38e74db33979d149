"""Experiment configuration, grid orchestration, and report emission.

An experiment names one verification target, a difference model (or the
regression/TSP configuration), parameter grids, and Monte Carlo settings.
Re-running the same spec with the same master seed reproduces identical
records at any worker count.
"""

from __future__ import annotations

import itertools
import json
import math
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import asdict, dataclass, field

import numpy as np

from .bounds import BoundSpec, RateInputs, evaluate_bound
from .montecarlo import (
    DominationVerdict,
    MCEstimate,
    Statistic,
    TailEvent,
    domination_check,
    estimate_tail_from,
    exact_optimized_bound_rademacher,
    exact_tail_rademacher,
    optimize_over_p_from,
    ENUMERATION_CAP,
)
from .processes import BatchStats, build_model, sample_batch
from .applications.regression import exact_regression_records, verify_regression
from .applications.student import self_normalized_threshold
from .applications.tsp import (
    _ROLE_POINTS,
    HELD_KARP_CAP,
    _stream_id,
    dist_matrix_batch,
    held_karp_batch,
    sample_points,
    tsp_tour,
    verify_tsp,
)
from .processes import substream

__all__ = [
    "ExperimentSpec",
    "ResultRecord",
    "SpecValidationError",
    "VERIFY_TARGETS",
    "load_spec",
    "run_experiment",
    "emit_report",
    "load_report",
    "emit_plot_data",
    "CSV_COLUMNS",
]

DEFAULT_N_REP = 100_000
DEFAULT_INNER_REP = 2000
DEFAULT_GAMMA = 0.99

# Philox keys are pairs of uint64, so a master seed must fit in 64 bits.
SEED_LIMIT = 2 ** 64

# azuma_tsp instances solved per held_karp_batch call.
TSP_INSTANCE_BLOCK = 2048

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


class SpecValidationError(ValueError):
    """Carries every validation failure found in a spec, not just the first."""

    def __init__(self, errors):
        self.errors = list(errors)
        super().__init__("; ".join(self.errors))


@dataclass(frozen=True)
class _Target:
    kind: str                 # diff | regression | tsp
    grid_keys: tuple
    optional_keys: tuple = ()
    model_req: str | None = None   # sq | sym | heavy | beta | bounded_abs
    exact_ok: bool = True


VERIFY_TARGETS = {
    "bernstein": _Target("diff", ("z",), model_req="bounded_abs"),
    "freedman": _Target("diff", ("x", "L"), model_req="bounded_abs"),
    "dvz": _Target("diff", ("x", "L", "a"), model_req="sq"),
    "dlp_point": _Target("diff", ("x", "y"), model_req="sym"),
    "cor21_point": _Target("diff", ("x", "y"), model_req="sq"),
    "cor21_expectation": _Target("diff", ("x",), model_req="sq"),
    "thm21_point": _Target("diff", ("x", "y", "z"), model_req="sq"),
    "thm21_expectation": _Target("diff", ("x", "y"), model_req="sq"),
    "bercu_touati": _Target("diff", ("x", "y", "a", "b"), model_req="heavy"),
    "thm22_peeling": _Target("diff", ("x", "y", "b", "M"), model_req="sq"),
    "cor22_peeling": _Target("diff", ("x", "b", "M"), model_req="sq"),
    "thm25_peeling": _Target("diff", ("x", "b", "M"), model_req="heavy"),
    "delyon": _Target("diff", ("x", "y"), model_req="sq"),
    "thm23_expectation": _Target("diff", ("x", "beta"), model_req="beta"),
    "thm24_peeling": _Target("diff", ("x", "beta", "b", "M"), model_req="beta"),
    "thm31_tstat": _Target("diff", ("x", "b", "M"), model_req="heavy"),
    "thm32_regression": _Target("regression", ("x",)),
    "thm33_regression": _Target("regression", ("x",), optional_keys=("b", "M")),
    "thm34_tsp": _Target("tsp", ("t",), exact_ok=False),
    "azuma_tsp": _Target("tsp", ("t",), exact_ok=False),
}

_GRID_RULES = {
    "x": (lambda v: v >= 0, ">= 0"),
    "y": (lambda v: v >= 0, ">= 0"),
    "z": (lambda v: v > 0, "> 0"),
    "b": (lambda v: v > 0, "> 0"),
    "M": (lambda v: v >= 1, ">= 1"),
    "beta": (lambda v: 1.0 < v < 2.0, "in (1, 2)"),
    "a": (lambda v: v >= 0, ">= 0"),
    "L": (lambda v: v > 0, "> 0"),
    "t": (lambda v: v > 0, "> 0"),
}


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
    c_const: float | None = None


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


def _is_percentile(value) -> bool:
    return isinstance(value, str) and value.startswith("p")


def _is_int(value) -> bool:
    # JSON true/false load as bool, which Python counts as int
    return isinstance(value, int) and not isinstance(value, bool)


def _validate_spec(raw: dict) -> tuple[ExperimentSpec | None, list]:
    errors = []
    if not isinstance(raw, dict):
        return None, ["spec must be a JSON object"]
    known = set(ExperimentSpec.__dataclass_fields__)
    for key in raw:
        if key not in known:
            errors.append(f"unknown field {key!r}")

    sid = raw.get("id")
    if not isinstance(sid, str) or not sid:
        errors.append("id: required nonempty string")
    theorem = raw.get("theorem")
    target = VERIFY_TARGETS.get(theorem)
    if target is None:
        errors.append(
            f"theorem: {theorem!r} is not a verification target "
            f"(expected one of {', '.join(sorted(VERIFY_TARGETS))})"
        )

    n = raw.get("n")
    if not _is_int(n) or n < 1:
        errors.append("n: required positive integer")

    mode = raw.get("mode", "mc")
    if mode not in ("mc", "exact_oracle", "both"):
        errors.append(f"mode: {mode!r} not in (mc, exact_oracle, both)")

    n_rep = raw.get("n_rep", DEFAULT_N_REP)
    if not _is_int(n_rep) or n_rep < 100:
        errors.append("n_rep: integer >= 100 required")
    inner_rep = raw.get("inner_rep", DEFAULT_INNER_REP)
    if not _is_int(inner_rep) or inner_rep < 1:
        errors.append("inner_rep: positive integer required")
    gamma = raw.get("gamma", DEFAULT_GAMMA)
    if not isinstance(gamma, (int, float)) or not 0.0 < gamma < 1.0:
        errors.append(f"gamma: {gamma!r} must be in (0, 1)")
    master_seed = raw.get("master_seed", 0)
    if not _is_int(master_seed) or not 0 <= master_seed < SEED_LIMIT:
        errors.append("master_seed: integer in [0, 2**64) required")
    theta = raw.get("theta", 1.0)
    if not isinstance(theta, (int, float)):
        errors.append("theta: number required")
    phi = raw.get("phi", "uniform")
    if phi not in ("uniform", "ones"):
        errors.append(f"phi: {phi!r} not in (uniform, ones)")
    d = raw.get("d", 2)
    if not _is_int(d) or d < 2:
        errors.append("d: integer >= 2 required")
    for opt in ("c1", "c_const"):
        v = raw.get(opt)
        if v is not None and (not isinstance(v, (int, float)) or v <= 0):
            errors.append(f"{opt}: must be a positive number when given")

    grids = raw.get("grids")
    if not isinstance(grids, dict):
        errors.append("grids: required object of value lists")
        grids = {}
    if target is not None:
        allowed = set(target.grid_keys) | set(target.optional_keys)
        for key in grids:
            if key not in allowed:
                errors.append(f"grids.{key}: not used by theorem {theorem}")
        for key in target.grid_keys + target.optional_keys:
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
            ok, rule = _GRID_RULES[key]
            for v in values:
                if key == "b" and target.kind == "diff" and _is_percentile(v):
                    if mode != "mc":
                        errors.append(
                            f"grids.b: percentile entry {v!r} needs mode=mc "
                            "(give a numeric b for exact enumeration)"
                        )
                    elif not v[1:].isdigit() or not 0 < int(v[1:]) < 100:
                        errors.append(f"grids.b: bad percentile spec {v!r}")
                    continue
                if not isinstance(v, (int, float)) or not ok(v):
                    errors.append(f"grids.{key}: value {v!r} must be {rule}")

    model_desc = raw.get("model")
    model = None
    if target is not None and target.kind in ("diff", "regression"):
        if model_desc is None:
            errors.append("model: required for this theorem")
        else:
            try:
                model = build_model(model_desc)
            except (ValueError, TypeError) as exc:
                errors.append(f"model: {exc}")
    if model is not None and target is not None:
        req = target.model_req
        if req == "sq" and not model.square_integrable:
            errors.append(f"model: {model.family} is not square integrable")
        elif req == "sym" and not model.conditionally_symmetric:
            errors.append(f"model: {model.family} is not conditionally symmetric")
        elif req == "heavy" and not model.heavy_on_left:
            errors.append(f"model: {model.family} is not heavy on left")
        elif req == "bounded_abs" and not (
            model.square_integrable and math.isfinite(model.abs_bound)
        ):
            errors.append(f"model: {model.family} has unbounded increments")
        elif req == "beta":
            for beta in grids.get("beta", []):
                if isinstance(beta, (int, float)) and not model.beta_integrable(beta):
                    errors.append(
                        f"model: {model.family} lacks a finite beta={beta} moment"
                    )
    if target is not None and target.kind == "regression" and model is not None:
        if not math.isfinite(model.abs_bound if phi == "uniform" else model.upper_bound):
            errors.append("model: regression noise must be bounded")
        if mode in ("exact_oracle", "both"):
            symmetric_two_point = model.family in ("rademacher",) or (
                model.family == "scaled_two_point" and model.conditionally_symmetric
            )
            if phi != "ones" or not symmetric_two_point:
                errors.append(
                    "mode: regression exact oracle needs phi='ones' and symmetric two-point noise"
                )

    if target is not None and mode in ("exact_oracle", "both"):
        if not target.exact_ok:
            errors.append(f"mode: theorem {theorem} has no exact-enumeration oracle")
        elif target.kind == "diff":
            if model is not None and model.family != "rademacher":
                errors.append("mode: exact enumeration needs the rademacher model")
            if isinstance(n, int) and n > ENUMERATION_CAP:
                errors.append(f"mode: exact enumeration capped at n = {ENUMERATION_CAP}")
        elif target.kind == "regression" and isinstance(n, int) and n > ENUMERATION_CAP:
            errors.append(f"mode: exact enumeration capped at n = {ENUMERATION_CAP}")

    if target is not None and theorem == "thm31_tstat" and isinstance(n, int):
        for x in grids.get("x", []):
            if isinstance(x, (int, float)) and not 0.0 < x < math.sqrt(n):
                errors.append(
                    f"grids.x: value {x!r} outside the t-statistic domain (0, sqrt(n))"
                )

    if target is not None and target.kind == "tsp":
        if theorem == "thm34_tsp" and isinstance(n, int) and n > HELD_KARP_CAP:
            errors.append(f"n: thm34_tsp needs exact tours, n <= {HELD_KARP_CAP}")
        if theorem == "azuma_tsp" and raw.get("c_const") is None:
            errors.append("c_const: required for azuma_tsp")
        if theorem == "thm34_tsp" and inner_rep < 1000:
            errors.append("inner_rep: >= 1000 required for thm34_tsp")

    if errors:
        return None, errors
    return (
        ExperimentSpec(
            id=sid,
            theorem=theorem,
            n=n,
            grids={k: list(v) for k, v in grids.items()},
            model=model_desc,
            n_rep=n_rep,
            inner_rep=inner_rep,
            gamma=float(gamma),
            master_seed=master_seed,
            mode=mode,
            theta=float(theta),
            phi=phi,
            d=d,
            c1=raw.get("c1"),
            c_const=raw.get("c_const"),
        ),
        [],
    )


def load_spec(source) -> ExperimentSpec:
    """Load and fully validate a spec from a path or an already-parsed dict."""
    if isinstance(source, dict):
        raw = source
    else:
        with open(source) as fh:
            try:
                raw = json.load(fh)
            except json.JSONDecodeError as exc:
                raise SpecValidationError([f"parse error: {exc}"]) from exc
    spec, errors = _validate_spec(raw)
    if errors:
        raise SpecValidationError(errors)
    return spec


# ---------------------------------------------------------------------------
# Grid execution.
# ---------------------------------------------------------------------------


def _grid_points(spec: ExperimentSpec) -> list[dict]:
    target = VERIFY_TARGETS[spec.theorem]
    keys = list(target.grid_keys)
    values = [spec.grids[k] for k in keys]
    return [dict(zip(keys, combo)) for combo in itertools.product(*values)]


def _resolve_b(raw_b, window_values: np.ndarray | None) -> float:
    if _is_percentile(raw_b):
        if window_values is None:
            raise ValueError("percentile b needs Monte Carlo samples")
        return float(np.percentile(window_values, float(raw_b[1:])))
    return float(raw_b)


def _exact_verdict(exact_p: float, bound: float) -> DominationVerdict:
    if bound >= 1.0:
        status = "vacuous"
    elif exact_p > bound + 1e-12:
        status = "violation_evidence"
    else:
        status = "pass"
    return DominationVerdict(bound_value=bound, estimate=None, status=status, margin=bound - exact_p)


@dataclass
class _PointPlan:
    suffix: str
    grid_echo: dict          # canonical CSV fields
    event: TailEvent | None  # None for pure expectation targets
    bound_value: float | None
    expectation: dict | None  # {"x":, "y":|None, "beta":|None} for inf-over-p bounds
    note: str = ""


def _plan_point(spec: ExperimentSpec, gp: dict, model, window_values_fn) -> list[_PointPlan]:
    """Translate one grid point into events and a bound for the target theorem."""
    thm = spec.theorem
    n = spec.n

    if thm == "bernstein":
        z = gp["z"]
        var = n * model.var()
        bound = evaluate_bound(BoundSpec("bernstein", RateInputs(z=z, L=var, a_bnd=model.abs_bound)))
        return [_PointPlan("", {"z": z}, TailEvent(x=z), bound, None)]

    if thm == "freedman":
        x, L = gp["x"], gp["L"]
        bound = evaluate_bound(BoundSpec("freedman", RateInputs(x=x, L=L, a_bnd=model.abs_bound)))
        event = TailEvent(x=x, window=(Statistic("cond_var"), 0.0, L))
        return [_PointPlan("", {"x": x, "z": L}, event, bound, None)]

    if thm == "dvz":
        x, L, a = gp["x"], gp["L"], gp["a"]
        bound = evaluate_bound(BoundSpec("dvz", RateInputs(x=x, L=L, a_bnd=a)))
        event = TailEvent(x=x, window=(Statistic("h_n", a=a), 0.0, L))
        return [_PointPlan("", {"x": x, "y": a, "z": L}, event, bound, None)]

    if thm == "dlp_point":
        x, y = gp["x"], gp["y"]
        bound = evaluate_bound(BoundSpec("dlp_point", RateInputs(x=x, y=y)))
        event = TailEvent(x=x, normalizer=Statistic("sq_var"), window=(Statistic("sq_var"), y, math.inf))
        return [_PointPlan("", {"x": x, "y": y}, event, bound, None)]

    if thm == "cor21_point":
        x, y = gp["x"], gp["y"]
        bound = evaluate_bound(BoundSpec("dlp_point", RateInputs(x=x, y=y)))
        event = TailEvent(
            x=x, normalizer=Statistic("b_n", y=0.0), window=(Statistic("b_n", y=0.0), y, math.inf)
        )
        return [_PointPlan("", {"x": x, "y": y}, event, bound, None)]

    if thm in ("cor21_expectation", "thm21_expectation"):
        x = gp["x"]
        y = 0.0 if thm == "cor21_expectation" else gp["y"]
        event = TailEvent(x=x, normalizer=Statistic("b_n", y=y))
        return [
            _PointPlan("", {"x": x, "y": y}, event, None, {"x": x, "y": y, "beta": None})
        ]

    if thm == "thm21_point":
        x, y, z = gp["x"], gp["y"], gp["z"]
        bound = evaluate_bound(BoundSpec("thm21_point", RateInputs(x=x, y=y, z=z)))
        norm = Statistic("b_n", y=y)
        ge = TailEvent(x=x, normalizer=norm, window=(norm, z, math.inf))
        le = TailEvent(x=x, normalizer=norm, window=(norm, 0.0, z))
        return [
            _PointPlan(":orient_ge", {"x": x, "y": y, "z": z}, ge, bound, None, "window B_n(y) >= z"),
            _PointPlan(":orient_le", {"x": x, "y": y, "z": z}, le, bound, None, "window B_n(y) <= z (printed orientation)"),
        ]

    if thm == "bercu_touati":
        x, y, a, b = gp["x"], gp["y"], gp["a"], gp["b"]
        bound = evaluate_bound(BoundSpec("bercu_touati", RateInputs(x=x, y=y, b=b, a_bnd=a)))
        event = TailEvent(
            x=x,
            normalizer=Statistic("sq_var", shift=a, scale=b),
            window=(Statistic("sq_var"), y, math.inf),
        )
        return [_PointPlan("", {"x": x, "y": y, "b": b}, event, bound, None, f"a={a!r}")]

    if thm in ("thm22_peeling", "cor22_peeling"):
        x, M = gp["x"], gp["M"]
        y = gp["y"] if thm == "thm22_peeling" else 0.0
        stat = Statistic("sqrt_b_n", y=y)
        b = _resolve_b(gp["b"], window_values_fn(stat))
        if thm == "thm22_peeling":
            bound = evaluate_bound(BoundSpec("thm22_peeling", RateInputs(x=x, y=y, b=b, M=M)))
        else:
            bound = evaluate_bound(BoundSpec("cor22_peeling", RateInputs(x=x, M=M)))
        event = TailEvent(x=x, normalizer=stat, window=(stat, b, b * M))
        return [_PointPlan("", {"x": x, "y": y, "b": b, "M": M}, event, bound, None)]

    if thm == "thm25_peeling":
        x, M = gp["x"], gp["M"]
        stat = Statistic("sqrt_sq_var")
        b = _resolve_b(gp["b"], window_values_fn(stat))
        bound = evaluate_bound(BoundSpec("thm25_peeling", RateInputs(x=x, M=M)))
        event = TailEvent(x=x, normalizer=stat, window=(stat, b, b * M))
        return [_PointPlan("", {"x": x, "b": b, "M": M}, event, bound, None)]

    if thm == "delyon":
        x, y = gp["x"], gp["y"]
        bound = evaluate_bound(BoundSpec("delyon", RateInputs(x=x, y=y)))
        event = TailEvent(x=x, window=(Statistic("b_n", y=0.0), 0.0, y))
        return [_PointPlan("", {"x": x, "y": y}, event, bound, None)]

    if thm == "thm23_expectation":
        x, beta = gp["x"], gp["beta"]
        event = TailEvent(x=x, normalizer=Statistic("g_n", beta=beta))
        return [
            _PointPlan("", {"x": x, "beta": beta}, event, None, {"x": x, "y": None, "beta": beta})
        ]

    if thm == "thm24_peeling":
        x, beta, M = gp["x"], gp["beta"], gp["M"]
        stat = Statistic("g_n_root", beta=beta)
        # the window edge is b^{1/(beta-1)}, so a percentile anchor on the
        # root-bracket scale maps back through the inverse power
        if _is_percentile(gp["b"]):
            b = _resolve_b(gp["b"], window_values_fn(stat)) ** (beta - 1.0)
        else:
            b = float(gp["b"])
        bound = evaluate_bound(BoundSpec("thm24_peeling", RateInputs(x=x, beta=beta, M=M)))
        expo = 1.0 / (beta - 1.0)
        event = TailEvent(x=x, normalizer=stat, window=(stat, b ** expo, (b * M) ** expo))
        return [_PointPlan("", {"x": x, "beta": beta, "b": b, "M": M}, event, bound, None)]

    if thm == "thm31_tstat":
        x, M = gp["x"], gp["M"]
        stat = Statistic("sqrt_sq_var")
        b = _resolve_b(gp["b"], window_values_fn(stat))
        threshold = self_normalized_threshold(x, n)
        bound = evaluate_bound(BoundSpec("thm31_tstat", RateInputs(x=x, n=n, M=M)))
        event = TailEvent(x=threshold, normalizer=stat, window=(stat, b, b * M))
        return [
            _PointPlan("", {"x": x, "b": b, "M": M}, event, bound, None,
                       "event via the equivalent self-normalized form")
        ]

    raise ValueError(f"no point plan for theorem {thm!r}")


def _run_diff_target(spec: ExperimentSpec, jobs: int) -> list[ResultRecord]:
    model = build_model(spec.model)
    stats = None
    if spec.mode in ("mc", "both"):
        stats = BatchStats(sample_batch(model, spec.n, spec.n_rep, spec.master_seed), model)

    def window_values_fn(stat: Statistic):
        return None if stats is None else stat.resolve(stats)

    def run_point(gp: dict) -> list[ResultRecord]:
        try:
            return _run_point_inner(gp)
        except Exception as exc:
            raise RuntimeError(f"experiment {spec.id}: grid point {gp}: {exc}") from exc

    def _run_point_inner(gp: dict) -> list[ResultRecord]:
        t0 = time.perf_counter()
        out = []
        for plan in _plan_point(spec, gp, model, window_values_fn):
            note = plan.note
            estimate = None
            exact = None
            bound = plan.bound_value
            if plan.expectation is not None:
                exp_cfg = plan.expectation
                if spec.mode == "exact_oracle":
                    bound = exact_optimized_bound_rademacher(
                        spec.n, exp_cfg["x"], y=exp_cfg["y"], beta=exp_cfg["beta"]
                    ).value
                else:
                    opt = optimize_over_p_from(
                        stats, exp_cfg["x"], y=exp_cfg["y"], beta=exp_cfg["beta"]
                    )
                    bound = opt.value
                    note = _append_note(note, f"p_star={opt.p_star:.6g}")
            if spec.mode in ("mc", "both"):
                estimate = estimate_tail_from(stats, plan.event, spec.gamma)
                verdict = domination_check(estimate, bound)
                if (
                    plan.expectation is not None
                    and estimate.hits < UNTESTED_DEPTH_FACTOR
                ):
                    note = _append_note(note, "untested_depth")
            if spec.mode in ("exact_oracle", "both"):
                exact = exact_tail_rademacher(spec.n, plan.event)
                if spec.mode == "exact_oracle":
                    verdict = _exact_verdict(exact, bound)
            echo = plan.grid_echo
            out.append(
                ResultRecord(
                    experiment_id=spec.id + plan.suffix,
                    theorem=spec.theorem,
                    x=echo.get("x"),
                    y=echo.get("y"),
                    z=echo.get("z"),
                    b=echo.get("b"),
                    M=echo.get("M"),
                    beta=echo.get("beta"),
                    bound=bound,
                    p_hat=None if estimate is None else estimate.p_hat,
                    ci_lo=None if estimate is None else estimate.ci_lo,
                    ci_hi=None if estimate is None else estimate.ci_hi,
                    hits=None if estimate is None else estimate.hits,
                    n_rep=None if estimate is None else estimate.n_rep,
                    exact=exact,
                    status=verdict.status,
                    seed=spec.master_seed,
                    grid=tuple(sorted(gp.items())),
                    note=note,
                    wall_ms=(time.perf_counter() - t0) * 1e3,
                )
            )
        return out

    points = _grid_points(spec)
    if jobs > 1:
        with ThreadPoolExecutor(max_workers=jobs) as pool:
            nested = list(pool.map(run_point, points))
    else:
        nested = [run_point(gp) for gp in points]
    return [rec for group in nested for rec in group]


def _append_note(note: str, extra: str) -> str:
    return f"{note}; {extra}" if note else extra


def _run_regression_target(spec: ExperimentSpec, jobs: int) -> list[ResultRecord]:
    model = build_model(spec.model)
    x_grid = spec.grids["x"]
    b = spec.grids.get("b", [None])[0]
    M = spec.grids.get("M", [None])[0]
    mc_records = []
    exact_records = []
    if spec.mode in ("mc", "both"):
        mc_records = verify_regression(
            spec.theorem,
            theta=spec.theta,
            phi_kind=spec.phi,
            eps_model=model,
            n=spec.n,
            x_grid=x_grid,
            n_rep=spec.n_rep,
            gamma=spec.gamma,
            master_seed=spec.master_seed,
            b=b,
            M=M,
        )
    if spec.mode in ("exact_oracle", "both"):
        scale = model.upper_bound
        exact_records = exact_regression_records(
            spec.theorem, n=spec.n, x_grid=x_grid, scale=scale, b=b, M=M
        )
    out = []
    for i, x in enumerate(x_grid):
        t0 = time.perf_counter()
        mc = mc_records[i] if mc_records else None
        ex = exact_records[i] if exact_records else None
        main = mc if mc is not None else ex
        estimate = mc.estimate if mc is not None else None
        out.append(
            ResultRecord(
                experiment_id=spec.id,
                theorem=spec.theorem,
                x=float(x),
                y=None,
                z=None,
                b=main.b,
                M=main.M,
                beta=None,
                bound=main.bound,
                p_hat=None if estimate is None else estimate.p_hat,
                ci_lo=None if estimate is None else estimate.ci_lo,
                ci_hi=None if estimate is None else estimate.ci_hi,
                hits=None if estimate is None else estimate.hits,
                n_rep=None if estimate is None else estimate.n_rep,
                exact=None if ex is None else ex.exact,
                status=main.verdict.status,
                seed=spec.master_seed,
                grid=tuple(sorted({"x": float(x)}.items())),
                note=f"theta={spec.theta!r}; phi={spec.phi}",
                wall_ms=(time.perf_counter() - t0) * 1e3,
            )
        )
    return out


def _run_tsp_target(spec: ExperimentSpec, jobs: int) -> list[ResultRecord]:
    t0 = time.perf_counter()
    t_grid = spec.grids["t"]
    if spec.theorem == "thm34_tsp":
        result = verify_tsp(
            n=spec.n,
            d=spec.d,
            t_grid=t_grid,
            n_instances=spec.n_rep,
            inner_rep=spec.inner_rep,
            gamma=spec.gamma,
            master_seed=spec.master_seed,
            c1=spec.c1,
        )
        summary = (
            f"c1={result.c1:.6g}; window=[{result.window[0]:.6g},{result.window[1]:.6g}]; "
            f"d_sign +{result.sign_positive}/-{result.sign_negative}"
            f"/?{result.sign_indeterminate}; recon_pass={result.recon_pass_fraction:.4f}"
        )
        out = []
        for rec in result.records:
            note = summary
            if rec.window_hits == 0:
                note = _append_note(note, "vacuous-window")
            out.append(
                ResultRecord(
                    experiment_id=spec.id,
                    theorem=spec.theorem,
                    x=rec.t,
                    y=None,
                    z=None,
                    b=None,
                    M=None,
                    beta=None,
                    bound=rec.bound,
                    p_hat=rec.estimate.p_hat,
                    ci_lo=rec.estimate.ci_lo,
                    ci_hi=rec.estimate.ci_hi,
                    hits=rec.estimate.hits,
                    n_rep=rec.estimate.n_rep,
                    exact=None,
                    status=rec.verdict.status,
                    seed=spec.master_seed,
                    grid=tuple(sorted({"t": rec.t}.items())),
                    note=note,
                    wall_ms=(time.perf_counter() - t0) * 1e3,
                )
            )
        return out

    # azuma_tsp: plain deviation of the tour length, no nested estimates.
    heuristic = spec.n > HELD_KARP_CAP
    lengths = np.empty(spec.n_rep)
    # instances in blocks, so the distance arrays stay small at n_rep = 1e5
    for start in range(0, spec.n_rep, TSP_INSTANCE_BLOCK):
        stop = min(start + TSP_INSTANCE_BLOCK, spec.n_rep)
        points = np.stack([
            sample_points(spec.n, spec.d, substream(spec.master_seed, _stream_id(r, 0, _ROLE_POINTS)))
            for r in range(start, stop)
        ])
        if heuristic:
            lengths[start:stop] = [tsp_tour(pts).length for pts in points]
        else:
            lengths[start:stop] = held_karp_batch(dist_matrix_batch(points))
    center = float(lengths.mean())
    out = []
    for t in t_grid:
        hits = int(np.count_nonzero(np.abs(lengths - center) >= t))
        estimate = MCEstimate.from_hits(hits, spec.n_rep, spec.gamma)
        bound = evaluate_bound(
            BoundSpec("azuma_tsp", RateInputs(t=float(t), n=spec.n, d=spec.d, c_const=spec.c_const))
        )
        note = f"E[T] pooled={center:.6g}; C={spec.c_const!r}"
        if heuristic:
            note = _append_note(note, "heuristic_tour")
        out.append(
            ResultRecord(
                experiment_id=spec.id,
                theorem=spec.theorem,
                x=float(t),
                y=None,
                z=None,
                b=None,
                M=None,
                beta=None,
                bound=bound,
                p_hat=estimate.p_hat,
                ci_lo=estimate.ci_lo,
                ci_hi=estimate.ci_hi,
                hits=estimate.hits,
                n_rep=estimate.n_rep,
                exact=None,
                status=domination_check(estimate, bound).status,
                seed=spec.master_seed,
                grid=tuple(sorted({"t": float(t)}.items())),
                note=note,
                wall_ms=(time.perf_counter() - t0) * 1e3,
            )
        )
    return out


def run_experiment(spec: ExperimentSpec, jobs: int = 1) -> list[ResultRecord]:
    """Execute the full grid; record order is canonical (grid product order)."""
    if jobs < 1:
        raise ValueError(f"jobs must be >= 1, got {jobs}")
    kind = VERIFY_TARGETS[spec.theorem].kind
    if kind == "diff":
        return _run_diff_target(spec, jobs)
    if kind == "regression":
        return _run_regression_target(spec, jobs)
    return _run_tsp_target(spec, jobs)


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
    spec: ExperimentSpec | None = None,
    include_timing: bool = False,
) -> str:
    """Render records as JSON (spec echo + records) or fixed-column CSV.

    Timing is excluded by default so that reports are byte-identical across
    re-runs and worker counts.
    """
    records = list(records)
    if not records:
        raise ValueError("no records to report")
    if fmt == "json":
        payload = {
            "spec": None if spec is None else asdict(spec),
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


def emit_report(
    records,
    fmt: str,
    path,
    spec: ExperimentSpec | None = None,
    include_timing: bool = False,
) -> None:
    text = render_report(records, fmt, spec=spec, include_timing=include_timing)
    with open(path, "w") as fh:
        fh.write(text)


def load_report(path) -> tuple[dict | None, list[ResultRecord]]:
    """Reload a JSON report; reloaded records compare equal to the originals."""
    with open(path) as fh:
        payload = json.load(fh)
    records = []
    for data in payload["records"]:
        data = dict(data)
        data["grid"] = tuple(tuple(pair) for pair in data.get("grid", ()))
        data.setdefault("wall_ms", None)
        records.append(ResultRecord(**data))
    return payload.get("spec"), records


def emit_plot_data(records, path) -> None:
    """(x, p_hat, ci_hi, bound) tuples per theorem for external plotting."""
    records = list(records)
    if not records:
        raise ValueError("no records to report")
    lines = ["theorem,x,p_hat,ci_hi,bound"]
    for rec in records:
        lines.append(
            ",".join(
                [rec.theorem, _fmt(rec.x), _fmt(rec.p_hat), _fmt(rec.ci_hi), _fmt(rec.bound)]
            )
        )
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")
