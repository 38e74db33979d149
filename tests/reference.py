"""Reference implementations the tests check the package against.

None of these is called by a verification run: the truncated mean is the
closed form behind the models' `heavy_on_left` flags, single paths and single
regression runs are drawn one row at a time under the stream contract, and
the exact means and tails enumerate all 2^n sign paths and sum their +-1
matrices (`_SignEnumStats`), the reference for the oracle's closed forms of
the +1 count on its n + 1 sign types, the nested TSP estimates build each
level's point sets and solve one tour per matrix, one level at a time, the
reference for the coupled solve of all levels on shared DP states, the
Held-Karp DP keeps one dict entry per (subset, end) state of one tour, the
reference that every `held_karp_batch` length equals bit for bit, the
inf-over-p objective sends every term through np.exp, the reference for the
objective that skips terms known to underflow, the truncated brackets
B_n(y), H_n(a) and G_n(beta) are formed over the whole batch at once with
block-sized temporaries, the reference for `sample_batch`, which forms them
one block at a time in reused scratch, the whole (n_rep, n) path matrix is
filled block by block, the stream-contract reference for the rows that
`sample_batch` reduces without storing them, and the two-point,
bounded-above and Pareto samplers draw through np.where selects and
whole-array temporaries, the reference for their branch-free, in-place
forms.  Student's t-statistic and the check that {T_n >= x} equals its
self-normalized rewriting are the reference for the threshold that the
t-statistic target evaluates the rewritten event at.  The Monte Carlo
supermartingale certificate check, a normal-approximation interval on E[U_n]
or E[V_n], is kept for the certificate tests; no verify target has used it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from selfnorm.applications.regression import DegenerateDesignError, _sample_phi
from selfnorm.applications.student import self_normalized_threshold
from selfnorm.montecarlo import (
    check_enumeration_size,
    evaluate_event,
    exp_growth_coefficient,
    optimize_expectation_values,
)
from selfnorm.applications.tsp import (
    _ROLE_LEVEL,
    _ROLE_REF,
    _stream_id,
    check_tsp_size,
    dist_matrix,
    held_karp_batch,
)
from selfnorm.processes import (
    BatchStats,
    BoundedAbove,
    DifferenceModel,
    ScaledTwoPoint,
    map_jobs,
    sample_batch,
    stream_blocks,
    substream,
)


def sample_reference(model: DifferenceModel, rng, size) -> np.ndarray:
    """The increments `model.sample(rng, size)` draws, from the same generator
    calls, by np.where selects and whole-array temporaries; a family whose
    sampler has no in-place form is its own reference.  The two-point select
    keeps the dtype of up and down, as the spec gave them."""
    family = model.family
    if family == "scaled_two_point":
        return np.where(rng.random(size) < model.p_up, model.up, model.down)
    if family == "bounded_above":
        return model.y_cap * (1.0 - rng.standard_exponential(size))
    if family == "centered_pareto":
        u = rng.random(size)
        v = np.where(u < 0.5, 2.0 * u, 2.0 * (1.0 - u))
        v = np.maximum(v, np.finfo(float).tiny)
        mag = model.scale * (v ** (-1.0 / model.beta_tail) - 1.0)
        return np.where(u < 0.5, -mag, mag)
    return model.sample(rng, size)


@dataclass(frozen=True, eq=False)
class Path:
    """One realized difference sequence."""

    xs: np.ndarray
    model: DifferenceModel
    master_seed: int
    replicate: int

    def __post_init__(self):
        if len(self.xs) < 1:
            raise ValueError("a path needs at least one increment")
        if not np.all(np.isfinite(self.xs)):
            raise ValueError("path contains non-finite increments")


def truncated_mean(model: DifferenceModel, a: float) -> float:
    """E[min(|xi|, a) sign(xi)] for a > 0, in closed form: zero for conditionally
    symmetric increments.  The model is heavy on left iff it is <= 0 for every a."""
    if a <= 0:
        raise ValueError(f"a must be > 0, got {a}")
    if model.conditionally_symmetric:
        return 0.0
    if isinstance(model, ScaledTwoPoint):
        return model.p_up * min(model.up, a) - (1.0 - model.p_up) * min(-model.down, a)
    if isinstance(model, BoundedAbove):
        c = model.y_cap
        if a <= c:
            return a - 2.0 * c * math.sinh(a / c) / math.e
        return c * math.exp(-(1.0 + a / c))
    raise NotImplementedError(f"no truncated mean for {model.family}")


def _replicate_block(n: int, master_seed: int, replicate: int):
    """(row within its block, rows per block, rng) of one replicate."""
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    if replicate < 0:
        raise ValueError(f"replicate must be >= 0, got {replicate}")
    start, rows, rng = next(stream_blocks(n, replicate + 1, master_seed, replicate))
    return replicate - start, rows, rng


def sample_path(model: DifferenceModel, n: int, master_seed: int, replicate: int = 0) -> Path:
    """Row `replicate` of its block under the stream contract of `stream_blocks`,
    so it equals that row of any `sample_batch` holding it."""
    row, rows, rng = _replicate_block(n, master_seed, replicate)
    xs = model.sample(rng, (rows, n))[row].copy()
    return Path(xs=xs, model=model, master_seed=master_seed, replicate=replicate)


def path_matrix(model: DifferenceModel, n: int, n_rep: int, master_seed: int,
                jobs: int = 1) -> np.ndarray:
    """(n_rep, n) matrix of replicates under the stream contract of `stream_blocks`.

    Filled one block at a time, on `jobs` threads when jobs > 1, so rows
    [0, k) are the same for every n_rep >= k and every jobs.
    """
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    if n_rep < 1:
        raise ValueError(f"n_rep must be >= 1, got {n_rep}")
    out = np.empty((n_rep, n), dtype=float)

    def fill(block) -> None:
        start, rows, rng = block
        out[start:start + rows] = model.sample(rng, (rows, n))[: n_rep - start]

    map_jobs(fill, stream_blocks(n, n_rep, master_seed), jobs)
    return out


def stream_stats(model: DifferenceModel, n: int, n_rep: int, master_seed: int, *keys,
                 jobs: int = 1) -> BatchStats:
    """The `BatchStats` of `sample_batch` reduced to S_n and the given
    (method, parameter) keys."""
    keys = [("s", None), *keys]
    return BatchStats(sample_batch(model, n, n_rep, master_seed, keys, jobs), keys, model, n)


@dataclass(frozen=True, eq=False)
class GivenPaths(DifferenceModel):
    """Draws given paths in place of random increments, with the moments of
    `model`: block k's draw holds rows [k*rows, (k+1)*rows) of `paths`, k read
    from its generator's Philox key, and zeros past the last path.  It sends
    hand-made paths through `sample_batch`'s block kernels."""

    paths: np.ndarray
    model: DifferenceModel

    @property
    def family(self):
        return self.model.family

    def sample(self, rng, size):
        rows = size[0]
        start = int(rng.bit_generator.state["state"]["key"][1]) * rows
        out = np.zeros(size)
        block = self.paths[start:start + rows]
        out[:len(block)] = block
        return out

    def var(self):
        return self.model.var()

    def sq_below(self, y):
        return self.model.sq_below(y)

    def neg_beta_moment(self, beta):
        return self.model.neg_beta_moment(beta)


def given_stats(paths, model: DifferenceModel, *keys, jobs: int = 1) -> BatchStats:
    """The `BatchStats` of the given (n_rep, n) paths, reduced by `sample_batch`'s
    block kernels to S_n and the given (method, parameter) keys."""
    paths = np.atleast_2d(np.asarray(paths, dtype=float))
    n_rep, n = paths.shape
    keys = [("s", None), *keys]
    table = sample_batch(GivenPaths(paths, model), n, n_rep, 0, keys, jobs)
    return BatchStats(table, keys, model, n)


def sq_var_above(xs: np.ndarray, y: float) -> np.ndarray:
    """Per row of xs: the realized squares of the steps above y, the realized
    part of B_n(y), formed over the whole batch at once."""
    if y < 0:
        raise ValueError(f"y must be >= 0, got {y}")
    return ((xs * xs) * (xs > y)).sum(axis=1)


def sq_var_abs_above(xs: np.ndarray, a: float) -> np.ndarray:
    """Per row of xs: the realized squares of the steps with |x| above a, the
    realized part of H_n(a), formed over the whole batch at once."""
    return ((xs * xs) * (np.abs(xs) > a)).sum(axis=1)


def positive_power_sum(xs: np.ndarray, beta: float) -> np.ndarray:
    """Per row of xs: the sum of max(x, 0)^beta, the realized part of
    G_n(beta), formed over the whole batch at once."""
    return (np.maximum(xs, 0.0) ** beta).sum(axis=1)


def cond_var_below(xs: np.ndarray, model: DifferenceModel, y: float) -> np.ndarray:
    """Per row of xs: n E[xi^2 1{xi <= y}], the predictable part of B_n(y)."""
    return np.full(xs.shape[0], xs.shape[1] * model.sq_below(y))


@dataclass(frozen=True, eq=False)
class RegressionRun:
    """One realized regression path: x_obs[k] = theta*phi[k] + eps[k]."""

    theta: float
    phi: np.ndarray
    eps: np.ndarray
    x_obs: np.ndarray

    def __post_init__(self):
        if not (len(self.phi) == len(self.eps) == len(self.x_obs)):
            raise ValueError("phi, eps, x_obs must have equal length")
        if np.any(np.abs(self.phi) > 1.0 + 1e-12):
            raise ValueError("regressors must satisfy |phi| <= 1")


def simulate_regression(
    theta: float,
    phi_kind: str,
    eps_model: DifferenceModel,
    n: int,
    master_seed: int,
    replicate: int = 0,
) -> RegressionRun:
    """Row `replicate` of its block's regressor matrix and then noise matrix,
    so it equals replicate `replicate` of `regression_batch` for any n_rep."""
    row, rows, rng = _replicate_block(n, master_seed, replicate)
    phi = _sample_phi(phi_kind, rng, (rows, n))[row].copy()
    eps = eps_model.sample(rng, (rows, n))[row].copy()
    return RegressionRun(theta=theta, phi=phi, eps=eps, x_obs=theta * phi + eps)


def regression_rows_reference(phi_kind: str, eps_model: DifferenceModel, n: int,
                              n_rep: int, master_seed: int) -> tuple[np.ndarray, np.ndarray]:
    """(err, phi_sq) of `regression_batch`, each block drawn by the reference
    samplers and reduced from product temporaries rather than in place."""
    err, phi_sq = np.empty(n_rep), np.empty(n_rep)
    for start, rows, rng in stream_blocks(n, n_rep, master_seed):
        k = min(rows, n_rep - start)
        phi = _sample_phi(phi_kind, rng, (rows, n))[:k]
        eps = sample_reference(eps_model, rng, (rows, n))[:k]
        ssq = (phi * phi).sum(axis=1)
        phi_sq[start:start + k] = ssq
        err[start:start + k] = np.divide(
            (phi * eps).sum(axis=1), ssq, out=np.full(k, np.nan), where=ssq > 0
        )
    return err, phi_sq


def ls_estimate(run: RegressionRun) -> float:
    """Least-squares estimate sum(phi_{k-1} X_k) / sum(phi_{k-1}^2)."""
    denom = float(np.sum(run.phi * run.phi))
    if denom <= 0.0:
        raise DegenerateDesignError("sum of squared regressors is zero")
    return float(np.sum(run.phi * run.x_obs)) / denom


class DegenerateSampleError(ValueError):
    """The sample variance vanishes, so the t-statistic is undefined."""


def t_statistic(sample) -> float:
    """sqrt(n) * mean / sqrt(sum((xi - mean)^2) / (n - 1))."""
    xs = np.asarray(sample, dtype=float)
    n = xs.size
    if n < 2:
        raise ValueError(f"need at least 2 observations, got {n}")
    mean = float(xs.mean())
    ssd = float(np.sum((xs - mean) ** 2))
    if ssd <= 0.0:
        raise DegenerateSampleError("zero sample variance")
    return math.sqrt(n) * mean / math.sqrt(ssd / (n - 1))


def t_event_equivalence(sample, x: float) -> tuple[bool, bool]:
    """Indicators of {T_n >= x} and of its self-normalized rewriting.

    The contract is that the two are always equal on the stated domain.
    """
    xs = np.asarray(sample, dtype=float)
    n = xs.size
    threshold = self_normalized_threshold(x, n)
    sq = float(np.sum(xs * xs))
    if sq <= 0.0:
        raise DegenerateSampleError("[S]_n = 0")
    lhs = t_statistic(xs) >= x
    rhs = float(xs.sum()) / math.sqrt(sq) >= threshold
    return lhs, rhs


def expectation_bound_from(
    stats, event, rate: float, *, p: float, with_indicator: bool = True
) -> tuple[float, float]:
    """(E[exp{-(p-1) rate N} (1_event)])^{1/p} estimated on a fixed sample set,
    N the event's normalizer.

    Returns (value, standard error of the value) via the delta method.
    """
    if p <= 1.0:
        raise ValueError(f"p must be > 1, got {p}")
    z = np.exp(-(p - 1.0) * rate * event.normalizer(stats))
    if with_indicator:
        z = z * evaluate_event(stats, event)
    m = float(np.mean(z))
    se_mean = float(np.std(z, ddof=1) / math.sqrt(len(z))) if len(z) > 1 else 0.0
    value = m ** (1.0 / p)
    se = 0.0 if m <= 0.0 else se_mean * value / (p * m)
    return value, se


def plain_objective(rate: float, norm: np.ndarray, indicator, log_pm1: float) -> float:
    """The inf-over-p objective at p = 1 + e^log_pm1, every term through np.exp:
    mean(exp(-(p-1)*rate*w))^(1/p) over the indicated weights w, the mean taken
    over all of norm."""
    weights = norm if indicator is None else norm[indicator]
    p = 1.0 + math.exp(log_pm1)
    m = float(np.sum(np.exp(-(p - 1.0) * rate * weights))) / len(norm)
    return 0.0 if m <= 0.0 else m ** (1.0 / p)


def shifted_objective(rate: float, norm: np.ndarray, indicator, log_pm1: float) -> float:
    """The same objective in log space, every term kept and summed exactly:
    exp((log m + s) / p), with s the largest exponent -(p-1)*rate*w and m the
    math.fsum of exp(a - s) over the indicated weights divided by len(norm);
    0.0 when no weight is indicated."""
    weights = norm if indicator is None else norm[indicator]
    if not weights.size:
        return 0.0
    p = 1.0 + math.exp(log_pm1)
    exponents = [-(p - 1.0) * rate * float(w) for w in weights]
    s = max(exponents)
    m = math.fsum(math.exp(a - s) for a in exponents) / len(norm)
    return math.exp((math.log(m) + s) / p)


class _SignEnumStats:
    """Bracket statistics of a matrix of +-1 paths, one path per row."""

    def __init__(self, signs: np.ndarray):
        self.xs = signs
        self.n = signs.shape[1]

    def s(self):
        return self.xs.sum(axis=1)

    def sq_var(self):
        return (self.xs * self.xs).sum(axis=1)

    def cond_var(self):
        return np.full(self.xs.shape[0], float(self.n))  # E[xi^2] = 1

    def b_n(self, y):
        above = ((self.xs * self.xs) * (self.xs > y)).sum(axis=1)
        below = 1.0 if y >= 1.0 else 0.5  # E[xi^2 1{xi <= y}]
        return above + self.n * below

    def h_n(self, a):
        big = ((self.xs * self.xs) * (np.abs(self.xs) > a)).sum(axis=1)
        return big + self.n * 1.0

    def g_n(self, beta):
        pos = (np.maximum(self.xs, 0.0) ** beta).sum(axis=1)
        return pos + self.n * 0.5  # E[(xi^-)^beta] = 1/2


def enumerate_sign_chunks(n: int, chunk: int = 1 << 16):
    """All 2^n sign paths in chunks, path c with +1 at step j iff bit j of c is set."""
    total = 1 << n
    cols = np.arange(n, dtype=np.uint32)
    for start in range(0, total, chunk):
        codes = np.arange(start, min(start + chunk, total), dtype=np.uint32)
        bits = (codes[:, None] >> cols) & 1
        yield bits.astype(float) * 2.0 - 1.0


def exact_mean_rademacher(n: int, fn) -> float:
    """Exact E[fn(paths)] where fn maps a (chunk, n) sign matrix to values."""
    check_enumeration_size(n)
    total = 0.0
    for signs in enumerate_sign_chunks(n):
        total += float(np.sum(np.asarray(fn(signs), dtype=float)))
    return total / float(1 << n)


def exact_supermartingale_mean_rademacher(n: int, lam: float, y: float) -> float:
    """Exact E[exp{lam S_n - coef(lam,y) B_n(y)}] over all 2^n sign paths."""
    coef = exp_growth_coefficient(lam, y)

    def fn(signs):
        st = _SignEnumStats(signs)
        return np.exp(lam * st.s() - coef * st.b_n(y))

    return exact_mean_rademacher(n, fn)


@dataclass(frozen=True)
class MeanEstimate:
    """Normal-approximation estimate of an unbounded positive mean.

    The sample maximum is reported alongside because heavy right tails make
    the normal interval optimistic.
    """

    n_rep: int
    mean: float
    se: float
    sample_max: float

    @property
    def ci_lo(self) -> float:
        return self.mean - 3.0 * self.se


@dataclass(frozen=True)
class SupermartingaleCheck:
    status: str  # pass | violation_evidence
    estimate: MeanEstimate


def _certificate_values(stats, kind: str, lam: float, y: float | None, beta: float | None):
    if kind == "U":
        if y is None:
            raise ValueError("kind U needs y >= 0")
        coef = exp_growth_coefficient(lam, y)
        return np.exp(lam * stats.s() - coef * stats.b_n(y))
    if kind == "V":
        if beta is None:
            raise ValueError("kind V needs beta in (1, 2)")
        return np.exp(lam * stats.s() - lam ** beta * stats.g_n(beta))
    raise ValueError(f"kind must be 'U' or 'V', got {kind!r}")


def supermartingale_check(
    kind: str,
    model: DifferenceModel,
    n: int,
    lam: float,
    *,
    y: float | None = None,
    beta: float | None = None,
    n_rep: int,
    gamma: float = 0.99,
    master_seed: int = 0,
) -> SupermartingaleCheck:
    """Check E[certificate] <= 1 via a normal-approximation interval.

    Passes iff mean - 3*SE <= 1.  The certificate is positive and can be
    heavy-tailed; the sample maximum is carried in the estimate for honesty.
    """
    method, param = {"U": ("b_n", y), "V": ("g_n", beta)}.get(kind, (None, None))
    # _certificate_values rejects a bad kind or a missing parameter
    keys = [] if param is None else [(method, param)]
    stats = stream_stats(model, n, n_rep, master_seed, *keys)
    values = _certificate_values(stats, kind, lam, y, beta)
    mean = float(np.mean(values))
    se = float(np.std(values, ddof=1) / math.sqrt(n_rep)) if n_rep > 1 else 0.0
    estimate = MeanEstimate(n_rep=n_rep, mean=mean, se=se, sample_max=float(np.max(values)))
    status = "pass" if estimate.ci_lo <= 1.0 else "violation_evidence"
    return SupermartingaleCheck(status, estimate)


def enumerated_tail_rademacher(n: int, event) -> float:
    """Exact P(event) as a count over all 2^n sign paths."""
    check_enumeration_size(n)
    hits = 0
    for signs in enumerate_sign_chunks(n):
        hits += int(np.count_nonzero(evaluate_event(_SignEnumStats(signs), event)))
    return hits / float(1 << n)


def enumerated_optimized_bound_rademacher(n, event, rate, with_indicator=True):
    """inf over p of the expectation bound of `event` on the per-path arrays of
    all 2^n paths."""
    check_enumeration_size(n)
    norms, inds = [], []
    for signs in enumerate_sign_chunks(n):
        st = _SignEnumStats(signs)
        norms.append(event.normalizer(st))
        inds.append(evaluate_event(st, event))
    norm = np.concatenate(norms)
    weights = norm[np.concatenate(inds)] if with_indicator else norm
    return optimize_expectation_values(rate, weights, len(norm))


def held_karp_reference(dist) -> tuple[float, tuple]:
    """(length, order) of the exact shortest closed tour over one distance
    matrix, by dynamic programming over city subsets kept in dicts, one
    (subset, end) state at a time."""
    dist = np.asarray(dist, dtype=float)
    n = dist.shape[0]
    check_tsp_size(n)
    if n == 2:
        return float(2.0 * dist[0, 1]), (0, 1)
    m = n - 1
    cost = {}
    parent = {}
    for j in range(1, n):
        cost[(1 << (j - 1), j)] = float(dist[0, j])
    for mask in range(1, 1 << m):
        if mask & (mask - 1) == 0:
            continue  # singletons are base cases
        for j in range(1, n):
            bit = 1 << (j - 1)
            if not mask & bit:
                continue
            prev = mask ^ bit
            best, best_k = math.inf, -1
            for k in range(1, n):
                if prev & (1 << (k - 1)):
                    cand = cost[(prev, k)] + dist[k, j]
                    if cand < best:
                        best, best_k = cand, k
            cost[(mask, j)] = best
            parent[(mask, j)] = best_k
    full = (1 << m) - 1
    best, best_j = math.inf, -1
    for j in range(1, n):
        cand = cost[(full, j)] + dist[j, 0]
        if cand < best:
            best, best_j = cand, j
    order = [0]
    mask, j = full, best_j
    tail = []
    while j > 0:
        tail.append(j)
        mask, j = mask ^ (1 << (j - 1)), parent.get((mask, j), 0)
    order.extend(reversed(tail))
    return float(best), tuple(order)


def nested_level_estimates(points, inner_rep: int, master_seed: int, instance: int = 0):
    """(t_n, level_means, level_ses, d_se, e_t_ref, e_t_ref_se) of the coupled
    nested TSP estimates.  Level i's point sets (X_0..X_{i-1}, Z^r_i..Z^r_{n-1})
    are built explicitly from the shared resamples Z^r and solved one level
    at a time, one tour per stacked dist_matrix; d_se is the standard error
    of the paired differences T_i^r - T_{i-1}^r, and T_n comes from
    ``held_karp_reference``, the dict DP."""
    pts = np.asarray(points, dtype=float)
    n, d = pts.shape
    check_tsp_size(n, inner_rep)
    t_n = held_karp_reference(dist_matrix(pts))[0]
    shared = substream(master_seed, _stream_id(instance, _ROLE_LEVEL)).random((inner_rep, n, d))
    lengths = np.full((n + 1, inner_rep), t_n)
    for i in range(n):
        level_pts = shared.copy()
        level_pts[:, :i] = pts[:i]
        lengths[i] = held_karp_batch(dist_matrix(level_pts))
    ref_pts = substream(master_seed, _stream_id(instance, _ROLE_REF)).random((inner_rep, n, d))

    def mean_se(values) -> tuple[float, float]:
        return float(values.mean()), float(values.std(ddof=1) / math.sqrt(inner_rep))

    level_means = np.array([mean_se(row)[0] for row in lengths[:n]] + [t_n])
    level_ses = np.array([mean_se(row)[1] for row in lengths[:n]] + [0.0])
    d_se = np.array([mean_se(lengths[i + 1] - lengths[i])[1] for i in range(n)])
    e_t_ref, e_t_ref_se = mean_se(held_karp_batch(dist_matrix(ref_pts)))
    return t_n, level_means, level_ses, d_se, e_t_ref, e_t_ref_se
