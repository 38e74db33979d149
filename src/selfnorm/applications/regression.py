"""Stochastic linear regression X_{k} = theta*phi_{k-1} + eps_k and its
least-squares deviation bounds."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ..bounds import evaluate_bound
from ..montecarlo import MCEstimate, SignTypes, closed_ge, optimize_expectation_values
from ..processes import DifferenceModel, ScaledTwoPoint, sample_batch

__all__ = [
    "noise_bounds",
    "exact_oracle_scale",
    "regression_batch",
    "verify_regression",
    "exact_regression_records",
]

SIGMA_FLOOR = 1e-3  # the deviation bounds divide by sigma^2; tiny noise is rejected


class DegenerateDesignError(ValueError):
    """All regressors are zero, so the least-squares estimator is undefined."""


def _sample_phi(kind: str, rng, shape) -> np.ndarray:
    if kind == "uniform":
        return rng.uniform(-1.0, 1.0, size=shape)
    if kind == "ones":
        return np.ones(shape)
    raise ValueError(f"unknown regressor kind {kind!r}; expected 'uniform' or 'ones'")


def noise_bounds(eps_model: DifferenceModel, phi_kind: str) -> tuple[float, float]:
    """(sigma, y_xi): the noise sd and an almost-sure upper bound on xi = phi*eps.

    The deviation bounds divide by sigma^2 and need xi bounded above, so noise
    below SIGMA_FLOOR or unbounded for the regressor kind is rejected.
    """
    # sup eps if phi >= 0, else sup |eps|
    y_xi = eps_model.upper_bound if phi_kind == "ones" else eps_model.abs_bound
    if not math.isfinite(y_xi):
        raise ValueError(
            f"eps model {eps_model.family!r} is not bounded for phi kind {phi_kind!r}"
        )
    sigma = math.sqrt(eps_model.var())
    if sigma < SIGMA_FLOOR:
        raise ValueError(f"noise sd {sigma} below the floor {SIGMA_FLOOR}")
    return sigma, y_xi


def exact_oracle_scale(n: int, eps_model: DifferenceModel, phi_kind: str = "ones") -> float:
    """The scale of the +-scale noise of the exact oracle, on its domain:
    n >= 2, phi = 1 and symmetric two-point noise."""
    if n < 2:
        raise ValueError(f"n must be >= 2 for the exact oracle, got {n}")
    two_point = isinstance(eps_model, ScaledTwoPoint)
    if phi_kind != "ones" or not (two_point and eps_model.conditionally_symmetric):
        raise ValueError("regression exact oracle needs phi='ones' and symmetric two-point noise")
    return eps_model.upper_bound


@dataclass(frozen=True, eq=False)
class RegressionBatch:
    """Rows of the regression measurement: Monte Carlo replicates or sign types."""

    err: np.ndarray      # theta_hat - theta per row
    phi_sq: np.ndarray   # sum phi^2 per row
    sigma: float
    y_xi: float          # almost-sure upper bound on xi = phi*eps


@dataclass(frozen=True)
class _RegressionSampler:
    """`sample_batch`'s block sampler of the regression rows: phi, then eps,
    from each block's generator.  Key "phi_eps" reduces a block to sum(phi*eps),
    then "phi_sq" to sum(phi^2), each in place in the block's own draws."""

    phi_kind: str
    eps_model: DifferenceModel

    def draw(self, rng, shape) -> tuple:
        return _sample_phi(self.phi_kind, rng, shape), self.eps_model.sample(rng, shape)

    def block_kernel(self, n, key) -> tuple:
        return _product_sum, key == "phi_sq", None


def _product_sum(phi, eps, square, scratch, out) -> None:
    x = phi if square else eps
    x *= phi
    x.sum(axis=1, out=out)


def regression_batch(phi_kind: str, eps_model: DifferenceModel, n: int, n_rep: int,
                     master_seed: int, jobs: int = 1) -> RegressionBatch:
    """The replicates of `sample_batch` over the regression design, on `jobs`
    threads when jobs > 1; a row depends only on its block, not on jobs."""
    sigma, y_xi = noise_bounds(eps_model, phi_kind)
    sampler = _RegressionSampler(phi_kind, eps_model)
    cross, phi_sq = sample_batch(sampler, n, n_rep, master_seed, ("phi_eps", "phi_sq"), jobs).T
    err = np.divide(cross, phi_sq, out=np.full(n_rep, np.nan), where=phi_sq > 0)
    if np.any(~np.isfinite(err)):
        raise DegenerateDesignError("a replicate produced an all-zero design")
    return RegressionBatch(err=err, phi_sq=phi_sq, sigma=sigma, y_xi=y_xi)


def _resolve_window(root: np.ndarray, b, M) -> tuple[float, float]:
    """The given window, or [p10, p90] of the normalizer sqrt(sum phi^2)."""
    if b is None:
        b = float(np.percentile(root, 10.0))
    if M is None:
        M = max(float(np.percentile(root, 90.0)) / b, 1.0)
    return float(b), float(M)


def _measure(thm, rows: RegressionBatch, tail, design, x_grid, b, M) -> tuple[tuple, list, list]:
    """Window (b, M), and per grid x the deviation bound and tail(event mask).

    thm32_regression: |theta_hat - theta| >= x against twice the inf-over-p
    expectation bound over the design masses `design`; b = M = None.
    thm33_regression: the windowed self-normalized event, closed at both
    window edges, against the closed form on [b, b*M].
    """
    sigma, y, deviation = rows.sigma, rows.y_xi, np.abs(rows.err)
    in_window = True  # thm32 has no window
    if thm == "thm32_regression":
        b = M = None
        rates = [x * x / (2.0 * (sigma * sigma + x * y / 3.0)) for x in x_grid]
        bounds = [2.0 * optimize_expectation_values(r, design).value for r in rates]
    elif thm == "thm33_regression":
        root = np.sqrt(rows.phi_sq)
        b, M = _resolve_window(root, b, M)
        deviation *= root
        in_window = closed_ge(root, b) & closed_ge(-root, -b * M)
        bounds = [evaluate_bound(thm, x=float(x), sigma=sigma, y=y, b=b, M=M) for x in x_grid]
    else:
        raise ValueError(f"unknown regression theorem {thm!r}")
    return (b, M), bounds, [tail(closed_ge(deviation, x) & in_window) for x in x_grid]


def verify_regression(
    thm: str,
    *,
    phi_kind: str,
    eps_model: DifferenceModel,
    n: int,
    x_grid,
    n_rep: int,
    gamma: float,
    master_seed: int,
    b: float | None = None,
    M: float | None = None,
    jobs: int = 1,
) -> tuple[tuple, list, list]:
    """Window (b, M), and per grid x the deviation bound and an MCEstimate of
    the tail, for the least-squares estimator; b = M = None for thm32.
    The replicates, drawn on `jobs` threads (see regression_batch), are the
    rows of the measurement and their design masses the expectation bound's
    sample (common random numbers). The design is exogenous, so
    theta_hat - theta = sum(phi eps) / sum(phi^2) does not depend on theta.
    """
    batch = regression_batch(phi_kind, eps_model, n, n_rep, master_seed, jobs)
    tail = lambda mask: MCEstimate.from_hits(int(np.count_nonzero(mask)), n_rep, gamma)
    return _measure(thm, batch, tail, batch.phi_sq, x_grid, b, M)


def exact_regression_records(
    thm: str,
    *,
    n: int,
    x_grid,
    eps_model: DifferenceModel,
    b: float | None = None,
    M: float | None = None,
) -> tuple[tuple, list, list]:
    """Exact-oracle variant: phi = 1 and eps = +-scale fair signs; the tails
    are exact probabilities.

    With a constant design, theta_hat - theta = scale * S_n / n, so both the
    tail and the expectation bound depend on a path only through its count k
    of up-steps: the rows of the shared measurement are the n + 1 sign types,
    each tail is the mass of its types, and the design is the point mass n.
    """
    scale = exact_oracle_scale(n, eps_model)
    types = SignTypes(n)
    rows = RegressionBatch(scale * types.s() / n, np.full(n + 1, float(n)), scale, scale)
    return _measure(thm, rows, types.mass, np.full(1, float(n)), x_grid, b, M)
