"""Stochastic linear regression X_{k} = theta*phi_{k-1} + eps_k and its
least-squares deviation bounds."""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from ..bounds import evaluate_bound
from ..montecarlo import SignTypes, TailEvent, optimize_expectation_values
from ..processes import DifferenceModel, ScaledTwoPoint, sample_batch

__all__ = [
    "noise_bounds",
    "exact_oracle_scale",
    "regression_batch",
    "verify_regression",
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


def _read_only(a: np.ndarray) -> np.ndarray:
    a.flags.writeable = False
    return a


@dataclass(frozen=True, eq=False)
class RegressionBatch:
    """Rows of the regression measurement, read by `evaluate_event`: Monte
    Carlo replicates, or the n + 1 sign types of the exact oracle."""

    cross: np.ndarray    # sum phi*eps per row
    phi_sq: np.ndarray   # sum phi^2 per row
    masses: np.ndarray   # the design masses the thm32 bound averages over
    sigma: float
    y_xi: float          # almost-sure upper bound on xi = phi*eps
    types: SignTypes | None = None  # the sign types, for their mass

    # every event of a batch reads |sum phi*eps|, and thm33's events read
    # sqrt(sum phi^2) twice (normalizer and window), so each is made once
    @cached_property
    def _abs_cross(self) -> np.ndarray:
        return _read_only(np.abs(self.cross))

    @cached_property
    def _root(self) -> np.ndarray:
        return _read_only(np.sqrt(self.phi_sq))

    def s(self):
        return self._abs_cross

    def design(self):
        return self.phi_sq

    def root(self):
        return self._root

    @property
    def err(self) -> np.ndarray:
        """theta_hat - theta per row."""
        return self.cross / self.phi_sq

    def mass(self, inside: np.ndarray) -> float:
        return self.types.mass(inside)


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
    if not np.all(phi_sq > 0):
        raise DegenerateDesignError("a replicate produced an all-zero design")
    return RegressionBatch(cross, phi_sq, phi_sq, sigma, y_xi)


def _sign_type_rows(n: int, eps_model: DifferenceModel) -> RegressionBatch:
    """The exact oracle's rows: phi = 1 and eps = +-scale fair signs, so a path
    enters through its count k of up-steps, the design is the point mass n and
    each tail is the mass of its types."""
    scale = exact_oracle_scale(n, eps_model)
    types = SignTypes(n)
    design = np.full(n + 1, float(n))
    return RegressionBatch(scale * types.s(), design, design[:1], scale, scale, types)


def _resolve_window(root: np.ndarray, b, M) -> tuple[float, float]:
    """The given window, or [p10, p90] of the normalizer sqrt(sum phi^2)."""
    if b is None:
        b = float(np.percentile(root, 10.0))
    if M is None:
        M = max(float(np.percentile(root, 90.0)) / b, 1.0)
    return float(b), float(M)


def verify_regression(
    thm: str,
    *,
    phi_kind: str,
    eps_model: DifferenceModel,
    n: int,
    x_grid,
    mode: str,
    n_rep: int,
    master_seed: int,
    b: float | None = None,
    M: float | None = None,
    jobs: int = 1,
) -> tuple:
    """(Monte Carlo rows, sign-type rows, window (b, M), [(TailEvent, bound)
    per grid x]) of the least-squares estimator; each kind of rows is None
    outside its modes, and b = M = None for thm32.

    The design is exogenous, so theta_hat - theta = sum(phi eps) / sum(phi^2)
    does not depend on theta.  thm32_regression: |theta_hat - theta| >= x
    against twice the inf-over-p expectation bound over the design masses.
    thm33_regression: |sum(phi eps)| / sqrt(sum phi^2) >= x on the window
    [b, b*M] of sqrt(sum phi^2), against the closed form.  The Monte Carlo
    replicates, drawn on `jobs` threads (see regression_batch), give the
    window and the bounds (common random numbers) when there are any.
    """
    rows = types = None
    if mode in ("mc", "both"):
        rows = regression_batch(phi_kind, eps_model, n, n_rep, master_seed, jobs)
    if mode in ("exact_oracle", "both"):
        types = _sign_type_rows(n, eps_model)
    ref = types if rows is None else rows
    sigma, y = ref.sigma, ref.y_xi
    if thm == "thm32_regression":
        window = (None, None)
        rates = [x * x / (2.0 * (sigma * sigma + x * y / 3.0)) for x in x_grid]
        bounds = [2.0 * optimize_expectation_values(r, ref.masses).value for r in rates]
        events = [TailEvent(x, normalizer=RegressionBatch.design) for x in x_grid]
    elif thm == "thm33_regression":
        window = b, M = _resolve_window(ref.root(), b, M)
        root = RegressionBatch.root
        bounds = [evaluate_bound(thm, x=float(x), sigma=sigma, y=y, b=b, M=M) for x in x_grid]
        events = [TailEvent(x, normalizer=root, window=(root, b, b * M)) for x in x_grid]
    else:
        raise ValueError(f"unknown regression theorem {thm!r}")
    return rows, types, window, list(zip(events, bounds))
