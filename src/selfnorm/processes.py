"""Martingale-difference models and bracket statistics of sampled paths.

Every model has zero mean by construction and exposes closed-form conditional
moments, so predictable quantities like the conditional variance are the true
expectations rather than plug-in estimates.  Draws are i.i.d. within a path
under the natural filtration.
"""

from __future__ import annotations

import functools
import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from .bounds import is_finite_real

__all__ = [
    "UnsupportedStatisticError",
    "DifferenceModel",
    "Rademacher",
    "ScaledTwoPoint",
    "BoundedAbove",
    "CenteredPareto",
    "Gaussian",
    "SymmetricMixture",
    "build_model",
    "substream",
    "BLOCK_VALUES",
    "stream_blocks",
    "map_jobs",
    "sample_batch",
    "UndeclaredStatisticError",
    "BatchStats",
]


class UnsupportedStatisticError(ValueError):
    """A statistic was requested from a model without the needed finite moment."""


def substream(master_seed: int, stream: int) -> np.random.Generator:
    """Counter-based generator keyed by (master_seed, stream).

    Philox keying makes each stream a pure function of the two integers, so
    streams can be generated in any order, on any worker, with identical
    results.  Path sampling keys one stream per block of rows (see
    `stream_blocks`); TSP instances key one stream per (instance, role).
    """
    key = np.array([master_seed, stream], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


# Values per sampled block: about 1 MB of float64 for every n, so one block
# stays a small temporary while a generator serves many rows.
BLOCK_VALUES = 2 ** 17


def stream_blocks(n: int, n_rep: int, master_seed: int, first: int = 0):
    """The stream contract: yield (start, rows, rng) for each block of replicates.

    Replicates are split into blocks of rows = max(1, BLOCK_VALUES // n) rows;
    block k holds rows [k*rows, (k+1)*rows) and draws from substream(master_seed, k).
    A caller draws each block whole as a (rows, n) matrix and trims the last
    one, so row r is a pure function of (model, n, master_seed, r) and never
    depends on n_rep.  Blocks start from the one holding row `first`.
    """
    rows = max(1, BLOCK_VALUES // n)
    for block in range(first // rows, -(-n_rep // rows)):
        yield block * rows, rows, substream(master_seed, block)


def map_jobs(fn, items, jobs: int = 1) -> list:
    """[fn(item) for item in items], on `jobs` threads when jobs > 1; the
    first exception raised by any call propagates."""
    if jobs > 1:
        with ThreadPoolExecutor(max_workers=jobs) as pool:
            return list(pool.map(fn, items))
    return list(map(fn, items))


class DifferenceModel:
    """Base class: a zero-mean increment distribution with closed-form moments."""

    family: str = ""
    square_integrable: bool = True
    conditionally_symmetric: bool = False
    heavy_on_left: bool = False
    upper_bound: float = math.inf  # essential supremum of one increment
    abs_bound: float = math.inf    # essential supremum of |increment|

    def sample(self, rng: np.random.Generator, size) -> np.ndarray:
        """I.i.d. increments of the given size (an int or a shape tuple), as a
        new array that the caller owns and may overwrite."""
        raise NotImplementedError

    def draw(self, rng: np.random.Generator, shape) -> tuple:
        """A block of `sample_batch`: the increments, as its only array."""
        return (self.sample(rng, shape),)

    def block_kernel(self, n: int, key: tuple) -> tuple:
        """`sample_batch`'s (kernel, parameter, predictable part or None) of n
        steps' statistic key, (method, parameter) of a `BatchStats` method;
        raises where the model lacks the moment the predictable part needs."""
        method, param = key
        if method == "s":
            return _row_sum, None, None
        if method == "sq_var":
            return _sq_sum, None, None
        if method == "b_n":
            if param < 0:
                raise ValueError(f"y must be >= 0, got {param}")
            return _sq_above, param, n * self.sq_below(param)
        if method == "h_n":
            if param < 0:
                raise ValueError(f"a must be >= 0, got {param}")
            return _sq_abs_above, param, n * self.var()
        if method == "g_n":
            # neg_beta_moment rejects a beta the model lacks
            return _positive_power_sum, param, n * self.neg_beta_moment(param)
        raise ValueError(f"unknown statistic {method!r}")

    def var(self) -> float:
        """E[xi^2]."""
        raise UnsupportedStatisticError(f"{self.family}: variance is not finite")

    def sq_below(self, y: float) -> float:
        """E[xi^2 1{xi <= y}] for y >= 0."""
        raise UnsupportedStatisticError(f"{self.family}: variance is not finite")

    def neg_beta_moment(self, beta: float) -> float:
        """E[(xi^-)^beta] for beta > 0, where the moment is finite."""
        raise NotImplementedError

    def beta_integrable(self, beta: float) -> bool:
        return True

    def _check_beta(self, beta: float) -> None:
        # moment accessors accept any positive order; the (1, 2) restriction
        # of the deviation bounds is enforced where bounds are built
        if beta <= 0.0:
            raise ValueError(f"beta must be > 0, got {beta}")
        if not self.beta_integrable(beta):
            raise UnsupportedStatisticError(
                f"{self.family}: E|xi|^{beta} is not finite"
            )


@dataclass(frozen=True)
class ScaledTwoPoint(DifferenceModel):
    """Two-point increment: `up` with probability `p_up`, else `down` (< 0).

    Zero mean is required of the inputs (p_up*up + (1-p_up)*down = 0); the
    model is heavy on left exactly when up >= |down| (equivalently p_up <= 1/2).
    """

    p_up: float
    up: float
    down: float

    family = "scaled_two_point"
    square_integrable = True

    def __post_init__(self):
        if not 0.0 < self.p_up < 1.0:
            raise ValueError(f"p_up must be in (0, 1), got {self.p_up}")
        if self.up <= 0 or self.down >= 0:
            raise ValueError("require up > 0 and down < 0")
        mean = self.p_up * self.up + (1.0 - self.p_up) * self.down
        if abs(mean) > 1e-12 * max(self.up, -self.down):
            raise ValueError(f"not zero-mean: p_up*up + (1-p_up)*down = {mean}")

    @property
    def upper_bound(self):
        return self.up

    @property
    def abs_bound(self):
        return max(self.up, -self.down)

    @property
    def heavy_on_left(self):
        return self.up >= -self.down

    @property
    def conditionally_symmetric(self):
        return self.p_up == 0.5 and self.up == -self.down

    def sample(self, rng, size):
        u = rng.random(size)
        # float64 bit patterns, also when a spec gives up and down as integers
        up_bits, down_bits = np.array([self.up, self.down], dtype=np.float64).view(np.int64)
        # a branch-free select on the bit patterns (down ^ (up ^ down) = up):
        # np.where on a random mask is mostly branch misses
        bits = u.view(np.int64)
        np.multiply(u < self.p_up, up_bits ^ down_bits, out=bits)
        bits ^= down_bits
        return u

    def var(self):
        return self.p_up * self.up ** 2 + (1.0 - self.p_up) * self.down ** 2

    def sq_below(self, y):
        if y < 0:
            raise ValueError(f"y must be >= 0, got {y}")
        out = (1.0 - self.p_up) * self.down ** 2
        if self.up <= y:
            out += self.p_up * self.up ** 2
        return out

    def neg_beta_moment(self, beta):
        self._check_beta(beta)
        return (1.0 - self.p_up) * (-self.down) ** beta


@dataclass(frozen=True)
class Rademacher(ScaledTwoPoint):
    """Fair +-1 increments: the conditionally symmetric case of ScaledTwoPoint."""

    p_up: float = field(default=0.5, init=False)
    up: float = field(default=1.0, init=False)
    down: float = field(default=-1.0, init=False)

    family = "rademacher"

    def sample(self, rng, size):
        return np.where(rng.random(size) < 0.5, -1.0, 1.0)


@dataclass(frozen=True)
class BoundedAbove(DifferenceModel):
    """Increments y_cap*(1 - E) with E ~ Exp(1): capped at y_cap, zero mean.

    Continuous support on (-inf, y_cap] with an exponential left tail, so the
    realized part of the truncated bracket is genuinely random below the cap.
    """

    y_cap: float

    family = "bounded_above"
    square_integrable = True

    def __post_init__(self):
        if self.y_cap <= 0:
            raise ValueError(f"y_cap must be > 0, got {self.y_cap}")

    @property
    def upper_bound(self):
        return self.y_cap

    def sample(self, rng, size):
        x = rng.standard_exponential(size)
        np.subtract(1.0, x, out=x)
        x *= self.y_cap
        return x

    def var(self):
        return self.y_cap ** 2

    def sq_below(self, y):
        if y < 0:
            raise ValueError(f"y must be >= 0, got {y}")
        c = self.y_cap
        if y >= c:
            return c * c
        r = y / c
        return c * c * math.exp(-(1.0 - r)) * (r * r - 2.0 * r + 2.0)

    def neg_beta_moment(self, beta):
        self._check_beta(beta)
        return self.y_cap ** beta * math.gamma(beta + 1.0) / math.e


@dataclass(frozen=True)
class CenteredPareto(DifferenceModel):
    """Symmetric two-sided Pareto: P(|xi| > t) = (1 + t/scale)^(-beta_tail).

    With tail index beta_tail in (1, 2) the mean exists (and is 0 by symmetry)
    while the variance is infinite, so only the beta-moment bracket G_n(beta)
    is available, for beta < beta_tail.
    """

    beta_tail: float
    scale: float = 1.0

    family = "centered_pareto"
    square_integrable = False
    conditionally_symmetric = True
    heavy_on_left = True

    def __post_init__(self):
        if not 1.0 < self.beta_tail < 2.0:
            raise ValueError(f"beta_tail must be in (1, 2), got {self.beta_tail}")
        if self.scale <= 0:
            raise ValueError(f"scale must be > 0, got {self.scale}")

    def sample(self, rng, size):
        u = rng.random(size)
        # v = 2 min(u, 1 - u) and the sign of u - 0.5 (mag >= 0) select without
        # np.where, whose random mask is mostly branch misses; 1 - u is exact
        mag = np.subtract(1.0, u)
        np.minimum(mag, u, out=mag)
        mag *= 2.0
        # v = 0 exactly when u == 0.0, whose magnitude would be infinite
        np.maximum(mag, np.finfo(float).tiny, out=mag)
        np.power(mag, -1.0 / self.beta_tail, out=mag)
        mag -= 1.0
        mag *= self.scale
        u -= 0.5
        return np.copysign(mag, u, out=mag)

    def beta_integrable(self, beta):
        return beta < self.beta_tail

    def neg_beta_moment(self, beta):
        self._check_beta(beta)
        bt = self.beta_tail
        return (
            0.5
            * self.scale ** beta
            * math.gamma(beta + 1.0)
            * math.gamma(bt - beta)
            / math.gamma(bt)
        )


@dataclass(frozen=True)
class Gaussian(DifferenceModel):
    """Centered normal increments with standard deviation sd."""

    sd: float = 1.0

    family = "gaussian"
    square_integrable = True
    conditionally_symmetric = True
    heavy_on_left = True

    def __post_init__(self):
        if self.sd <= 0:
            raise ValueError(f"sd must be > 0, got {self.sd}")

    def sample(self, rng, size):
        return self.sd * rng.standard_normal(size)

    def var(self):
        return self.sd ** 2

    def sq_below(self, y):
        if y < 0:
            raise ValueError(f"y must be >= 0, got {y}")
        u = y / self.sd
        cdf = 0.5 * (1.0 + math.erf(u / math.sqrt(2.0)))
        pdf = math.exp(-0.5 * u * u) / math.sqrt(2.0 * math.pi)
        return self.sd ** 2 * (cdf - u * pdf)

    def neg_beta_moment(self, beta):
        self._check_beta(beta)
        # E|Z|^beta = 2^{beta/2} Gamma((beta+1)/2) / sqrt(pi); halve by symmetry.
        return (
            self.sd ** beta
            * 2.0 ** (0.5 * beta)
            * math.gamma(0.5 * (beta + 1.0))
            / (2.0 * math.sqrt(math.pi))
        )


@dataclass(frozen=True)
class SymmetricMixture(DifferenceModel):
    """Scale mixture of symmetric two-point increments: xi = +-scales[k] w.p. weights[k]."""

    weights: tuple
    scales: tuple

    family = "conditionally_symmetric_mixture"
    square_integrable = True
    conditionally_symmetric = True
    heavy_on_left = True

    def __post_init__(self):
        w = np.asarray(self.weights, dtype=float)
        s = np.asarray(self.scales, dtype=float)
        if w.ndim != 1 or w.size == 0 or w.size != s.size:
            raise ValueError("weights and scales must be equal-length nonempty sequences")
        if np.any(w <= 0) or abs(w.sum() - 1.0) > 1e-9:
            raise ValueError("weights must be positive and sum to 1")
        if np.any(s <= 0):
            raise ValueError("scales must be positive")
        object.__setattr__(self, "weights", tuple(float(x) for x in w))
        object.__setattr__(self, "scales", tuple(float(x) for x in s))
        object.__setattr__(self, "_cumw", np.cumsum(w))

    @property
    def upper_bound(self):
        return max(self.scales)

    @property
    def abs_bound(self):
        return max(self.scales)

    def sample(self, rng, size):
        comp = np.searchsorted(self._cumw, rng.random(size), side="right")
        comp = np.minimum(comp, len(self.scales) - 1)
        mag = np.asarray(self.scales)[comp]
        sign = np.where(rng.random(size) < 0.5, -1.0, 1.0)
        return sign * mag

    def var(self):
        return sum(w * s * s for w, s in zip(self.weights, self.scales))

    def sq_below(self, y):
        if y < 0:
            raise ValueError(f"y must be >= 0, got {y}")
        return sum(
            w * s * s * (0.5 + (0.5 if s <= y else 0.0))
            for w, s in zip(self.weights, self.scales)
        )

    def neg_beta_moment(self, beta):
        self._check_beta(beta)
        return 0.5 * sum(w * s ** beta for w, s in zip(self.weights, self.scales))


_FAMILIES = {
    "rademacher": Rademacher,
    "scaled_two_point": ScaledTwoPoint,
    "bounded_above": BoundedAbove,
    "centered_pareto": CenteredPareto,
    "gaussian": Gaussian,
    "conditionally_symmetric_mixture": SymmetricMixture,
}


def build_model(desc: dict) -> DifferenceModel:
    """Construct a model from a {"family": ..., **params} description."""
    if not isinstance(desc, dict) or "family" not in desc:
        raise ValueError("model description must be a dict with a 'family' key")
    params = dict(desc)
    family = params.pop("family")
    if family not in _FAMILIES:
        raise ValueError(
            f"unknown model family {family!r}; expected one of {sorted(_FAMILIES)}"
        )
    for key, value in params.items():
        entries = value if isinstance(value, (list, tuple)) else [value]  # weights, scales
        if not all(is_finite_real(v) for v in entries):
            raise ValueError(f"{family}.{key} = {value!r}: parameters must be finite numbers")
    cls = _FAMILIES[family]
    try:
        return cls(**params)
    except TypeError as exc:
        raise ValueError(f"bad parameters for family {family!r}: {exc}") from exc


def sample_batch(model, n: int, n_rep: int, master_seed: int, keys, jobs: int = 1) -> np.ndarray:
    """(n_rep, len(keys)) read-only table in Fortran order, one contiguous column
    per statistic in `keys`, of n_rep replicates under `stream_blocks`' contract.

    `model` is a block sampler: `draw(rng, (rows, n))` draws a block's arrays
    in stream order and `block_kernel(n, key)` gives a key's (kernel,
    parameter, predictable part or None); a `DifferenceModel` draws its
    increments.  Each block is reduced to every key, in key order, as soon as
    it is drawn, so no (n_rep, n) matrix is formed.  With jobs > 1, thread i
    of `jobs` takes every jobs-th block from block i; a row depends only on
    its block, so row r is the same for every n_rep > r and every jobs.  A
    thread frees each draw once reduced and makes its scratch when a kernel
    first asks: against holding draws and making scratch up front, this cut
    mc_diff's peak RSS 69.0 -> 66.8 MB at equal wall time, and up-front
    scratch, which the regression kernels never touch, cost regression 1.1 MB.
    """
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    if n_rep < 1:
        raise ValueError(f"n_rep must be >= 1, got {n_rep}")
    kernels = [model.block_kernel(n, key) for key in keys]
    table = np.empty((n_rep, len(kernels)), order="F")
    blocks = list(stream_blocks(n, n_rep, master_seed))

    def fill(group) -> None:
        arrays = functools.cache(lambda dtype: np.empty((blocks[0][1], n), dtype))
        for start, rows, rng in group:
            draws = [a[: n_rep - start] for a in model.draw(rng, (rows, n))]
            k = len(draws[0])
            scratch = lambda dtype: arrays(dtype)[:k]
            for (kernel, param, predictable), column in zip(kernels, table.T):
                out = column[start:start + k]
                kernel(*draws, param, scratch, out)
                if predictable is not None:
                    out += predictable
            del draws

    jobs = min(jobs, len(blocks))
    map_jobs(fill, [blocks[i::jobs] for i in range(jobs)], jobs)
    table.flags.writeable = False
    return table


# Block kernels of a DifferenceModel: each writes one value per row of the
# block x into out; scratch(dtype) is the worker's scratch of x's shape.


def _row_sum(x, param, scratch, out) -> None:
    x.sum(axis=1, out=out)


def _sq_sum(x, param, scratch, out) -> None:
    tmp = np.multiply(x, x, out=scratch(float))
    tmp.sum(axis=1, out=out)


def _masked_sq_sum(x, tmp, mask, out) -> None:
    """Per row: the sum of x^2 over the lanes where mask holds."""
    np.multiply(x, x, out=tmp)
    tmp *= mask
    tmp.sum(axis=1, out=out)


def _sq_above(x, y, scratch, out) -> None:
    mask = np.greater(x, y, out=scratch(bool))
    _masked_sq_sum(x, scratch(float), mask, out)


def _sq_abs_above(x, a, scratch, out) -> None:
    tmp = np.abs(x, out=scratch(float))
    mask = np.greater(tmp, a, out=scratch(bool))
    _masked_sq_sum(x, tmp, mask, out)


def _positive_power_sum(x, beta, scratch, out) -> None:
    """Per row: the sum of max(x, 0)^beta, for beta > 0."""
    tmp = np.maximum(x, 0.0, out=scratch(float))
    mask = np.equal(tmp, 0.0, out=scratch(bool))
    # np.power runs several times slower on 0.0 lanes, so they are raised as
    # 1.0 and set back to 0 = 0^beta after the power
    tmp += mask
    np.power(tmp, beta, out=tmp)
    tmp -= mask
    tmp.sum(axis=1, out=out)


class UndeclaredStatisticError(LookupError):
    """A statistic was read from a batch that was not reduced to it."""


class BatchStats:
    """Vectorized bracket processes of a batch of paths (one row per path): a
    read-only named view of a `sample_batch` table reduced to `keys`.

    Realized sums come from the sampled increments; predictable terms are the
    model's closed-form conditional moments.  `s`, `sq_var`, `b_n`, `h_n` and
    `g_n` return the table's column of their key, the same read-only array on
    every call, and raise UndeclaredStatisticError for a key the table does not
    hold.  `cond_var` is the closed form n E[xi^2] of every path.
    """

    def __init__(self, table: np.ndarray, keys, model: DifferenceModel, n: int):
        self.model = model
        self.n = n
        self.n_rep = table.shape[0]
        self._columns = dict(zip(keys, table.T))

    def _column(self, key: tuple) -> np.ndarray:
        try:
            return self._columns[key]
        except KeyError:
            raise UndeclaredStatisticError(
                f"statistic {key} was not declared (the batch holds {list(self._columns)})"
            ) from None

    def s(self) -> np.ndarray:
        return self._column(("s", None))

    def sq_var(self) -> np.ndarray:
        return self._column(("sq_var", None))

    def cond_var(self) -> np.ndarray:
        return np.full(self.n_rep, self.n * self.model.var())

    def b_n(self, y: float) -> np.ndarray:
        return self._column(("b_n", y))

    def h_n(self, a: float) -> np.ndarray:
        return self._column(("h_n", a))

    def g_n(self, beta: float) -> np.ndarray:
        return self._column(("g_n", beta))
