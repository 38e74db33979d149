"""Student's t-statistic through its self-normalized rewriting."""

from __future__ import annotations

import math

__all__ = ["self_normalized_threshold"]


def self_normalized_threshold(x: float, n: int) -> float:
    """Threshold x * sqrt(n / (n + x^2 - 1)) for S_n/sqrt([S]_n).

    {T_n >= x} coincides with {S_n/sqrt([S]_n) >= this value} for 0 < x < sqrt(n),
    because u -> u / sqrt(n - u^2) is increasing on (-sqrt(n), sqrt(n)).
    """
    if n < 2:
        raise ValueError(f"need n >= 2, got {n}")
    if not 0.0 < x < math.sqrt(n):
        raise ValueError(f"x must be in (0, sqrt(n)) = (0, {math.sqrt(n):.6g}), got {x}")
    return x * math.sqrt(n / (n + x * x - 1.0))
