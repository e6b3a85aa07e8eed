"""Ensemble statistics and bootstrap fits."""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np


@dataclass
class EnsembleStats:
    """Per-coupling statistics of the Wigner observable over disorder realizations.

    Statistics run over the real part; the imaginary part is tracked as a
    sanity channel.  Raw per-realization values are retained.
    """

    values: list = field(default_factory=list)  # complex, realization order
    truncation_errors: list = field(default_factory=list)

    @property
    def n(self) -> int:
        return len(self.values)

    def real_parts(self) -> np.ndarray:
        return np.array([v.real for v in self.values])

    @property
    def mean(self) -> complex:
        return complex(np.mean(np.asarray(self.values))) if self.values else complex("nan")

    @property
    def variance(self) -> float:
        """Unbiased sample variance of the real parts; NaN when undefined (n < 2)."""
        if self.n < 2:
            return float("nan")
        return float(np.var(self.real_parts(), ddof=1))

    @property
    def stderr_mean(self) -> float:
        return math.sqrt(self.variance / self.n) if self.n >= 2 else float("nan")

    def central_moment(self, r: int) -> float:
        x = self.real_parts()
        if len(x) < 2:
            return float("nan")
        return float(np.mean((x - x.mean()) ** r))

    @property
    def max_rel_imag(self) -> float:
        if not self.values:
            return float("nan")
        vals = np.asarray(self.values)
        scale = max(float(np.max(np.abs(vals.real))), 1e-300)
        return float(np.max(np.abs(vals.imag))) / scale

    @property
    def max_truncation(self) -> float:
        return max(self.truncation_errors) if self.truncation_errors else 0.0


def fit_loglog_slope(lams, variances) -> float:
    x = np.log(np.asarray(lams, dtype=float))
    y = np.log(np.asarray(variances, dtype=float))
    slope, _ = np.polyfit(x, y, 1)
    return float(slope)


def bootstrap_slope(
    lams, values_per_lam, n_boot: int, rng: np.random.Generator
) -> tuple:
    """Bootstrap CI for the slope of log variance against log lambda.

    Resamples realizations within each coupling; returns (slope, lo95, hi95).
    """
    lams = np.asarray(lams, dtype=float)
    arrays = [np.asarray(v, dtype=float) for v in values_per_lam]
    point = fit_loglog_slope(lams, [np.var(a, ddof=1) for a in arrays])
    slopes = np.empty(n_boot)
    for b in range(n_boot):
        vs = []
        for a in arrays:
            idx = rng.integers(0, len(a), len(a))
            vs.append(max(np.var(a[idx], ddof=1), 1e-300))
        slopes[b] = fit_loglog_slope(lams, vs)
    lo, hi = np.percentile(slopes, [2.5, 97.5])
    return point, float(lo), float(hi)
