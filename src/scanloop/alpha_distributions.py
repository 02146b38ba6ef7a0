"""Families of per-subject failure-rate distributions and their cost integrals.

The closed forms in ``cost_model`` price the loop for one subject with a
known failure probability.  Cohorts mix subjects, so population costs are
integrals against a density f over failure rates: the baseline cost is
proportional to the first moment, and the looped-to-baseline cost ratio is
an f-weighted average of the per-subject ratio.  This module provides a
small set of density families, an adaptive Simpson integrator for those two
integrals, and inverse-CDF samplers so simulations can draw subjects from
the same distributions the quadrature integrates.
"""

from __future__ import annotations

import bisect
import functools
import math
from abc import ABC, abstractmethod
from dataclasses import dataclass, field

import numpy as np

from .cost_model import CostRatio, FailureRate, PredictorProfile, cost_ratio_at
from .errors import QuadratureFailure, SupportViolation


# Adaptive integrator budget: absolute and relative tolerance, and how many
# times an interval may be halved before QuadratureFailure.
QUADRATURE_ATOL = 1e-10
QUADRATURE_RTOL = 1e-8
QUADRATURE_MAX_LEVELS = 20


@functools.cache
def _special():
    """``scipy.special``, imported on first use.

    Only the Beta density (``betaln``) and the truncated normal (``ndtr``,
    ``ndtri``) need it, and importing it takes longer than importing the rest
    of the package, so runs that never build either family never load SciPy.
    """
    import scipy.special

    return scipy.special


class FailureDistribution(ABC):
    """A distribution of per-subject failure probability on a subset of [0, 1)."""

    @property
    @abstractmethod
    def support(self) -> tuple[float, float]:
        """(lo, hi) bounds of the support."""

    @abstractmethod
    def pdf(self, alpha: float) -> float:
        """Density at a point (0 outside the support)."""

    @abstractmethod
    def sample(self, rng: np.random.Generator) -> float:
        """One draw from the distribution."""

    @abstractmethod
    def sample_many(self, rng: np.random.Generator, n: int) -> np.ndarray:
        """n draws as a vector; same distribution as ``sample``."""

    def breakpoints(self) -> tuple[float, ...]:
        """Interior points where the density is not smooth (quadrature splits here)."""
        return ()


@dataclass(frozen=True, slots=True)
class PointMass(FailureDistribution):
    """Degenerate distribution: every subject shares one failure rate."""

    alpha: float

    def __post_init__(self) -> None:
        if not 0.0 <= self.alpha < 1.0:
            raise ValueError(f"alpha must be in [0, 1), got {self.alpha}")

    @property
    def support(self) -> tuple[float, float]:
        return (self.alpha, self.alpha)

    def pdf(self, alpha: float) -> float:
        raise TypeError("a point mass has no density; integrals collapse to the point")

    def sample(self, rng: np.random.Generator) -> float:
        return self.alpha

    def sample_many(self, rng: np.random.Generator, n: int) -> np.ndarray:
        return np.full(n, self.alpha)


@dataclass(frozen=True, slots=True)
class Uniform(FailureDistribution):
    """Flat density on [lo, hi] with 0 <= lo < hi < 1."""

    lo: float
    hi: float

    def __post_init__(self) -> None:
        if not (0.0 <= self.lo < self.hi < 1.0):
            raise ValueError(
                f"support must satisfy 0 <= lo < hi < 1, got [{self.lo}, {self.hi}]"
            )

    @property
    def support(self) -> tuple[float, float]:
        return (self.lo, self.hi)

    def pdf(self, alpha: float) -> float:
        if self.lo <= alpha <= self.hi:
            return 1.0 / (self.hi - self.lo)
        return 0.0

    def sample(self, rng: np.random.Generator) -> float:
        return self.lo + (self.hi - self.lo) * rng.random()

    def sample_many(self, rng: np.random.Generator, n: int) -> np.ndarray:
        return self.lo + (self.hi - self.lo) * rng.random(n)


@dataclass(frozen=True, slots=True)
class Beta(FailureDistribution):
    """Beta(a, b) on [0, 1), restricted to a >= 1 and b > 1.

    The restriction keeps the density bounded and forces it to vanish at 1,
    so every integrand this module builds stays finite on the closed support.
    """

    a: float
    b: float

    def __post_init__(self) -> None:
        if not (self.a >= 1.0 and self.b > 1.0):
            raise ValueError(
                f"shape parameters must satisfy a >= 1 and b > 1, got a={self.a}, b={self.b}"
            )

    @property
    def support(self) -> tuple[float, float]:
        return (0.0, 1.0)

    def pdf(self, alpha: float) -> float:
        if not 0.0 <= alpha <= 1.0:
            return 0.0
        if alpha == 0.0:
            return 0.0 if self.a > 1.0 else math.exp(-_special().betaln(self.a, self.b))
        if alpha == 1.0:
            return 0.0
        log_pdf = (
            (self.a - 1.0) * math.log(alpha)
            + (self.b - 1.0) * math.log1p(-alpha)
            - _special().betaln(self.a, self.b)
        )
        return math.exp(log_pdf)

    def sample(self, rng: np.random.Generator) -> float:
        return min(float(rng.beta(self.a, self.b)), math.nextafter(1.0, 0.0))

    def sample_many(self, rng: np.random.Generator, n: int) -> np.ndarray:
        return np.minimum(rng.beta(self.a, self.b, size=n), math.nextafter(1.0, 0.0))


@dataclass(frozen=True, slots=True)
class TruncatedNormal(FailureDistribution):
    """Normal(mu, sigma) conditioned on [lo, hi] with 0 <= lo < hi < 1."""

    mu: float
    sigma: float
    lo: float
    hi: float
    # Standard normal CDF at the standardized bounds, derived on construction.
    cdf_lo: float = field(init=False, repr=False, compare=False)
    cdf_hi: float = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if self.sigma <= 0.0:
            raise ValueError(f"sigma must be > 0, got {self.sigma}")
        if not (0.0 <= self.lo < self.hi < 1.0):
            raise ValueError(
                f"support must satisfy 0 <= lo < hi < 1, got [{self.lo}, {self.hi}]"
            )
        ndtr = _special().ndtr
        cdf_lo = float(ndtr((self.lo - self.mu) / self.sigma))
        cdf_hi = float(ndtr((self.hi - self.mu) / self.sigma))
        if not cdf_hi > cdf_lo:
            raise ValueError(
                f"mu {self.mu} and sigma {self.sigma} put no normal mass on"
                f" [{self.lo}, {self.hi}] in double precision"
            )
        object.__setattr__(self, "cdf_lo", cdf_lo)
        object.__setattr__(self, "cdf_hi", cdf_hi)

    @property
    def support(self) -> tuple[float, float]:
        return (self.lo, self.hi)

    def pdf(self, alpha: float) -> float:
        if not self.lo <= alpha <= self.hi:
            return 0.0
        z = (alpha - self.mu) / self.sigma
        return math.exp(-0.5 * z * z) / (
            math.sqrt(2.0 * math.pi) * self.sigma * (self.cdf_hi - self.cdf_lo)
        )

    def sample(self, rng: np.random.Generator) -> float:
        u = self.cdf_lo + (self.cdf_hi - self.cdf_lo) * rng.random()
        return min(max(self.mu + self.sigma * float(_special().ndtri(u)), self.lo), self.hi)

    def sample_many(self, rng: np.random.Generator, n: int) -> np.ndarray:
        u = self.cdf_lo + (self.cdf_hi - self.cdf_lo) * rng.random(n)
        return np.clip(self.mu + self.sigma * _special().ndtri(u), self.lo, self.hi)


@dataclass(frozen=True, slots=True)
class EmpiricalHistogram(FailureDistribution):
    """Piecewise-constant density from binned estimates.

    ``edges`` are strictly increasing upper bin edges in (0, 1); bin i spans
    (edges[i-1], edges[i]] with the first bin starting at 0.  ``masses`` hold
    the probability of each bin and must sum to 1; use ``from_weights`` to
    build one from unnormalized counts.
    """

    edges: tuple[float, ...]
    masses: tuple[float, ...]

    def __post_init__(self) -> None:
        if len(self.edges) == 0 or len(self.edges) != len(self.masses):
            raise ValueError("edges and masses must be equal-length and nonempty")
        prev = 0.0
        for e in self.edges:
            if not prev < e:
                raise ValueError(f"edges must be strictly increasing from 0, got {self.edges}")
            prev = e
        if not self.edges[-1] < 1.0:
            raise ValueError(f"last edge must be < 1, got {self.edges[-1]}")
        if any(m < 0.0 for m in self.masses):
            raise ValueError("masses must be nonnegative")
        total = math.fsum(self.masses)
        if abs(total - 1.0) > 1e-9:
            raise ValueError(f"masses must sum to 1, got {total}")

    @classmethod
    def from_weights(
        cls, edges: tuple[float, ...] | list[float], weights: tuple[float, ...] | list[float]
    ) -> "EmpiricalHistogram":
        total = math.fsum(weights)
        if total <= 0.0:
            raise ValueError("weights must have positive total")
        return cls(tuple(edges), tuple(w / total for w in weights))

    @property
    def support(self) -> tuple[float, float]:
        return (0.0, self.edges[-1])

    def breakpoints(self) -> tuple[float, ...]:
        return self.edges[:-1]

    def _bin_bounds(self, i: int) -> tuple[float, float]:
        lo = 0.0 if i == 0 else self.edges[i - 1]
        return lo, self.edges[i]

    def pdf(self, alpha: float) -> float:
        if alpha < 0.0 or alpha > self.edges[-1]:
            return 0.0
        i = bisect.bisect_left(self.edges, alpha)
        lo, hi = self._bin_bounds(i)
        return self.masses[i] / (hi - lo)

    def sample(self, rng: np.random.Generator) -> float:
        return float(self.sample_many(rng, 1)[0])

    def sample_many(self, rng: np.random.Generator, n: int) -> np.ndarray:
        cum = np.cumsum(self.masses)
        cum[-1] = 1.0
        u = rng.random(n)
        idx = np.searchsorted(cum, u, side="right")
        lows = np.concatenate(([0.0], self.edges[:-1]))[idx]
        highs = np.asarray(self.edges)[idx]
        prev_cum = np.concatenate(([0.0], cum[:-1]))[idx]
        mass = np.asarray(self.masses)[idx]
        frac = np.where(mass > 0.0, (u - prev_cum) / np.where(mass > 0.0, mass, 1.0), 0.0)
        return lows + np.clip(frac, 0.0, 1.0) * (highs - lows)


def _adaptive_simpson(f, lo: float, hi: float, tol: float, max_levels: int) -> float:
    """Adaptive Simpson on [lo, hi] with per-interval budget splitting.

    Raises QuadratureFailure if any subinterval still misses its share of the
    tolerance after max_levels halvings.
    """
    if hi <= lo:
        return 0.0

    def simpson(a: float, fa: float, fm: float, fb: float, b: float) -> float:
        return (b - a) / 6.0 * (fa + 4.0 * fm + fb)

    m0 = 0.5 * (lo + hi)
    f_lo, f_m0, f_hi = f(lo), f(m0), f(hi)
    whole = simpson(lo, f_lo, f_m0, f_hi, hi)
    # stack entries: (a, b, fa, fm, fb, S_ab, tol_ab, level)
    stack = [(lo, hi, f_lo, f_m0, f_hi, whole, tol, 0)]
    total = 0.0
    while stack:
        a, b, fa, fm, fb, s_ab, tol_ab, level = stack.pop()
        m = 0.5 * (a + b)
        lm, rm = 0.5 * (a + m), 0.5 * (m + b)
        flm, frm = f(lm), f(rm)
        s_left = simpson(a, fa, flm, fm, m)
        s_right = simpson(m, fm, frm, fb, b)
        err = s_left + s_right - s_ab
        if abs(err) <= 15.0 * tol_ab:
            total += s_left + s_right + err / 15.0
            continue
        if level >= max_levels:
            raise QuadratureFailure(
                f"tolerance not reached on [{a}, {b}] after {max_levels} subdivision levels"
            )
        half = 0.5 * tol_ab
        stack.append((a, m, fa, flm, fm, s_left, half, level + 1))
        stack.append((m, b, fm, frm, fb, s_right, half, level + 1))
    return total


def _integrate(f, lo: float, hi: float, breakpoints=()) -> float:
    """Integrate f over [lo, hi], splitting at known non-smooth points.

    Each piece evaluates f a hair inside its own bounds, so a jump sitting
    exactly on a cut cannot leak a neighboring piece's value into this one.
    """
    cuts = sorted({lo, hi, *(b for b in breakpoints if lo < b < hi)})
    pieces = []
    for a, b in zip(cuts, cuts[1:]):
        a_in, b_in = math.nextafter(a, b), math.nextafter(b, a)
        pieces.append((a, b, lambda x, lo_=a_in, hi_=b_in: f(min(max(x, lo_), hi_))))
    # Scale-setting pass: a coarse composite Simpson estimate to anchor rtol.
    coarse = 0.0
    for a, b, g in pieces:
        coarse += (b - a) / 6.0 * (g(a) + 4.0 * g(0.5 * (a + b)) + g(b))
    tol = max(QUADRATURE_ATOL, QUADRATURE_RTOL * abs(coarse))
    total_len = hi - lo
    out = 0.0
    for a, b, g in pieces:
        out += _adaptive_simpson(g, a, b, tol * (b - a) / total_len, QUADRATURE_MAX_LEVELS)
    return out


def mean_alpha(dist: FailureDistribution) -> float:
    """First moment of the failure-rate distribution."""
    if isinstance(dist, PointMass):
        return dist.alpha
    lo, hi = dist.support

    def integrand(a: float) -> float:
        if a == 0.0:
            return 0.0
        return a * dist.pdf(a)

    return _integrate(integrand, lo, hi, dist.breakpoints())


def _check_pole(dist: FailureDistribution, profile: PredictorProfile) -> None:
    """Refuse supports on which the per-subject ratio hits its pole."""
    if profile.recall == 0.0:
        return
    pole = profile.precision / profile.recall
    lo, hi = dist.support
    if pole < hi or (pole == hi and not isinstance(dist, PointMass) and dist.pdf(hi) != 0.0):
        raise SupportViolation(
            f"per-subject ratio diverges at alpha = {pole}, inside the support"
            f" [{lo}, {hi}] of {type(dist).__name__}"
        )
    if isinstance(dist, PointMass) and pole <= dist.alpha:
        raise SupportViolation(
            f"per-subject ratio diverges at alpha = {pole} <= point mass {dist.alpha}"
        )


def expected_cost_ratio(
    dist: FailureDistribution,
    profile: PredictorProfile,
    cost_quotient: float,
) -> CostRatio:
    """Population ratio of looped cost to baseline cost.

    Computed as the density-weighted mean of alpha times the per-subject
    ratio, divided by the mean alpha.  For a point mass this collapses to
    the per-subject ratio itself.

    Raises:
        SupportViolation: if the per-subject ratio's pole (precision/recall)
            lies inside the support, or sits on its upper edge with
            non-vanishing density there.
        QuadratureFailure: if the integrals cannot meet tolerance.
    """
    if cost_quotient < 0.0:
        raise ValueError(f"cost_quotient must be >= 0, got {cost_quotient}")
    _check_pole(dist, profile)
    if isinstance(dist, PointMass):
        return cost_ratio_at(FailureRate(dist.alpha), profile, cost_quotient)

    p, r = profile.precision, profile.recall
    numer_const = p - p * r + r * cost_quotient
    lo, hi = dist.support

    def numerator(a: float) -> float:
        fa = dist.pdf(a)
        if fa == 0.0:
            return 0.0
        return a * fa * numer_const / (p - a * r)

    num = _integrate(numerator, lo, hi, dist.breakpoints())
    den = mean_alpha(dist)
    if den <= 0.0:
        raise SupportViolation("distribution has zero mean failure rate; ratio undefined")
    return CostRatio(num / den)


def sample_alpha(dist: FailureDistribution, rng: np.random.Generator) -> FailureRate:
    """Draw one subject's failure rate; deterministic given the stream state."""
    return FailureRate(float(dist.sample(rng)))
