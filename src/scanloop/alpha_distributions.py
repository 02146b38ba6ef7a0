"""Families of per-subject failure-rate distributions and their cost integrals.

The closed forms in ``cost_model`` price the loop for one subject with a
known failure probability.  Cohorts mix subjects, so population costs are
integrals against a density f over failure rates: the baseline cost is
proportional to the first moment, and the looped-to-baseline cost ratio is
the f-weighted mean of the per-subject cost over that moment.  This module
provides a small set of density families, each with its mean in closed form
and a fixed Gauss rule for the cost integral, and inverse-CDF samplers so
simulations can draw subjects from the same distributions the rules
integrate.
"""

from __future__ import annotations

import bisect
import functools
import math
from abc import ABC, abstractmethod
from dataclasses import dataclass, field

import numpy as np

from .cost_model import _DEFAULT_MAX_RESCANS, PredictorProfile, budgeted_cost_at
from .errors import QuadratureFailure, UndefinedRatio


@functools.cache
def _special():
    """``scipy.special``, imported on first use: only Beta needs it, and it
    takes longer to import than the rest of the package, so runs that build
    no Beta never load SciPy."""
    import scipy.special

    return scipy.special


def _normal_cdf(z: float) -> float:
    """The standard normal CDF as 1/2 erfc(−z/√2), which keeps its relative
    precision in the lower tail, where 1/2 (1 + erf(z/√2)), the form of
    ``statistics.NormalDist().cdf`` in Python 3.11, rounds to 0 below z ≈ −8.37."""
    return 0.5 * math.erfc(-z / math.sqrt(2.0))


def _normal_quantile(p: np.ndarray) -> np.ndarray:
    """Inverse of ``_normal_cdf`` on [0, 1], elementwise on an array:
    ``statistics.NormalDist().inv_cdf`` (Wichura's AS 241), and ∓inf at 0 and
    1, where it raises.  ``statistics`` is imported here, not with the module,
    because it brings in ``decimal`` and ``fractions``, which no other
    family needs."""
    from statistics import NormalDist

    z = np.where(p < 0.5, -math.inf, math.inf)
    inside = (0.0 < p) & (p < 1.0)
    z[inside] = list(map(NormalDist().inv_cdf, p[inside].tolist()))
    return z


@functools.cache
def _legendre(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Gauss–Legendre nodes and weights on [-1, 1]."""
    from numpy.polynomial.legendre import leggauss

    return leggauss(n)


@functools.cache
def _jacobi(n: int, right: float, left: float) -> tuple[np.ndarray, np.ndarray]:
    """Gauss–Jacobi nodes and weights on [-1, 1] for the weight (1 - t)^right (1 + t)^left."""
    return _special().roots_jacobi(n, right, left)


def _around(mode: float, scale: float) -> tuple[float, ...]:
    """Cuts at ``mode`` and 2, 4, ..., 64 ``scale`` either side of it."""
    return (mode, *(mode + s * 2.0**k * scale for s in (-1.0, 1.0) for k in range(1, 7)))


class FailureDistribution(ABC):
    """A distribution of per-subject failure probability on a subset of [0, 1)."""

    @property
    @abstractmethod
    def support(self) -> tuple[float, float]:
        """(lo, hi) bounds of the support."""

    @abstractmethod
    def pdf(self, alpha: float) -> float:
        """Density at a point (0 outside the support)."""

    def inverse_cdf(self, u: np.ndarray) -> np.ndarray:
        """The draws at an array of uniforms on [0, 1), for the families drawn
        by inverting their CDF: every family but the point mass."""
        raise TypeError(f"{type(self).__name__} is not drawn by inverting its CDF")

    def sample(self, rng: np.random.Generator) -> float:
        """One draw from the distribution: by default the inverse CDF at one
        uniform from ``rng``."""
        return float(self.inverse_cdf(np.array([rng.random()]))[0])

    def breakpoints(self) -> tuple[float, ...]:
        """Points where the population integrals split the support: where the
        density is not smooth, or changes much faster than across the support.
        Those outside the support are ignored."""
        return ()

    def gauss_rule(self, lo: float, hi: float, n: int) -> tuple[list[float], list[float]]:
        """n nodes and weights w on [lo, hi], a piece of the support, such that
        sum(w * g(nodes)) approximates the integral of g times the density
        there: Gauss–Legendre, the density at each node folded into its weight."""
        t, w = _legendre(n)
        half = 0.5 * (hi - lo)
        nodes = (lo + half * (t + 1.0)).tolist()
        return nodes, [half * wi * self.pdf(x) for x, wi in zip(nodes, w.tolist())]


@dataclass(frozen=True, slots=True)
class PointMass(FailureDistribution):
    """Degenerate distribution: every subject shares one failure rate."""

    alpha: float

    @property
    def support(self) -> tuple[float, float]:
        return (self.alpha, self.alpha)

    def pdf(self, alpha: float) -> float:
        raise TypeError("a point mass has no density; integrals collapse to the point")

    def sample(self, rng: np.random.Generator) -> float:
        return self.alpha


@dataclass(frozen=True, slots=True)
class Uniform(FailureDistribution):
    """Flat density on [lo, hi] with 0 <= lo < hi < 1."""

    lo: float
    hi: float

    @property
    def support(self) -> tuple[float, float]:
        return (self.lo, self.hi)

    def pdf(self, alpha: float) -> float:
        if self.lo <= alpha <= self.hi:
            return 1.0 / (self.hi - self.lo)
        return 0.0

    def inverse_cdf(self, u: np.ndarray) -> np.ndarray:
        return self.lo + (self.hi - self.lo) * u


@dataclass(frozen=True, slots=True)
class Beta(FailureDistribution):
    """Beta(a, b) on [0, 1), restricted to a >= 1 and b > 1.

    The restriction keeps the density bounded and makes it vanish at 1.
    """

    a: float
    b: float

    @property
    def support(self) -> tuple[float, float]:
        return (0.0, 1.0)

    def pdf(self, alpha: float) -> float:
        return float(np.exp(self._log_pdf(alpha))) if 0.0 <= alpha <= 1.0 else 0.0

    def _log_pdf(self, alpha):
        """Elementwise on [0, 1]; 1/B(a, b) alone overflows for a concentrated Beta."""
        sp = _special()
        powers = sp.xlogy(self.a - 1.0, alpha) + sp.xlog1py(self.b - 1.0, -alpha)
        return powers - sp.betaln(self.a, self.b)

    def inverse_cdf(self, u: np.ndarray) -> np.ndarray:
        return np.minimum(_special().betaincinv(self.a, self.b, u), math.nextafter(1.0, 0.0))

    def breakpoints(self) -> tuple[float, ...]:
        # No cut within sd of 0 or 1: a mode that near an end stays in the
        # piece that ends there, whose end power is the rule's weight.
        mean = self.a / (self.a + self.b)
        sd = math.sqrt(mean * (1.0 - mean) / (self.a + self.b + 1.0))
        mode = (self.a - 1.0) / (self.a + self.b - 2.0)
        return tuple(c for c in _around(mode, sd) if sd <= c <= 1.0 - sd)

    def gauss_rule(self, lo: float, hi: float, n: int) -> tuple[list[float], list[float]]:
        """Gauss–Jacobi: where a density factor alpha^(a-1) or (1 - alpha)^(b-1)
        has its root at an end of [lo, hi], the fractional part of its power,
        the part that is not smooth there, is the rule's weight function."""
        left = (self.a - 1.0) % 1.0 if lo == 0.0 else 0.0
        right = (self.b - 1.0) % 1.0 if hi == 1.0 else 0.0
        t, w = _jacobi(n, right, left)
        half = 0.5 * (hi - lo)
        nodes = lo + half * (t + 1.0)
        rest = self._log_pdf(nodes) - left * np.log(nodes) - right * np.log1p(-nodes)
        return nodes.tolist(), (w * half ** (1.0 + left + right) * np.exp(rest)).tolist()


@dataclass(frozen=True, slots=True)
class TruncatedNormal(FailureDistribution):
    """Normal(mu, sigma) conditioned on [lo, hi] with 0 <= lo < hi < 1."""

    mu: float
    sigma: float
    lo: float
    hi: float
    # -1.0 when the support lies above mu, else 1.0.  Draws and the mass then
    # use the bounds mirrored about mu, whose lower-tail CDFs keep the digits
    # that upper-tail CDFs lose as they round towards 1.
    sign: float = field(init=False, repr=False, compare=False)
    # Normal CDF at the (mirrored) standardized bounds, and the normal mass
    # between them.
    cdf_lo: float = field(init=False, repr=False, compare=False)
    cdf_hi: float = field(init=False, repr=False, compare=False)
    mass: float = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        sign = -1.0 if self.lo > self.mu else 1.0
        cdf_lo = _normal_cdf(sign * (self.lo - self.mu) / self.sigma)
        cdf_hi = _normal_cdf(sign * (self.hi - self.mu) / self.sigma)
        mass = sign * (cdf_hi - cdf_lo)
        if not mass > 0.0:
            raise ValueError(
                f"mu {self.mu} and sigma {self.sigma} put no normal mass on"
                f" [{self.lo}, {self.hi}] in double precision"
            )
        object.__setattr__(self, "sign", sign)
        object.__setattr__(self, "cdf_lo", cdf_lo)
        object.__setattr__(self, "cdf_hi", cdf_hi)
        object.__setattr__(self, "mass", mass)

    @property
    def support(self) -> tuple[float, float]:
        return (self.lo, self.hi)

    def pdf(self, alpha: float) -> float:
        if not self.lo <= alpha <= self.hi:
            return 0.0
        z = (alpha - self.mu) / self.sigma
        return math.exp(-0.5 * z * z) / (math.sqrt(2.0 * math.pi) * self.sigma * self.mass)

    def inverse_cdf(self, u: np.ndarray) -> np.ndarray:
        z = self.sign * _normal_quantile(self.cdf_lo + (self.cdf_hi - self.cdf_lo) * u)
        return np.minimum(np.maximum(self.mu + self.sigma * z, self.lo), self.hi)

    def breakpoints(self) -> tuple[float, ...]:
        # With mu outside [lo, hi] the density peaks at the nearer bound and
        # falls off there on the scale sigma^2 / |mu - bound|.
        mode = min(max(self.mu, self.lo), self.hi)
        return _around(mode, self.sigma**2 / max(self.sigma, abs(self.mu - mode)))


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
        try:
            total = math.fsum(weights)
        except OverflowError:
            raise ValueError("weights sum past the largest double") from None
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

    def inverse_cdf(self, u: np.ndarray) -> np.ndarray:
        cum = np.cumsum(self.masses)
        cum[-1] = 1.0
        idx = np.searchsorted(cum, u, side="right")
        lows = np.concatenate(([0.0], self.edges[:-1]))[idx]
        highs = np.asarray(self.edges)[idx]
        prev_cum = np.concatenate(([0.0], cum[:-1]))[idx]
        mass = np.asarray(self.masses)[idx]
        frac = np.where(mass > 0.0, (u - prev_cum) / np.where(mass > 0.0, mass, 1.0), 0.0)
        return lows + np.clip(frac, 0.0, 1.0) * (highs - lows)


# Nodes of the Gauss rule on each piece of a population integral, the nodes
# of the coarser rule whose disagreement with it estimates the error, and the
# largest relative disagreement accepted.
_NODES = 64
_CHECK_NODES = 32
_RULE_RTOL = 1e-10
# The ratio divides by the rules' own mass, which takes out a density's
# normalisation error; a mass off by more than this missed the density.
_MASS_ATOL = 1e-6


def mean_alpha(dist: FailureDistribution) -> float:
    """First moment of the failure-rate distribution, in closed form."""
    if isinstance(dist, PointMass):
        return dist.alpha
    if isinstance(dist, Uniform):
        return 0.5 * (dist.lo + dist.hi)
    if isinstance(dist, Beta):
        return dist.a / (dist.a + dist.b)
    if isinstance(dist, TruncatedNormal):
        # mu + sigma (phi(l) - phi(h)) / (Phi(h) - Phi(l)) at the standardized
        # bounds l and h, phi and Phi the standard normal density and CDF
        z_lo, z_hi = ((x - dist.mu) / dist.sigma for x in (dist.lo, dist.hi))
        phi_gap = math.exp(-0.5 * z_lo * z_lo) - math.exp(-0.5 * z_hi * z_hi)
        return dist.mu + dist.sigma * phi_gap / (math.sqrt(2.0 * math.pi) * dist.mass)
    bins = zip(dist.masses, (0.0, *dist.edges), dist.edges)
    return math.fsum(m * 0.5 * (lo + hi) for m, lo, hi in bins)


def _narrow(lo: float, hi: float) -> bool:
    """Whether an outermost node of the finer Gauss–Legendre rule on [lo, hi]
    rounds onto an end.  A Beta's Jacobi weight (1 − t)^right at alpha = 1
    only moves the nodes away from 1 (Szegő, Orthogonal Polynomials, 6.21.1)."""
    t, _ = _legendre(_NODES)
    half = 0.5 * (hi - lo)
    return lo + half * (float(t[0]) + 1.0) <= lo or lo + half * (float(t[-1]) + 1.0) >= hi


def _merge_narrow_pieces(cuts: list[float]) -> list[float]:
    """``cuts`` without the interior cuts that end a piece on which ``_narrow``
    holds, so that each such piece joins its neighbour.  Next to alpha = 1 a
    piece narrower than about 1.6e-13 would put a node on 1, where the cost
    is undefined and a Jacobi weight's log is not finite."""
    kept = [cuts[0]]
    for c in cuts[1:-1]:
        if not _narrow(kept[-1], c):
            kept.append(c)
    while len(kept) > 1 and _narrow(kept[-1], cuts[-1]):
        kept.pop()
    return [*kept, cuts[-1]]


def expected_cost_ratio(
    dist: FailureDistribution,
    profile: PredictorProfile,
    cost_quotient: float,
    max_rescans: int = _DEFAULT_MAX_RESCANS,
) -> float:
    """Population ratio of looped cost to baseline cost.

    The density-weighted mean of ``budgeted_cost_at`` — the loop the simulator
    runs, with ``max_rescans`` re-scans at most and a predictor that saturates
    above alpha_max = p / (p + r − p·r) — divided by the mean failure rate.
    For a point mass this is the per-subject ratio itself.

    On each side of alpha_max the per-subject cost is a polynomial of degree
    K + 1 in alpha, so the integral is a sum of fixed Gauss rules (Golub &
    Welsch, Math. Comp. 1969), each family's ``gauss_rule`` on each piece of
    the support cut at its ``breakpoints``, at alpha_max and closing in on it.

    Raises:
        UndefinedRatio: for a point mass at alpha = 0, whose baseline cost is 0.
        QuadratureFailure: when the 64- and 32-node rules disagree by more
            than 1e-10 of the integral, or miss 1e-6 of the density's mass.
    """
    def cost(alpha: float) -> float:
        return budgeted_cost_at(alpha, profile, cost_quotient, max_rescans)

    if isinstance(dist, PointMass):
        if dist.alpha == 0.0:
            raise UndefinedRatio("cost ratio is 0/0 at alpha = 0")
        return cost(dist.alpha) / dist.alpha

    p, r = profile.precision, profile.recall
    lo, hi = dist.support
    alpha_max = p / (p + r - p * r)
    # f peaks at alpha_max, and f^K turns over within about 1/K of where f
    # reaches 1: pieces halve toward alpha_max until they are about 1/K wide.
    levels = range(1, max_rescans.bit_length() + 2)
    graded = [alpha_max + (end - alpha_max) * 0.5**j for end in (lo, hi) for j in levels]
    cuts = sorted({lo, hi, *(c for c in (*dist.breakpoints(), alpha_max, *graded) if lo < c < hi)})
    cuts = _merge_narrow_pieces(cuts)
    pieces = list(zip(cuts, cuts[1:]))
    rules = [[dist.gauss_rule(a, b, n) for a, b in pieces] for n in (_NODES, _CHECK_NODES)]
    mass = math.fsum(w for _, weights in rules[0] for w in weights)
    fine, coarse = ([math.fsum(w * cost(x) for x, w in zip(*r)) for r in rs] for rs in rules)
    total = math.fsum(fine)
    gaps = [abs(f - c) for f, c in zip(fine, coarse)]
    if not (math.fsum(gaps) <= _RULE_RTOL * total and abs(mass - 1.0) <= _MASS_ATOL):
        a, b = pieces[gaps.index(max(gaps))]
        raise QuadratureFailure(
            f"{type(dist).__name__}: the {_NODES}- and {_CHECK_NODES}-node Gauss rules differ"
            f" by {math.fsum(gaps):.3g} on an integral of {total:.3g}, most on the piece"
            f" [{a}, {b}], and find a probability mass of {mass:.12g}"
        )
    return total / mass / mean_alpha(dist)


def sample_alpha(dist: FailureDistribution, rng: np.random.Generator) -> float:
    """Draw one subject's failure rate; deterministic given the stream state."""
    return dist.sample(rng)
