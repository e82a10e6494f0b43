"""Levy market model, jump signals, and the jump-space discretization.

The risky asset carries a Brownian part and a pure-jump part with Levy
measure nu(de) = rho |e|^(-alpha) de, alpha in (1, 2). The relative jump
size is the capped map eta (so prices stay positive), and the investor
receives a signal gamma(e) about each incoming jump mark e:

* ``NoSignal``      gamma = 0, nothing is revealed,
* ``HideSmall(c)``  gamma(e) = eta(e) for |e| >= c, small jumps hidden,
* ``HideLarge(c)``  gamma(e) = eta(e) for |e| <= c, large jumps hidden.

``build_grid`` produces the finite-activity surrogate of nu used by the
simulation and the backward solver: symmetric marks e_{-q}..e_q (0
excluded) with midpoint-bin weights integrating the exact density, the
outermost bins absorbing the tails up to infinity, and the capped jump
size eta(e_i) of each mark. The grid is all the measure the package
reads; the market parameters (sigma, kappa, s0, T) stay in the spec.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Union

import numpy as np

__all__ = [
    "LevyMarketSpec",
    "NoSignal",
    "HideSmall",
    "HideLarge",
    "SignalScenario",
    "DiscreteJumpGrid",
    "build_grid",
]


@dataclass(frozen=True)
class LevyMarketSpec:
    """Continuous market model parameters.

    Parameters
    ----------
    rho : float
        Scale of the jump density, rho > 0.
    alpha : float
        Tail exponent, must lie in (1, 2) so that eta is nu-integrable.
    epsilon : float
        Jump cap in (0, 1); relative jumps are clipped to +-(1 - epsilon).
    kappa : float
        Drift of the risky asset per unit time.
    sigma : float
        Volatility, sigma > 0.
    s0 : float
        Initial price, s0 > 0.
    T : float
        Horizon in years.
    """

    rho: float = 0.1
    alpha: float = 1.5
    epsilon: float = 0.01
    kappa: float = 0.0
    sigma: float = 0.2
    s0: float = 1.0
    T: float = 1.0

    def __post_init__(self):
        if not self.rho > 0:
            raise ValueError(f"rho must be > 0, got {self.rho}")
        if not 1.0 < self.alpha < 2.0:
            raise ValueError(f"alpha must be in (1, 2), got {self.alpha}")
        if not 0.0 < self.epsilon < 1.0:
            raise ValueError(f"epsilon must be in (0, 1), got {self.epsilon}")
        if not self.sigma > 0:
            raise ValueError(f"sigma must be > 0, got {self.sigma}")
        if not self.s0 > 0:
            raise ValueError(f"s0 must be > 0, got {self.s0}")
        if not self.T > 0:
            raise ValueError(f"T must be > 0, got {self.T}")

    def nu_density(self, e):
        """Density rho |e|^(-alpha) of the Levy measure. Undefined at e = 0.

        The package reads the measure through ``nu_interval``; this is
        the density its quadrature test integrates.
        """
        e = np.asarray(e, dtype=float)
        if np.any(e == 0.0):
            raise ValueError("nu has no density value at e = 0")
        return self.rho * np.abs(e) ** (-self.alpha)

    def eta(self, e):
        """Capped relative jump size: identity on [-(1-eps), 1-eps], clipped outside."""
        cap = 1.0 - self.epsilon
        return np.clip(np.asarray(e, dtype=float), -cap, cap)

    def nu_interval(self, a, b):
        """Mass of nu on the one-sided interval (a, b], 0 < a < b <= inf.

        Uses the antiderivative rho e^(1-alpha) / (1 - alpha); b may be inf.
        """
        if not 0.0 < a < b:
            raise ValueError(f"need 0 < a < b, got ({a}, {b})")
        am1 = self.alpha - 1.0
        upper = 0.0 if math.isinf(b) else b ** (-am1)
        return self.rho * (a ** (-am1) - upper) / am1


@dataclass(frozen=True)
class NoSignal:
    """No information scenario: gamma is identically zero."""

    def gamma(self, e, spec: LevyMarketSpec):
        return np.zeros_like(np.asarray(e, dtype=float))

    def label(self) -> str:
        return "no-signal"


@dataclass(frozen=True)
class HideSmall:
    """Signal reveals eta(e) only for jumps with |e| >= c."""

    c: float

    def __post_init__(self):
        if not self.c > 0:
            raise ValueError(f"cutoff c must be > 0, got {self.c}")

    def gamma(self, e, spec: LevyMarketSpec):
        e = np.asarray(e, dtype=float)
        return np.where(np.abs(e) >= self.c, spec.eta(e), 0.0)

    def label(self) -> str:
        return "hide-small"


@dataclass(frozen=True)
class HideLarge:
    """Signal reveals eta(e) only for jumps with |e| <= c."""

    c: float

    def __post_init__(self):
        if not self.c > 0:
            raise ValueError(f"cutoff c must be > 0, got {self.c}")

    def gamma(self, e, spec: LevyMarketSpec):
        e = np.asarray(e, dtype=float)
        return np.where(np.abs(e) <= self.c, spec.eta(e), 0.0)

    def label(self) -> str:
        return "hide-large"


SignalScenario = Union[NoSignal, HideSmall, HideLarge]


@dataclass(frozen=True)
class DiscreteJumpGrid:
    """Finite-activity surrogate of nu on symmetric marks.

    ``points`` holds the 2q marks in increasing order
    (-e_q, .., -e_1, e_1, .., e_q); ``weights`` the matching bin masses
    nu_i. Bin i covers ((e_{i-1}+e_i)/2, (e_i+e_{i+1})/2] with e_0 = 0
    and e_{q+1} = inf, so the innermost bins start at e_1 / 2 and the
    outermost integrate the exact tails. ``eta`` holds the capped
    relative jump size eta(e_i) of each mark, inside (-1, 1) so that
    1 + eta > 0 and prices stay positive.
    """

    points: np.ndarray
    weights: np.ndarray
    eta: np.ndarray

    def __post_init__(self):
        pts = np.asarray(self.points, dtype=float)
        w = np.asarray(self.weights, dtype=float)
        eta = np.asarray(self.eta, dtype=float)
        object.__setattr__(self, "points", pts)
        object.__setattr__(self, "weights", w)
        object.__setattr__(self, "eta", eta)
        if pts.ndim != 1 or pts.size % 2 or pts.size < 4:
            raise ValueError("points must be a flat symmetric array, >= 2 per side")
        if np.any(np.diff(pts) <= 0):
            raise ValueError("grid points must be strictly increasing")
        q = pts.size // 2
        if not np.allclose(pts[:q][::-1], -pts[q:], rtol=0, atol=0):
            raise ValueError("grid points must be symmetric: e_{-i} = -e_i")
        if np.any(pts[q:] <= 0):
            raise ValueError("positive-side points must be > 0 (e_0 = 0 excluded)")
        if w.shape != pts.shape or np.any(~np.isfinite(w)) or np.any(w <= 0):
            raise ValueError("weights must be positive, finite, aligned with points")
        # written so that a NaN eta fails too
        if eta.shape != pts.shape or not np.all((eta > -1.0) & (eta < 1.0)):
            raise ValueError("eta must lie in (-1, 1), aligned with points")

    @property
    def q(self) -> int:
        return self.points.size // 2

    @property
    def signed_indices(self) -> np.ndarray:
        q = self.q
        return np.concatenate([np.arange(-q, 0), np.arange(1, q + 1)])

    def compensator(self) -> float:
        """sum_i eta_i nu_i, the jumps' compensator drift per unit time."""
        return float(self.eta @ self.weights)

    def log_jumps(self) -> np.ndarray:
        """log(1 + eta_i) per bin; finite as eta_i > -1, so prices stay positive."""
        return np.log1p(self.eta)

    def first_midpoint(self) -> float:
        """Smallest positive bin edge e_1 / 2."""
        return float(self.points[self.q]) / 2.0


def build_grid(
    q: int,
    spec: LevyMarketSpec,
    e_min: float = 0.05,
    e_max: float = 5.0,
    layout: str = "geometric",
) -> DiscreteJumpGrid:
    """Build the symmetric jump grid with midpoint-bin weights.

    Parameters
    ----------
    q : int
        Marks per side, q >= 2.
    e_min, e_max : float
        First and last positive marks e_1 and e_q.
    layout : str
        "geometric" (default; resolves the |e|^(-alpha) singularity) or
        "linear".
    """
    if q < 2:
        raise ValueError(f"q must be >= 2, got {q}")
    if not 0 < e_min < e_max:
        raise ValueError(f"need 0 < e_min < e_max, got ({e_min}, {e_max})")
    if layout == "geometric":
        pos = np.geomspace(e_min, e_max, q)
    elif layout == "linear":
        pos = np.linspace(e_min, e_max, q)
    else:
        raise ValueError(f"unknown grid layout {layout!r}")
    if np.any(np.diff(pos) <= 0):
        raise ValueError("grid layout produced non-increasing points")

    # midpoint edges: m_1 = e_1/2 (e_0 = 0), m_{q+1} = inf
    edges = np.empty(q + 1)
    edges[0] = pos[0] / 2.0
    edges[1:-1] = 0.5 * (pos[:-1] + pos[1:])
    edges[-1] = math.inf
    w_pos = np.array([spec.nu_interval(a, b) for a, b in zip(edges[:-1], edges[1:])])

    points = np.concatenate([-pos[::-1], pos])
    weights = np.concatenate([w_pos[::-1], w_pos])
    return DiscreteJumpGrid(points=points, weights=weights, eta=spec.eta(points))
