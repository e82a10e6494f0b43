"""Exact forward simulation of the discretized market and wealth dynamics.

The price follows the stochastic exponential of the discretized
dynamics, so it can be simulated without time-discretization error:

    S_{k+1} = S_k * exp((kappa - sigma^2/2 - sum_i eta_i nu_i) dt_k
                        + sigma dW_k) * prod_i (1 + eta_i)^{dN_k(i)}

with per-bin Poisson jump counts dN_k(i) ~ Poisson(nu_i dt_k).

Randomness is fully counter-based: every variate is produced by inverse
CDF from one uniform of a Philox stream keyed by (seed, step, channel),
with the path index addressing the position inside the stream. Chunking
the paths across any number of workers therefore reproduces the exact
same numbers as a single pass.

Wealth under a signal strategy realizes the semimartingale decomposition
of the extended jump integral at finite activity: the jump sum applies
the signal-dependent position to each jump while the compensator drift
charges the no-signal position only,

    dX = p(0) (kappa dt + sigma dW) + sum_i p(gamma(e_i)) eta_i dN(i)
         - p(0) sum_i eta_i nu_i dt.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np
from numpy.random import Generator, Philox
from scipy.special import ndtri

from .levy_model import DiscreteJumpGrid, LevyMarketSpec, SignalScenario

__all__ = [
    "TimeGrid",
    "PathBatch",
    "StrategyTable",
    "simulate_batch",
    "payoff_put",
    "payoff_digital",
    "payoff_terminal",
    "wealth_forward",
    "mc_expected_utility",
]

_EXP_ARG_MAX = 700.0


@dataclass(frozen=True, eq=False)
class TimeGrid:
    """Strictly increasing times 0 = t_0 < ... < t_n = T."""

    times: np.ndarray

    def __post_init__(self):
        t = np.asarray(self.times, dtype=float)
        object.__setattr__(self, "times", t)
        if t.ndim != 1 or t.size < 2:
            raise ValueError("need at least two time points")
        if t[0] != 0.0 or np.any(np.diff(t) <= 0):
            raise ValueError("times must start at 0 and strictly increase")

    @classmethod
    def uniform(cls, n_steps: int, T: float) -> "TimeGrid":
        if n_steps < 1 or not T > 0:
            raise ValueError(f"bad time grid ({n_steps} steps, T={T})")
        return cls(np.linspace(0.0, T, n_steps + 1))

    @property
    def n_steps(self) -> int:
        return self.times.size - 1

    @property
    def dt(self) -> np.ndarray:
        return np.diff(self.times)

    @property
    def T(self) -> float:
        return float(self.times[-1])


def _uniforms(seed: int, step: int, channel: int, n: int, start: int = 0) -> np.ndarray:
    """n uniforms from the (seed, step, channel) stream, positions start..start+n-1.

    Philox advances in blocks of 4 doubles; the remainder is generated
    and discarded so any chunking reproduces the same values.
    """
    bg = Philox(key=seed, counter=[0, 0, step, channel])
    skip = start % 4
    if start >= 4:
        bg.advance(start // 4)
    u = Generator(bg).random(skip + n)
    return u[skip:]


def _normals(seed: int, step: int, channel: int, n: int, start: int = 0) -> np.ndarray:
    u = _uniforms(seed, step, channel, n, start)
    # random() can emit exactly 0, which ndtri maps to -inf
    return ndtri(np.maximum(u, 2.0 ** -64))


def _poisson_invcdf(u: np.ndarray, mu: float) -> np.ndarray:
    """Poisson counts by inverse CDF: one uniform per variate."""
    if mu < 0:
        raise ValueError(f"Poisson mean must be >= 0, got {mu}")
    if mu == 0.0:
        return np.zeros(u.shape, dtype=np.int64)
    term = math.exp(-mu)
    cdf = [term]
    umax = float(np.max(u, initial=0.0))
    i = 0
    while cdf[-1] <= umax:
        i += 1
        term *= mu / i
        nxt = cdf[-1] + term
        if nxt == cdf[-1] or i > 100_000:
            break  # float saturation; remaining mass is below resolution
        cdf.append(nxt)
    return np.searchsorted(np.asarray(cdf), u, side="right").astype(np.int64)


@dataclass(frozen=True, eq=False)
class PathBatch:
    """Simulated increments and prices for a block of paths.

    dW has shape (n_steps, n_paths), dN (n_steps, n_bins, n_paths) as
    small integers, S (n_steps + 1, n_paths) with S[0] = s0.
    """

    spec: LevyMarketSpec
    grid: DiscreteJumpGrid
    time_grid: TimeGrid
    seed: int
    path_offset: int
    dW: np.ndarray
    dN: np.ndarray
    S: np.ndarray

    @property
    def n_paths(self) -> int:
        return self.dW.shape[1]

    def dN_compensated(self, k: int) -> np.ndarray:
        """Compensated jump increments dN_k(i) - nu_i dt_k, shape (n_bins, n_paths)."""
        dtk = self.time_grid.dt[k]
        return self.dN[k].astype(float) - self.grid.weights[:, None] * dtk


def simulate_batch(
    spec: LevyMarketSpec,
    grid: DiscreteJumpGrid,
    time_grid: TimeGrid,
    n_paths: int,
    seed: int,
    path_offset: int = 0,
) -> PathBatch:
    """Simulate dW, per-bin jump counts, and the exact price paths.

    Same seed gives the same batch for any chunking of the path range
    (``path_offset`` addresses the first path of the chunk).
    """
    if n_paths < 1:
        raise ValueError(f"n_paths must be >= 1, got {n_paths}")
    n_steps = time_grid.n_steps
    nb = grid.points.size
    dt = time_grid.dt

    dW = np.empty((n_steps, n_paths))
    dN = np.empty((n_steps, nb, n_paths), dtype=np.int16)
    for k in range(n_steps):
        dW[k] = math.sqrt(dt[k]) * _normals(seed, k, 0, n_paths, path_offset)
        for j in range(nb):
            u = _uniforms(seed, k, 1 + j, n_paths, path_offset)
            counts = _poisson_invcdf(u, grid.weights[j] * dt[k])
            if np.any(counts > np.iinfo(np.int16).max):
                raise ValueError("jump count overflow")
            dN[k, j] = counts.astype(np.int16)

    eta = grid.eta_values()
    comp = float(eta @ grid.weights)
    log_jump = np.log1p(eta)  # 1 + eta > 0 by the cap, prices stay positive
    S = np.empty((n_steps + 1, n_paths))
    S[0] = spec.s0
    for k in range(n_steps):
        expo = (
            (spec.kappa - 0.5 * spec.sigma ** 2 - comp) * dt[k]
            + spec.sigma * dW[k]
            + log_jump @ dN[k].astype(float)
        )
        S[k + 1] = S[k] * np.exp(expo)
    if not np.all(S > 0):
        raise AssertionError("simulated price lost positivity")
    return PathBatch(
        spec=spec, grid=grid, time_grid=time_grid, seed=seed,
        path_offset=path_offset, dW=dW, dN=dN, S=S,
    )


def payoff_put(s_t, strike: float):
    """(strike - S_T)^+, bounded by the strike."""
    if not strike > 0:
        raise ValueError(f"strike must be > 0, got {strike}")
    out = np.maximum(strike - np.asarray(s_t, dtype=float), 0.0)
    return out if out.ndim else float(out)


def payoff_digital(s_t, strike: float):
    """Cash-or-nothing: pays 1 when S_T <= strike."""
    if not strike > 0:
        raise ValueError(f"strike must be > 0, got {strike}")
    out = (np.asarray(s_t, dtype=float) <= strike).astype(float)
    return out if out.ndim else float(out)


# bounded terminal values only: the a priori bound needs a finite sup |F|
_PAYOFFS = {"put": payoff_put, "digital": payoff_digital}


def payoff_terminal(s_t, kind: str, strike: float):
    try:
        fn = _PAYOFFS[kind]
    except KeyError:
        raise ValueError(f"unknown payoff type {kind!r}; options: {sorted(_PAYOFFS)}")
    return fn(s_t, strike)


@dataclass(eq=False)
class StrategyTable:
    """Positions as a function of the jump signal (and optionally state).

    ``fn(k, s)`` maps the step index and the per-path prices S_{t_k} to
    a pair (p0, p_sig): the no-signal position per path and the
    per-bin positions applied when a jump of that bin arrives carrying a
    signal. Bins without signal always trade at p0.
    """

    scenario: SignalScenario
    pi_lower: float
    pi_upper: float
    fn: Callable[[int, np.ndarray], tuple]

    @classmethod
    def constant(cls, scenario: SignalScenario, p0: float,
                 p_sig: Optional[np.ndarray] = None,
                 pi_lower: float = 1.0, pi_upper: float = 1.0) -> "StrategyTable":
        """Time- and state-independent table; p_sig defaults to p0 on every bin."""

        def fn(k, s):
            n = s.size
            base = np.full(n, p0)
            if p_sig is None:
                sig = np.broadcast_to(base, (1, n))
            else:
                sig = np.broadcast_to(np.asarray(p_sig, float)[:, None], (len(p_sig), n))
            return base, sig

        return cls(scenario=scenario, pi_lower=pi_lower, pi_upper=pi_upper, fn=fn)


def wealth_forward(batch: PathBatch, strategy: StrategyTable, x: float) -> np.ndarray:
    """Terminal wealth per path under a signal strategy.

    Positions are taken from the state at the left endpoint of each
    step; the signal argument is the jump's bin. Raises if any position
    leaves [-pi_lower, pi_upper].
    """
    grid = batch.grid
    spec = batch.spec
    eta = grid.eta_values()
    comp = float(eta @ grid.weights)
    sig_mask = grid.signal_mask(strategy.scenario)
    dt = batch.time_grid.dt
    nb = grid.points.size

    X = np.full(batch.n_paths, float(x))
    tol = 1e-12
    for k in range(batch.time_grid.n_steps):
        p0, p_sig = strategy.fn(k, batch.S[k])
        p0 = np.broadcast_to(np.asarray(p0, float), (batch.n_paths,))
        p_sig = np.asarray(p_sig, float)
        if p_sig.shape[0] == 1:
            p_sig = np.broadcast_to(p_sig, (nb, batch.n_paths))
        pos_bins = np.where(sig_mask[:, None], p_sig, p0[None, :])
        if (np.min(p0) < -strategy.pi_lower - tol
                or np.max(p0) > strategy.pi_upper + tol
                or np.min(pos_bins) < -strategy.pi_lower - tol
                or np.max(pos_bins) > strategy.pi_upper + tol):
            raise ValueError("strategy position outside [-pi_lower, pi_upper]")
        jump_pnl = np.einsum("bp,b,bp->p", pos_bins, eta, batch.dN[k].astype(float))
        X = X + p0 * (spec.kappa * dt[k] + spec.sigma * batch.dW[k]) \
            + jump_pnl - p0 * comp * dt[k]
    return X


def mc_expected_utility(wealths, f_values, lam: float):
    """Sample mean and standard error of -exp(-lam (X_T - F)).

    Means use numpy pairwise summation, so results do not depend on how
    path chunks were assembled.
    """
    if not lam > 0:
        raise ValueError(f"lam must be > 0, got {lam}")
    X = np.asarray(wealths, dtype=float)
    F = np.asarray(f_values, dtype=float)
    F = np.broadcast_to(F, X.shape)
    arg = -lam * (X - F)
    if np.any(arg > _EXP_ARG_MAX):
        raise ValueError("utility exponent exceeds the overflow guard")
    vals = -np.exp(arg)
    mean = float(np.mean(vals))
    if vals.size < 2:
        return mean, 0.0
    stderr = float(np.std(vals, ddof=1) / math.sqrt(vals.size))
    return mean, stderr
