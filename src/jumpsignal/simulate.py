"""Exact forward simulation of the discretized market and wealth dynamics.

The price follows the stochastic exponential of the discretized
dynamics, so it can be simulated without time-discretization error:

    S_{k+1} = S_k * exp((kappa - sigma^2/2 - sum_i eta_i nu_i) dt_k
                        + sigma dW_k) * prod_i (1 + eta_i)^{dN_k(i)}

with per-bin Poisson jump counts dN_k(i) ~ Poisson(nu_i dt_k).

Randomness is fully counter-based: every variate is produced by inverse
CDF from one 64-bit word of a Philox stream keyed by (seed, step,
channel), with the path index addressing the position inside the stream,
and the uniform of a word w is (w >> 11) 2^-53, as numpy's
``Generator.random`` forms it. Chunking the paths across any number of
workers therefore reproduces the exact same numbers as a single pass.
For the same reason the streams of a step (the Brownian channel and one
channel per jump bin) are drawn on a thread pool sized to the CPUs the
process may run on, and the batch does not depend on the pool size:
each stream is fixed by its key alone, and the results are assembled in
channel order.

Jump counts are stored as events, not as a dense (n_steps, n_bins,
n_paths) array: at the reference scale fewer than 1% of the counts are
nonzero. The jump streams are read as raw words, and one integer
comparison against ceil(exp(-nu_i dt_k) 2^53) << 11, the word form of
the Poisson probability of no jump, selects the nonzero counts; only the
selected words are turned into uniforms and inverted.

Wealth under a signal strategy realizes the semimartingale decomposition
of the extended jump integral at finite activity: the jump sum applies
the signal-dependent position to each jump while the compensator drift
charges the no-signal position only,

    dX = p(0) (kappa dt + sigma dW) + sum_i p(gamma(e_i)) eta_i dN(i)
         - p(0) sum_i eta_i nu_i dt.

A strategy is two arrays: the no-signal positions p(0) of every path
and step, shape (n_steps, n_paths), and one signal position per bin.
"""

from __future__ import annotations

import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from functools import partial
from typing import Tuple

import numpy as np
from numpy.random import Generator, Philox
from scipy.special import ndtri

from .drivers import DriverContext
from .levy_model import DiscreteJumpGrid, LevyMarketSpec

__all__ = [
    "TimeGrid",
    "JumpEvents",
    "PathBatch",
    "simulate_batch",
    "payoff_put",
    "payoff_digital",
    "payoff_terminal",
    "wealth_forward",
]


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


def _stream(seed: int, step: int, channel: int, start: int) -> tuple:
    """The (seed, step, channel) Philox stream at position start.

    Philox advances in blocks of 4 words; returns the bit generator at
    the block holding ``start`` and the number of words to discard from
    it, so any chunking reproduces the same values.
    """
    bg = Philox(key=seed, counter=[0, 0, step, channel])
    if start >= 4:
        bg.advance(start // 4)
    return bg, start % 4


def _uniforms(seed: int, step: int, channel: int, n: int, start: int = 0) -> np.ndarray:
    """n uniforms from the (seed, step, channel) stream, positions start..start+n-1."""
    bg, skip = _stream(seed, step, channel, start)
    return Generator(bg).random(skip + n)[skip:]


def _words(seed: int, step: int, channel: int, n: int, start: int = 0) -> np.ndarray:
    """The raw uint64 words behind ``_uniforms`` at the same positions."""
    bg, skip = _stream(seed, step, channel, start)
    return bg.random_raw(skip + n)[skip:]


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


def _poisson_events(words: np.ndarray, mu: float) -> tuple:
    """Positions and counts of the nonzero Poisson(mu) draws among raw words.

    Equal to ``np.flatnonzero(c)`` and its entries for ``c =
    _poisson_invcdf(u, mu)`` with ``u = (words >> 11) 2^-53``: the inverse
    CDF gives 0 exactly when u lies below p = exp(-mu), and a uniform
    equal to p already counts one jump (the search is right-sided), so a
    word counts when (w >> 11) >= p 2^53, that is w >= ceil(p 2^53) << 11.
    When p rounds to 1 (mu = 0 or tiny) no uniform reaches it.
    """
    if mu < 0:
        raise ValueError(f"Poisson mean must be >= 0, got {mu}")
    p = math.exp(-mu)
    if p == 1.0:
        return np.empty(0, dtype=np.intp), np.empty(0, dtype=np.int64)
    cut = np.uint64(math.ceil(p * 2.0 ** 53) << 11)
    idx = np.flatnonzero(words >= cut)
    u = (words[idx] >> np.uint64(11)) * 2.0 ** -53
    return idx, _poisson_invcdf(u, mu)


@dataclass(frozen=True, eq=False)
class JumpEvents:
    """The nonzero jump counts of one step: ``count[e]`` jumps of bin
    ``bin[e]`` on path ``path[e]``, bin-major with paths increasing
    inside a bin."""

    path: np.ndarray
    bin: np.ndarray
    count: np.ndarray


@dataclass(frozen=True, eq=False)
class PathBatch:
    """Simulated increments and prices for a block of paths.

    dW has shape (n_steps, n_paths) and S (n_steps + 1, n_paths) with
    S[0] = s0; ``jumps[k]`` holds the jump events of step k, path indices
    counted from the first path of the batch.
    """

    spec: LevyMarketSpec
    grid: DiscreteJumpGrid
    time_grid: TimeGrid
    seed: int
    path_offset: int
    dW: np.ndarray
    jumps: Tuple[JumpEvents, ...]
    S: np.ndarray

    @property
    def n_paths(self) -> int:
        return self.dW.shape[1]

    @property
    def dN(self) -> np.ndarray:
        """Dense int16 counts (n_steps, n_bins, n_paths), built from the
        events on every access; for outside readers of the dense layout
        only, the package never builds it."""
        dN = np.zeros((self.time_grid.n_steps, self.grid.points.size,
                       self.n_paths), dtype=np.int16)
        for k, ev in enumerate(self.jumps):
            dN[k, ev.bin, ev.path] = ev.count
        return dN


def simulate_batch(
    spec: LevyMarketSpec,
    grid: DiscreteJumpGrid,
    time_grid: TimeGrid,
    n_paths: int,
    seed: int,
    path_offset: int = 0,
) -> PathBatch:
    """Simulate dW, the jump events, and the exact price paths.

    Same seed gives the same batch for any chunking of the path range
    (``path_offset`` addresses the first path of the chunk).
    """
    if n_paths < 1:
        raise ValueError(f"n_paths must be >= 1, got {n_paths}")
    n_steps = time_grid.n_steps
    nb = grid.points.size
    dt = time_grid.dt

    dW = np.empty((n_steps, n_paths))

    def draw(k, channel):
        # channel 0 is the Brownian stream, channel 1 + j the jumps of bin j
        if channel == 0:
            z = _normals(seed, k, 0, n_paths, path_offset)
            np.multiply(math.sqrt(dt[k]), z, out=dW[k])
            return None
        words = _words(seed, k, channel, n_paths, path_offset)
        return _poisson_events(words, grid.weights[channel - 1] * dt[k])

    jumps = []
    # Philox, the uint64 comparison and flatnonzero release the GIL; one
    # step at a time bounds the words held at once by the pool size
    with ThreadPoolExecutor(max_workers=len(os.sched_getaffinity(0))) as pool:
        for k in range(n_steps):
            _, *events = pool.map(partial(draw, k), range(nb + 1))
            paths, counts = zip(*events)
            bins = np.repeat(np.arange(nb), [p.size for p in paths])
            jumps.append(JumpEvents(path=np.concatenate(paths), bin=bins,
                                    count=np.concatenate(counts)))

    eta = grid.eta_values()
    comp = float(eta @ grid.weights)
    log_jump = np.log1p(eta)  # 1 + eta > 0 by the cap, prices stay positive
    S = np.empty((n_steps + 1, n_paths))
    S[0] = spec.s0
    for k, ev in enumerate(jumps):
        expo = (
            (spec.kappa - 0.5 * spec.sigma ** 2 - comp) * dt[k]
            + spec.sigma * dW[k]
            + np.bincount(ev.path, weights=log_jump[ev.bin] * ev.count,
                          minlength=n_paths)
        )
        S[k + 1] = S[k] * np.exp(expo)
    if not np.all(S > 0):
        raise AssertionError("simulated price lost positivity")
    return PathBatch(
        spec=spec, grid=grid, time_grid=time_grid, seed=seed,
        path_offset=path_offset, dW=dW, jumps=tuple(jumps), S=S,
    )


def payoff_put(s_t, strike: float):
    """(strike - S_T)^+, bounded by the strike."""
    if not strike > 0:
        raise ValueError(f"strike must be > 0, got {strike}")
    return np.maximum(strike - np.asarray(s_t, dtype=float), 0.0)


def payoff_digital(s_t, strike: float):
    """Cash-or-nothing: pays 1 when S_T <= strike."""
    if not strike > 0:
        raise ValueError(f"strike must be > 0, got {strike}")
    return (np.asarray(s_t, dtype=float) <= strike).astype(float)


# bounded terminal values only: the a priori bound needs a finite sup |F|
_PAYOFFS = {"put": payoff_put, "digital": payoff_digital}


def payoff_terminal(s_t, kind: str, strike: float):
    try:
        fn = _PAYOFFS[kind]
    except KeyError:
        raise ValueError(f"unknown payoff type {kind!r}; options: {sorted(_PAYOFFS)}")
    return fn(s_t, strike)


def wealth_forward(batch: PathBatch, ctx: DriverContext, p0, p_sig,
                   x: float) -> np.ndarray:
    """Terminal wealth per path under a signal strategy.

    ``p0`` of shape (n_steps, n_paths) holds each path's no-signal
    position over each step, taken from the state at the step's left
    endpoint. ``p_sig`` holds one position per bin, traded when a jump
    of a signal bin (``ctx.sig_mask``) arrives; jumps of the other bins
    trade at p0. Raises if a shape or the jump grid differs from the
    batch's, or if any traded position leaves [-pi_lower, pi_upper] or
    is NaN.
    """
    p0 = np.asarray(p0, dtype=float)
    p_sig = np.asarray(p_sig, dtype=float)
    if p0.shape != batch.dW.shape:
        raise ValueError(f"p0 must have shape {batch.dW.shape}, got {p0.shape}")
    if p_sig.shape != ctx.sig_mask.shape:
        raise ValueError(f"p_sig must have one entry per bin, got shape {p_sig.shape}")
    if not np.array_equal(ctx.grid.points, batch.grid.points):
        raise ValueError("the strategy's jump grid differs from the batch's")
    sig_mask = ctx.sig_mask
    lo, hi = -ctx.pi_lower - 1e-12, ctx.pi_upper + 1e-12
    for p in (p0, p_sig[sig_mask]):
        # written so that a NaN position fails too
        if not np.all((p >= lo) & (p <= hi)):
            raise ValueError("strategy position outside [-pi_lower, pi_upper]")

    spec = batch.spec
    eta = batch.grid.eta_values()
    comp = float(eta @ batch.grid.weights)
    dt = batch.time_grid.dt
    X = np.full(batch.n_paths, float(x))
    for k, ev in enumerate(batch.jumps):
        pos = np.where(sig_mask[ev.bin], p_sig[ev.bin], p0[k, ev.path])
        jump_pnl = np.bincount(ev.path, weights=pos * eta[ev.bin] * ev.count,
                               minlength=batch.n_paths)
        X = X + p0[k] * (spec.kappa * dt[k] + spec.sigma * batch.dW[k]) \
            + jump_pnl - p0[k] * comp * dt[k]
    return X
