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
For the same reason the jumps may be drawn by any number of threads: each
step's events are drawn over bins 0..nb-1 in order, all searched in one
cdf per distinct mean, and do not depend on the thread that draws them,
since each stream is fixed by its key alone.

One step kernel runs the steps in order, for every caller: it draws
dW_k from the Brownian stream, channel 0, takes the events of step k
and forms S_{k+1} in place. Its caller gives it a thread budget: with
one thread the caller draws each step's events itself, in step order;
with more, a pool of that many threads draws them, at most that many
steps ahead of the step being formed. A command that runs one seed
gives it every CPU; a sweep's forked workers give it one, so that the
jump threads never compete with the other seeds' processes (see
``cli._rows``). The kernel owns one dW row and two S rows, which every
step reuses, and passes each step's rows to its caller's visitor: the
regression cells (``bsde_solver.simulate_cells``) and the optimality
check's forward wealth (``verify.check_martingale_optimality``) read
them before the next step overwrites them, so no command holds S or dW
whole. Every other temporary of a step is at most ``BLOCK`` paths long
or one entry per event.

The Brownian uniforms are drawn straight into the row of dW, floored at
2^-64, mapped to standard normals in place by ``_ndtri``, a numpy port
of Cephes ndtri, one block of paths at a time, and scaled by sqrt(dt_k)
in place.

Jump counts are stored as events, not as a dense (n_steps, n_bins,
n_paths) array: at the reference scale fewer than 1% of the counts are
nonzero. The jump streams are read as raw words, and one integer
comparison against ceil(exp(-nu_i dt_k) 2^53) << 11, the word form of
the Poisson probability of no jump, selects the nonzero counts; only the
selected words become uniforms, searched in the cdf of their mean.

Wealth under a signal strategy realizes the semimartingale decomposition
of the extended jump integral at finite activity: the jump sum applies
the signal-dependent position to each jump while the compensator drift
charges the no-signal position only,

    dX = p(0) (kappa dt + sigma dW) + sum_i p(gamma(e_i)) eta_i dN(i)
         - p(0) sum_i eta_i nu_i dt.

A strategy is, at each step, the no-signal positions p(0) of the paths,
read from S_k, and one signal position per bin; ``wealth_step`` moves
wealth over one step under it.
"""

from __future__ import annotations

import math
import sys
from collections import deque
from concurrent.futures import ThreadPoolExecutor
from contextlib import nullcontext
from dataclasses import dataclass
from typing import Callable

import numpy as np
from numpy.random import Generator, Philox

from .drivers import DriverContext
from .levy_model import DiscreteJumpGrid, LevyMarketSpec

__all__ = [
    "TimeGrid",
    "JumpEvents",
    "payoff_put",
    "payoff_digital",
    "payoff_terminal",
    "wealth_step",
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
    bg.advance(start // 4)
    return bg, start % 4


def _words(seed: int, step: int, channel: int, n: int, start: int = 0) -> np.ndarray:
    """n raw uint64 words of the (seed, step, channel) stream, positions start..start+n-1."""
    bg, skip = _stream(seed, step, channel, start)
    return bg.random_raw(skip + n)[skip:]


# Cephes ndtri (S. L. Moshier, Methods and Programs for Mathematical
# Functions, 1989), the algorithm behind scipy.special.ndtri; each
# denominator Q carries the leading 1 that Cephes' p1evl implies (1.0 x is
# exact, so Horner's rule gives p1evl's bits)
_EXP_M2 = 0.13533528323661269189  # exp(-2)
_SQRT_2PI = 2.50662827463100050242
# central region, a rational function of y^2 with y = u - 1/2
_P0 = (-5.99633501014107895267E1, 9.80010754185999661536E1,
       -5.66762857469070293439E1, 1.39312609387279679503E1,
       -1.23916583867381258016E0)
_Q0 = (1.0, 1.95448858338141759834E0, 4.67627912898881538453E0,
       8.63602421390890590575E1, -2.25462687854119370527E2,
       2.00260212380060660359E2, -8.20372256168333339912E1,
       1.59056225126211695515E1, -1.18331621121330003142E0)
# tails, rational functions of z = 1/x with x = sqrt(-2 log u): x < 8
_P1 = (4.05544892305962419923E0, 3.15251094599893866154E1,
       5.71628192246421288162E1, 4.40805073893200834700E1,
       1.46849561928858024014E1, 2.18663306850790267539E0,
       -1.40256079171354495875E-1, -3.50424626827848203418E-2,
       -8.57456785154685413611E-4)
_Q1 = (1.0, 1.57799883256466749731E1, 4.53907635128879210584E1,
       4.13172038254672030440E1, 1.50425385692907503408E1,
       2.50464946208309415979E0, -1.42182922854787788574E-1,
       -3.80806407691578277194E-2, -9.33259480895457427372E-4)
# and x >= 8, that is u < exp(-32)
_P2 = (3.23774891776946035970E0, 6.91522889068984211695E0,
       3.93881025292474443415E0, 1.33303460815807542389E0,
       2.01485389549179081538E-1, 1.23716634817820021358E-2,
       3.01581553508235416007E-4, 2.65806974686737550832E-6,
       6.23974539184983293730E-9)
_Q2 = (1.0, 6.02427039364742014255E0, 3.67983563856160859403E0,
       1.37702099489081330271E0, 2.16236993594496635890E-1,
       1.34204006088543189037E-2, 3.28014464682127739104E-4,
       2.89247864745380683936E-6, 6.79019408009981274425E-9)


def _polevl(x: np.ndarray, coef: tuple) -> np.ndarray:
    """Horner's rule in Cephes' order, highest coefficient first."""
    acc = np.multiply(x, coef[0])
    acc += coef[1]
    for c in coef[2:]:
        acc *= x
        acc += c
    return acc


def _ndtri_tail(x: np.ndarray, P: tuple, Q: tuple) -> np.ndarray:
    """(z P(z)) / Q(z) with z = 1/x."""
    z = np.reciprocal(x)
    r = _polevl(z, P)
    r *= z
    r /= _polevl(z, Q)
    return r


def _ndtri(y: np.ndarray, out: np.ndarray = None) -> np.ndarray:
    """The standard normal quantile of each entry of y, all in (0, 1).

    A numpy port of Cephes ndtri that keeps its operation order, so the
    central region exp(-2) < y <= 1 - exp(-2) is bit-identical to
    scipy.special.ndtri; the tails differ only where numpy's log rounds
    differently from the C library's. ``out`` may be ``y`` itself.
    """
    if out is None:
        out = np.empty_like(y)
    # the tails first: writing the central values may overwrite y
    t = np.flatnonzero((y <= _EXP_M2) | (y > 1.0 - _EXP_M2))
    yt = y.take(t)
    x = np.subtract(1.0, yt)  # exact for the upper tail
    np.minimum(yt, x, out=x)
    np.log(x, out=x)
    x *= -2.0
    np.sqrt(x, out=x)
    x1 = _ndtri_tail(x, _P1, _Q1)
    if x.size and x.max() >= 8.0:
        far = np.flatnonzero(x >= 8.0)
        x1[far] = _ndtri_tail(x[far], _P2, _Q2)
    xt = np.log(x)
    xt /= x
    np.subtract(x, xt, out=xt)
    xt -= x1
    yt -= 0.5
    np.copysign(xt, yt, out=xt)  # negative in the lower tail

    w = np.subtract(y, 0.5, out=out)
    y2 = np.multiply(w, w)
    q = _polevl(y2, _Q0)
    r = _polevl(y2, _P0)
    r *= y2
    r /= q
    r *= w
    w += r
    w *= _SQRT_2PI
    out.put(t, xt)
    return out


# paths per block of the step kernel's temporaries
BLOCK = 8192


def _blocks(n: int):
    """The slices of paths 0..n-1, ``BLOCK`` paths each but the last."""
    return (slice(start, min(start + BLOCK, n)) for start in range(0, n, BLOCK))


def _brownian(seed: int, k: int, dt_k: float, path_offset: int,
              out: np.ndarray) -> None:
    """Fill ``out`` with the increments of step k, drawn from the (seed,
    k, 0) stream in place."""
    bg, skip = _stream(seed, k, 0, path_offset)
    gen = Generator(bg)
    gen.random(skip)
    gen.random(out=out)
    # random() can emit exactly 0, which the quantile maps to -inf
    np.maximum(out, 2.0 ** -64, out=out)
    # elementwise, so a block at a time gives the same bits with
    # block-sized temporaries
    for b in _blocks(out.size):
        _ndtri(out[b], out=out[b])
    out *= math.sqrt(dt_k)


def _poisson_cdf(mu: float) -> np.ndarray:
    """The Poisson(mu) cdf, summed until it saturates: at most 100 001 terms.

    Every term carries the rounding of its first, exp(-mu), so a mean
    whose exp(-mu) is no normal float (mu > 708.39) is rejected: past
    745.13 exp(-mu) is 0 and every draw would count one jump, and between
    the two the subnormal start leaves the cdf short of or past 1.
    """
    if mu < 0:
        raise ValueError(f"Poisson mean must be >= 0, got {mu}")
    term = math.exp(-mu)
    if term < sys.float_info.min:
        raise ValueError(f"jump bin mean nu_i dt_k = {mu:.6g} is too large for the "
                         f"Poisson draw: exp(-mu) underflows past 708.39")
    cdf = [term]
    for i in range(1, 100_001):
        term *= mu / i
        nxt = cdf[-1] + term
        if nxt == cdf[-1]:
            break
        cdf.append(nxt)
    return np.asarray(cdf)


def _int_dtype(n: int, floor) -> np.dtype:
    """The narrowest integer type, ``floor`` or wider, that holds 0..n-1."""
    return np.result_type(floor, np.min_scalar_type(n - 1))


def _poisson_events(words: np.ndarray, cdf: np.ndarray) -> tuple:
    """Positions and counts of the nonzero draws among raw words.

    Equal to ``np.flatnonzero(c)`` and its entries for the inverse-CDF
    counts ``c = cdf.searchsorted(u, side="right")`` with ``u = (words >>
    11) 2^-53``, given ``cdf = _poisson_cdf(mu)``: the inverse CDF gives 0
    exactly when u lies below p = cdf[0], and a uniform equal to p already
    counts one jump (the search is right-sided), so a word counts when
    (w >> 11) >= p 2^53, that is w >= ceil(p 2^53) << 11. When p rounds to
    1 (mu = 0 or tiny) no uniform reaches it. Positions are int32 below
    2^31 words, counts int32.
    """
    pos_dtype = _int_dtype(words.size, np.int32)
    p = cdf[0]
    if p == 1.0:
        return np.empty(0, dtype=pos_dtype), np.empty(0, dtype=np.int32)
    cut = np.uint64(math.ceil(p * 2.0 ** 53) << 11)
    idx = np.flatnonzero(words >= cut)
    u = (words[idx] >> np.uint64(11)) * 2.0 ** -53
    return idx.astype(pos_dtype), cdf.searchsorted(u, side="right").astype(np.int32)


@dataclass(frozen=True, eq=False)
class JumpEvents:
    """The nonzero jump counts of one step: ``count[e]`` jumps of bin
    ``bin[e]`` on path ``path[e]``, bin-major with paths increasing
    inside a bin.

    The step kernel stores ``path`` as int32 (int64 only past 2^31
    paths), ``bin`` as int16 (int32 past 32768 bins) and ``count`` as
    int32, which holds every count: the inverse Poisson CDF stops at
    100 001 terms. Arithmetic that can leave a type's range, such as a
    (bin, cell) key, widens first."""

    path: np.ndarray
    bin: np.ndarray
    count: np.ndarray


def _simulate_steps(
    spec: LevyMarketSpec,
    grid: DiscreteJumpGrid,
    time_grid: TimeGrid,
    seed: int,
    n_paths: int,
    visit: Callable,
    threads: int,
    path_offset: int = 0,
) -> None:
    """Simulate the steps of paths path_offset.. path_offset + n_paths - 1
    in order.

    Step k draws dW_k, takes the events of step k and forms S_{k+1} from
    S_k, then calls ``visit(k, dW_k, events_k, S_k, S_{k+1})``. With
    ``threads`` 1 the caller draws each step's events itself, as the step
    comes; with more, a pool of ``threads`` threads draws them, keeping
    at most ``threads`` steps submitted ahead, while the caller draws the
    Brownian stream and runs ``visit``. The events are the same at any
    thread count. One dW row and two S rows are reused every step, so a
    row outlives its step only if ``visit`` copies it; every other
    temporary is at most ``BLOCK`` paths long or one entry per event. A
    price that is not positive or not finite raises ArithmeticError
    naming its step. The pool is joined before this returns or raises,
    whatever ``visit`` does.
    """
    if n_paths < 1 or path_offset < 0:
        raise ValueError(f"bad path range: n_paths={n_paths}, path_offset={path_offset}")
    n_steps = time_grid.n_steps
    nb = grid.points.size
    dt = time_grid.dt
    # bin j's mean at step k; mirrored bins and equal steps share one cdf
    mu = np.outer(dt, grid.weights).tolist()
    cdfs = {m: _poisson_cdf(m) for m in set().union(*mu)}
    bins = np.arange(nb, dtype=_int_dtype(nb, np.int16))

    def step_events(k):
        # the events of step k, bin j from channel 1 + j, in bin order
        paths, counts = zip(*(_poisson_events(_words(seed, k, 1 + j, n_paths, path_offset),
                                              cdfs[m]) for j, m in enumerate(mu[k])))
        return JumpEvents(path=np.concatenate(paths),
                          bin=np.repeat(bins, [p.size for p in paths]),
                          count=np.concatenate(counts))

    comp = grid.compensator()
    log_jump = grid.log_jumps()
    drift = (spec.kappa - 0.5 * spec.sigma ** 2 - comp) * dt
    w, s, x = np.empty(n_paths), np.full(n_paths, float(spec.s0)), np.empty(n_paths)
    tmp = np.empty(min(n_paths, BLOCK))
    # Philox, the ufuncs, the uint64 comparison and flatnonzero release
    # the GIL; each task holds one stream of words at a time
    with ThreadPoolExecutor(threads) if threads > 1 else nullcontext() as pool:
        ahead = deque()  # the submitted steps, step k first
        for k in range(n_steps):
            while pool and len(ahead) <= threads and k + len(ahead) < n_steps:
                ahead.append(pool.submit(step_events, k + len(ahead)))
            _brownian(seed, k, dt[k], path_offset, w)
            ev = ahead.popleft().result() if pool else step_events(k)
            # S_k exp((drift + sigma dW_k) + jumps): the jump sum is
            # accumulated in x from 0.0 in event order, as bincount would,
            # and drift + sigma dW_k is added to it a block at a time
            x.fill(0.0)
            np.add.at(x, ev.path, np.take(log_jump, ev.bin) * ev.count)
            for b in _blocks(n_paths):
                t = tmp[:b.stop - b.start]
                np.multiply(w[b], spec.sigma, out=t)
                t += drift[k]
                x[b] += t
            with np.errstate(over="ignore"):  # an overflow raises below
                np.exp(x, out=x)
                x *= s
            # min and max are NaN if any price is: NaN fails both tests
            if not x.min() > 0:
                raise ArithmeticError(f"simulated price lost positivity at step {k}")
            if not x.max() < np.inf:
                raise ArithmeticError(f"simulated price overflowed to inf at step {k}")
            visit(k, w, ev, s, x)
            s, x = x, s


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


def wealth_step(X: np.ndarray, ctx: DriverContext, dt_k: float, dW_k: np.ndarray,
                ev: JumpEvents, p0_k, p_sig) -> np.ndarray:
    """Wealth per path at the end of a step, from the wealth X at its
    start, under a signal strategy.

    ``p0_k`` holds each path's no-signal position over the step, taken
    from the state at its left endpoint. ``p_sig`` holds one position
    per bin, traded when a jump of a signal bin (``ctx.sig_mask``)
    arrives; jumps of the other bins trade at p0_k. ``dW_k`` and ``ev``
    are the step's increments and jump events on the grid of ``ctx``.
    Raises if a shape is wrong or if any traded position leaves
    [-pi_lower, pi_upper] or is NaN.
    """
    p0_k = np.asarray(p0_k, dtype=float)
    p_sig = np.asarray(p_sig, dtype=float)
    if p0_k.shape != X.shape:
        raise ValueError(f"p0_k must have shape {X.shape}, got {p0_k.shape}")
    if p_sig.shape != ctx.sig_mask.shape:
        raise ValueError(f"p_sig must have one entry per bin, got shape {p_sig.shape}")
    sig_mask = ctx.sig_mask
    lo, hi = -ctx.pi_lower - 1e-12, ctx.pi_upper + 1e-12
    for p in (p0_k, p_sig[sig_mask]):
        # written so that a NaN position fails too
        if not np.all((p >= lo) & (p <= hi)):
            raise ValueError("strategy position outside [-pi_lower, pi_upper]")

    spec, grid = ctx.spec, ctx.grid
    pos = np.where(np.take(sig_mask, ev.bin), np.take(p_sig, ev.bin),
                   np.take(p0_k, ev.path))
    jump_pnl = np.bincount(ev.path, weights=pos * np.take(grid.eta, ev.bin) * ev.count,
                           minlength=X.size)
    return X + p0_k * (spec.kappa * dt_k + spec.sigma * dW_k) \
        + jump_pnl - p0_k * grid.compensator() * dt_k
