"""Executable checks tying the driver and scheme to their proved properties.

Each check samples its domain, counts violations, and emits a
CheckReport; a report passes iff no violation occurred. The driver
checks draw their samples from fixed seeds and evaluate the driver on
all of them in one call, each f_m row at its own penalization level m
(``check_fm_monotone`` stacks its samples at m over the same samples at
m + 1, ``check_lipschitz_z`` its rows (z, u) over (z', u)): a row's
search does not depend on the other rows, its value only in its last
bits (BLAS). f is f_m at m = inf, so both run one kernel. Each row of f,
and each f_m row whose phi_m cap cannot bind, runs it without the cap
and ends its Newton search on its own test (``drivers._exact_argmin``);
each f_m row whose cap can bind applies the cap and takes the same
number of golden-section steps (``drivers.minimize_on_interval``). The
batch checks take the BSDE solved under the real driver and run the
solves they add on its cells and terminal values F (``sol.F``), so no
noise between batches enters them. The statistical check,
``check_martingale_optimality``, runs on a freshly seeded batch, never
on the batch the solution was trained on, and only it allows for the
noise between the two. A solution holds Ybar_k for k < n as one value
per cell (``StepRecord.y_cells``), not one per path, and
``check_y_bound`` reads those cell values. A strategy is plain data:
``check_martingale_optimality`` reads the extracted no-signal positions
on the fresh batch once, as an (n_steps, n_paths) array, forms each
rival from it, and runs every one through ``simulate.wealth_forward``.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, replace
from typing import Callable, Sequence

import numpy as np

from .bsde_solver import (
    BackwardSolution,
    DriverFn,
    constant_driver,
    solve,
    value_and_strategy,
)
from .drivers import (
    DriverContext,
    driver_bounds,
    driver_f_batch,
    fm_exact_threshold,
    guarded_exp,
    local_lipschitz_constant,
    nosignal_slope,
    penalized_driver_fm_batch,
)
from .levy_model import HideLarge, HideSmall
from .simulate import PathBatch, wealth_forward

__all__ = [
    "CheckReport",
    "check_driver_kkt",
    "check_driver_sandwich",
    "check_fm_monotone",
    "check_lipschitz_z",
    "check_scenario_limits",
    "check_comparison",
    "check_penalization",
    "check_martingale_optimality",
    "check_scheme_oracles",
    "check_y_bound",
    "format_reports",
]

_Z_RANGE = (-5.0, 5.0)
_U_RANGE = (-2.0, 2.0)
_M_RANGE = (1, 20)


@dataclass(frozen=True)
class CheckReport:
    name: str
    samples: int
    violations: int
    worst_margin: float
    tolerance: float
    passed: bool

    def line(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        return (f"{self.name}: {status} ({self.samples} samples, "
                f"{self.violations} violations, worst margin {self.worst_margin:.3e}, "
                f"tol {self.tolerance:.3e})")


def _report(name, samples, margins, tol) -> CheckReport:
    margins = np.asarray(margins, dtype=float)
    violations = int(np.count_nonzero(margins < -tol))
    worst = float(np.min(margins)) if margins.size else 0.0
    return CheckReport(name=name, samples=samples, violations=violations,
                       worst_margin=worst, tolerance=tol,
                       passed=samples > 0 and violations == 0)


def _sample_zu(rng, n, nb):
    z = rng.uniform(*_Z_RANGE, size=n)
    u = rng.uniform(*_U_RANGE, size=(n, nb))
    return z, u


def check_driver_sandwich(n_samples: int, ctx: DriverContext,
                          fm_fn: Callable = penalized_driver_fm_batch) -> CheckReport:
    """Penalized driver stays between the affine lower and quadratic upper bound.

    ``fm_fn`` is swappable so the suite can prove it detects a corrupted
    driver (see the mutation self-test).
    """
    rng = np.random.default_rng(7)
    nb = ctx.grid.points.size
    z, u = _sample_zu(rng, n_samples, nb)
    ms = rng.integers(_M_RANGE[0], _M_RANGE[1] + 1, size=n_samples)
    vals = fm_fn(z, u, ms, ctx)[0]
    lo, hi = driver_bounds(z, u, ctx)
    return _report("driver_sandwich", n_samples,
                   np.concatenate([vals - lo, hi - vals]), 1e-10)


def check_driver_kkt(n_samples: int, ctx: DriverContext) -> CheckReport:
    """The driver's no-signal position satisfies the KKT conditions of f1.

    f1 is strictly convex in p, so p* minimizes it on [-pi_lower, pi_upper]
    iff f1'(p*) = 0 inside the box, f1'(p*) >= 0 at -pi_lower and
    f1'(p*) <= 0 at pi_upper. Each condition is measured as a distance in
    p, f1'(p*) / f1''(p*), to 1e-12; a position outside the box fails.
    """
    rng = np.random.default_rng(19)
    z, u = _sample_zu(rng, n_samples, ctx.grid.points.size)
    _, p = driver_f_batch(z, u, ctx)
    a, b = -ctx.pi_lower, ctx.pi_upper
    d1, d2 = nosignal_slope(z, u, p, ctx)
    step = d1 / d2
    # f1' may be positive only at the lower end, negative only at the upper
    margins = np.minimum(np.where(p == a, np.inf, -step),
                         np.where(p == b, np.inf, step))
    margins = np.where((p >= a) & (p <= b), margins, -np.inf)
    return _report("driver_kkt", n_samples, margins, 1e-12)


def check_fm_monotone(n_samples: int, ctx: DriverContext) -> CheckReport:
    """f_m is nondecreasing in the penalization level m.

    One f_m call takes every sample twice, at m and at m + 1.
    """
    rng = np.random.default_rng(11)
    nb = ctx.grid.points.size
    z, u = _sample_zu(rng, n_samples, nb)
    ms = rng.integers(_M_RANGE[0], _M_RANGE[1], size=n_samples)
    z, u, ms = np.tile(z, 2), np.tile(u, (2, 1)), np.concatenate([ms, ms + 1])
    vals = penalized_driver_fm_batch(z, u, ms, ctx)[0]
    lo_val, hi_val = vals[:n_samples], vals[n_samples:]
    tol_scale = np.maximum(1.0, np.maximum(np.abs(lo_val), np.abs(hi_val)))
    return _report("fm_monotone", n_samples, (hi_val - lo_val) / tol_scale, 1e-12)


def check_lipschitz_z(n_samples: int, ctx: DriverContext) -> CheckReport:
    """|f(z,u) - f(z',u)| <= K (1 + |z| + |z'|) |z - z'| with the stated K.

    One driver call takes the rows (z, u) followed by the rows (z', u).
    """
    rng = np.random.default_rng(13)
    nb = ctx.grid.points.size
    z1, u = _sample_zu(rng, n_samples, nb)
    z2 = rng.uniform(*_Z_RANGE, size=n_samples)
    K = local_lipschitz_constant(ctx)
    u = np.tile(u, (2, 1))
    f, _ = driver_f_batch(np.concatenate([z1, z2]), u, ctx)
    f1, f2 = f[:n_samples], f[n_samples:]
    rhs = K * (1.0 + np.abs(z1) + np.abs(z2)) * np.abs(z1 - z2)
    margins = rhs - np.abs(f1 - f2)
    return _report("lipschitz_z", n_samples, margins, 1e-10)


def check_scenario_limits(ctx_nosignal: DriverContext,
                          n_samples: int = 1000) -> CheckReport:
    """Degenerate cutoffs reproduce the no-signal driver exactly.

    Hiding everything below a cutoff beyond the last grid point, or
    everything above a cutoff below the first midpoint, leaves no signal
    bin; both drivers must then equal the no-signal driver bit for bit.
    """
    grid = ctx_nosignal.grid
    c_hi = float(grid.points[-1]) * 2.0
    c_lo = float(grid.first_midpoint()) * 0.5
    ctx_hs = replace(ctx_nosignal, scenario=HideSmall(c=c_hi))
    ctx_hl = replace(ctx_nosignal, scenario=HideLarge(c=c_lo))
    rng = np.random.default_rng(17)
    z, u = _sample_zu(rng, n_samples, grid.points.size)
    f0, p0 = driver_f_batch(z, u, ctx_nosignal)
    margins = []
    for ctx in (ctx_hs, ctx_hl):
        f, p = driver_f_batch(z, u, ctx)
        # exact equality: margin 0 on agreement, negative otherwise
        agree = (f == f0) & (p == p0)
        margins.append(np.where(agree, 0.0, -1.0))
    return _report("scenario_limits", 2 * n_samples, np.concatenate(margins), 0.0)


def check_comparison(sol: BackwardSolution, f2_values, driver2: DriverFn) -> CheckReport:
    """Ordered terminals and ordered drivers give ordered Y_0.

    ``sol`` is the solve under (F1, driver1). Caller guarantees f2 >= f1
    pathwise and driver2 >= driver1 pointwise; this is validated for the
    terminals. The second solve runs on the cells of ``sol``: the margin
    is Y_0(F2, driver2) - Y_0, with no allowance.
    """
    F2 = np.asarray(f2_values, dtype=float)
    if np.any(F2 < sol.F):
        raise ValueError("terminal ordering violated: need F2 >= F1 pathwise")
    y2 = solve(sol.cells.batch, F2, driver2, sol.cells).y0
    return _report("comparison", 1, [y2 - sol.y0], 0.0)


def check_penalization(sol: BackwardSolution, ctx: DriverContext,
                       m_values: Sequence[int] = tuple(range(1, 21))) -> CheckReport:
    """Y_0 under f_m is nondecreasing in m and hits Y_0 under f to 1e-12
    once every truncation is inactive along the fields of ``sol``, the
    solve under the driver of ``ctx``.

    Every f_m solve runs on the cells and terminal values of ``sol``:
    the monotone margins are the differences of consecutive Y_0s, with
    no allowance. The last margin, at m* = floor(max threshold) + 1,
    compares f_m with f through a full solve, to 1e-12: every row the solve passes lies past
    its ``fm_exact_threshold``, where the no-signal part of f_m does f's
    arithmetic bit for bit, and only its signal sum can differ by rounding.
    """
    cells, F = sol.cells, sol.F

    def y0_fm(m):
        return solve(cells.batch, F,
                     lambda Z, U: penalized_driver_fm_batch(Z, U, m, ctx), cells).y0

    y0s = [y0_fm(int(m)) for m in m_values]
    margins = list(np.diff(y0s))

    thresh = max(float(np.max(fm_exact_threshold(rec.z_coef, rec.u_coef.T, ctx)))
                 for rec in sol.steps)
    m_star = int(math.floor(thresh)) + 1
    y0_exact = y0_fm(m_star)
    margins.append(1e-12 - abs(y0_exact - sol.y0))
    return _report("penalization", len(margins), margins, 0.0)


def check_martingale_optimality(fresh_batch: PathBatch, sol: BackwardSolution,
                                ctx: DriverContext, payoff_fn: Callable,
                                x: float, eps_reg: float) -> CheckReport:
    """Extracted strategy beats perturbations on a fresh batch, MC-wise.

    The rivals shift every position by each of +-0.05 and +-0.2 (clipped
    to the box) or hold one box constant, 0, pi_upper or -pi_lower; each
    margin is the mean utility gain over the rival plus 3 standard
    errors. Also ties the simulated utility of the extracted strategy
    back to -exp(-lam (x - Y_0)) within 3 (stderr + eps_reg), where
    eps_reg = |Y_0(s1) - Y_0(s2)|, the spread of two seeds' solves,
    allows for the noise between the training batch and the fresh one.
    """
    if fresh_batch.seed == sol.cells.batch.seed:
        raise ValueError("optimality must be checked on a fresh seed")
    value, positions = value_and_strategy(sol, x, ctx)
    p0, p_sig = positions(fresh_batch), ctx.boundary_p
    F = payoff_fn(fresh_batch.S[-1])
    lo, hi = -ctx.pi_lower, ctx.pi_upper

    def utility(*strategy):
        X = wealth_forward(fresh_batch, ctx, *strategy, x)
        return -guarded_exp(-ctx.lam * (X - F))

    def mean_se(v):
        return float(np.mean(v)), float(np.std(v, ddof=1) / math.sqrt(v.size))

    util_star = utility(p0, p_sig)
    shifted = ((np.clip(p0 + d, lo, hi), np.clip(p_sig + d, lo, hi))
               for d in (0.05, -0.05, 0.2, -0.2))
    constant = ((np.full(p0.shape, c), np.full(p_sig.shape, c))
                for c in (0.0, hi, lo))
    margins = []
    for rival in itertools.chain(shifted, constant):
        mean, se = mean_se(util_star - utility(*rival))
        margins.append(mean + 3.0 * se)

    mean_star, se_star = mean_se(util_star)
    margins.append(3.0 * (se_star + eps_reg) - abs(mean_star - value))
    return _report("martingale_optimality", len(margins), margins, 0.0)


def check_scheme_oracles(sol: BackwardSolution) -> CheckReport:
    """Exactly solvable drivers: zero gives mean(F), a constant telescopes.

    Both must hold to 1e-12 relative to the payoff scale; the constant
    0.05 adds 0.05 T through the time sum.
    """
    cells, F = sol.cells, sol.F
    mean_f = float(np.mean(F))
    scale = max(1.0, abs(mean_f))
    T = cells.batch.time_grid.T
    y0_zero = solve(cells.batch, F, constant_driver(0.0), cells).y0
    y0_const = solve(cells.batch, F, constant_driver(0.05), cells).y0
    margins = [1e-12 * scale - abs(y0_zero - mean_f),
               1e-12 * scale - abs(y0_const - (mean_f + 0.05 * T))]
    return _report("scheme_oracles", 2, margins, 0.0)


def check_y_bound(sol: BackwardSolution, ctx: DriverContext) -> CheckReport:
    """Backward values respect the a priori bound.

    |Ybar_k| <= (1/lam) log(e^{lam ||F||_inf} + 1) + slack (T - t_k),
    with ||F||_inf the largest |F| on the batch (the terminal values of
    the solution) and slack the magnitude of the driver's value at the
    origin taken from the affine lower bound; it takes no allowance, as
    it holds for the solve on its own batch. The log term is taken as
    ||F||_inf + log1p(e^{-lam ||F||_inf}) / lam, which cannot overflow
    for a large ||F||_inf. Step k's largest |Ybar_k| over the paths is
    the largest |y_cells| of its cells, since every cell holds at least
    one path.
    """
    lam = ctx.lam
    f_sup = float(np.max(np.abs(sol.F)))
    lo, _ = driver_bounds(0.0, np.zeros(ctx.grid.points.size), ctx)
    slack = -lo
    base = f_sup + math.log1p(math.exp(-lam * f_sup)) / lam
    tg = sol.cells.batch.time_grid
    bound = base + slack * (tg.T - tg.times)
    y_sup = [np.max(np.abs(rec.y_cells)) for rec in sol.steps] + [f_sup]
    margins = bound - np.array(y_sup)
    return _report("y_bound", margins.size, margins, 0.0)


def format_reports(reports: Sequence[CheckReport]) -> str:
    """One line per check, sorted by name so merged output is deterministic."""
    return "\n".join(r.line() for r in sorted(reports, key=lambda r: r.name))
