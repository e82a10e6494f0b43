"""Backward regression scheme for the jump BSDE.

Time-discrete backward iteration on simulated paths: starting from
Ybar_n = F, each step regresses conditional expectations on a local
basis over the current price and applies the driver,

    Zbar_k  = E[Ybar_{k+1} dW_k | S_k] / dt_k,
    Ubar_k(i) = E[Ybar_{k+1} dNtilde_k(i) | S_k] / (nu_i dt_k),
    Ybar_k  = E[Ybar_{k+1} | S_k] + dt_k f(Zbar_k, Ubar_k),

with conditional expectations replaced by least-squares projections on
piecewise-constant functions over per-step equiprobable cells of the S
sample, whose edges are sample prices (local regression in the style of
Gobet, Lemor and Warin, 2005). The t_0 regressor is constant so the last
projection is a plain mean and Y_0 is the count-weighted mean of the
step-0 cell values.

The regressed fields are cell-constant, so the driver is evaluated once
per cell, and every Ybar_k for k < n is constant on step k's cells: the
pass carries one value per cell, never one per path. The jump target
of cell j and bin i is a scatter over the step's jump events (the jump
regression of Bouchard and Elie, 2008),

    (sum over events of bin i in j of Ybar_{k+1} count
     - nu_i dt_k sum over paths in j of Ybar_{k+1}) / n_j,

so no dense (n_bins, n_paths) matrix is formed. The terminal values F
depend only on the batch and the payoff, so the last step's in-cell sums
of F, F dW_{n-1} and F count are taken once, as the cells are built. At
every earlier step the sums are the (cell at k, cell at k + 1) tables of
path counts and of summed dW_k times the cell vector of Ybar_{k+1}, and
a scatter of that vector over the events, each kept as its (bin, cell)
key, next cell and count. A ``CellIndex`` holds all of this and no array
with one entry per path, so a solve's cost does not grow with the path
count. It is built once per (seed, payoff) while the steps are simulated
(``simulate_cells``), so S and dW are never held whole. A solution keeps
its cell index.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, List, Optional, Tuple

import numpy as np

from .drivers import DriverContext, guarded_exp
from .levy_model import DiscreteJumpGrid, LevyMarketSpec
from .simulate import TimeGrid, _blocks, _simulate_steps

__all__ = [
    "BasisPartition",
    "CellIndex",
    "simulate_cells",
    "StepRecord",
    "BackwardSolution",
    "solve",
    "value_and_strategy",
    "constant_driver",
]


@dataclass(frozen=True, eq=False)
class BasisPartition:
    """Equiprobable quantile cells on one step's price sample.

    edges are the interior cell boundaries (strictly increasing); a
    price lands in cell ``#edges <= s`` so equal prices always share a
    cell. Every cell holds ``min_count`` paths or more (one cell holds a
    smaller sample): of the ``min(n_cells, n // min_count)`` quantile
    cells, an edge is kept, left to right, when the cell since the last
    kept edge and the rest of the sample each hold ``min_count`` paths.

    ``from_sample`` sorts the sample once: each candidate edge is a sample
    price, the sorted price at index ceil((n - 1) j / m) (numpy's "higher"
    quantile), each cell is counted by locating the edges in it, and the
    cell of every sample price is scattered back through the sort order
    and returned with the partition. ``assign`` places fresh prices: a
    price equal to an edge takes the cell right of it, and a price between
    an edge and the sample price below it takes the cell left of it.

    The ids have the narrowest unsigned type that holds the cell ids
    below the requested ``n_cells`` (uint8 up to 256 cells, uint16 up to
    65536); the ``min_count`` rule only lowers the count. A reader that
    multiplies ids widens them first: under NumPy 2 promotion an id array
    times a Python int keeps the id type and wraps.
    """

    edges: np.ndarray
    counts: np.ndarray

    def __post_init__(self):
        e = np.asarray(self.edges, dtype=float)
        if e.ndim != 1 or np.any(np.diff(e) <= 0):
            raise ValueError("edges must be a strictly increasing 1d array")
        object.__setattr__(self, "edges", e)
        object.__setattr__(self, "counts", np.asarray(self.counts, dtype=np.int64))

    @property
    def n_cells(self) -> int:
        return self.edges.size + 1

    def assign(self, s) -> np.ndarray:
        return np.searchsorted(self.edges, np.asarray(s, dtype=float), side="right")

    @classmethod
    def from_sample(cls, s, n_cells: int,
                    min_count: int) -> Tuple["BasisPartition", np.ndarray]:
        s = np.asarray(s, dtype=float)
        if s.ndim != 1 or s.size == 0:
            raise ValueError("sample must be a nonempty 1d array")
        if n_cells < 1 or min_count < 1:
            raise ValueError(f"bad partition config ({n_cells} cells, min {min_count})")
        order = np.argsort(s)
        s_sorted = s[order]
        # no more than n // min_count cells can each hold min_count paths
        m = max(1, min(n_cells, s.size // min_count))
        q = np.arange(1, m) / m
        edges = s_sorted[np.ceil((s.size - 1) * q).astype(np.intp)]
        # the prices below each edge fill the cells left of it
        below = np.searchsorted(s_sorted, edges, side="left")
        keep, last = np.zeros(edges.size, dtype=bool), 0
        for i, b in enumerate(below.tolist()):
            if b - last >= min_count and s.size - b >= min_count:
                keep[i], last = True, b
        edges = edges[keep]
        counts = np.diff(below[keep], prepend=0, append=s.size)
        ids = np.empty(s.size, dtype=np.min_scalar_type(n_cells - 1))
        ids[order] = np.repeat(np.arange(edges.size + 1, dtype=ids.dtype), counts)
        return cls(edges=edges, counts=counts), ids


@dataclass(frozen=True, eq=False)
class CellIndex:
    """The regression cells of one batch, per step, and all else a solve
    reads of the batch and its payoff; no array has one entry per path.

    ``partitions[k]`` are the cells of S_k; a path's cell is
    ``partitions[k].assign(S_k)``.

    For each step k < n - 1, ``pair_counts[k]`` counts the paths in each
    (cell at k, cell at k + 1) pair, an (n_cells_k, n_cells_{k+1}) float
    table, and ``pair_dW[k]`` sums dW_k over the same pairs. The pair key
    ``a * n_cells_{k+1} + b`` is formed in intp, never in the id type.
    ``jumps[k]`` holds the step's jump events in three arrays: the key
    ``bin * n_cells_k + cell at k``, formed in intp and kept in the
    narrowest unsigned type (uint16 at 40 bins and 64 cells), the cell at
    k + 1 and the count, in the narrowest unsigned type that holds the
    step's largest count (uint8 at the reference scale). The last step
    reads F = payoff(S_n) only through ``terminal_sums``: per cell of
    S_{n-1}, the sums of F and F dW_{n-1}, and the (n_bins, n_cells) sums
    of F count over the events. ``f_mean`` is the mean of F over the
    paths and ``f_sup`` its largest |F|.
    ``simulate_cells`` builds it one step at a time, as the steps are
    simulated.
    """

    spec: LevyMarketSpec
    grid: DiscreteJumpGrid
    time_grid: TimeGrid
    seed: int
    n_paths: int
    partitions: Tuple[BasisPartition, ...]
    pair_counts: Tuple[np.ndarray, ...]
    pair_dW: Tuple[np.ndarray, ...]
    jumps: Tuple[Tuple[np.ndarray, np.ndarray, np.ndarray], ...]
    terminal_sums: Tuple[np.ndarray, np.ndarray, np.ndarray]
    f_mean: float
    f_sup: float

    def step_sums(self, k: int, y_next: np.ndarray) -> tuple:
        """Step k < n - 1's in-cell sums of Ybar_{k+1}, Ybar_{k+1} dW_k
        and Ybar_{k+1} count per bin, from the cell values ``y_next``."""
        keys, next_cells, counts = self.jumps[k]
        shape = (self.grid.points.size, self.partitions[k].n_cells)
        jump_sum = np.bincount(keys, weights=y_next.take(next_cells) * counts,
                               minlength=shape[0] * shape[1]).reshape(shape)
        return self.pair_counts[k] @ y_next, self.pair_dW[k] @ y_next, jump_sum


def _index(feed, n_cells: int, min_count: int, payoff: Callable, **batch) -> CellIndex:
    """The cell index of the rows ``feed(add)`` passes to ``add(k, dW_k,
    events_k, S_k, S_{k+1})``, step after step, and of the terminal
    values ``payoff(S_n)``; ``batch`` holds the batch's other fields. No
    row is kept past its step, and of the paths' cells only one step's.
    Besides F at the last step, every temporary is at most ``BLOCK``
    paths long or one entry per event."""
    n_steps, n_bins = batch["time_grid"].n_steps, batch["grid"].points.size
    partitions, pair_counts, pair_dW, jumps, terminal = [], [], [], [], {}
    ids = None  # the cell ids of S_k, the step the next row starts from

    def add(k, dW_k, ev, S_k, S_next):
        nonlocal ids
        if k == 0:
            partition, ids = BasisPartition.from_sample(S_k, n_cells, min_count)
            partitions.append(partition)
        nc = partitions[-1].n_cells
        # each event's key bin * n_cells + cell, formed in intp, since the
        # bins' int16 would wrap
        keys = np.multiply(ev.bin, nc, dtype=np.intp)
        keys += ids.take(ev.path)
        if k == n_steps - 1:
            F = np.asarray(payoff(S_next), dtype=float)
            if F.shape != S_next.shape:
                raise ValueError(f"terminal values shape {F.shape} != {S_next.shape}")
            # bincount's sums, in its order, a block of paths at a time
            f_sum, f_dW = np.zeros(nc), np.zeros(nc)
            for b in _blocks(S_k.size):
                np.add.at(f_sum, ids[b], F[b])
                np.add.at(f_dW, ids[b], F[b] * dW_k[b])
            jump_sum = np.bincount(keys, weights=F.take(ev.path) * ev.count,
                                   minlength=n_bins * nc).reshape(n_bins, nc)
            terminal.update(terminal_sums=(f_sum, f_dW, jump_sum), f_mean=float(np.mean(F)),
                            f_sup=float(max(abs(F.max()), abs(F.min()))))
            return
        partition, there = BasisPartition.from_sample(S_next, n_cells, min_count)
        partitions.append(partition)
        nc_next = partition.n_cells
        size = nc * nc_next
        counts, dW_sum = np.zeros(size, dtype=np.intp), np.zeros(size)
        for b in _blocks(S_k.size):
            # the (cell at k, cell at k + 1) key, formed in intp
            pair = np.multiply(ids[b], nc_next, dtype=np.intp)
            pair += there[b]
            counts += np.bincount(pair, minlength=size)
            np.add.at(dW_sum, pair, dW_k[b])
        pair_counts.append(counts.reshape(nc, nc_next).astype(float))
        pair_dW.append(dW_sum.reshape(nc, nc_next))
        count_type = np.min_scalar_type(ev.count.max(initial=0))
        jumps.append((keys.astype(np.min_scalar_type(n_bins * nc - 1)), there.take(ev.path),
                      ev.count.astype(count_type)))
        ids = there

    feed(add)
    return CellIndex(**batch, partitions=tuple(partitions), pair_counts=tuple(pair_counts),
                     pair_dW=tuple(pair_dW), jumps=tuple(jumps), **terminal)


def simulate_cells(spec: LevyMarketSpec, grid: DiscreteJumpGrid, time_grid: TimeGrid,
                   n_paths: int, seed: int, n_cells: int, min_count: int,
                   payoff: Callable, threads: int) -> CellIndex:
    """The cell index of the seed's paths and of ``payoff(S_n)``, built
    while the steps are simulated: the partition of S_k once S_k exists,
    the tables of step k - 1 once the cells of step k exist. S and dW are
    never held whole, only the step kernel's one dW row and two S rows.
    ``threads`` is the step kernel's thread budget: 1 draws the jumps in
    the calling thread. A price that is not positive or not finite raises
    ArithmeticError naming its step."""

    def feed(add):
        _simulate_steps(spec, grid, time_grid, seed, n_paths, add, threads)

    return _index(feed, n_cells, min_count, payoff, spec=spec, grid=grid,
                  time_grid=time_grid, seed=seed, n_paths=n_paths)


DriverFn = Callable[[np.ndarray, np.ndarray], tuple]


def constant_driver(c0: float) -> DriverFn:
    def fn(Z, U):
        n = np.asarray(Z).shape[0]
        return np.full(n, float(c0)), np.zeros(n)
    return fn


@dataclass(eq=False)
class StepRecord:
    """Per-cell regression output at step k, on ``cells.partitions[k]``."""

    y_coef: np.ndarray            # (n_cells,) E[Ybar_{k+1} | cell]
    z_coef: np.ndarray            # (n_cells,) Zbar_k
    u_coef: np.ndarray            # (n_bins, n_cells) Ubar_k
    f_cells: np.ndarray           # (n_cells,) driver values
    p_cells: np.ndarray           # (n_cells,) no-signal argmin
    y_cells: np.ndarray           # (n_cells,) Ybar_k = y_coef + dt_k f_cells


def _step_core(sums, cells, k, driver):
    """Step k from its in-cell sums of Ybar_{k+1}, Ybar_{k+1} dW_k and
    Ybar_{k+1} count per bin."""
    dtk = float(cells.time_grid.dt[k])
    n = cells.partitions[k].counts
    nu_dt = cells.grid.weights[:, None] * dtk
    y_sum, z_sum, jump_sum = sums
    y_coef = y_sum / n
    z_coef = z_sum / n / dtk
    u_coef = (jump_sum - nu_dt * y_sum) / n / nu_dt

    try:
        f_cells, p_cells = driver(z_coef, u_coef.T)
    except (ValueError, ArithmeticError) as exc:
        raise type(exc)(f"driver failed at step {k}: {exc}") from exc
    f_cells = np.asarray(f_cells)
    return StepRecord(y_coef=y_coef, z_coef=z_coef, u_coef=u_coef,
                      f_cells=f_cells, p_cells=np.asarray(p_cells),
                      y_cells=y_coef + dtk * f_cells)


@dataclass(eq=False)
class BackwardSolution:
    """Full backward pass: its cells and per-step cell tables. Ybar_k of
    a path is ``steps[k].y_cells`` at the path's cell,
    ``cells.partitions[k].assign(S_k)``; no per-path Ybar is kept."""

    cells: CellIndex
    steps: List[StepRecord]
    y0: float


def solve(cells: CellIndex, driver: DriverFn) -> BackwardSolution:
    """Run the scheme from Ybar_n = F, the payoff the cells were built
    with, down to Y_0 on ``cells``.

    ``driver`` is a callable (Z, U) -> (values, argmin), such as a driver
    context. A non-finite Ybar raises ArithmeticError naming the step.
    """
    n_steps = cells.time_grid.n_steps
    steps: List[Optional[StepRecord]] = [None] * n_steps
    for k in range(n_steps - 1, -1, -1):
        sums = cells.terminal_sums if k == n_steps - 1 else cells.step_sums(k, y)
        rec = _step_core(sums, cells, k, driver)
        # every cell holds a path, so this tests every path's Ybar_k
        if not np.all(np.isfinite(rec.y_cells)):
            raise ArithmeticError(f"non-finite Ybar at step {k}")
        steps[k] = rec
        y = rec.y_cells
    y0 = float(cells.partitions[0].counts @ y) / cells.n_paths
    return BackwardSolution(cells=cells, steps=list(steps), y0=y0)


def value_and_strategy(sol: BackwardSolution, x: float,
                       ctx: DriverContext) -> tuple:
    """Certainty-equivalent value and the extracted optimal positions.

    V = -exp(-lam (x - Y_0)). ``positions(k, S_k)`` places prices S_k of
    any paths in the cells of step k and returns those cells' argmins p*:
    the strategy's no-signal positions over step k. On a jump of a signal
    bin the strategy trades ``ctx.boundary_p``.
    """
    value = -guarded_exp(-ctx.lam * (x - sol.y0), math.exp)

    def positions(k: int, S_k) -> np.ndarray:
        return sol.steps[k].p_cells[sol.cells.partitions[k].assign(S_k)]

    return value, positions
