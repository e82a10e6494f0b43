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
pass carries one value per cell, never one per path. Only the last step
regresses the terminal values F over the paths. At every earlier step the
in-cell sums of Ybar_{k+1} and Ybar_{k+1} dW_k are the batch's
(cell at k, cell at k + 1) transition tables, of path counts and of
summed dW_k, times the cell vector of Ybar_{k+1}. So after the terminal
step a solve's cost does not grow with the path count.

The jump target of cell j and bin i is a scatter over the step's jump
events (the jump regression of Bouchard and Elie, 2008),

    (sum over events of bin i in j of Ybar_{k+1} count
     - nu_i dt_k sum over paths in j of Ybar_{k+1}) / n_j,

so no dense (n_bins, n_paths) matrix is formed; an event reads
Ybar_{k+1} from its path at the last step and from its path's
step-(k+1) cell before it. The cells, each path's cell and the
transition tables depend only on the batch, n_cells and min_count: a
``CellIndex`` holds them, with the jump events, the terminal prices and
the last step's dW, and every solve on the batch takes it alone. It is
built once per seed, as the steps are simulated (``simulate_cells``),
so the batch's S and dW are never held whole. Each step forms its
events' (bin, cell) keys from the path cells, which costs less than
keeping them. A solution keeps its cell index.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, List, Optional, Tuple

import numpy as np

from .drivers import DriverContext, guarded_exp
from .levy_model import DiscreteJumpGrid, LevyMarketSpec
from .simulate import JumpEvents, TimeGrid, _simulate_steps

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
    cell of every sample price (``sample_ids``) is scattered back through
    the sort order. ``assign`` places fresh prices: a price equal to an
    edge takes the cell right of it, and a price between an edge and the
    sample price below it takes the cell left of it.

    ``sample_ids`` has the narrowest unsigned type that holds the cell ids
    below the requested ``n_cells`` (uint8 up to 256 cells, uint16 up to
    65536); the ``min_count`` rule only lowers the count. A reader that
    multiplies ids widens them first: under NumPy 2 promotion an id array
    times a Python int keeps the id type and wraps.
    """

    edges: np.ndarray
    counts: np.ndarray
    sample_ids: Optional[np.ndarray] = None

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
    def from_sample(cls, s, n_cells: int, min_count: int) -> "BasisPartition":
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
        return cls(edges=edges, counts=counts, sample_ids=ids)


@dataclass(frozen=True, eq=False)
class CellIndex:
    """The regression cells of one batch, per step, the transitions
    between them, and what else of the batch a solve reads; it holds no
    prices but the terminal ones.

    ``partitions[k]`` are the cells of S_k, with the cell of each path in
    its ``sample_ids``. Each step's prices are sorted once, in
    ``BasisPartition.from_sample``.

    For each step k < n - 1, ``pair_counts[k]`` counts the paths in each
    (cell at k, cell at k + 1) pair, an (n_cells_k, n_cells_{k+1}) float
    table, and ``pair_dW[k]`` sums dW_k over the same pairs. The pair key
    ``a * n_cells_{k+1} + b`` is formed in intp, never in the id type.
    ``jumps[k]`` are the jump events of step k; the last step also reads
    the terminal prices ``S_last`` (S_n) and its increments ``dW_last``
    (dW_{n-1}).

    ``simulate_cells`` builds it from a seed one step at a time, as the
    steps are simulated.
    """

    spec: LevyMarketSpec
    grid: DiscreteJumpGrid
    time_grid: TimeGrid
    seed: int
    n_paths: int
    partitions: Tuple[BasisPartition, ...]
    pair_counts: Tuple[np.ndarray, ...]
    pair_dW: Tuple[np.ndarray, ...]
    jumps: Tuple[JumpEvents, ...]
    S_last: np.ndarray
    dW_last: np.ndarray


def _index(feed, n_cells: int, min_count: int, **batch) -> CellIndex:
    """The cell index of the rows ``feed(add)`` passes to ``add(k, dW_k,
    events_k, S_k, S_{k+1})``, step after step; ``batch`` holds the
    batch's other fields. No row is kept past its step but the last
    step's S_{k+1} and dW_k, which are copied."""
    n_steps = batch["time_grid"].n_steps
    partitions, pair_counts, pair_dW, jumps, last = [], [], [], [], {}

    def add(k, dW_k, ev, S_k, S_next):
        if k == 0:
            partitions.append(BasisPartition.from_sample(S_k, n_cells=n_cells,
                                                         min_count=min_count))
        jumps.append(ev)
        if k == n_steps - 1:
            last.update(S_last=S_next.copy(), dW_last=dW_k.copy())
            return
        a = partitions[-1]
        b = BasisPartition.from_sample(S_next, n_cells=n_cells, min_count=min_count)
        partitions.append(b)
        pair = np.multiply(a.sample_ids, b.n_cells, dtype=np.intp)
        pair += b.sample_ids
        size, shape = a.n_cells * b.n_cells, (a.n_cells, b.n_cells)
        pair_counts.append(np.bincount(pair, minlength=size).reshape(shape).astype(float))
        pair_dW.append(np.bincount(pair, weights=dW_k, minlength=size).reshape(shape))

    feed(add)
    return CellIndex(**batch, partitions=tuple(partitions), pair_counts=tuple(pair_counts),
                     pair_dW=tuple(pair_dW), jumps=tuple(jumps), **last)


def simulate_cells(spec: LevyMarketSpec, grid: DiscreteJumpGrid, time_grid: TimeGrid,
                   n_paths: int, seed: int, n_cells: int, min_count: int) -> CellIndex:
    """The cell index of the seed's paths, built while its steps are
    simulated: the partition of S_k once S_k exists, the pair tables of
    step k - 1 once the cells of step k exist. S and dW are never held
    whole, only the step kernel's one dW row and two S rows. A price that
    is not positive raises ArithmeticError naming its step."""

    def feed(add):
        _simulate_steps(spec, grid, time_grid, seed, n_paths, add)

    return _index(feed, n_cells, min_count, spec=spec, grid=grid, time_grid=time_grid,
                  seed=seed, n_paths=n_paths)


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


def _step_core(y_next, cells, k, driver):
    """Step k from Ybar_{k+1}: F on the paths at the last step, the
    step-(k+1) cell values before it."""
    dtk = float(cells.time_grid.dt[k])
    partition = cells.partitions[k]
    ids, nc, n = partition.sample_ids, partition.n_cells, partition.counts
    nu_dt = cells.grid.weights[:, None] * dtk
    ev = cells.jumps[k]
    # each event's key bin * n_cells + cell, formed in intp, since the
    # bins' int16 would wrap
    keys = np.multiply(ev.bin, nc, dtype=np.intp)
    keys += ids[ev.path]

    if k == cells.time_grid.n_steps - 1:
        y_sum = np.bincount(ids, weights=y_next, minlength=nc)
        z_sum = np.bincount(ids, weights=y_next * cells.dW_last, minlength=nc)
        y_events = y_next[ev.path]
    else:
        y_sum = cells.pair_counts[k] @ y_next
        z_sum = cells.pair_dW[k] @ y_next
        y_events = y_next[cells.partitions[k + 1].sample_ids[ev.path]]
    jump_sum = np.bincount(keys, weights=y_events * ev.count,
                           minlength=nu_dt.size * nc).reshape(nu_dt.size, nc)
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
    """Full backward pass: its cells, the terminal values and per-step
    cell tables. Ybar_k of a path is ``steps[k].y_cells`` at the path's
    cell, ``cells.partitions[k].sample_ids``; no per-path Ybar is kept."""

    cells: CellIndex
    steps: List[StepRecord]
    F: np.ndarray                 # (n_paths,) terminal values Ybar_n
    y0: float


def solve(cells: CellIndex, f_values, driver: DriverFn) -> BackwardSolution:
    """Run the scheme from Ybar_n = F down to Y_0 on ``cells``.

    ``f_values`` are the terminal values of the cells' paths, one per
    path; ``driver`` is a callable (Z, U) -> (values, argmin), such as a
    driver context. A non-finite Ybar raises ArithmeticError naming the
    step.
    """
    F = np.asarray(f_values, dtype=float)
    if F.shape != (cells.n_paths,):
        raise ValueError(f"terminal values shape {F.shape} != ({cells.n_paths},)")
    n_steps = cells.time_grid.n_steps

    steps: List[Optional[StepRecord]] = [None] * n_steps
    y = F
    for k in range(n_steps - 1, -1, -1):
        rec = _step_core(y, cells, k, driver)
        # every cell holds a path, so this tests every path's Ybar_k
        if not np.all(np.isfinite(rec.y_cells)):
            raise ArithmeticError(f"non-finite Ybar at step {k}")
        steps[k] = rec
        y = rec.y_cells
    y0 = float(cells.partitions[0].counts @ y) / cells.n_paths
    return BackwardSolution(cells=cells, steps=list(steps), F=F, y0=y0)


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
