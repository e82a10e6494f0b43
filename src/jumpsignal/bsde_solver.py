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
``CellIndex`` holds them, is built once per batch, and every solve on
that batch takes it. Each step forms its events' (bin, cell) keys from
the path cells, which costs less than keeping them. A solution keeps
its cell index.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, List, Optional, Tuple

import numpy as np

from .drivers import DriverContext, guarded_exp
from .simulate import PathBatch

__all__ = [
    "BasisPartition",
    "CellIndex",
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
    """The regression cells of one batch, per step, and the transitions
    between them.

    ``partitions[k]`` are the cells of S_k, with the cell of each path in
    its ``sample_ids``. Each step's prices are sorted once, in
    ``BasisPartition.from_sample``.

    For each step k < n - 1, ``pair_counts[k]`` counts the paths in each
    (cell at k, cell at k + 1) pair, an (n_cells_k, n_cells_{k+1}) float
    table, and ``pair_dW[k]`` sums dW_k over the same pairs. The pair key
    ``a * n_cells_{k+1} + b`` is formed in intp, never in the id type.
    """

    batch: PathBatch
    partitions: Tuple[BasisPartition, ...]
    pair_counts: Tuple[np.ndarray, ...]
    pair_dW: Tuple[np.ndarray, ...]

    @classmethod
    def build(cls, batch: PathBatch, n_cells: int, min_count: int) -> "CellIndex":
        partitions = [BasisPartition.from_sample(s, n_cells=n_cells, min_count=min_count)
                      for s in batch.S[:-1]]
        pair_counts, pair_dW = [], []
        for k, (a, b) in enumerate(zip(partitions[:-1], partitions[1:])):
            pair = np.multiply(a.sample_ids, b.n_cells, dtype=np.intp)
            pair += b.sample_ids
            size, shape = a.n_cells * b.n_cells, (a.n_cells, b.n_cells)
            pair_counts.append(np.bincount(pair, minlength=size).reshape(shape)
                               .astype(float))
            pair_dW.append(np.bincount(pair, weights=batch.dW[k], minlength=size)
                           .reshape(shape))
        return cls(batch=batch, partitions=tuple(partitions),
                   pair_counts=tuple(pair_counts), pair_dW=tuple(pair_dW))


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
    batch = cells.batch
    dtk = float(batch.time_grid.dt[k])
    partition = cells.partitions[k]
    ids, nc, n = partition.sample_ids, partition.n_cells, partition.counts
    nu_dt = batch.grid.weights[:, None] * dtk
    ev = batch.jumps[k]
    # each event's key bin * n_cells + cell, formed in intp, since the
    # bins' int16 would wrap
    keys = np.multiply(ev.bin, nc, dtype=np.intp)
    keys += ids[ev.path]

    if k == batch.time_grid.n_steps - 1:
        y_sum = np.bincount(ids, weights=y_next, minlength=nc)
        z_sum = np.bincount(ids, weights=y_next * batch.dW[k], minlength=nc)
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


def solve(batch: PathBatch, f_values, driver: DriverFn,
          cells: CellIndex) -> BackwardSolution:
    """Run the scheme from Ybar_n = F down to Y_0.

    ``driver`` is a callable (Z, U) -> (values, argmin), such as a driver
    context; ``cells`` is the batch's cell index. A non-finite Ybar raises
    ArithmeticError naming the step.
    """
    F = np.asarray(f_values, dtype=float)
    if F.shape != (batch.n_paths,):
        raise ValueError(f"terminal values shape {F.shape} != ({batch.n_paths},)")
    if cells.batch is not batch:
        raise ValueError("the cell index belongs to another batch")
    n_steps = batch.time_grid.n_steps

    steps: List[Optional[StepRecord]] = [None] * n_steps
    y = F
    for k in range(n_steps - 1, -1, -1):
        rec = _step_core(y, cells, k, driver)
        # every cell holds a path, so this tests every path's Ybar_k
        if not np.all(np.isfinite(rec.y_cells)):
            raise ArithmeticError(f"non-finite Ybar at step {k}")
        steps[k] = rec
        y = rec.y_cells
    y0 = float(cells.partitions[0].counts @ y) / batch.n_paths
    return BackwardSolution(cells=cells, steps=list(steps), F=F, y0=y0)


def value_and_strategy(sol: BackwardSolution, x: float,
                       ctx: DriverContext) -> tuple:
    """Certainty-equivalent value and the extracted optimal positions.

    V = -exp(-lam (x - Y_0)). ``positions(batch)`` places the prices
    S_{t_k} of a batch in the cells of step k and returns the
    (n_steps, n_paths) array of those cells' argmins p*: the strategy's
    no-signal positions. On a jump of a signal bin the strategy trades
    ``ctx.boundary_p``.
    """
    value = -guarded_exp(-ctx.lam * (x - sol.y0), math.exp)

    def positions(batch: PathBatch) -> np.ndarray:
        return np.stack([rec.p_cells[part.assign(s)] for rec, part, s
                         in zip(sol.steps, sol.cells.partitions, batch.S)])

    return value, positions
