"""Shared fixtures: a small hand-checkable model plus simulated batches.

The small grid has q = 3 marks per side at 0.5, 1, 2 so every bin weight
has a short closed form; cutoff 0.7 splits it into one inner no-signal
pair and two outer signal pairs under HideSmall.

The package never holds a batch whole; the tests do, as a reference:
``simulate_batch`` copies every step's rows out of the package's step
kernel, and ``cells_of`` feeds the rows of a batch, simulated or made by
hand, to the builder of ``simulate_cells``.
"""

import os
from dataclasses import dataclass
from typing import Tuple

import numpy as np
import pytest
from numpy.random import Generator, Philox

from jumpsignal import (
    DriverContext,
    HideLarge,
    HideSmall,
    LevyMarketSpec,
    NoSignal,
    TimeGrid,
    build_grid,
    payoff_put,
)
from jumpsignal.bsde_solver import CellIndex, _index
from jumpsignal.levy_model import DiscreteJumpGrid
from jumpsignal.simulate import JumpEvents, _poisson_cdf, _simulate_steps


@dataclass(frozen=True, eq=False)
class Batch:
    """Increments and prices of a block of paths, every step kept.

    dW has shape (n_steps, n_paths) and S (n_steps + 1, n_paths);
    ``jumps[k]`` holds the jump events of step k, path indices counted
    from the first path of the block, ``path_offset``.
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


def simulate_batch(spec, grid, time_grid, n_paths, seed, path_offset=0,
                   threads=None) -> Batch:
    """The paths path_offset.. path_offset + n_paths - 1 of the seed, each
    step's rows copied out of the step kernel as it reuses them; the
    kernel's thread budget is ``threads``, or every CPU the process may
    use."""
    if threads is None:
        threads = len(os.sched_getaffinity(0))
    n_steps = time_grid.n_steps
    dW, S, jumps = np.empty((n_steps, n_paths)), np.empty((n_steps + 1, n_paths)), []

    def keep(k, dW_k, ev, S_k, S_next):
        if k == 0:
            S[0] = S_k
        dW[k], S[k + 1] = dW_k, S_next
        jumps.append(ev)

    _simulate_steps(spec, grid, time_grid, seed, n_paths, keep, threads, path_offset)
    return Batch(spec=spec, grid=grid, time_grid=time_grid, seed=seed,
                 path_offset=path_offset, dW=dW, jumps=tuple(jumps), S=S)


def cells_of(batch: Batch, n_cells: int, min_count: int, payoff) -> CellIndex:
    """The cell index of a batch at hand and of the terminal values
    ``payoff(S_n)``, its rows fed step after step to the cell build that
    ``simulate_cells`` feeds as it simulates. A test with terminal values
    at hand passes a payoff that returns them."""

    def feed(add):
        for k, ev in enumerate(batch.jumps):
            add(k, batch.dW[k], ev, batch.S[k], batch.S[k + 1])

    return _index(feed, n_cells, min_count, payoff, spec=batch.spec, grid=batch.grid,
                  time_grid=batch.time_grid, seed=batch.seed, n_paths=batch.n_paths)


def put_1(s):
    """The put struck at 1, the payoff of the small batches."""
    return payoff_put(s, 1.0)


@pytest.fixture(scope="session")
def uniforms():
    """uniforms(seed, step, channel, n, start=0): the n uniforms of the
    (seed, step, channel) Philox stream at positions start..start + n - 1,
    drawn from the stream's first word on, so no skip ahead of the
    package places them."""

    def draw(seed, step, channel, n, start=0):
        gen = Generator(Philox(key=seed, counter=[0, 0, step, channel]))
        return gen.random(start + n)[start:]

    return draw


@pytest.fixture(scope="session")
def spec_small():
    # kappa = 0 keeps the risk-premium constant C at zero
    return LevyMarketSpec(rho=0.1, alpha=1.5, epsilon=0.01, kappa=0.0,
                          sigma=0.2, s0=1.0, T=0.5)


@pytest.fixture(scope="session")
def spec_drift():
    # kappa = 0.3 -> C = 0.3 / (0.4 * 0.2) = 3.75
    return LevyMarketSpec(rho=0.1, alpha=1.5, epsilon=0.01, kappa=0.3,
                          sigma=0.2, s0=1.0, T=0.5)


@pytest.fixture(scope="session")
def grid_small(spec_small):
    return build_grid(3, spec_small, e_min=0.5, e_max=2.0)


@pytest.fixture(scope="session")
def grid_drift(spec_drift):
    return build_grid(3, spec_drift, e_min=0.5, e_max=2.0)


@pytest.fixture(scope="session")
def ctx_nosignal(spec_small, grid_small):
    return DriverContext(spec_small, grid_small, NoSignal(), lam=0.4)


@pytest.fixture(scope="session")
def ctx_hidesmall(spec_small, grid_small):
    return DriverContext(spec_small, grid_small, HideSmall(c=0.7), lam=0.4)


@pytest.fixture(scope="session")
def ctx_hidelarge(spec_small, grid_small):
    return DriverContext(spec_small, grid_small, HideLarge(c=0.7), lam=0.4)


@pytest.fixture(scope="session")
def ctx_drift(spec_drift, grid_drift):
    return DriverContext(spec_drift, grid_drift, HideSmall(c=0.7), lam=0.4)


@pytest.fixture(scope="session")
def tg_small(spec_small):
    return TimeGrid.uniform(4, spec_small.T)


@pytest.fixture(scope="session")
def batch_small(spec_small, grid_small, tg_small):
    return simulate_batch(spec_small, grid_small, tg_small, 4096, seed=101)


@pytest.fixture(scope="session")
def batch_small_b(spec_small, grid_small, tg_small):
    return simulate_batch(spec_small, grid_small, tg_small, 4096, seed=202)


@pytest.fixture(scope="session")
def payoff_small(batch_small):
    return put_1(batch_small.S[-1])


@pytest.fixture(scope="session")
def poisson_invcdf():
    """invcdf(u, mu): Poisson(mu) counts by the full inverse CDF, one
    uniform per variate, the oracle of the package's sparse event draw."""

    def invcdf(u, mu):
        return _poisson_cdf(mu).searchsorted(u, side="right").astype(np.int32)

    return invcdf


@pytest.fixture(scope="session")
def dense_counts(uniforms, poisson_invcdf):
    """counts(batch, k): the (n_bins, n_paths) jump counts of step k drawn
    straight from the batch's uniform streams by the full inverse CDF,
    independently of the batch's jump events."""

    def counts(batch, k):
        mu = batch.grid.weights * batch.time_grid.dt[k]
        return np.stack([
            poisson_invcdf(uniforms(batch.seed, k, 1 + j, batch.n_paths,
                                    batch.path_offset), mu[j])
            for j in range(mu.size)])

    return counts


@pytest.fixture(scope="session")
def path_values():
    """path_values(sol, batch, F): the (n_steps + 1, n_paths) Ybar of a
    solution on the paths of its batch, each step's cell values expanded
    through the cells of the paths' prices, then the terminal values F."""

    def expand(sol, batch, F):
        return np.stack([rec.y_cells[part.assign(S_k)] for rec, part, S_k
                         in zip(sol.steps, sol.cells.partitions, batch.S)] + [F])

    return expand


@pytest.fixture()
def rng():
    return np.random.default_rng(2024)
