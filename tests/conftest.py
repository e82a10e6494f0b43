"""Shared fixtures: a small hand-checkable model plus simulated batches.

The small grid has q = 3 marks per side at 0.5, 1, 2 so every bin weight
has a short closed form; cutoff 0.7 splits it into one inner no-signal
pair and two outer signal pairs under HideSmall.
"""

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
    simulate_batch,
)
from jumpsignal.simulate import _poisson_cdf


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
    return payoff_put(batch_small.S[-1], 1.0)


@pytest.fixture(scope="session")
def payoff_small_b(batch_small_b):
    return payoff_put(batch_small_b.S[-1], 1.0)


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
    """path_values(sol): the (n_steps + 1, n_paths) Ybar of a solution on
    the paths of its batch, each step's cell values expanded through the
    cells of the paths, then the terminal values F."""

    def expand(sol):
        return np.stack([rec.y_cells[part.sample_ids] for rec, part
                         in zip(sol.steps, sol.cells.partitions)] + [sol.F])

    return expand


@pytest.fixture()
def rng():
    return np.random.default_rng(2024)
