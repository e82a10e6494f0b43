"""Backward-scheme oracles: partition invariants, regression recovery,
exactly solvable drivers, and a one-step toy priced by closed-form
enumeration of truncated jump counts."""

import itertools
import math
import threading
import tracemalloc

import numpy as np
import pytest
from scipy.stats import norm, poisson

from jumpsignal import (
    BasisPartition,
    CellIndex,
    DriverContext,
    HideSmall,
    LevyMarketSpec,
    NoSignal,
    PathBatch,
    TimeGrid,
    build_grid,
    constant_driver,
    driver_f_batch,
    payoff_put,
    simulate_batch,
    simulate_cells,
    solve,
    value_and_strategy,
)
from jumpsignal.config import ExperimentConfig
from jumpsignal.simulate import JumpEvents


def test_partition_basic(rng):
    s = rng.uniform(0.5, 2.0, size=4000)
    part = BasisPartition.from_sample(s, n_cells=8, min_count=50)
    assert part.n_cells == 8
    assert int(part.counts.sum()) == 4000
    assert np.all(part.counts >= 50)
    ids = part.assign(s)
    # cells are the order statistics blocks of the sample
    order = np.argsort(s)
    assert np.all(np.diff(ids[order]) >= 0)
    with pytest.raises(ValueError):
        BasisPartition.from_sample(np.array([]), 4, 50)
    with pytest.raises(ValueError):
        BasisPartition(edges=np.array([2.0, 1.0]), counts=np.array([1, 1, 1]))


def test_partition_merges_small_cells(rng):
    # 85% of the mass at one atom collapses most quantile edges
    s = np.concatenate([np.full(850, 1.0), rng.uniform(1.5, 2.0, size=150)])
    part = BasisPartition.from_sample(s, n_cells=16, min_count=60)
    assert np.all(part.counts >= 60)
    assert np.all(np.diff(part.edges) > 0)
    assert int(part.counts.sum()) == 1000
    # ties always land in one cell
    ids = part.assign(np.full(5, 1.0))
    assert np.unique(ids).size == 1


def _partition_by_search(s, n_cells, min_count, method="higher"):
    """Reference partition (edges, counts, ids), with no sort: the edges
    of at most n // min_count quantile cells (numpy's quantile by
    ``method``), each placed by counting the sample below it, and kept
    when the cell since the last kept edge and the rest of the sample each
    hold min_count paths."""
    m = max(1, min(n_cells, s.size // min_count))
    edges, last = [], 0
    for e in np.quantile(s, np.arange(1, m) / m, method=method):
        below = np.count_nonzero(s < e)
        if below - last >= min_count and s.size - below >= min_count:
            edges.append(e)
            last = below
    edges = np.array(edges)
    ids = np.searchsorted(edges, s, side="right")
    return edges, np.bincount(ids, minlength=edges.size + 1), ids


def _partition_case(case, rng):
    """(sample, n_cells) of a named partition case."""
    if case == "ties":
        # edges fall on the tied values
        return rng.integers(0, 5, size=3000).astype(float), 16
    if case == "merges":
        s = np.concatenate([np.full(850, 1.0), rng.uniform(1.5, 2.0, size=150)])
        return rng.permutation(s), 16
    if case == "constant":
        # step 0: every price is s0
        return np.full(4096, 1.0), 64
    if case == "few":
        return rng.uniform(0.5, 2.0, size=10), 64
    if case == "single":
        # every virtual index is past the end
        return np.array([1.25]), 64
    if case == "gaps":
        # gaps as wide as the values: the two lerp forms round apart
        return rng.exponential(1.0, size=10), 64
    if case == "overfull":
        # more cells asked for than n // min_count can fill
        return rng.lognormal(0.0, 0.3, size=4096), 4000
    # a reference-size step of lognormal prices
    return rng.lognormal(0.0, 0.3, size=65536), 64


def _assert_interpolated_cells(s, n_cells, min_count):
    """The cells of ``from_sample``, whose edges are sample prices, are
    those of edges at numpy's interpolated ('linear') quantiles, with the
    same keep rule: every sample price takes the same cell."""
    part = BasisPartition.from_sample(s, n_cells=n_cells, min_count=min_count)
    _, counts, ids = _partition_by_search(s, n_cells, min_count, method="linear")
    assert np.array_equal(part.counts, counts)
    assert np.array_equal(part.sample_ids, ids)
    assert np.isin(part.edges, s).all()
    return part


@pytest.mark.parametrize("case", ["ties", "merges", "constant", "few", "single",
                                  "gaps", "overfull", "reference"])
def test_sample_edges_keep_the_interpolated_cells(case, rng):
    s, n_cells = _partition_case(case, rng)
    # the ten-price samples take one-path cells, so they have edges too
    min_count = 1 if s.size <= 10 else 50
    part = _assert_interpolated_cells(s, n_cells, min_count)
    if case in ("few", "gaps", "overfull", "reference"):
        assert part.n_cells > 8


def test_sample_edges_keep_the_interpolated_cells_of_a_batch(batch_small):
    for S_k in batch_small.S:
        for n_cells in (16, 64):
            _assert_interpolated_cells(S_k, n_cells, 50)


@pytest.mark.parametrize("case", ["ties", "merges", "constant", "few", "overfull"])
def test_partition_sort_matches_search(case, rng):
    s, n_cells = _partition_case(case, rng)
    min_count = 50 if case == "overfull" else 60
    edges, counts, ids = _partition_by_search(s, n_cells, min_count)
    part = BasisPartition.from_sample(s, n_cells=n_cells, min_count=min_count)
    assert np.array_equal(part.edges, edges)
    assert np.array_equal(part.counts, counts)
    assert np.array_equal(part.sample_ids, ids)
    assert np.array_equal(part.assign(s), ids)
    if case == "ties":
        assert edges.size > 0 and np.isin(edges, s).all()
    if case == "merges":
        assert edges.size < n_cells - 1
    if case == "overfull":
        # 4096 // 50 cells of 50 or 51 paths, not a merge down from 4000
        assert part.n_cells == 81 and part.counts.min() >= 50


def test_cell_index_ids_are_the_assigned_cells(batch_small):
    cells = CellIndex.build(batch_small, n_cells=64, min_count=50)
    for k, partition in enumerate(cells.partitions):
        ids = partition.assign(batch_small.S[k])
        assert np.array_equal(partition.sample_ids, ids)


@pytest.mark.parametrize("n_cells,id_dtype", [(64, np.uint8), (256, np.uint8),
                                              (300, np.uint16)])
def test_narrow_layouts_equal_the_int64_formulas(batch_small, n_cells, id_dtype):
    # past 256 cells the ids need two bytes and the pair keys exceed 65535:
    # every stored array equals its int64 formula and keeps its type, so a
    # wrap or a silent widening fails here
    for ev in batch_small.jumps:
        assert (ev.path.dtype, ev.bin.dtype, ev.count.dtype) == (np.int32, np.int16, np.int32)
    cells = CellIndex.build(batch_small, n_cells=n_cells, min_count=1)
    nc = [part.n_cells for part in cells.partitions]
    ids = [part.assign(s).astype(np.int64) for part, s in zip(cells.partitions, batch_small.S)]
    for k, part in enumerate(cells.partitions):
        assert part.sample_ids.dtype == id_dtype
        assert np.array_equal(part.sample_ids, ids[k])
    for k in range(len(cells.partitions) - 1):
        pair = ids[k] * nc[k + 1] + ids[k + 1]
        shape = (nc[k], nc[k + 1])
        counts = np.bincount(pair, minlength=nc[k] * nc[k + 1]).reshape(shape)
        dW = np.bincount(pair, weights=batch_small.dW[k],
                         minlength=nc[k] * nc[k + 1]).reshape(shape)
        assert cells.pair_counts[k].dtype == float and cells.pair_dW[k].dtype == float
        assert np.array_equal(cells.pair_counts[k], counts)
        assert np.array_equal(cells.pair_dW[k], dW)
    if n_cells == 300:
        assert max(nc) > 256 and max(a * b for a, b in zip(nc, nc[1:])) > 65535


def test_fit_recovers_cell_means(spec_small, grid_small, rng, path_values):
    # one step: the regression of F on the t_0 price sample is the table
    # of in-cell means of F
    batch = _flat_batch(spec_small, grid_small, np.zeros((1, 2000)), 2000, 1, rng)
    s = batch.S[0]
    t = s ** 2
    cells = CellIndex.build(batch, n_cells=8, min_count=50)
    sol = solve(cells, t, constant_driver(0.0))
    assert sol.cells is cells
    rec, partition = sol.steps[0], cells.partitions[0]
    ids = partition.assign(s)
    assert rec.y_coef.shape == (8,)
    for c in range(partition.n_cells):
        cell = ids == c
        assert rec.y_coef[c] == pytest.approx(float(np.mean(t[cell])), rel=1e-12)
    # piecewise-constant targets are reproduced exactly
    g = np.cos(np.arange(partition.n_cells))[ids]
    sol = solve(cells, g, constant_driver(0.0))
    assert path_values(sol)[0] == pytest.approx(g, rel=1e-12)
    # Y_0 weighs each cell by its paths: 2000 paths fill 7 cells unevenly
    uneven = CellIndex.build(batch, n_cells=7, min_count=50)
    assert np.unique(uneven.partitions[0].counts).size > 1
    y0 = solve(uneven, t, constant_driver(0.0)).y0
    assert y0 == pytest.approx(float(np.mean(t)), rel=1e-12)
    with pytest.raises(ValueError):
        solve(cells, t[:100], constant_driver(0.0))


@pytest.fixture(scope="module")
def cells_small(batch_small):
    # the reference experiment's 64 cells of at least 50 paths
    return CellIndex.build(batch_small, n_cells=64, min_count=50)


def test_context_is_its_driver(ctx_hidesmall, rng):
    # solve calls a context as it calls any driver: ctx(Z, U) is the
    # exact driver on the same rows, bit for bit
    z = rng.uniform(-2.0, 2.0, size=7)
    u = rng.uniform(-1.0, 1.0, size=(7, 6))
    vals, p0 = ctx_hidesmall(z, u)
    ref, pref = driver_f_batch(z, u, ctx_hidesmall)
    assert np.array_equal(vals, ref) and np.array_equal(p0, pref)
    c = constant_driver(0.25)
    vc, pc = c(z[:2], u[:2])
    assert np.array_equal(vc, [0.25, 0.25]) and np.array_equal(pc, [0.0, 0.0])


def test_zero_and_constant_driver_telescopes(batch_small, payoff_small, cells_small):
    mean_f = float(np.mean(payoff_small))
    y0_zero = solve(cells_small, payoff_small, constant_driver(0.0)).y0
    assert abs(y0_zero - mean_f) < 1e-12
    y0_const = solve(cells_small, payoff_small, constant_driver(0.05)).y0
    assert abs(y0_const - (mean_f + 0.05 * 0.5)) < 1e-12
    with pytest.raises(ValueError):
        solve(cells_small, payoff_small[:-1], constant_driver(0.0))


def test_one_step_enumeration_oracle():
    """n = 1, two marks per side: conditional expectations in closed form
    by enumerating jump counts 0..2 per bin against Black-Scholes-type
    put formulas, then one driver evaluation. Truncation error ~1e-4."""
    spec = LevyMarketSpec(rho=0.1, alpha=1.5, epsilon=0.01, kappa=0.0,
                          sigma=0.2, s0=1.0, T=0.25)
    grid = build_grid(2, spec, e_min=0.5, e_max=2.0)
    tg = TimeGrid.uniform(1, 0.25)
    ctx = DriverContext(spec, grid, NoSignal(), lam=0.4)
    dt = 0.25
    s_vol = spec.sigma * math.sqrt(dt)
    eta = grid.eta
    mu = grid.weights * dt

    def put_given(A):
        # E[(1 - A e^{s x})^+] and E[(1 - A e^{s x})^+ x], x ~ N(0, 1)
        d = math.log(1.0 / A) / s_vol
        ef = norm.cdf(d) - A * math.exp(s_vol ** 2 / 2) * norm.cdf(d - s_vol)
        efx = -norm.pdf(d) + A * math.exp(s_vol ** 2 / 2) * (
            norm.pdf(d - s_vol) - s_vol * norm.cdf(d - s_vol))
        return ef, efx

    comp = float(eta @ grid.weights)
    base = math.exp((spec.kappa - 0.5 * spec.sigma ** 2 - comp) * dt)
    EF = EFx = 0.0
    EFN = np.zeros(4)
    for combo in itertools.product(range(3), repeat=4):
        prob = 1.0
        A = base
        for j, n in enumerate(combo):
            prob *= poisson.pmf(n, mu[j])
            A *= (1.0 + eta[j]) ** n
        ef, efx = put_given(A)
        EF += prob * ef
        EFx += prob * efx
        EFN += prob * ef * np.array(combo, float)
    z_star = EFx / math.sqrt(dt)
    u_star = (EFN - mu * EF) / mu
    f_star, _ = driver_f_batch([z_star], u_star[None, :], ctx)
    y0_star = EF + dt * float(f_star[0])

    batch = simulate_batch(spec, grid, tg, 262144, seed=7)
    F = payoff_put(batch.S[-1], 1.0)
    se = float(np.std(F, ddof=1)) / math.sqrt(F.size)
    assert abs(float(np.mean(F)) - EF) < 4.0 * se

    sol = solve(CellIndex.build(batch, n_cells=64, min_count=50), F, ctx)
    assert abs(sol.y0 - y0_star) < 1e-3

    # the regressed fields behind that value sit near their exact targets
    rec = sol.steps[0]
    cell = sol.cells.partitions[0].assign(batch.S[0][:1])[0]
    assert abs(float(rec.z_coef[cell]) - z_star) < 5e-3
    assert np.max(np.abs(rec.u_coef[:, cell] - u_star)) < 5e-2


def _flat_batch(spec, grid, dW, n_paths, n_steps, rng):
    none = np.zeros(0, dtype=np.intp)
    jumps = tuple(JumpEvents(path=none, bin=none, count=none)
                  for _ in range(n_steps))
    S = 1.0 + 0.3 * rng.random((n_steps + 1, n_paths))
    tg = TimeGrid.uniform(n_steps, 1.0)
    return PathBatch(spec=spec, grid=grid, time_grid=tg, seed=0,
                     path_offset=0, dW=dW, jumps=jumps, S=S)


def test_jump_free_closed_form(spec_small, grid_small, rng, path_values):
    """No jumps and a diffusion-only driver with attainable vertex: the
    driver value vanishes along the recursion, so constants telescope."""

    def sigma_only(Z, U):
        p = np.clip(Z / 0.2, -1.0, 1.0)
        return 0.2 * (0.2 * p - Z) ** 2, p

    dW = rng.uniform(-0.05, 0.05, size=(4, 200))
    batch = _flat_batch(spec_small, grid_small, dW, 200, 4, rng)
    cells = CellIndex.build(batch, n_cells=4, min_count=10)
    y0_zero = solve(cells, np.zeros(200), sigma_only).y0
    assert y0_zero == 0.0
    sol = solve(cells, np.full(200, 0.3), sigma_only)
    # |Z| <= 0.3 * 0.05 / 0.25 < 0.2 keeps the quadratic vertex in the box
    assert abs(sol.y0 - 0.3) < 1e-15
    assert np.max(np.abs(path_values(sol) - 0.3)) < 1e-15


def test_step_cellwise_oracle(batch_small, payoff_small, dense_counts, path_values):
    # the last step (k = 3 of 4) regresses on the terminal values
    k = 3
    sol = solve(CellIndex.build(batch_small, n_cells=8, min_count=50), payoff_small,
                constant_driver(0.0))
    rec = sol.steps[k]
    assert rec.y_coef.shape == (8,) and rec.z_coef.shape == (8,)
    assert rec.u_coef.shape == (6, 8)
    ids = sol.cells.partitions[k].assign(batch_small.S[k])
    dtk = float(batch_small.time_grid.dt[k])
    y_k = path_values(sol)[k]
    for c in (0, 4, 7):
        cell = ids == c
        z_hand = float(np.mean(payoff_small[cell] * batch_small.dW[k][cell])) / dtk
        assert rec.z_coef[c] == pytest.approx(z_hand, rel=1e-10, abs=1e-14)
        y_hand = float(np.mean(payoff_small[cell]))
        assert y_k[cell] == pytest.approx(y_hand, rel=1e-12)
        comp0 = dense_counts(batch_small, k)[0][cell] \
            - batch_small.grid.weights[0] * dtk
        u_hand = float(np.mean(payoff_small[cell] * comp0)) \
            / (batch_small.grid.weights[0] * dtk)
        assert rec.u_coef[0, c] == pytest.approx(u_hand, rel=1e-10, abs=1e-14)


def test_jump_target_event_scatter(batch_small, ctx_hidesmall, payoff_small,
                                   dense_counts, path_values):
    # every step, bin and cell: the event scatter equals the in-cell mean
    # of Ybar_{k+1} (dN_k(i) - nu_i dt_k) over the dense counts, / nu_i dt_k
    cells = CellIndex.build(batch_small, n_cells=8, min_count=50)
    sol = solve(cells, payoff_small, ctx_hidesmall)
    nu = batch_small.grid.weights
    y_paths = path_values(sol)
    for k, rec in enumerate(sol.steps):
        nu_dt = nu[:, None] * batch_small.time_grid.dt[k]
        comp = dense_counts(batch_small, k) - nu_dt
        y = y_paths[k + 1]
        partition = cells.partitions[k]
        ids = partition.sample_ids
        assert np.array_equal(ids, partition.assign(batch_small.S[k]))
        hand = np.stack([[np.mean(y[ids == c] * comp[i, ids == c])
                          for c in range(partition.n_cells)]
                         for i in range(nu.size)]) / nu_dt
        assert rec.u_coef == pytest.approx(hand, rel=1e-10, abs=1e-12)


def test_solve_records(batch_small, payoff_small, ctx_hidesmall, cells_small,
                       path_values):
    sol = solve(cells_small, payoff_small, ctx_hidesmall)
    assert sol.cells is cells_small
    assert len(sol.steps) == 4
    assert np.array_equal(sol.F, payoff_small)
    assert sol.y0 == pytest.approx(float(np.mean(path_values(sol)[0])), rel=1e-15)
    rec = sol.steps[0]
    n = cells_small.partitions[0].n_cells
    assert rec.z_coef.shape == (n,) and rec.u_coef.shape == (6, n)
    assert rec.f_cells.shape == (n,) and rec.p_cells.shape == (n,)
    assert rec.y_cells.shape == (n,)
    dt = batch_small.time_grid.dt
    for k, rec in enumerate(sol.steps):
        assert np.array_equal(rec.y_cells, rec.y_coef + dt[k] * rec.f_cells)
    # the solution keeps no per-path Ybar: F is its one path-sized array
    path_sized = [name for name, val in vars(sol).items()
                  if np.shape(val)[-1:] == (batch_small.n_paths,)]
    assert path_sized == ["F"]


def test_driver_failure_reports_step(batch_small, payoff_small, cells_small):
    def bad(Z, U):
        raise ValueError("boom")

    with pytest.raises(ValueError, match=r"driver failed at step 3: boom"):
        solve(cells_small, payoff_small, bad)


def test_nonfinite_y_reports_step(batch_small, payoff_small, cells_small):
    def nan_driver(Z, U):
        n = np.shape(Z)[0]
        return np.full(n, np.nan), np.zeros(n)

    with pytest.raises(ArithmeticError, match=r"non-finite Ybar at step 3"):
        solve(cells_small, payoff_small, nan_driver)


def test_value_and_strategy(batch_small, batch_small_b, payoff_small, ctx_hidesmall,
                            cells_small):
    sol = solve(cells_small, payoff_small, ctx_hidesmall)
    value, positions = value_and_strategy(sol, 0.3, ctx_hidesmall)
    assert value == pytest.approx(-math.exp(-0.4 * (0.3 - sol.y0)), rel=1e-14)
    # each step's prices of any batch land in that step's cells
    p0 = positions(batch_small_b)
    assert p0.shape == batch_small_b.dW.shape
    for k, rec in enumerate(sol.steps):
        ids = cells_small.partitions[k].assign(batch_small_b.S[k])
        assert np.array_equal(p0[k], rec.p_cells[ids])
    # on the training batch they are the argmins of the paths' own cells
    p0_train = positions(batch_small)
    for k, rec in enumerate(sol.steps):
        assert np.array_equal(p0_train[k],
                              rec.p_cells[cells_small.partitions[k].sample_ids])
    assert np.all(p0 >= -1.0) and np.all(p0 <= 1.0)
    with pytest.raises(ValueError):
        value_and_strategy(sol, -2000.0, ctx_hidesmall)


def _path_level_pass(batch, F, driver, cells):
    """Reference backward pass on paths: Ybar_{k+1} scattered to the paths
    and every in-cell sum a bincount over them. Returns each step's
    (y_coef, z_coef, u_coef, y_cells) and Y_0."""
    y, steps = F, []
    for k in range(batch.time_grid.n_steps - 1, -1, -1):
        dtk = float(batch.time_grid.dt[k])
        part = cells.partitions[k]
        ids, nc, n = part.sample_ids, part.n_cells, part.counts
        nu_dt = batch.grid.weights[:, None] * dtk
        ev = batch.jumps[k]
        y_sum = np.bincount(ids, weights=y, minlength=nc)
        z_sum = np.bincount(ids, weights=y * batch.dW[k], minlength=nc)
        keys = ev.bin.astype(np.int64) * nc + ids[ev.path]
        jump_sum = np.bincount(keys, weights=y[ev.path] * ev.count,
                               minlength=nu_dt.size * nc).reshape(nu_dt.size, nc)
        y_coef, z_coef = y_sum / n, z_sum / n / dtk
        u_coef = (jump_sum - nu_dt * y_sum) / n / nu_dt
        f_cells, _ = driver(z_coef, u_coef.T)
        y_cells = y_coef + dtk * np.asarray(f_cells)
        steps.insert(0, (y_coef, z_coef, u_coef, y_cells))
        y = y_cells[ids]
    return steps, float(np.mean(y))


@pytest.fixture(scope="module")
def batch_wide(spec_small, tg_small):
    # 40 bins: at 1000 cells the event keys bin * n_cells + cell of bins
    # 33 to 39 pass 32767, the largest value of the bins' int16
    grid = build_grid(20, spec_small, e_min=0.5, e_max=2.0)
    return simulate_batch(spec_small, grid, tg_small, 4096, seed=101)


@pytest.mark.parametrize("driver,n_cells,min_count", [
    *(pytest.param(driver, 8, 50, id=driver) for driver in ("zero", "constant", "hidesmall")),
    # past 256 cells the ids take two bytes, and on 40 bins at 1000 cells
    # the key bin * n_cells + cell passes int16's 32767: the reference forms
    # every key in int64, so an id or a key the solver narrows wraps here
    # (cells this small overflow the real driver, so the constant one runs)
    pytest.param("constant", 300, 1, id="constant-300-cells"),
    pytest.param("constant", 1000, 1, id="constant-wide-keys")])
def test_cell_pass_matches_path_reference(batch_small, batch_wide, ctx_hidesmall,
                                          driver, n_cells, min_count):
    batch = batch_wide if n_cells == 1000 else batch_small
    payoff = payoff_put(batch.S[-1], 1.0)
    fn = {"zero": constant_driver(0.0), "constant": constant_driver(0.05),
          "hidesmall": ctx_hidesmall}[driver]
    cells = CellIndex.build(batch, n_cells=n_cells, min_count=min_count)
    nc = [part.n_cells for part in cells.partitions]
    if n_cells >= 300:
        assert max(nc) > 256
    if n_cells == 1000:
        assert any(int(ev.bin.max()) * n > np.iinfo(np.int16).max
                   for ev, n in zip(batch.jumps, nc))
    sol = solve(cells, payoff, fn)
    ref_steps, ref_y0 = _path_level_pass(batch, payoff, fn, cells)
    for rec, (y_coef, z_coef, u_coef, y_cells) in zip(sol.steps, ref_steps):
        assert rec.y_coef == pytest.approx(y_coef, rel=1e-12)
        assert rec.z_coef == pytest.approx(z_coef, rel=1e-12)
        assert rec.u_coef == pytest.approx(u_coef, rel=1e-12)
        assert rec.y_cells == pytest.approx(y_cells, rel=1e-12)
    assert sol.y0 == pytest.approx(ref_y0, rel=1e-12)

    # the transition tables: path counts and summed dW_k per cell pair
    assert len(cells.pair_counts) == len(cells.pair_dW) == batch.time_grid.n_steps - 1
    for k, (counts, dw) in enumerate(zip(cells.pair_counts, cells.pair_dW)):
        here, there = cells.partitions[k], cells.partitions[k + 1]
        assert counts.shape == dw.shape == (here.n_cells, there.n_cells)
        assert np.array_equal(counts.sum(axis=1), here.counts)
        assert np.array_equal(counts.sum(axis=0), there.counts)
        dw_rows = np.bincount(here.sample_ids, weights=batch.dW[k],
                              minlength=here.n_cells)
        assert np.max(np.abs(dw.sum(axis=1) - dw_rows)) < 1e-12


def test_same_seed_same_y0(spec_small, grid_small, tg_small, ctx_hidesmall):
    # batch, cells and solve from scratch twice: Y_0 repeats bit for bit
    y0s = []
    for _ in range(2):
        batch = simulate_batch(spec_small, grid_small, tg_small, 4096, seed=101)
        cells = CellIndex.build(batch, n_cells=64, min_count=50)
        y0s.append(solve(cells, payoff_put(batch.S[-1], 1.0), ctx_hidesmall).y0)
    assert np.float64(y0s[0]).tobytes() == np.float64(y0s[1]).tobytes()


def _reference_args(n_paths=None):
    """The reference config, and the spec, jump grid, time grid and path
    count under it: the leading arguments of simulate_cells."""
    cfg = ExperimentConfig()
    spec = cfg.market_spec()
    return cfg, (spec, cfg.jump_grid(spec), cfg.time_grid(),
                 n_paths or cfg.scheme.n_paths)


def _assert_same_cells(got, want):
    for name in ("spec", "grid", "time_grid", "seed", "n_paths"):
        assert getattr(got, name) == getattr(want, name)
    assert len(got.partitions) == len(want.partitions) == got.time_grid.n_steps
    for a, b in zip(got.partitions, want.partitions):
        for name in ("edges", "counts", "sample_ids"):
            x, y = getattr(a, name), getattr(b, name)
            assert x.dtype == y.dtype and np.array_equal(x, y)
    for name in ("pair_counts", "pair_dW"):
        assert len(getattr(got, name)) == got.time_grid.n_steps - 1
        for x, y in zip(getattr(got, name), getattr(want, name)):
            assert x.dtype == y.dtype and np.array_equal(x, y)
    assert len(got.jumps) == len(want.jumps)
    for ev, ev_want in zip(got.jumps, want.jumps):
        for name in ("path", "bin", "count"):
            x, y = getattr(ev, name), getattr(ev_want, name)
            assert x.dtype == y.dtype and np.array_equal(x, y)
    for name in ("S_last", "dW_last"):
        x, y = getattr(got, name), getattr(want, name)
        assert x.dtype == y.dtype and np.array_equal(x, y)


# the reference config, and 1000 paths that fill 8 cells
@pytest.mark.parametrize("n_paths,n_cells", [(None, 64), (1000, 8)])
def test_streamed_cells_equal_the_batch_build(n_paths, n_cells):
    cfg, args = _reference_args(n_paths)
    streamed = simulate_cells(*args, 1, n_cells, 50)
    batch = simulate_batch(*args, 1)
    built = CellIndex.build(batch, n_cells, 50)
    _assert_same_cells(streamed, built)
    assert np.array_equal(streamed.S_last, batch.S[-1])
    assert np.array_equal(streamed.dW_last, batch.dW[-1])
    # the index keeps no batch, and of the batch's arrays two rows
    assert not any(isinstance(val, PathBatch) for val in vars(streamed).values())
    assert [name for name, val in vars(streamed).items()
            if isinstance(val, np.ndarray)] == ["S_last", "dW_last"]
    F = cfg.payoff_values(batch.S[-1])
    ctx = cfg.driver_context(args[0], args[1], HideSmall(c=0.6))
    for driver in (ctx, constant_driver(0.05)):
        y0s = [solve(cells, F, driver).y0 for cells in (streamed, built)]
        assert np.float64(y0s[0]).tobytes() == np.float64(y0s[1]).tobytes()


def test_streamed_cells_never_hold_s_and_dw():
    # one dW row and two S rows at a time: building one seed's cells at
    # the reference config peaks below the size of S and dW together,
    # 21 rows of 65536 doubles; simulating the whole batch first peaked
    # at 14.9 MB, above it
    cfg, args = _reference_args()
    n_rows = 2 * cfg.time_grid().n_steps + 1
    tracemalloc.start()
    try:
        simulate_cells(*args, 1, cfg.scheme.n_cells, cfg.scheme.min_count)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < n_rows * cfg.scheme.n_paths * 8


def test_failed_build_joins_the_jump_pool(monkeypatch, spec_small, grid_small):
    # the cells are built while the jump pool draws later steps: a build
    # that fails mid-stream must still join the pool before it raises, or
    # a sweep would fork with the pool's threads running
    real, calls = BasisPartition.from_sample.__func__, []

    def failing(cls, s, n_cells, min_count):
        calls.append(1)
        if len(calls) == 4:  # the cells of S_3, of ten steps
            raise RuntimeError("injected partition failure")
        return real(cls, s, n_cells, min_count)

    before = threading.active_count()
    monkeypatch.setattr(BasisPartition, "from_sample", classmethod(failing))
    with pytest.raises(RuntimeError, match="injected partition failure"):
        simulate_cells(spec_small, grid_small, TimeGrid.uniform(10, 0.5), 4096, 9, 16, 50)
    assert len(calls) == 4
    assert threading.active_count() == before
