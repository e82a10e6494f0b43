"""The property-check suite must pass on a sound implementation and,
just as importantly, fail loudly on a corrupted one."""

import copy
import math
import tracemalloc

import numpy as np
import pytest
from scipy.optimize import brentq

from conftest import cells_of, put_1, simulate_batch
from jumpsignal import (constant_driver, payoff_put, simulate_cells, solve, value_and_strategy,
                        verify)
from jumpsignal.config import FRESH_SEED_OFFSET, ExperimentConfig
from jumpsignal.verify import (
    CheckReport,
    check_comparison,
    check_driver_kkt,
    check_driver_sandwich,
    check_fm_monotone,
    check_lipschitz_z,
    check_martingale_optimality,
    check_penalization,
    check_scenario_limits,
    check_scheme_oracles,
    check_y_bound,
    format_reports,
)
from jumpsignal.drivers import (
    _NoSignalPart,
    driver_bounds,
    driver_f_batch,
    minimize_on_interval,
    nosignal_slope,
    penalized_driver_fm_batch,
)

N_CELLS = 16  # 4096-path batches: keep cells well populated


@pytest.fixture(scope="module")
def cells_small(batch_small):
    return cells_of(batch_small, n_cells=N_CELLS, min_count=50, payoff=put_1)


@pytest.fixture(scope="module")
def sol_small(ctx_hidesmall, cells_small):
    # shared by the checks that only read it; tests that alter a
    # solution solve their own
    return solve(cells_small, ctx_hidesmall)


@pytest.fixture(scope="module")
def eps_reg(sol_small, batch_small_b, ctx_hidesmall):
    # the Y_0 spread between two batches, as verify computes it
    cells_b = cells_of(batch_small_b, n_cells=N_CELLS, min_count=50, payoff=put_1)
    return abs(sol_small.y0 - solve(cells_b, ctx_hidesmall).y0)


def test_eps_reg_magnitude(eps_reg):
    assert 0.0 < eps_reg < 0.1


def test_driver_checks_pass(ctx_hidesmall, ctx_hidelarge, ctx_drift):
    # the affine/quadratic sandwich holds under compensated drift (C = 0),
    # and under a drift: kappa = 0.3 gives C = 3.75, the quadratic centred
    # at z + C and the affine tail -lam C z - lam C^2 / 2
    for ctx, n in ((ctx_hidesmall, 150), (ctx_hidelarge, 150), (ctx_drift, 1000)):
        r = check_driver_sandwich(n, ctx)
        assert r.passed and r.violations == 0
    for ctx in (ctx_hidesmall, ctx_drift):
        r = check_fm_monotone(150, ctx)
        assert r.passed and r.violations == 0
        r = check_lipschitz_z(300, ctx)
        assert r.passed and r.violations == 0


def test_sandwich_detects_mutation(ctx_hidesmall):
    def corrupted(Z, U, m, ctx):
        vals, p0 = penalized_driver_fm_batch(Z, U, m, ctx)
        return -vals, p0

    r = check_driver_sandwich(150, ctx_hidesmall, fm_fn=corrupted)
    assert not r.passed
    assert r.violations > 0
    assert "FAIL" in r.line()


def test_fm_monotone_detects_mutation(ctx_hidesmall, monkeypatch):
    # f_m shifted down by 1e-6 m stops being nondecreasing in m, which
    # the check sees only if its stacked rows carry different levels
    def decreasing(Z, U, m, ctx):
        vals, p0 = penalized_driver_fm_batch(Z, U, m, ctx)
        return vals - 1e-6 * np.asarray(m), p0

    monkeypatch.setattr(verify, "penalized_driver_fm_batch", decreasing)
    r = check_fm_monotone(150, ctx_hidesmall)
    assert not r.passed and r.violations > 0


def test_driver_kkt_pass(ctx_hidesmall, ctx_hidelarge, ctx_drift):
    for ctx in (ctx_hidesmall, ctx_hidelarge, ctx_drift):
        r = check_driver_kkt(300, ctx)
        assert r.passed and r.violations == 0 and r.tolerance == 1e-12
        assert r.worst_margin >= -1e-14


def test_driver_kkt_detects_inexact_argmin(ctx_hidesmall, ctx_drift, monkeypatch):
    # the scan plus golden-section argmin of the exact objective resolves p
    # to about sqrt(eps) and leaves boundary argmins just inside the box;
    # an exact argmin moved by 1e-9 is no better
    def golden(Z, U, ctx):
        vals, _ = driver_f_batch(Z, U, ctx)
        p, _ = minimize_on_interval(
            _NoSignalPart(Z, U, ctx),
            -ctx.pi_lower, ctx.pi_upper)
        return vals, p

    def shifted(Z, U, ctx):
        vals, p = driver_f_batch(Z, U, ctx)
        return vals, np.where(p < ctx.pi_upper, p + 1e-9, p - 1e-9)

    for wrong in (golden, shifted):
        monkeypatch.setattr(verify, "driver_f_batch", wrong)
        for ctx in (ctx_hidesmall, ctx_drift):
            r = check_driver_kkt(300, ctx)
            assert not r.passed and r.violations > 0

    # the unclipped root of f1': under drift it mostly sits past pi_upper,
    # a position outside the box, which fails; a root inside the box is the
    # argmin and passes
    roots = []

    def unclipped(Z, U, ctx):
        vals, _ = driver_f_batch(Z, U, ctx)
        roots.append(np.array([
            brentq(lambda q: nosignal_slope(Z[j:j + 1], U[j:j + 1],
                                            np.array([q]), ctx)[0][0],
                   -50.0, 50.0, xtol=1e-15, rtol=8.9e-16)
            for j in range(Z.size)]))
        return vals, roots[-1]

    monkeypatch.setattr(verify, "driver_f_batch", unclipped)
    r = check_driver_kkt(50, ctx_drift)
    (p,) = roots
    outside = np.count_nonzero((p < -ctx_drift.pi_lower) | (p > ctx_drift.pi_upper))
    assert outside >= 40
    assert not r.passed and r.violations == outside


def test_scenario_limits_pass(ctx_nosignal):
    r = check_scenario_limits(ctx_nosignal, n_samples=200)
    assert r.passed and r.tolerance == 0.0 and r.samples == 400


def _shifted(ctx, shift):
    def driver(Z, U):
        vals, p0 = ctx(Z, U)
        return vals + shift, p0
    return driver


def test_comparison_pass_and_ordering_guard(sol_small, ctx_hidesmall):
    r = check_comparison(sol_small, _shifted(ctx_hidesmall, 0.05))
    assert r.passed


def test_comparison_detects_lower_driver(sol_small, ctx_hidesmall, eps_reg, batch_small):
    # a driver shifted down lowers Y_0 by about shift T, ten times eps_reg:
    # the check must compare the second solve with sol, not sol with itself
    shift = 10.0 * eps_reg / batch_small.time_grid.T
    r = check_comparison(sol_small, _shifted(ctx_hidesmall, -shift))
    assert not r.passed and r.violations == 1
    assert r.worst_margin < -5.0 * eps_reg


def test_penalization_pass(sol_small, ctx_hidesmall):
    r = check_penalization(sol_small, ctx_hidesmall, m_values=range(1, 6))
    assert r.passed
    # the last margin compares the solve under f_m past the threshold
    # with the solve under f, to 1e-12
    assert r.worst_margin <= 1e-12 + 1e-15


def test_penalization_detects_foreign_solution(cells_small, ctx_hidesmall):
    # f_m past the threshold reproduces the solve under f, not one under f + 0.05
    sol_up = solve(cells_small, _shifted(ctx_hidesmall, 0.05))
    r = check_penalization(sol_up, ctx_hidesmall, m_values=range(1, 6))
    assert not r.passed and r.violations == 1


def test_penalization_detects_a_wrong_fm_slope(sol_small, ctx_hidesmall, monkeypatch):
    # m_values=(20,) runs only the m* leg: past the threshold f_m's rows
    # take the penalized kernels, so a slope of f1_m off by 1e-3 moves the
    # Newton argmin, and with it Y_0, off the solve under f
    slope = _NoSignalPart.slope

    def off(self, P):
        d1, d2 = slope(self, P)
        return (d1 if self.m_col is None else d1 + 1e-3), d2

    monkeypatch.setattr(_NoSignalPart, "slope", off)
    r = check_penalization(sol_small, ctx_hidesmall, m_values=(20,))
    assert r.samples == 1 and not r.passed and r.violations == 1


def test_martingale_optimality_pass(batch_small_b, sol_small, ctx_hidesmall,
                                    eps_reg):
    r = check_martingale_optimality(batch_small_b.seed, sol_small, ctx_hidesmall,
                                    lambda s: payoff_put(s, 1.0), 0.0, eps_reg)
    assert r.passed and r.violations == 0


def test_martingale_optimality_detects_signal_position(batch_small_b, sol_small,
                                                      ctx_hidesmall, eps_reg):
    # a strategy that trades 0 instead of the boundary position on signal
    # jumps gives up what the signal reveals: some rival must beat it
    mutant = copy.copy(ctx_hidesmall)
    object.__setattr__(mutant, "boundary_p", np.zeros_like(ctx_hidesmall.boundary_p))
    r = check_martingale_optimality(batch_small_b.seed, sol_small, mutant,
                                    lambda s: payoff_put(s, 1.0), 0.0, eps_reg)
    print(r.line())
    assert not r.passed and r.violations > 0


def test_martingale_rejects_training_seed(batch_small, sol_small, ctx_hidesmall,
                                          eps_reg):
    with pytest.raises(ValueError):
        check_martingale_optimality(batch_small.seed, sol_small, ctx_hidesmall,
                                    lambda s: payoff_put(s, 1.0), 0.0, eps_reg)


def _martingale_margins_of_a_batch(batch, sol, ctx, payoff_fn, x, eps_reg, dense_counts):
    """check_martingale_optimality's margins recomputed on a whole batch:
    every step's positions at once, and each strategy's jump P&L summed
    over the bins of the dense counts, which are drawn from the uniform
    streams apart from the batch's events; the terms of a path add up in
    the events' bin order, so every margin keeps its bits."""
    value, positions = value_and_strategy(sol, x, ctx)
    n_steps = batch.time_grid.n_steps
    p0 = np.stack([positions(k, batch.S[k]) for k in range(n_steps)])
    p_sig, lo, hi = ctx.boundary_p, -ctx.pi_lower, ctx.pi_upper
    strategies = [(p0, p_sig)]
    strategies += [(np.clip(p0 + d, lo, hi), np.clip(p_sig + d, lo, hi))
                   for d in (0.05, -0.05, 0.2, -0.2)]
    strategies += [(np.full(p0.shape, c), np.full(p_sig.shape, c)) for c in (0.0, hi, lo)]
    eta, comp, dt = ctx.grid.eta, ctx.grid.compensator(), batch.time_grid.dt
    dN = [dense_counts(batch, k) for k in range(n_steps)]
    F = payoff_fn(batch.S[-1])
    utils = []
    for q0, q_sig in strategies:
        X = np.full(batch.n_paths, float(x))
        for k in range(n_steps):
            jump_pnl = np.zeros(batch.n_paths)
            for j in range(eta.size):
                pos = q_sig[j] if ctx.sig_mask[j] else q0[k]
                jump_pnl += pos * eta[j] * dN[k][j]
            X = X + q0[k] * (ctx.spec.kappa * dt[k] + ctx.spec.sigma * batch.dW[k]) \
                + jump_pnl - q0[k] * comp * dt[k]
        utils.append(-np.exp(-ctx.lam * (X - F)))

    def mean_se(v):
        return float(np.mean(v)), float(np.std(v, ddof=1) / math.sqrt(v.size))

    margins = []
    for u in utils[1:]:
        mean, se = mean_se(utils[0] - u)
        margins.append(mean + 3.0 * se)
    mean_star, se_star = mean_se(utils[0])
    margins.append(3.0 * (se_star + eps_reg) - abs(mean_star - value))
    return np.array(margins)


@pytest.mark.parametrize("ctx_name,x", [("ctx_hidesmall", 0.0), ("ctx_hidelarge", 0.3),
                                        ("ctx_nosignal", 0.0), ("ctx_drift", -0.2)])
def test_streamed_martingale_margins_equal_the_whole_batch(ctx_name, x, request, tg_small,
                                                           dense_counts, report_margins):
    # the check streams the fresh seed one step at a time; the margins
    # recomputed on the whole fresh batch agree bit for bit
    ctx = request.getfixturevalue(ctx_name)
    train, fresh = (simulate_batch(ctx.spec, ctx.grid, tg_small, 4096, seed)
                    for seed in (101, 202))
    sol = solve(cells_of(train, N_CELLS, 50, put_1), ctx)

    def payoff_fn(s):
        return payoff_put(s, 1.0)

    r = check_martingale_optimality(fresh.seed, sol, ctx, payoff_fn, x, 0.01)
    want = _martingale_margins_of_a_batch(fresh, sol, ctx, payoff_fn, x, 0.01, dense_counts)
    assert r.samples == 8
    assert report_margins[-1].tobytes() == want.tobytes()


def test_fresh_seed_is_never_held_whole():
    # the reference config: the check holds eight wealth rows, the
    # strategy's and its seven rivals', and the step kernel's three rows;
    # simulating the whole fresh batch first, 21 rows of 65536 doubles,
    # and then running the check peaked at 33.1 MB
    cfg = ExperimentConfig()
    spec = cfg.market_spec()
    grid = cfg.jump_grid(spec)
    ctx = cfg.driver_context(spec, grid, cfg.scenarios()[0])
    cells = simulate_cells(spec, grid, cfg.time_grid(), cfg.scheme.n_paths, 1,
                           cfg.scheme.n_cells, cfg.scheme.min_count, cfg.payoff_values, 1)
    sol = solve(cells, ctx)
    tracemalloc.start()
    try:
        r = check_martingale_optimality(1 + FRESH_SEED_OFFSET, sol, ctx, cfg.payoff_values,
                                        cfg.utility.x, 0.01)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert r.samples == 8
    assert peak < 20 * 2 ** 20


def test_scheme_oracles_pass(sol_small):
    r = check_scheme_oracles(sol_small)
    assert r.passed and r.samples == 2


def test_empty_checks_fail(ctx_hidesmall, ctx_nosignal):
    # a check that drew no samples has shown nothing, so it cannot pass
    for r in (check_driver_kkt(0, ctx_hidesmall),
              check_driver_sandwich(0, ctx_hidesmall),
              check_fm_monotone(0, ctx_hidesmall),
              check_lipschitz_z(0, ctx_hidesmall),
              check_scenario_limits(ctx_nosignal, n_samples=0)):
        assert r.samples == 0 and r.violations == 0
        assert not r.passed and "FAIL" in r.line()


def _y_bound_on_paths(sol, ctx, Y):
    """check_y_bound's margins from every path's Ybar, the rows of ``Y``
    and F last: the bound less the largest |Ybar_k| over the paths, per
    step."""
    lam = ctx.lam
    f_sup = float(np.max(np.abs(Y[-1])))
    lo, _ = driver_bounds(0.0, np.zeros(ctx.grid.points.size), ctx)
    tg = sol.cells.time_grid
    bound = f_sup + math.log1p(math.exp(-lam * f_sup)) / lam + -lo * (tg.T - tg.times)
    return bound - np.max(np.abs(Y), axis=1)


@pytest.fixture()
def report_margins(monkeypatch):
    """The margins of every report made in the test, in order."""
    margins, report = [], verify._report

    def recording_report(name, samples, m, tol):
        margins.append(np.asarray(m, dtype=float))
        return report(name, samples, m, tol)

    monkeypatch.setattr(verify, "_report", recording_report)
    return margins


def test_y_bound_pass(batch_small, payoff_small, cells_small, ctx_hidesmall,
                     path_values, report_margins):
    sol = solve(cells_small, ctx_hidesmall)
    r = check_y_bound(sol, ctx_hidesmall)
    assert r.passed and r.samples == batch_small.time_grid.n_steps + 1
    # the largest cell value is the largest path value, bit for bit
    assert report_margins[-1].tobytes() == _y_bound_on_paths(
        sol, ctx_hidesmall, path_values(sol, batch_small, payoff_small)).tobytes()
    # the log-sum floor keeps the bound above log(2)/lam, so blow up the
    # solution to force a violation; the terminal values are F itself and
    # set the bound, so they stay
    for rec in sol.steps:
        rec.y_cells += 50.0
    r_bad = check_y_bound(sol, ctx_hidesmall)
    assert not r_bad.passed
    assert r_bad.violations == batch_small.time_grid.n_steps
    assert report_margins[-1].tobytes() == _y_bound_on_paths(
        sol, ctx_hidesmall, path_values(sol, batch_small, payoff_small)).tobytes()


def test_one_batch_checks_take_no_allowance(batch_small, cells_small, sol_small,
                                            ctx_hidesmall, eps_reg, report_margins):
    # every solve these checks add runs on the cells of sol, so the
    # margins are the raw differences of the solves
    driver2 = _shifted(ctx_hidesmall, 0.05)
    check_comparison(sol_small, driver2)
    y2 = solve(cells_small, driver2).y0
    assert report_margins[-1].tobytes() == np.array([y2 - sol_small.y0]).tobytes()

    check_penalization(sol_small, ctx_hidesmall, m_values=range(1, 6))
    y0s = [solve(cells_small,
                 lambda Z, U, m=m: penalized_driver_fm_batch(Z, U, m, ctx_hidesmall)).y0
           for m in range(1, 6)]
    assert report_margins[-1][:-1].tobytes() == np.diff(y0s).tobytes()

    # a solve past the bound by half the two-batch spread fails, where an
    # allowance of that spread passed it
    sol = solve(cells_small, ctx_hidesmall)
    check_y_bound(sol, ctx_hidesmall)
    for rec, margin in zip(sol.steps, report_margins[-1]):
        j = np.argmax(np.abs(rec.y_cells))
        rec.y_cells[j] += math.copysign(margin + 0.5 * eps_reg, rec.y_cells[j])
    r = check_y_bound(sol, ctx_hidesmall)
    n = batch_small.time_grid.n_steps
    assert not r.passed and r.violations == n
    assert np.all(report_margins[-1][:n] < 0.0)
    assert np.all(report_margins[-1][:n] + eps_reg > 0.0)


def test_y_bound_reads_sup_from_terminal(batch_small, payoff_small, ctx_hidesmall):
    # max|F| above the strike: a bound built on the strike (1.0) sits at
    # log(e^0.4 + 1)/0.4 = 2.28 at maturity, below the payoff itself
    F = payoff_small + 3.0
    assert np.max(F) > 3.0
    sol = solve(cells_of(batch_small, N_CELLS, 50, payoff=lambda s: F), ctx_hidesmall)
    r = check_y_bound(sol, ctx_hidesmall)
    assert r.passed and r.violations == 0


def test_y_bound_of_a_large_payoff_is_finite(batch_small, ctx_hidesmall):
    # lam max|F| = 0.4 * 5000 is far past exp's range: the bound
    # log(e^{lam ||F||} + 1) / lam must not overflow, and is ||F|| itself
    # in floating point, so the terminal margin is exactly 0
    cells = cells_of(batch_small, N_CELLS, 50, payoff=lambda s: payoff_put(s, 5000.0))
    assert 0.4 * cells.f_sup > 709.0
    sol = solve(cells, constant_driver(0.0))
    r = check_y_bound(sol, ctx_hidesmall)
    assert r.passed and r.violations == 0
    assert r.worst_margin == 0.0


def test_format_reports_sorted():
    reports = [
        CheckReport("zeta", 1, 0, 0.0, 0.0, True),
        CheckReport("alpha", 1, 1, -1.0, 0.0, False),
    ]
    lines = format_reports(reports).splitlines()
    assert lines[0].startswith("alpha: FAIL")
    assert lines[1].startswith("zeta: PASS")


def _recording(fn, calls):
    def wrapper(*args):
        out = fn(*args)
        calls.append((args, out[0]))
        return out
    return wrapper


@pytest.mark.parametrize("ctx_name", ["ctx_hidesmall", "ctx_hidelarge", "ctx_drift"])
def test_one_call_checks_give_the_two_call_margins(ctx_name, request, monkeypatch):
    # a row's search does not depend on its batch, and with a multiple of
    # 4 rows in each half BLAS rounds every row as in its own call, so
    # stacking the two evaluations of a check into one driver call changes
    # no value and no margin; on the small grid f_m takes Newton rows and
    # scan rows in each call, so the stacked rows also move between
    # sub-batches
    ctx = request.getfixturevalue(ctx_name)
    n, nb = 300, ctx.grid.points.size
    assert n % 4 == 0
    calls = []
    monkeypatch.setattr(verify, "penalized_driver_fm_batch",
                        _recording(penalized_driver_fm_batch, calls))
    monkeypatch.setattr(verify, "driver_f_batch", _recording(driver_f_batch, calls))

    rng = np.random.default_rng(11)
    z = rng.uniform(-5.0, 5.0, size=n)
    u = rng.uniform(-2.0, 2.0, size=(n, nb))
    ms = rng.integers(1, 20, size=n)
    lo_val = penalized_driver_fm_batch(z, u, ms, ctx)[0]
    hi_val = penalized_driver_fm_batch(z, u, ms + 1, ctx)[0]
    scale = np.maximum(1.0, np.maximum(np.abs(lo_val), np.abs(hi_val)))
    two_calls = verify._report("fm_monotone", n, (hi_val - lo_val) / scale, 1e-12)
    assert check_fm_monotone(n, ctx) == two_calls
    [((_, _, m, _), vals)] = calls
    assert np.array_equal(m, np.concatenate([ms, ms + 1]))
    assert np.array_equal(vals, np.concatenate([lo_val, hi_val]))

    calls.clear()
    rng = np.random.default_rng(13)
    z1 = rng.uniform(-5.0, 5.0, size=n)
    u = rng.uniform(-2.0, 2.0, size=(n, nb))
    z2 = rng.uniform(-5.0, 5.0, size=n)
    f1, _ = driver_f_batch(z1, u, ctx)
    f2, _ = driver_f_batch(z2, u, ctx)
    K = verify.local_lipschitz_constant(ctx)
    rhs = K * (1.0 + np.abs(z1) + np.abs(z2)) * np.abs(z1 - z2)
    two_calls = verify._report("lipschitz_z", n, rhs - np.abs(f1 - f2), 1e-10)
    assert check_lipschitz_z(n, ctx) == two_calls
    [(_, vals)] = calls
    assert np.array_equal(vals, np.concatenate([f1, f2]))


def test_lipschitz_detects_mutation(ctx_hidesmall, ctx_drift, monkeypatch):
    # f + 3K z|z| grows like 6K|z| in z, faster than the stated bound
    # K (1 + |z| + |z'|) allows once |z| > 1/4
    def steep(Z, U, ctx):
        vals, p0 = driver_f_batch(Z, U, ctx)
        K = verify.local_lipschitz_constant(ctx)
        return vals + 3.0 * K * Z * np.abs(Z), p0

    monkeypatch.setattr(verify, "driver_f_batch", steep)
    for ctx in (ctx_hidesmall, ctx_drift):
        r = check_lipschitz_z(300, ctx)
        assert not r.passed and r.violations > 0

    # a fixed coefficient: under drift, f + 0.2 z|z| adds 0.4|z| to the
    # slope, past the growth that K = lam/2 = 0.2 allows
    def fixed(Z, U, ctx):
        vals, p0 = driver_f_batch(Z, U, ctx)
        return vals + 0.2 * Z * np.abs(Z), p0

    monkeypatch.setattr(verify, "driver_f_batch", fixed)
    r = check_lipschitz_z(300, ctx_drift)
    assert not r.passed and r.violations > 0
