"""Acceptance gate at the reference experiment scale.

One test per headline property, each on the default configuration (put
strike 1, 65536 paths, 10 steps, 64 cells, 40-point jump grid, seeds
1..5, compensated drift):

* cutoff sweep: mean Y0 monotone in c, up for hide-small, down for
  hide-large, within the five-seed spread of Y0
* degenerate cutoffs reproduce the no-signal solve bit for bit
* driver KKT conditions / sandwich / penalization monotonicity /
  Lipschitz growth on 1000 random samples with zero violations
* comparison: ordered terminals order Y0; a constant driver shift delta
  moves Y0 by delta T
* penalized solves increase in m and match the unpenalized solve to
  1e-12 once every truncation is inactive
* the extracted strategy beats perturbed strategies on a fresh batch
  and its simulated utility ties back to the certainty equivalent
* exactly solvable drivers recovered to 1e-12; backward values inside
  the a priori bound
"""

import numpy as np
import pytest

from jumpsignal.bsde_solver import CellIndex, solve
from jumpsignal.config import ExperimentConfig
from jumpsignal.levy_model import HideLarge, HideSmall, NoSignal
from jumpsignal.simulate import simulate_batch
from jumpsignal.verify import (
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
)

C_VALUES = (0.1, 0.3, 0.6, 1.0, 2.0)


@pytest.fixture(scope="module")
def cfg():
    return ExperimentConfig()


@pytest.fixture(scope="module")
def spec(cfg):
    return cfg.market_spec()


@pytest.fixture(scope="module")
def grid(cfg, spec):
    return cfg.jump_grid(spec)


@pytest.fixture(scope="module")
def batches(cfg, spec, grid):
    tg = cfg.time_grid()
    return [simulate_batch(spec, grid, tg, cfg.scheme.n_paths, s)
            for s in cfg.scheme.seeds]


@pytest.fixture(scope="module")
def cells(cfg, batches):
    # one cell index per batch, shared by every solve on it
    return [CellIndex.build(b, cfg.scheme.n_cells, cfg.scheme.min_count)
            for b in batches]


@pytest.fixture(scope="module")
def payoffs(cfg, batches):
    return [cfg.payoff_values(b.S[-1]) for b in batches]


@pytest.fixture(scope="module")
def ctx_hs(cfg, spec, grid):
    return cfg.driver_context(spec, grid, HideSmall(c=0.6))


@pytest.fixture(scope="module")
def ctx_hl(cfg, spec, grid):
    return cfg.driver_context(spec, grid, HideLarge(c=0.6))


@pytest.fixture(scope="module")
def ctx_ns(cfg, spec, grid):
    return cfg.driver_context(spec, grid, NoSignal())


def _solve_all(cells, payoffs, ctx):
    return [solve(c, f, ctx) for c, f in zip(cells, payoffs)]


@pytest.fixture(scope="module")
def sols_hs(cells, payoffs, ctx_hs):
    return _solve_all(cells, payoffs, ctx_hs)


def _spread(sols):
    y0s = [s.y0 for s in sols]
    return max(y0s) - min(y0s)


@pytest.fixture(scope="module")
def eps_hs(sols_hs):
    return _spread(sols_hs)


@pytest.fixture(scope="module")
def eps_hl(cells, payoffs, ctx_hl):
    return _spread(_solve_all(cells, payoffs, ctx_hl))


@pytest.fixture(scope="module")
def sol_ref(sols_hs):
    return sols_hs[0]


def test_c_sweep_monotonicity(cfg, spec, grid, cells, payoffs, eps_hs, eps_hl):
    means = {}
    for variant, eps in ((HideSmall, eps_hs), (HideLarge, eps_hl)):
        ms = []
        for c in C_VALUES:
            ctx = cfg.driver_context(spec, grid, variant(c=c))
            ms.append(float(np.mean([s.y0 for s in _solve_all(cells, payoffs, ctx)])))
        means[variant.__name__] = (ms, eps)

    hs, eps = means["HideSmall"]
    print(f"hide-small Y0(c): {np.array2string(np.array(hs), precision=5)}"
          f" eps {eps:.2e}")
    assert all(b - a >= -eps for a, b in zip(hs, hs[1:])), hs

    hl, eps = means["HideLarge"]
    print(f"hide-large Y0(c): {np.array2string(np.array(hl), precision=5)}"
          f" eps {eps:.2e}")
    assert all(b - a <= eps for a, b in zip(hl, hl[1:])), hl


def test_scenario_limit_exactness(cfg, spec, grid, batches, cells, payoffs,
                                  ctx_ns):
    r = check_scenario_limits(ctx_ns, n_samples=1000)
    print(r.line())
    assert r.passed and r.violations == 0

    # degenerate cutoffs on a shared batch: identical drivers propagate
    # through the whole backward recursion, so Y0 agrees bit for bit
    c_hi = 2.0 * float(grid.points[-1])
    c_lo = 0.5 * float(grid.first_midpoint())
    y_ns = solve(cells[0], payoffs[0], ctx_ns).y0
    for scenario in (HideSmall(c=c_hi), HideLarge(c=c_lo)):
        ctx = cfg.driver_context(spec, grid, scenario)
        y = solve(cells[0], payoffs[0], ctx).y0
        print(f"{scenario.label()} c={scenario.c:g}: Y0 {y!r} vs {y_ns!r}")
        assert y == y_ns


def test_driver_property_suite(ctx_hs):
    for report in (check_driver_kkt(1000, ctx_hs),
                   check_driver_sandwich(1000, ctx_hs),
                   check_fm_monotone(1000, ctx_hs),
                   check_lipschitz_z(1000, ctx_hs)):
        print(report.line())
        assert report.passed and report.violations == 0


def test_comparison_oracle(cfg, batches, cells, payoffs, ctx_hs, eps_hs, sol_ref):
    delta = 0.05

    def shifted_fn(Z, U):
        vals, p0 = ctx_hs(Z, U)
        return vals + delta, p0

    r_term = check_comparison(sol_ref, payoffs[0] + 0.1, ctx_hs)
    r_driver = check_comparison(sol_ref, payoffs[0], shifted_fn)
    for r in (r_term, r_driver):
        print(r.line())
        assert r.passed

    T = cfg.market.T
    y_shift = solve(cells[0], payoffs[0], shifted_fn).y0
    gap = y_shift - sol_ref.y0
    print(f"driver shift {delta:g}: Y0 gap {gap:.6f} target {delta * T:.6f}")
    assert abs(gap - delta * T) <= eps_hs + 1e-10


def test_penalization_convergence(sol_ref, ctx_hs):
    r = check_penalization(sol_ref, ctx_hs)
    print(r.line())
    assert r.passed and r.violations == 0


def test_martingale_optimality(cfg, spec, grid, sol_ref, ctx_hs, eps_hs):
    fresh = simulate_batch(spec, grid, cfg.time_grid(), cfg.scheme.n_paths, 6053)
    r = check_martingale_optimality(fresh, sol_ref, ctx_hs,
                                    cfg.payoff_values, cfg.utility.x, eps_hs)
    print(r.line())
    assert r.passed and r.violations == 0


def test_scheme_oracles_and_bound(sol_ref, ctx_hs):
    r = check_scheme_oracles(sol_ref)
    print(r.line())
    assert r.passed and r.violations == 0
    rb = check_y_bound(sol_ref, ctx_hs)
    print(rb.line())
    assert rb.passed and rb.violations == 0
