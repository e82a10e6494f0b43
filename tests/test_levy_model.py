"""Measure-level oracles: closed forms frozen from a 40-digit computation
plus independent quadrature cross-checks."""

import dataclasses
import math

import numpy as np
import pytest
from scipy.integrate import quad

from jumpsignal import (
    DiscreteJumpGrid,
    DriverContext,
    HideLarge,
    HideSmall,
    LevyMarketSpec,
    NoSignal,
    build_grid,
)

# frozen oracles, rho=0.1 alpha=1.5 eps=0.01 unless stated
W1_SMALL = 0.169059892324149694196340487799       # nu(0.25, 0.75]
W2_SMALL = 0.067640791490305099257173907220       # nu(0.75, 1.5]
W3_SMALL = 0.163299316185545206546485604980       # nu(1.5, inf)
Q20_W_FIRST = 0.426149532588869543000601245635   # q=20 grid, |e|=0.05 bin
Q20_W_LAST = 0.094682579882039078848272130938    # q=20 grid, |e|=5 tail bin
Q20_TOTAL = 2.529822128134703465599114835546     # q=20 grid intensity


def nu_density(spec, e):
    """Density rho |e|^(-alpha) of the Levy measure, undefined at e = 0:
    the oracle the quadrature tests integrate, as the package reads the
    measure only through ``nu_interval``."""
    e = np.asarray(e, dtype=float)
    if np.any(e == 0.0):
        raise ValueError("nu has no density value at e = 0")
    return spec.rho * np.abs(e) ** (-spec.alpha)


def test_nu_density_closed_form(spec_small):
    # 0.1 * 0.25^(-1.5) = 0.8 exactly
    assert nu_density(spec_small, 0.25) == pytest.approx(0.8, rel=1e-15)
    assert nu_density(spec_small, -0.25) == pytest.approx(0.8, rel=1e-15)
    vals = nu_density(spec_small, np.array([0.25, -0.25, 1.0]))
    assert vals == pytest.approx([0.8, 0.8, 0.1], rel=1e-15)
    with pytest.raises(ValueError):
        nu_density(spec_small, 0.0)


def test_eta_cap(spec_small):
    assert spec_small.eta(0.5) == 0.5
    assert spec_small.eta(2.0) == 0.99
    assert spec_small.eta(-3.0) == -0.99
    out = spec_small.eta(np.array([-2.0, 0.1, 1.5]))
    assert np.array_equal(out, [-0.99, 0.1, 0.99])


def test_nu_interval_frozen(spec_small):
    assert spec_small.nu_interval(0.25, 0.75) == pytest.approx(W1_SMALL, rel=1e-14)
    assert spec_small.nu_interval(0.75, 1.5) == pytest.approx(W2_SMALL, rel=1e-14)
    assert spec_small.nu_interval(1.5, math.inf) == pytest.approx(W3_SMALL, rel=1e-14)


def test_nu_interval_against_quadrature(spec_small):
    val, err = quad(lambda e: nu_density(spec_small, e), 0.3, 1.7)
    assert spec_small.nu_interval(0.3, 1.7) == pytest.approx(val, rel=1e-10)
    tail, err = quad(lambda e: nu_density(spec_small, e), 0.5, np.inf)
    assert spec_small.nu_interval(0.5, math.inf) == pytest.approx(tail, rel=1e-9)


def test_nu_interval_validation(spec_small):
    with pytest.raises(ValueError):
        spec_small.nu_interval(0.0, 1.0)
    with pytest.raises(ValueError):
        spec_small.nu_interval(1.0, 0.5)


def test_c_const(ctx_nosignal, ctx_drift, spec_small, grid_small):
    # C = kappa / (lam sigma): 0 in the compensated market
    assert ctx_nosignal.c_const == 0.0
    # 0.3 / (0.4 * 0.2) = 3.75
    assert ctx_drift.c_const == pytest.approx(3.75, rel=1e-15)
    with pytest.raises(ValueError):
        DriverContext(spec_small, grid_small, NoSignal(), lam=0.0)


def test_context_replace_rederives(ctx_nosignal, spec_drift):
    # the context derives three fields, and each follows the fields it is
    # derived from
    derived = [f.name for f in dataclasses.fields(ctx_nosignal) if not f.init]
    assert derived == ["c_const", "sig_mask", "boundary_p"]
    ctx = dataclasses.replace(ctx_nosignal, scenario=HideSmall(c=0.7))
    assert np.array_equal(ctx.sig_mask, [True, True, False, False, True, True])
    ctx = dataclasses.replace(ctx_nosignal, spec=spec_drift)
    assert ctx.c_const == pytest.approx(3.75, rel=1e-15)


def test_spec_validation():
    for kw in ({"rho": 0.0}, {"alpha": 1.0}, {"alpha": 2.0}, {"epsilon": 0.0},
               {"epsilon": 1.0}, {"sigma": 0.0}, {"s0": 0.0}, {"T": 0.0}):
        with pytest.raises(ValueError):
            LevyMarketSpec(**kw)


def test_gamma_by_scenario(spec_small):
    e = np.array([-2.0, -0.6, 0.5, 0.7, 1.0])
    assert np.array_equal(NoSignal().gamma(e, spec_small), np.zeros(5))
    hs = HideSmall(c=0.7).gamma(e, spec_small)
    assert np.array_equal(hs, [-0.99, 0.0, 0.0, 0.7, 0.99])
    hl = HideLarge(c=0.7).gamma(e, spec_small)
    assert np.array_equal(hl, [0.0, -0.6, 0.5, 0.7, 0.0])
    with pytest.raises(ValueError):
        HideSmall(c=0.0)
    with pytest.raises(ValueError):
        HideLarge(c=-1.0)


def test_grid_small_points_and_weights(spec_small, grid_small):
    assert np.array_equal(grid_small.points, [-2.0, -1.0, -0.5, 0.5, 1.0, 2.0])
    assert grid_small.q == 3
    assert np.array_equal(grid_small.signed_indices, [-3, -2, -1, 1, 2, 3])
    w = grid_small.weights
    assert w[3:] == pytest.approx([W1_SMALL, W2_SMALL, W3_SMALL], rel=1e-13)
    assert np.array_equal(w[:3], w[3:][::-1])
    # mass conservation: bins tile (e_1/2, inf) on each side
    assert np.sum(grid_small.weights) == pytest.approx(
        2.0 * spec_small.nu_interval(0.25, math.inf), rel=1e-13)
    assert np.array_equal(grid_small.eta, [-0.99, -0.99, -0.5, 0.5, 0.99, 0.99])


def test_grid_default_profile(spec_small):
    grid = build_grid(20, spec_small)
    assert grid.points[0] == -5.0 and grid.points[-1] == 5.0
    assert grid.weights[0] == pytest.approx(Q20_W_LAST, rel=1e-13)
    assert grid.weights[19] == pytest.approx(Q20_W_FIRST, rel=1e-13)
    assert np.sum(grid.weights) == pytest.approx(Q20_TOTAL, rel=1e-13)


def test_grid_linear_layout(spec_small):
    grid = build_grid(3, spec_small, e_min=0.5, e_max=2.0, layout="linear")
    assert np.array_equal(grid.points[3:], [0.5, 1.25, 2.0])
    with pytest.raises(ValueError):
        build_grid(3, spec_small, layout="chebyshev")


def test_first_midpoint(grid_small):
    assert grid_small.first_midpoint() == 0.25


def test_signal_masks(spec_small, grid_small):
    def mask(scenario):
        # the context's signal bins are exactly the marks gamma reveals
        ctx = DriverContext(spec_small, grid_small, scenario, lam=0.4)
        gamma = scenario.gamma(grid_small.points, spec_small)
        assert np.array_equal(ctx.sig_mask, gamma != 0)
        return ctx.sig_mask

    assert not mask(NoSignal()).any()
    hs = mask(HideSmall(c=0.7))
    assert np.array_equal(hs, [True, True, False, False, True, True])
    assert np.array_equal(mask(HideLarge(c=0.7)), ~hs)
    g = HideSmall(c=0.7).gamma(grid_small.points, spec_small)
    assert np.array_equal(g, [-0.99, -0.99, 0.0, 0.0, 0.99, 0.99])
    assert np.array_equal(NoSignal().gamma(grid_small.points, spec_small), np.zeros(6))
    # cutoffs at and next to the marks 0.5, 1, 2: both revealed sets
    # include the cutoff (|e| >= c under HideSmall, |e| <= c under HideLarge)
    cases = {
        0.5: ([1, 1, 1, 1, 1, 1], [0, 0, 1, 1, 0, 0]),
        0.500001: ([1, 1, 0, 0, 1, 1], [0, 0, 1, 1, 0, 0]),
        2.0: ([1, 0, 0, 0, 0, 1], [1, 1, 1, 1, 1, 1]),
        2.5: ([0, 0, 0, 0, 0, 0], [1, 1, 1, 1, 1, 1]),
    }
    for c, (small, large) in cases.items():
        assert np.array_equal(mask(HideSmall(c=c)), np.array(small, dtype=bool)), c
        assert np.array_equal(mask(HideLarge(c=c)), np.array(large, dtype=bool)), c


def test_grid_validation(spec_small):
    with pytest.raises(ValueError):
        build_grid(1, spec_small)
    with pytest.raises(ValueError):
        build_grid(3, spec_small, e_min=0.0, e_max=1.0)
    with pytest.raises(ValueError):
        build_grid(3, spec_small, e_min=2.0, e_max=1.0)
    pts = np.array([-2.0, -1.0, 0.5, 2.0])
    eta = np.array([-0.9, -0.5, 0.5, 0.9])
    with pytest.raises(ValueError):
        DiscreteJumpGrid(points=pts, weights=np.ones(4), eta=eta)
    sym = np.array([-2.0, -0.5, 0.5, 2.0])
    with pytest.raises(ValueError):
        DiscreteJumpGrid(points=sym, weights=np.array([1.0, 1.0, 0.0, 1.0]), eta=eta)
    with pytest.raises(ValueError):
        DiscreteJumpGrid(points=sym[1:], weights=np.ones(3), eta=eta[1:])
    DiscreteJumpGrid(points=sym, weights=np.ones(4), eta=eta)


@pytest.mark.parametrize("eta", [
    [-0.9, -0.5, 0.5],              # misaligned with the points
    [-0.9, -0.5, np.nan, 0.9],      # not finite
    [-np.inf, -0.5, 0.5, 0.9],
    [-1.0, -0.5, 0.5, 0.9],         # log1p(-1) = -inf: a price would reach 0
    [-0.9, -0.5, 0.5, 1.0],
])
def test_grid_rejects_eta(eta):
    sym = np.array([-2.0, -0.5, 0.5, 2.0])
    with pytest.raises(ValueError, match="eta"):
        DiscreteJumpGrid(points=sym, weights=np.ones(4), eta=np.array(eta))
