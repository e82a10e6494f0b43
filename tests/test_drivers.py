"""Driver oracles: frozen closed-form values, an independent
re-implementation of the driver on the small grid, brute-force position
scans and scipy root-finding on hand-written derivatives against the
Newton argmin of f and of the penalized drivers f_m wherever their cap
cannot bind, and checks of the scan plus golden-section minimizer that
f_m keeps on the rows where it can."""

import math
import re
import warnings

import numpy as np
import pytest
from scipy.optimize import brentq, minimize_scalar

from jumpsignal import (
    driver_bounds,
    driver_f_batch,
    fm_exact_threshold,
    local_lipschitz_constant,
    penalized_driver_fm_batch,
)
from jumpsignal.drivers import (
    _NoSignalPart,
    _driver_rows,
    _exact_argmin,
    _signal_sum,
    h_lambda,
    minimize_on_interval,
    nosignal_slope,
    phi_m,
    rho_m,
    u_lambda_norm,
)

# frozen, 40-digit source
H_04_1 = 0.229561744103175794562132382093    # h_0.4(1)
H_04_M05 = 0.046826882694954646674838771548  # h_0.4(-0.5)
PHI_1_2 = 1.785398163397448309615660845820   # 1 + arctan(1)
ABS_ETA_SMALL = 0.626321305522333299687586321957  # sum |eta_i| nu_i, small grid


def _f_row(z, u, ctx):
    """Driver value and no-signal argmin at one (z, u), as floats."""
    vals, p0 = driver_f_batch([z], u, ctx)
    return float(vals[0]), float(p0[0])


def _fm_row(z, u, m, ctx):
    """Penalized driver f_m at one (z, u), as a float."""
    vals, _ = penalized_driver_fm_batch([z], u, m, ctx)
    return float(vals[0])


def _f1_row(z, u, p, ctx):
    """No-signal objective at one (z, u, p), as a float."""
    return float(_NoSignalPart(np.array([z]), np.asarray(u)[None, :], ctx)(
        np.array([p]))[0])


def _hand_h(x, lam=0.4):
    return (math.exp(lam * x) - lam * x - 1.0) / lam


def _hand_f1(z, u, p, ctx):
    """Independent scalar re-implementation of the no-signal part."""
    lam, C = ctx.lam, ctx.c_const
    val = 0.5 * lam * (ctx.sigma * p - (z + C)) ** 2
    for i in range(ctx.grid.points.size):
        if ctx.sig_mask[i]:
            continue
        eta, nu = ctx.eta_g[i], ctx.nu_g[i]
        val += (_hand_h(u[i] - p * eta, lam) - p * eta) * nu
    return val


def _hand_f1_slope(z, u, p, ctx):
    """Derivative in p of ``_hand_f1``, term by term: h'(x) = e^(lam x) - 1."""
    lam, C = ctx.lam, ctx.c_const
    val = lam * ctx.sigma * (ctx.sigma * p - (z + C))
    for i in range(ctx.grid.points.size):
        if ctx.sig_mask[i]:
            continue
        eta, nu = ctx.eta_g[i], ctx.nu_g[i]
        val += (-eta * (math.exp(lam * (u[i] - p * eta)) - 1.0) - eta) * nu
    return val


def _hand_fm1_slope(z, u, p, m, ctx):
    """Derivative in p of the penalized no-signal part f1_m on a row whose
    phi_m cap cannot bind: the quadratic faded by rho_m(z), h_lam terms
    only on the bins |e_i| > 1/m, the linear term on every no-signal bin."""
    lam, C = ctx.lam, ctx.c_const
    fade = min(max(min(z + m + 1.0, m + 1.0 - z), 0.0), 1.0)
    val = fade * lam * ctx.sigma * (ctx.sigma * p - (z + C))
    for i in range(ctx.grid.points.size):
        if ctx.sig_mask[i]:
            continue
        eta, nu = ctx.eta_g[i], ctx.nu_g[i]
        if abs(ctx.grid.points[i]) > 1.0 / m:
            val -= eta * (math.exp(lam * (u[i] - p * eta)) - 1.0) * nu
        val -= eta * nu
    return val


def _hand_capped(u, m, ctx):
    """Rows where phi_m's knee m can be crossed inside the box: an active
    no-signal bin with u_i + max(pi_lower, pi_upper) |eta_i| > m."""
    u = np.atleast_2d(u)
    m_col = np.broadcast_to(m, u.shape[:1])[:, None]
    ns = ~ctx.sig_mask
    reach = u[:, ns] + max(ctx.pi_lower, ctx.pi_upper) * np.abs(ctx.eta_g[ns])
    active = np.abs(ctx.grid.points[ns]) > 1.0 / m_col
    return np.any((reach > m_col) & active, axis=1)


def _hand_signal_sum(u, ctx):
    val = 0.0
    for i in range(ctx.grid.points.size):
        if not ctx.sig_mask[i]:
            continue
        b = ctx.pi_upper if ctx.grid.points[i] > 0 else -ctx.pi_lower
        eta, nu = ctx.eta_g[i], ctx.nu_g[i]
        val += (_hand_h(u[i] - b * eta, ctx.lam) - b * eta) * nu
    return val


def _hand_min(obj, lo, hi):
    """Boundary-aware scalar minimum: scipy bounded Brent plus a local
    polish, since Brent leaves ~1e-9 slack at boundary minima."""
    res = minimize_scalar(obj, bounds=(lo, hi), method="bounded",
                          options={"xatol": 1e-12})
    cand = np.clip(np.concatenate([[lo, hi, res.x],
                                   res.x + np.linspace(-1e-7, 1e-7, 21)]),
                   lo, hi)
    return min(obj(c) for c in cand)


def _hand_driver(z, u, ctx):
    """Full driver via scipy bounded minimization of the hand objective."""
    fmin = _hand_min(lambda p: _hand_f1(z, u, p, ctx),
                     -ctx.pi_lower, ctx.pi_upper)
    tail = -ctx.lam * ctx.c_const * z - ctx.lam * ctx.c_const ** 2 / 2.0
    return fmin + _hand_signal_sum(u, ctx) + tail


def test_h_lambda_frozen():
    assert h_lambda(0.0, 0.4) == 0.0
    assert h_lambda(1.0, 0.4) == pytest.approx(H_04_1, rel=1e-14)
    assert h_lambda(-0.5, 0.4) == pytest.approx(H_04_M05, rel=1e-14)
    vals = h_lambda(np.array([0.0, 1.0]), 0.4)
    assert vals == pytest.approx([0.0, H_04_1], rel=1e-14)
    with pytest.raises(ValueError):
        h_lambda(1.0, 0.0)


def test_h_lambda_convex_nonnegative(rng):
    x = rng.uniform(-4.0, 4.0, size=200)
    y = rng.uniform(-4.0, 4.0, size=200)
    assert np.all(h_lambda(x, 0.4) >= 0.0)
    mid = h_lambda(0.5 * (x + y), 0.4)
    assert np.all(mid <= 0.5 * (h_lambda(x, 0.4) + h_lambda(y, 0.4)) + 1e-12)


def test_h_lambda_overflow_guard():
    with pytest.raises(ValueError):
        h_lambda(1800.0, 0.4)


def test_rho_m_values():
    assert rho_m(0.0, 2) == 1.0
    assert rho_m(2.0, 2) == 1.0 and rho_m(-2.0, 2) == 1.0
    assert rho_m(2.5, 2) == 0.5
    assert rho_m(3.0, 2) == 0.0 and rho_m(-3.5, 2) == 0.0
    assert rho_m(-2.7, 2) == pytest.approx(0.3, rel=1e-14)


def test_phi_m_values():
    assert phi_m(0.3, 1) == 0.3
    assert phi_m(1.0, 1) == 1.0
    assert phi_m(-5.0, 1) == -5.0
    assert phi_m(2.0, 1) == pytest.approx(PHI_1_2, rel=1e-14)
    assert phi_m(5.0, 2) == pytest.approx(2.0 + math.atan(3.0), rel=1e-14)
    # monotone and capped above the knee
    x = np.linspace(-3, 8, 101)
    fx = phi_m(x, 2)
    assert np.all(np.diff(fx) > 0)
    assert np.max(fx) < 2.0 + math.pi / 2.0


def test_u_lambda_norm(ctx_hidesmall):
    grid = ctx_hidesmall.grid
    (zero,) = u_lambda_norm(np.zeros(6), ctx_hidesmall)  # one row
    assert zero == 0.0
    (ones,) = u_lambda_norm(np.ones(6), ctx_hidesmall)
    assert ones == pytest.approx(H_04_1 * np.sum(grid.weights), rel=1e-13)
    with pytest.raises(ValueError):
        u_lambda_norm(np.ones(5), ctx_hidesmall)


def test_f1_matches_hand_reimplementation(ctx_hidesmall, ctx_drift, rng):
    for ctx in (ctx_hidesmall, ctx_drift):
        for _ in range(20):
            z = rng.uniform(-3, 3)
            u = rng.uniform(-1.5, 1.5, size=6)
            p = rng.uniform(-1, 1)
            assert _f1_row(z, u, p, ctx) == pytest.approx(
                _hand_f1(z, u, p, ctx), rel=1e-12, abs=1e-12)


def test_driver_matches_hand_reimplementation(ctx_hidesmall, ctx_hidelarge,
                                              ctx_nosignal, ctx_drift, rng):
    for ctx in (ctx_hidesmall, ctx_hidelarge, ctx_nosignal, ctx_drift):
        rows = [(rng.uniform(-3, 3), rng.uniform(-1.5, 1.5, size=6))
                for _ in range(8)]
        z = np.array([r[0] for r in rows])
        u = np.array([r[1] for r in rows])
        vals, p0 = driver_f_batch(z, u, ctx)
        for j in range(z.size):
            assert vals[j] == pytest.approx(_hand_driver(z[j], u[j], ctx),
                                            rel=1e-9, abs=1e-9)
        assert np.all(p0 >= -ctx.pi_lower - 1e-9)
        assert np.all(p0 <= ctx.pi_upper + 1e-9)


def test_driver_boundary_argmin(ctx_drift):
    # C = 3.75 centres the quadratic at sigma p = 3.75, far beyond the box
    _, p0 = _f_row(0.0, np.zeros(6), ctx_drift)
    assert p0 == pytest.approx(1.0, abs=1e-9)


def test_minimizer_against_bruteforce(ctx_hidesmall, ctx_drift, rng):
    p_grid = np.linspace(-1.0, 1.0, 400001)
    for ctx in (ctx_hidesmall, ctx_drift):
        for _ in range(4):
            z = rng.uniform(-3, 3)
            u = rng.uniform(-1.5, 1.5, size=6)
            vals = np.array([_hand_f1(z, u, p, ctx) for p in
                             p_grid[::2000]])  # coarse locate
            # refine around the coarse basin with a dense vectorized scan
            j = int(np.argmin(vals))
            lo = p_grid[::2000][max(j - 1, 0)]
            hi = p_grid[::2000][min(j + 1, vals.size - 1)]
            dense = np.linspace(lo, hi, 200001)
            dvals = 0.5 * ctx.lam * (ctx.sigma * dense - (z + ctx.c_const)) ** 2
            ns = ~ctx.sig_mask
            for i in np.flatnonzero(ns):
                x = u[i] - dense * ctx.eta_g[i]
                dvals += ((np.exp(ctx.lam * x) - ctx.lam * x - 1.0) / ctx.lam
                          - dense * ctx.eta_g[i]) * ctx.nu_g[i]
            k = int(np.argmin(dvals))
            _, p0 = _f_row(z, u, ctx)
            assert _f1_row(z, u, p0, ctx) <= dvals[k] + 1e-10
            assert abs(p0 - dense[k]) < 1e-4


def test_minimizer_quadratic_family(rng):
    targets = rng.uniform(-2.0, 2.0, size=64)
    p, v = minimize_on_interval(lambda P: (P - targets) ** 2, -1.0, 1.0)
    assert p == pytest.approx(np.clip(targets, -1, 1), abs=1e-9)
    # boundary minima carry first-order value error of order tol
    assert np.all(v <= (np.clip(targets, -1, 1) - targets) ** 2 + 1e-9)
    with pytest.raises(ValueError):
        minimize_on_interval(lambda P: P, 1.0, 0.0)


def test_argmin_matches_derivative_root(ctx_hidesmall, ctx_hidelarge, ctx_drift,
                                        rng):
    # the argmin is the clipped root of the increasing derivative: brentq
    # on the hand-written slope, or the end of the box the slope points to
    def root(z, u, ctx):
        lo, hi = -ctx.pi_lower, ctx.pi_upper
        if _hand_f1_slope(z, u, lo, ctx) >= 0.0:
            return lo
        if _hand_f1_slope(z, u, hi, ctx) <= 0.0:
            return hi
        return brentq(lambda p: _hand_f1_slope(z, u, p, ctx), lo, hi,
                      xtol=1e-15, rtol=8.9e-16, maxiter=200)

    n_inside = 0
    for ctx in (ctx_hidesmall, ctx_hidelarge, ctx_drift):
        z = rng.uniform(-3, 3, size=40)
        u = rng.uniform(-1.5, 1.5, size=(40, 6))
        _, p0 = driver_f_batch(z, u, ctx)
        for j in range(z.size):
            assert abs(p0[j] - root(z[j], u[j], ctx)) <= 1e-12
        n_inside += int(np.count_nonzero(np.abs(p0) < 1.0))
    assert n_inside >= 20  # the interior roots are exercised, not only ends
    # C = 3.75 puts every drift row at the upper end, exactly
    assert np.all(p0 == ctx_drift.pi_upper)


def test_driver_batch_matches_scalar(ctx_hidesmall, ctx_hidelarge, ctx_drift, rng):
    # a row's search does not depend on its batch, its value only through
    # BLAS and reduction rounding; where the cap of f_m can bind, its golden-section
    # argmin compares objective values, which places it no closer than
    # about sqrt(eps); everywhere else the argmin is a Newton root
    n = 20
    z = rng.uniform(-4, 4, size=n)
    u = rng.uniform(-2, 2, size=(n, 6))
    n_capped = 0
    # hide-large leaves the e = 2 bins without a signal, whose eta = 6.4
    # lets the cap bind at the small levels
    for ctx in (ctx_hidesmall, ctx_drift, ctx_hidelarge):
        vals, p0 = driver_f_batch(z, u, ctx)
        for m in (2, 20):
            fm_vals, fm_p0 = penalized_driver_fm_batch(z, u, m, ctx)
            capped = _hand_capped(u, m, ctx)
            n_capped += int(capped.sum())
            for j in range(n):
                vj, pj = penalized_driver_fm_batch([z[j]], u[j], m, ctx)
                assert fm_vals[j] == pytest.approx(vj[0], rel=1e-14, abs=0.0)
                assert abs(fm_p0[j] - pj[0]) <= (1e-7 if capped[j] else 1e-12)
        for j in range(n):
            vj, pj = _f_row(z[j], u[j], ctx)
            assert vals[j] == pytest.approx(vj, rel=1e-14, abs=0.0)
            assert abs(p0[j] - pj) <= 1e-12
        # one level per row equals one call per level, row by row; rows
        # with no active truncation give f among the others
        ms = np.resize([1, 2, 3, 5, 20], n)
        exact = fm_exact_threshold(z, u, ctx) < ms
        assert exact.any() and not exact.all()
        fm_vals, fm_p0 = penalized_driver_fm_batch(z, u, ms, ctx)
        assert fm_vals[exact] == pytest.approx(vals[exact], rel=1e-14, abs=0.0)
        assert np.all(np.abs(fm_p0[exact] - p0[exact]) <= 1e-12)
        capped = _hand_capped(u, ms, ctx)
        n_capped += int(capped.sum())
        for m in np.unique(ms):
            at = ms == m
            vm, pm = penalized_driver_fm_batch(z[at], u[at], int(m), ctx)
            assert fm_vals[at] == pytest.approx(vm, rel=1e-14, abs=0.0)
            assert np.all(np.abs(fm_p0[at] - pm) <= np.where(capped[at], 1e-7, 1e-12))
    assert n_capped > 0  # both tolerances are exercised
    with pytest.raises(ValueError):
        driver_f_batch(z, u[:1], ctx_hidesmall)


def test_fm_argmin_matches_derivative_root(ctx_hidesmall, ctx_hidelarge,
                                           ctx_drift, spec_small, grid_small, rng):
    # where the cap cannot bind, f1_m is convex and its argmin is the
    # clipped root of the hand-written slope of f1_m; on the symmetric
    # grids sum nu_i eta_i vanishes over the no-signal and the active bins,
    # so a grid with twice the mass on the positive marks checks those terms
    from jumpsignal import DiscreteJumpGrid, DriverContext, HideSmall

    skew = DiscreteJumpGrid(grid_small.points, grid_small.weights * [1, 1, 1, 2, 2, 2],
                            grid_small.eta)
    ctx_skew = DriverContext(spec_small, skew, HideSmall(c=0.7), lam=0.4)
    ns = ~ctx_skew.sig_mask
    assert abs(ctx_skew.eta_g[ns] @ ctx_skew.nu_g[ns]) > 0.01
    def root(z, u, m, ctx):
        lo, hi = -ctx.pi_lower, ctx.pi_upper
        if _hand_fm1_slope(z, u, lo, m, ctx) >= 0.0:
            return lo
        if _hand_fm1_slope(z, u, hi, m, ctx) <= 0.0:
            return hi
        return brentq(lambda p: _hand_fm1_slope(z, u, p, m, ctx), lo, hi,
                      xtol=1e-15, rtol=8.9e-16, maxiter=200)

    n_inside = n_ends = n_capped = 0
    for ctx in (ctx_hidesmall, ctx_hidelarge, ctx_drift, ctx_skew):
        n = 200
        z = rng.uniform(-6, 6, size=n)
        u = rng.uniform(-3, 3, size=(n, 6))
        ms = rng.integers(1, 21, size=n)
        _, p0 = penalized_driver_fm_batch(z, u, ms, ctx)
        capped = _hand_capped(u, ms, ctx)
        for j in np.flatnonzero(~capped):
            assert abs(p0[j] - root(z[j], u[j], ms[j], ctx)) <= 1e-12
        free = p0[~capped]
        n_inside += int(np.count_nonzero(np.abs(free) < 1.0))
        n_ends += int(np.count_nonzero(np.abs(free) == 1.0))
        n_capped += int(capped.sum())
    # interior roots, box ends and capped rows all occur
    assert n_inside >= 20 and n_ends >= 20 and n_capped >= 5


def test_fm_capped_row_takes_the_global_minimum(ctx_hidesmall):
    # z = 4.5 fades the quadratic to half at m = 4, and u = 6 on the 0.5
    # bin puts the cap's knee inside the box: f1_m has a local minimum at
    # the upper end and its global one inside, and Newton on the slope of
    # the cap-free rows would end at the upper end
    z, m = 4.5, 4
    u = np.array([0.0, 0.0, 4.0, 6.0, 0.0, 0.0])
    assert _hand_capped(u, m, ctx_hidesmall).all()
    P = np.linspace(-1.0, 1.0, 400001)
    dense = _NoSignalPart(np.full(P.size, z), np.tile(u, (P.size, 1)),
                          ctx_hidesmall, np.full(P.size, m), cap=True)(P)
    d = np.diff(dense)
    inner = np.flatnonzero((d[:-1] < 0.0) & (d[1:] > 0.0)) + 1
    # the premise: one interior minimum, a second at the upper end, 0.05 above
    assert inner.size == 1 and d[-1] < 0.0
    assert dense[-1] - dense[inner[0]] > 0.05
    k = int(np.argmin(dense))
    vals, p0 = penalized_driver_fm_batch([z], u, m, ctx_hidesmall)
    assert abs(p0[0] - P[k]) < 1e-5
    sig = _signal_sum(u[None, :], ctx_hidesmall, np.array([m]))
    tail = ctx_hidesmall.affine_tail(z)
    assert vals[0] == pytest.approx(dense[k] + sig[0] + tail, rel=0.0, abs=1e-9)
    assert vals[0] <= dense[k] + sig[0] + tail + 1e-12


def test_fm_capped_rows_no_worse_than_a_grid(ctx_hidesmall, ctx_hidelarge, ctx_drift):
    # every row whose cap can bind, through a bin of either sign of eta,
    # reaches the lowest of 4001 evenly spaced positions to 1e-9: the scan
    # plus golden section leaves boundary minima about 1e-10 inside the box
    rng = np.random.default_rng(67)
    P = np.linspace(-1.0, 1.0, 4001)
    n_capped = 0
    for ctx in (ctx_hidesmall, ctx_hidelarge, ctx_drift):
        z = rng.uniform(-6, 6, size=400)
        u = rng.uniform(-3, 5, size=(400, 6))
        ms = rng.integers(1, 9, size=400)
        capped = _hand_capped(u, ms, ctx)
        z, u, ms = z[capped], u[capped], ms[capped]
        _, p0 = penalized_driver_fm_batch(z, u, ms, ctx)
        f1 = _NoSignalPart(z, u, ctx, ms, cap=True)
        lowest = np.min([f1(p) for p in P], axis=0)
        assert np.all(f1(p0) <= lowest + 1e-9 * np.maximum(1.0, np.abs(lowest)))
        n_capped += int(capped.sum())
    assert n_capped >= 200


def test_newton_bisects_a_nan_step(ctx_hidesmall):
    # a convex slope with a flat stretch and no curvature: on it the Newton
    # step is 0 / 0, which must bisect, not become the position
    class Flat:
        zc = np.zeros(3)

        def slope(self, P):
            P = np.asarray(P, dtype=float)
            return np.minimum(P - 0.2, 0.0) + np.maximum(P - 0.5, 0.0), np.zeros_like(P)

    with warnings.catch_warnings():
        warnings.simplefilter("error")
        p = _exact_argmin(Flat(), ctx_hidesmall)
    assert np.all((p >= 0.2) & (p <= 0.5))


def test_fm_newton_no_worse_than_golden(ctx_hidesmall, ctx_hidelarge, ctx_drift):
    # on the same prepared f1_m, the Newton minimum of a cap-free row is
    # never above the scan plus golden-section minimum, beyond rounding
    rng = np.random.default_rng(61)
    lower = 0
    n_rows = 0
    for ctx in (ctx_hidesmall, ctx_hidelarge, ctx_drift):
        z = rng.uniform(-6, 6, size=300)
        u = rng.uniform(-3, 3, size=(300, 6))
        ms = rng.integers(1, 21, size=300)
        free = ~_hand_capped(u, ms, ctx)
        f1 = _NoSignalPart(z[free], u[free], ctx, ms[free])
        v_newton = f1(_exact_argmin(f1, ctx))
        _, v_golden = minimize_on_interval(f1, -ctx.pi_lower, ctx.pi_upper)
        scale = np.maximum(1.0, np.abs(v_golden))
        assert np.all(v_newton <= v_golden + 1e-13 * scale)
        lower += int(np.count_nonzero(v_newton < v_golden))
        n_rows += int(free.sum())
    assert lower >= n_rows // 2  # and strictly lower on most rows


@pytest.mark.parametrize("m", [
    2.5,                          # not integral
    0,                            # below 1
    -3,
    np.array([1, 2, 2.5, 4]),     # one entry not integral
    np.array([1, 2, 0, 4]),       # one entry below 1
    np.array([np.nan, 1, 2, 3]),  # not finite
    np.array([1, 2, 3]),          # one level short of the rows
    np.array([2]),                # one level, but not a scalar
    np.ones((4, 1), dtype=int),   # not one level per row
    np.array([True, True, True, True]),
], ids=["fraction", "zero", "negative", "row-fraction", "row-zero", "row-nan",
        "short", "single", "column", "bool"])
def test_fm_rejects_invalid_levels(ctx_hidesmall, m):
    z = np.linspace(-1.0, 1.0, 4)
    u = np.zeros((4, 6))
    with pytest.raises(ValueError):
        penalized_driver_fm_batch(z, u, m, ctx_hidesmall)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_drivers_reject_a_z_that_is_not_finite(ctx_hidesmall, bad):
    # as for u: a nan z would give f = nan with a made-up argmin
    z = np.array([bad, 1.0])
    u = np.zeros((2, 6))
    with pytest.raises(ValueError, match="z must be finite"):
        driver_f_batch(z, u, ctx_hidesmall)
    with pytest.raises(ValueError, match="z must be finite"):
        penalized_driver_fm_batch(z, u, 2, ctx_hidesmall)


@pytest.mark.parametrize("z", [1e200, -1e200])
def test_drivers_reject_a_value_that_is_not_finite(ctx_hidesmall, z):
    # a finite z too large for the quadratic: f overflows to inf, and
    # f_m, whose fade is 0 there, to 0 * inf = NaN; both must raise and
    # name the z, without a numpy warning; u = 5 takes f_m's capped scan
    Z = np.array([1.0, z])
    named = re.escape(f"not finite at z = {z:.6g}:")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for u in (np.zeros((2, 6)), np.full((2, 6), 5.0)):
            with pytest.raises(ValueError, match=named):
                driver_f_batch(Z, u, ctx_hidesmall)
            with pytest.raises(ValueError, match=named):
                penalized_driver_fm_batch(Z, u, 2, ctx_hidesmall)


def test_driver_overflow_guard(ctx_hidesmall):
    with pytest.raises(ValueError):
        _f_row(0.0, np.full(6, 3000.0), ctx_hidesmall)


def test_overflow_guard_precedes_exp(ctx_hidesmall):
    # the exponent is linear in p and the guard sees both ends of the box
    # first, so it raises before any exponential overflows
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="overflow guard"):
            _f_row(0.0, np.full(6, 3000.0), ctx_hidesmall)


def test_p_star(ctx_hidesmall, ctx_hidelarge):
    # signal g > 0 trades pi_upper, g < 0 trades -pi_lower: the boundary
    # position of each bin follows the sign of its mark
    for ctx in (ctx_hidesmall, ctx_hidelarge):
        assert np.array_equal(ctx.boundary_p, [-1.0, -1.0, -1.0, 1.0, 1.0, 1.0])
    # g = 0: the no-signal argmin, inside the box and, to the minimizer
    # tolerance, no worse than either end of it
    u = np.array([0.2, -0.1, 0.05, 0.0, 0.3, -0.2])
    _, p0 = _f_row(0.7, u, ctx_hidesmall)
    assert -1.0 <= p0 <= 1.0
    ends = [_f1_row(0.7, u, p, ctx_hidesmall) for p in (-1.0, 1.0)]
    assert _f1_row(0.7, u, p0, ctx_hidesmall) <= min(ends) + 1e-10


def test_scenario_limit_bit_exact(spec_small, grid_small, ctx_nosignal, rng):
    from jumpsignal import DriverContext, HideLarge, HideSmall

    ctx_hs = DriverContext(spec_small, grid_small, HideSmall(c=5.0), lam=0.4)
    ctx_hl = DriverContext(spec_small, grid_small, HideLarge(c=0.2), lam=0.4)
    z = rng.uniform(-3, 3, size=50)
    u = rng.uniform(-1.5, 1.5, size=(50, 6))
    f0, p0 = driver_f_batch(z, u, ctx_nosignal)
    for ctx in (ctx_hs, ctx_hl):
        f, p = driver_f_batch(z, u, ctx)
        assert np.array_equal(f, f0) and np.array_equal(p, p0)


def test_sandwich_and_monotone(ctx_hidesmall, ctx_hidelarge, rng):
    # the affine/quadratic sandwich is exercised at C = 0
    for ctx in (ctx_hidesmall, ctx_hidelarge):
        rows = [(rng.uniform(-4, 4), rng.uniform(-2, 2, size=6),
                 int(rng.integers(1, 20))) for _ in range(60)]
        z = np.array([r[0] for r in rows])
        u = np.array([r[1] for r in rows])
        ms = np.array([r[2] for r in rows])
        fm_val, _ = penalized_driver_fm_batch(z, u, ms, ctx)
        fm_next, _ = penalized_driver_fm_batch(z, u, ms + 1, ctx)
        f, _ = driver_f_batch(z, u, ctx)
        lo, hi = driver_bounds(z, u, ctx)
        scale = np.maximum(1.0, np.maximum(np.abs(fm_val), np.abs(f)))
        assert np.all((lo - 1e-10 <= fm_val) & (fm_val <= hi + 1e-10))
        assert np.all((lo - 1e-10 <= f) & (f <= hi + 1e-10))
        assert np.all(fm_next >= fm_val - 1e-12 * scale)
        assert np.all(f >= fm_val - 1e-12 * scale)


def test_driver_bounds_values(ctx_hidesmall):
    # lower has the shape of z, upper one entry per row of u
    lo, (hi,) = driver_bounds(0.0, np.zeros(6), ctx_hidesmall)
    assert np.ndim(lo) == 0
    assert lo == pytest.approx(-2.0 * ABS_ETA_SMALL, rel=1e-13)
    assert hi == 0.0
    lo2, (hi2,) = driver_bounds(2.0, np.ones(6), ctx_hidesmall)
    assert lo2 == lo  # C = 0: no z term in the lower bound
    assert hi2 == pytest.approx(0.2 * 4.0 + H_04_1 * 0.8, rel=1e-12)


def test_fm_exact_threshold_and_exactness(ctx_hidesmall):
    z = 1.5
    u = np.array([0.3, -0.2, 0.1, 0.4, -0.1, 2.2])
    (thresh,) = fm_exact_threshold(z, u, ctx_hidesmall)  # one row
    # max over |z|, |u|_inf, u_i + pmax |eta_i| (= 2.2 + 0.99), 1/e_1
    assert thresh == pytest.approx(3.19, rel=1e-14)
    m_star = int(math.floor(thresh)) + 1
    f, _ = _f_row(z, u, ctx_hidesmall)
    assert _fm_row(z, u, m_star, ctx_hidesmall) == f
    assert _fm_row(z, u, 50, ctx_hidesmall) == f
    assert _fm_row(z, u, 1, ctx_hidesmall) != f
    with pytest.raises(ValueError):
        _fm_row(z, u, 0, ctx_hidesmall)


def test_fm_hand_reimplementation(ctx_hidesmall):
    # m = 1 on the small grid drops every |e| <= 1 bin from the h-sums:
    # no-signal bins vanish entirely, signal h-terms survive on +-2 only
    lam = 0.4
    grid = ctx_hidesmall.grid
    nu = grid.weights

    def hand_fm1(z, u):
        def obj(p):
            quad = 0.5 * lam * (0.2 * p - z) ** 2
            quad *= min(max(min(z + 2.0, 2.0 - z), 0.0), 1.0)
            lin_ns = -p * (0.5 * nu[3] - 0.5 * nu[2])
            return quad + lin_ns
        fmin = _hand_min(obj, -1.0, 1.0)
        sig = 0.0
        for i, b in ((0, -1.0), (5, 1.0)):
            x = u[i] - b * ctx_hidesmall.eta_g[i]
            x_phi = x if x <= 1.0 else 1.0 + math.atan(x - 1.0)
            fade = min(max(min(u[i] + 2.0, 2.0 - u[i]), 0.0), 1.0)
            sig += _hand_h(x_phi, lam) * fade * nu[i]
        for i in (0, 1, 4, 5):
            b = 1.0 if grid.points[i] > 0 else -1.0
            sig -= b * ctx_hidesmall.eta_g[i] * nu[i]
        return fmin + sig

    rng = np.random.default_rng(33)
    for _ in range(10):
        z = rng.uniform(-3, 3)
        u = rng.uniform(-2.5, 2.5, size=6)
        got = _fm_row(z, u, 1, ctx_hidesmall)
        assert got == pytest.approx(hand_fm1(z, u), rel=1e-9, abs=1e-9)


def test_fm_dropped_bins_are_inert(ctx_hidesmall):
    # m = 1: changing u on any |e| <= 1 bin cannot move f_1
    z = 0.4
    u1 = np.array([0.5, 0.1, -0.3, 0.2, -0.4, 0.6])
    u2 = u1.copy()
    u2[[1, 2, 3, 4]] += 0.7  # bins at +-0.5 and +-1
    assert _fm_row(z, u1, 1, ctx_hidesmall) == _fm_row(z, u2, 1, ctx_hidesmall)
    f1_val, _ = _f_row(z, u1, ctx_hidesmall)
    f2_val, _ = _f_row(z, u2, ctx_hidesmall)
    assert f1_val != f2_val


def test_local_lipschitz_constant(ctx_hidesmall, ctx_drift, rng):
    # lam max(1/2, sigma pi_max) = 0.4 max(0.5, 0.2): no term in C
    assert local_lipschitz_constant(ctx_hidesmall) == 0.2
    assert local_lipschitz_constant(ctx_drift) == 0.2
    K = local_lipschitz_constant(ctx_drift)
    rows = [(rng.uniform(-5, 5, size=2), rng.uniform(-2, 2, size=6))
            for _ in range(40)]
    z1, z2 = np.array([z for z, _ in rows]).T
    u = np.array([u for _, u in rows])
    f1v, _ = driver_f_batch(z1, u, ctx_drift)
    f2v, _ = driver_f_batch(z2, u, ctx_drift)
    assert np.all(np.abs(f1v - f2v)
                  <= K * (1 + np.abs(z1) + np.abs(z2)) * np.abs(z1 - z2) + 1e-10)


def test_context_validation(spec_small, grid_small):
    from jumpsignal import DriverContext, NoSignal

    with pytest.raises(ValueError):
        DriverContext(spec_small, grid_small, NoSignal(), lam=0.0)
    with pytest.raises(ValueError):
        DriverContext(spec_small, grid_small, NoSignal(), lam=0.4, pi_lower=-0.5)


# Verbatim copies of the no-signal objective, its slope, the signal sum and
# the helpers they called before the kernels were prepared once per call:
# the oracle for the bit-identity of the prepared kernels.

def _old_guarded_exp(arg):
    a = np.asarray(arg, dtype=float)
    if np.any(a > 700.0):
        raise ValueError("overflow guard")
    return np.exp(a)


def _old_h_lambda(x, lam):
    x = np.asarray(x, dtype=float)
    return (_old_guarded_exp(lam * x) - lam * x - 1.0) / lam


def _old_rho_m(x, m):
    x = np.asarray(x, dtype=float)
    return np.clip(np.minimum(x + m + 1.0, m + 1.0 - x), 0.0, 1.0)


def _old_phi_m(x, m):
    x = np.asarray(x, dtype=float)
    return np.where(x <= m, x, m + np.arctan(np.where(x > m, x - m, 0.0)))


def _old_nosignal_objective(Z, U, P, ctx, m=None):
    lam = ctx.lam
    ns = ~ctx.sig_mask
    eta = ctx.eta_g[ns]
    nu = ctx.nu_g[ns]
    x = U[:, ns] - np.multiply.outer(P, eta)
    quad = 0.5 * lam * (ctx.sigma * P - (Z + ctx.c_const)) ** 2
    lin = -P * float(eta @ nu)
    if m is None:
        hsum = _old_h_lambda(x, lam) @ nu
    else:
        m_col = np.asarray(m, dtype=float)[..., None]
        active = np.abs(ctx.grid.points[ns]) > 1.0 / m_col
        hsum = (_old_h_lambda(_old_phi_m(x, m_col), lam) * active) @ nu
        quad = quad * _old_rho_m(Z, m)
    return quad + hsum + lin


def _old_nosignal_slope(Z, U, P, ctx):
    lam, sigma = ctx.lam, ctx.sigma
    ns = ~ctx.sig_mask
    eta = ctx.eta_g[ns]
    nu_eta = ctx.nu_g[ns] * eta
    e = _old_guarded_exp(lam * (U[:, ns] - np.multiply.outer(P, eta)))
    d1 = lam * sigma * (sigma * P - (Z + ctx.c_const)) - e @ nu_eta
    d2 = lam * sigma ** 2 + lam * (e @ (nu_eta * eta))
    return d1, d2


def _old_signal_sum(U, ctx, m=None):
    sig = ctx.sig_mask
    if not np.any(sig):
        return np.zeros(U.shape[0])
    eta = ctx.eta_g[sig]
    nu = ctx.nu_g[sig]
    x = U[:, sig] - ctx.boundary_p[sig][None, :] * eta[None, :]
    lin = -float((ctx.boundary_p[sig] * eta) @ nu) * np.ones(U.shape[0])
    if m is None:
        return _old_h_lambda(x, ctx.lam) @ nu + lin
    m_col = np.asarray(m, dtype=float)[..., None]
    active = np.abs(ctx.grid.points[sig]) > 1.0 / m_col
    hterm = _old_h_lambda(_old_phi_m(x, m_col), ctx.lam) * _old_rho_m(U[:, sig], m_col)
    return (hterm * active) @ nu + lin


def _same_bits(a, b):
    return np.array_equal(np.asarray(a, dtype=float).view(np.int64),
                          np.asarray(b, dtype=float).view(np.int64))


@pytest.fixture(scope="module")
def ctx_reference():
    from jumpsignal.config import ExperimentConfig

    cfg = ExperimentConfig()
    spec = cfg.market_spec()
    return cfg.driver_context(spec, cfg.jump_grid(spec), cfg.scenarios()[0])


@pytest.mark.parametrize("n_rows", [64, 1000])
@pytest.mark.parametrize("ctx_name", ["ctx_hidesmall", "ctx_hidelarge",
                                      "ctx_nosignal", "ctx_drift",
                                      "ctx_reference"])
def test_prepared_kernels_match_the_oracle(ctx_name, n_rows, request):
    # bit for bit: the prepared objective, slope and signal sum keep the
    # operation order of the per-call formulas, exactly or at one level per
    # row (the levels a driver call passes), at the positions a driver call
    # passes: f takes one position per row, f_m a shared scalar too
    ctx = request.getfixturevalue(ctx_name)
    rng = np.random.default_rng(41)
    z = rng.uniform(-5.0, 5.0, size=n_rows)
    u = rng.uniform(-2.0, 2.0, size=(n_rows, ctx.grid.points.size))
    ms = rng.integers(1, 21, size=n_rows)
    positions = [-ctx.pi_lower, 0.3, ctx.pi_upper,
                 rng.uniform(-ctx.pi_lower, ctx.pi_upper, size=n_rows)]
    row_positions = [np.full(n_rows, P) for P in positions]
    capped = 0
    # f is the kernel at m = inf, without the cap, as f's rows take it; the
    # oracle's f is its m None, and the oracle caps every f_m row
    for m in (math.inf, ms, np.full(n_rows, 1), np.full(n_rows, 20)):
        old_m = None if m is math.inf else m
        f1 = _NoSignalPart(z, u, ctx, m, cap=old_m is not None)
        for P in row_positions if m is math.inf else positions:
            want = _old_nosignal_objective(z, u, P, ctx, old_m)
            assert _same_bits(f1(P), want)
            if m is not math.inf:
                x = u[:, ~ctx.sig_mask] - np.multiply.outer(P, ctx.eta_g[~ctx.sig_mask])
                capped += int(np.count_nonzero(x > m[:, None]))
        assert _same_bits(_signal_sum(u, ctx, m), _old_signal_sum(u, ctx, old_m))
    assert capped > 0  # the phi_m cap is exercised
    f1 = _NoSignalPart(z, u, ctx)
    for P in row_positions:
        want = _old_nosignal_slope(z, u, P, ctx)
        for got in (f1.slope(P), nosignal_slope(z, u, P, ctx)):
            assert _same_bits(got[0], want[0]) and _same_bits(got[1], want[1])


@pytest.mark.parametrize("ctx_name", ["ctx_hidesmall", "ctx_hidelarge",
                                      "ctx_nosignal", "ctx_drift",
                                      "ctx_reference"])
def test_f_is_fm_at_infinity(ctx_name, request):
    # f is the driver kernel at the level m = inf, one for all rows or one
    # per row, bit for bit in value and argmin
    ctx = request.getfixturevalue(ctx_name)
    rng = np.random.default_rng(43)
    z = rng.uniform(-5.0, 5.0, size=300)
    u = rng.uniform(-2.0, 2.0, size=(300, ctx.grid.points.size))
    vals, p0 = driver_f_batch(z, u, ctx)
    for m in (math.inf, np.full(z.size, math.inf)):
        vals_m, p0_m = _driver_rows(z, u, ctx, m)
        assert _same_bits(vals_m, vals) and _same_bits(p0_m, p0)
    # past a row's threshold no bin is dropped and the fade is 1, so the
    # no-signal part of f_m does f's arithmetic, value and slope
    m = np.floor(fm_exact_threshold(z, u, ctx)).astype(int) + 1
    P = rng.uniform(-ctx.pi_lower, ctx.pi_upper, size=z.size)
    f1, f1_m = _NoSignalPart(z, u, ctx), _NoSignalPart(z, u, ctx, m)
    assert _same_bits(f1_m(P), f1(P))
    assert all(_same_bits(a, b) for a, b in zip(f1_m.slope(P), f1.slope(P)))


def test_cap_free_fm_rows_skip_the_cap(ctx_nosignal, monkeypatch):
    # phi_m is the identity at every position of the box on a row whose
    # cap cannot bind, so f_m's Newton rows never apply it; the rows whose
    # cap can bind do (ctx_nosignal has no signal sum to apply it)
    from jumpsignal import drivers

    calls = []
    phi = drivers._phi_m_inplace
    monkeypatch.setattr(drivers, "_phi_m_inplace",
                        lambda x, m: calls.append(x.shape) or phi(x, m))
    rng = np.random.default_rng(73)
    z = rng.uniform(-5.0, 5.0, size=500)
    u = rng.uniform(-2.0, 2.0, size=(500, 6))
    ms = rng.integers(1, 21, size=500)
    free = ~_hand_capped(u, ms, ctx_nosignal)
    assert free.sum() >= 100 and (~free).sum() >= 10
    penalized_driver_fm_batch(z[free], u[free], ms[free], ctx_nosignal)
    assert calls == []
    penalized_driver_fm_batch(z, u, ms, ctx_nosignal)
    assert calls and all(shape[0] == (~free).sum() for shape in calls)


def test_fm_past_the_threshold_at_the_reference_grid(ctx_reference):
    # on the reference grid the threshold is at least 1/e_1 = 20, so the
    # driver checks' levels 1..20 never pass it; levels past it leave no
    # truncation of f_m active, and f_m gives f within the bounds of a
    # batch against one row (rel 1e-14 in value, 1e-12 in position)
    ctx = ctx_reference
    rng = np.random.default_rng(53)
    n = 300
    z = np.concatenate([rng.uniform(-5.0, 5.0, n - 50), rng.uniform(-40.0, 40.0, 50)])
    u = rng.uniform(-2.0, 2.0, size=(n, ctx.grid.points.size))
    u[-20:] *= 15.0  # thresholds from |u| too
    thresh = fm_exact_threshold(z, u, ctx)
    assert np.all(thresh >= 1.0 / ctx.grid.points[ctx.grid.q]) and thresh.min() == 20.0
    m_exact = np.floor(thresh).astype(int) + rng.integers(1, 5, n)
    for m in (m_exact, 21):
        at = thresh < m
        assert at.sum() >= n - 100
        fm_vals, fm_p0 = penalized_driver_fm_batch(z[at], u[at], np.broadcast_to(m, n)[at], ctx)
        vals, p0 = driver_f_batch(z[at], u[at], ctx)
        assert fm_vals == pytest.approx(vals, rel=1e-14, abs=0.0)
        assert np.all(np.abs(fm_p0 - p0) <= 1e-12)
    # no truncation of f_m is active there, so its penalized objective and
    # signal sum equal f's up to operation order
    P = rng.uniform(-ctx.pi_lower, ctx.pi_upper, size=n)
    want = _NoSignalPart(z, u, ctx)(P) + _signal_sum(u, ctx)
    got = _NoSignalPart(z, u, ctx, m_exact)(P) + _signal_sum(u, ctx, m_exact)
    assert np.allclose(got, want, rtol=1e-13, atol=0.0)
    # a batch mixing rows past the threshold with penalized rows gives each
    # row what its own kind of rows give alone, and f past the threshold
    ms = np.where(np.arange(n) % 3 == 0, m_exact, rng.integers(1, 21, n))
    exact = thresh < ms
    assert 50 <= exact.sum() <= n - 50
    p_tol = np.where(_hand_capped(u, ms, ctx), 1e-7, 1e-12)
    mixed_vals, mixed_p0 = penalized_driver_fm_batch(z, u, ms, ctx)
    for rows in (exact, ~exact):
        v, p = penalized_driver_fm_batch(z[rows], u[rows], ms[rows], ctx)
        assert mixed_vals[rows] == pytest.approx(v, rel=1e-14, abs=0.0)
        assert np.all(np.abs(mixed_p0[rows] - p) <= p_tol[rows])
    vals, p0 = driver_f_batch(z[exact], u[exact], ctx)
    assert mixed_vals[exact] == pytest.approx(vals, rel=1e-14, abs=0.0)
    assert np.all(np.abs(mixed_p0[exact] - p0) <= 1e-12)
