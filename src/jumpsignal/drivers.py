"""BSDE drivers for the jump-signal utility problem.

The driver f(z, u) is built from a pointwise infimum over the trading
position p in [-pi_lower, pi_upper]:

* a no-signal part, strictly convex in p, mixing the quadratic
  (lam/2)(sigma p - (z + C))^2 with the exponential jump integrand
  over the bins whose jumps carry no signal; its argmin is the clipped
  root of the increasing derivative f1', found by safeguarded Newton,
* a signal part where the optimal position is known in closed form:
  pi_upper when the signal is positive, -pi_lower when negative (eta
  keeps the sign of the signal, so the objective is monotone in p), so
  the bins are summed at those boundary positions,
* an affine tail -lam C z - lam C^2 / 2, from completing the square in
  (lam/2)(sigma p - z)^2 - lam C sigma p, where lam C sigma = kappa minus
  the integral of eta d nu is the wealth's drift per unit position.

``penalized_driver_fm_batch`` implements the Lipschitz approximations f_m:
bins with |e_i| <= 1/m are zeroed in the exponential sums, the
quadratic is faded by rho_m(z), the exponential nonlinearity is tamed by
the arctan cap phi_m, and the signal branch is additionally faded by
rho_m(u_i). f_m is nondecreasing in m and coincides with f once every
truncation is inactive (see ``fm_exact_threshold``).

f is f_m at m = inf, where the fade is 1, no bin is dropped and the cap
is the identity: both drivers run one no-signal kernel
(``_NoSignalPart``) and one signal sum, and f does its operations bit
for bit. The kernel zeroes u and eta on a row's dropped bins and applies
phi_m only on the rows whose cap can bind somewhere in the box
(``_cap_can_bind``). Those take a coarse scan plus golden-section search
(``minimize_on_interval``), since the cap can make f1_m plateau or give
it several local minima. Every other row, each row of f included, has a
convex f1_m whose argmin is the clipped root of its slope, found by
safeguarded Newton (``_exact_argmin``).

The kernel is prepared once per path of a driver call, and each Newton
step or objective evaluation does only the p-dependent arithmetic, in
the operation order of the formulas evaluated in one go; each matrix
reaches BLAS in the memory order those gave it (BLAS picks its summation
order from it), so values and argmins are bit for bit the formulas'.

The exponentials of the utility problem (h_lam, the driver's slope, the
utilities and the value V) pass the guard of ``guarded_exp``: an exponent beyond
``EXP_ARG_MAX`` = 700 raises, because the bounded-solution regime never
gets near it and reaching it signals a bug upstream.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from .levy_model import DiscreteJumpGrid, LevyMarketSpec, SignalScenario

__all__ = [
    "DriverContext",
    "driver_f_batch",
    "penalized_driver_fm_batch",
    "driver_bounds",
    "local_lipschitz_constant",
    "fm_exact_threshold",
]

EXP_ARG_MAX = 700.0

# golden-section interior ratio
_INVPHI = (np.sqrt(5.0) - 1.0) / 2.0
# position minimizer of capped f_m rows: coarse scan points and absolute
# tolerance in p
_COARSE = 33
_TOL = 1e-10
# Newton argmin of f1 and cap-free f1_m: a row stops once its step is at most
# _NEWTON_TOL in p; no row takes more than _NEWTON_CAP iterations
_NEWTON_TOL = 1e-15
_NEWTON_CAP = 64


def guarded_exp(arg, exp=np.exp):
    """exp(arg) with a hard overflow guard on the exponent.

    Raises before any exponential is taken if an entry of arg exceeds
    ``EXP_ARG_MAX``. ``exp`` is the exponential applied after the check:
    the scalar value V of ``value_and_strategy`` has always been taken
    with ``math.exp``, whose last bit can differ from ``np.exp``.
    """
    a = np.asarray(arg, dtype=float)
    _guard_exponent(a)
    return exp(a)


def _guard_exponent(a):
    if a.size and a.max() > EXP_ARG_MAX:
        raise ValueError(
            f"exponent {np.max(a):.3g} exceeds the overflow guard {EXP_ARG_MAX}"
        )


def h_lambda(x, lam: float):
    """Convex function (e^(lam x) - lam x - 1) / lam, >= 0, zero at 0."""
    if not lam > 0:
        raise ValueError(f"lam must be > 0, got {lam}")
    return _h_lambda_of(lam * np.asarray(x, dtype=float), lam)


def _h_lambda_of(lx, lam: float, out=None):
    """h_lam(x) from lx = lam x, written into ``out`` (a new array if None)."""
    _guard_exponent(lx)
    h = np.exp(lx, out=out)
    h -= lx
    h -= 1.0
    h /= lam
    return h


def rho_m(x, m: int):
    """Plateau cutoff: 1 on [-m, m], linear to 0 on the unit bands outside."""
    return _rho_m_inplace(np.array(x, dtype=float), m)


def _rho_m_inplace(x, m):
    """``rho_m`` written over the float array x, with one more array."""
    up = x + m
    up += 1.0
    np.subtract(m + 1.0, x, out=x)
    np.minimum(up, x, out=x)
    return np.clip(x, 0.0, 1.0, out=x)


def phi_m(x, m: int):
    """Identity up to m, then m + arctan(x - m): caps growth above the knee."""
    return _phi_m_inplace(np.array(x, dtype=float), m)


def _phi_m_inplace(x, m):
    """``phi_m`` written over the float array x; arctan is taken only on
    the entries above the knee."""
    over = x > m
    if over.any():
        at = np.flatnonzero(over)
        m_over = np.broadcast_to(m, x.shape).flat[at]
        x.flat[at] = m_over + np.arctan(x.flat[at] - m_over)
    return x


def minimize_on_interval(objective: Callable, a: float, b: float):
    """Minimize a scalar-in-p objective on [a, b], independently per row.

    Used only for the f_m rows whose phi_m cap can bind; every other row
    of f or f_m takes the root of its slope (``_exact_argmin``). A coarse
    scan of ``_COARSE`` points brackets the global basin (the cap can
    flatten f1_m or give it several local minima), then golden-section
    search refines the bracket. Comparing objective values resolves the
    argmin only to about sqrt(eps). Every row takes the same number of
    golden-section steps: enough to shrink the widest bracket the scan can
    return, 2 (b - a) / (_COARSE - 1), below ``_TOL`` in p. No row's step
    count depends on the data or on the other rows of its batch; only its
    values' last bits can, through BLAS. ``objective`` maps a position (a
    scalar shared by every row, or one entry per row) to the per-row values.

    Returns
    -------
    (p_min, f_min) : per-row arrays.
    """
    if b < a:
        raise ValueError("empty search interval")
    span = b - a
    widest = 2.0 * span / (_COARSE - 1)
    n_steps = math.ceil(math.log(_TOL / widest, _INVPHI)) if widest > _TOL else 0

    # coarse bracket around the best scan point
    grid_t = np.linspace(0.0, 1.0, _COARSE)
    vals = np.stack([objective(a + t * span) for t in grid_t])
    best = np.argmin(vals, axis=0)
    lo = a + grid_t[np.maximum(best - 1, 0)] * span
    hi = a + grid_t[np.minimum(best + 1, _COARSE - 1)] * span

    c = hi - _INVPHI * (hi - lo)
    d = lo + _INVPHI * (hi - lo)
    fc = objective(c)
    fd = objective(d)
    for _ in range(n_steps):
        left = fc < fd
        hi = np.where(left, d, hi)
        lo = np.where(left, lo, c)
        width = hi - lo
        c = hi - _INVPHI * width
        d = lo + _INVPHI * width
        # one probe is inherited from the previous pair, the other is fresh
        fresh = objective(np.where(left, c, d))
        fc, fd = np.where(left, fresh, fd), np.where(left, fc, fresh)
    p = 0.5 * (lo + hi)
    return p, objective(p)


def _as_u_matrix(u, grid: DiscreteJumpGrid, n_rows: Optional[int] = None) -> np.ndarray:
    """Coerce u to a (rows, 2q) matrix aligned with the grid bins."""
    u = np.asarray(u, dtype=float)
    nb = grid.points.size
    if u.ndim == 1:
        if u.size != nb:
            raise ValueError(f"u must have {nb} entries, got {u.size}")
        u = u[None, :]
    elif u.ndim != 2 or u.shape[1] != nb:
        raise ValueError(f"u must be (rows, {nb}), got shape {u.shape}")
    if not np.all(np.isfinite(u)):
        raise ValueError("u must be finite on every bin")
    if n_rows is not None and u.shape[0] != n_rows:
        raise ValueError(f"u rows {u.shape[0]} != z rows {n_rows}")
    return u


@dataclass(frozen=True, eq=False)
class DriverContext:
    """Immutable evaluation context for the drivers.

    Holds the market, the jump grid, the scenario, the risk aversion and
    the position bounds, and derives from them what the drivers read:
    sigma, the risk-premium constant C = (kappa - int eta d nu) /
    (lam sigma), where the integral is zero because eta is odd and nu
    symmetric, so C = kappa / (lam sigma), and the scenario's split of
    the bins into no-signal bins (position chosen by the inner
    minimization) and signal bins (position pinned at the boundary by
    the signal's sign). The signal bins are the marks where the
    scenario's gamma is nonzero, so a cutoff equal to a mark follows
    gamma's inclusive test. ``ctx(Z, U)`` is ``driver_f_batch(Z, U, ctx)``:
    a context is a driver.
    """

    spec: LevyMarketSpec
    grid: DiscreteJumpGrid
    scenario: SignalScenario
    lam: float
    pi_lower: float = 1.0
    pi_upper: float = 1.0

    # derived, filled in __post_init__
    sigma: float = field(init=False)
    c_const: float = field(init=False)
    eta_g: np.ndarray = field(init=False, repr=False)
    nu_g: np.ndarray = field(init=False, repr=False)
    sig_mask: np.ndarray = field(init=False, repr=False)
    boundary_p: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        if not self.lam > 0:
            raise ValueError(f"lam must be > 0, got {self.lam}")
        if self.pi_lower < 0 or self.pi_upper < 0:
            raise ValueError("position bounds must be >= 0 so [-pi_lower, pi_upper] contains 0")
        object.__setattr__(self, "sigma", self.spec.sigma)
        object.__setattr__(self, "c_const", self.spec.kappa / (self.lam * self.spec.sigma))
        object.__setattr__(self, "eta_g", self.grid.eta)
        object.__setattr__(self, "nu_g", self.grid.weights)
        object.__setattr__(self, "sig_mask",
                           self.scenario.gamma(self.grid.points, self.spec) != 0)
        object.__setattr__(
            self, "boundary_p",
            np.where(self.grid.points > 0, self.pi_upper, -self.pi_lower),
        )

    def __call__(self, Z, U):
        return driver_f_batch(Z, U, self)

    def affine_tail(self, z):
        return -self.lam * self.c_const * np.asarray(z, dtype=float) \
            - self.lam * self.c_const ** 2 / 2.0


def u_lambda_norm(u, ctx: DriverContext):
    """Discrete norm sum_i h_lam(u_i) nu_i per row of u; zero iff the row
    vanishes on the grid."""
    return h_lambda(_as_u_matrix(u, ctx.grid), ctx.lam) @ ctx.nu_g


class _NoSignalPart:
    """The inner objective f1_m of the no-signal part on fixed rows (z, u),
    as a function of the position p: a scalar shared by every row, or one
    entry per row. ``m`` is one level per row or one for all rows; the
    default m = inf gives the exact f1, strictly convex in p.

    rho_m(z) (lam/2)(sigma p - (z + C))^2, plus h_lam(phi_m(u_i -
    p eta_i)) nu_i over the no-signal bins |e_i| > 1/m, plus -p eta_i nu_i
    over every no-signal bin. The cap and the fade can flatten f1_m, down
    to a constant in p once rho_m(z) = 0 and every no-signal bin is
    dropped. phi_m is applied only with ``cap``; on a row whose cap cannot
    bind it is the identity in the box, f1_m is convex and ``slope`` gives
    its derivatives.

    Everything that does not depend on p is set up once: the no-signal
    columns of U with the dropped bins' u and eta zeroed (their exponent
    is then 0 and their h-term exactly 0), z + C, rho_m(z) and the
    curvature rho_m(z) lam sigma^2 of the quadratic. An evaluation does
    the p-dependent arithmetic inside two work arrays of the object.
    """

    def __init__(self, Z, U, ctx: DriverContext, m=math.inf, cap=False):
        lam = ctx.lam
        ns = ~ctx.sig_mask
        eta = ctx.eta_g[ns]
        nu = ctx.nu_g[ns]
        self.lam, self.sigma = lam, ctx.sigma
        self.m_col = np.asarray(m, dtype=float)[..., None]
        self.cap = cap
        # row-major like the work arrays, so u - p eta runs contiguous
        self.u = np.compress(ns, U, axis=1)
        self.zc = Z + ctx.c_const
        self.fade = rho_m(Z, m)
        self.curv = self.fade * (lam * ctx.sigma ** 2)
        self.nu = nu
        self.eta_nu = float(eta @ nu)
        self.nu_eta = nu * eta
        self.nu_eta2 = self.nu_eta * eta
        dropped = ~_active_bins(ctx, ns, self.m_col)
        self.eta = np.where(dropped, 0.0, eta)
        if dropped.any():
            self.u[np.broadcast_to(dropped, self.u.shape)] = 0.0
        # sum over the dropped bins of nu_i eta_i^2 e_i, at e_i = 1
        self.dropped_nu_eta2 = dropped @ self.nu_eta2
        self._x = np.empty(self.u.shape)
        self._h = np.empty(self.u.shape)

    def _exponent(self, P):
        """lam (u_i - p eta_i) per (row, no-signal bin), with ``cap``
        lam phi_m(u_i - p eta_i), in the first work array."""
        x = self._x
        np.multiply(P[:, None] if np.ndim(P) else P, self.eta, out=x)
        np.subtract(self.u, x, out=x)
        if self.cap:
            _phi_m_inplace(x, self.m_col)
        x *= self.lam
        return x

    def __call__(self, P):
        lam = self.lam
        h = _h_lambda_of(self._exponent(P), lam, out=self._h)
        # a z too large for the square gives inf, or NaN at a fade of 0
        with np.errstate(over="ignore", invalid="ignore"):
            quad = 0.5 * lam * (self.sigma * P - self.zc) ** 2 * self.fade
        lin = -P * self.eta_nu
        return quad + h @ self.nu + lin

    def slope(self, P):
        """First and second derivative in p, per row, of a row whose cap
        cannot bind, with e_i = exp(lam (u_i - p eta_i)) over the no-signal
        bins (1 on the dropped bins):

        f1_m'(p) = rho_m(z) lam sigma (sigma p - z - C) - sum nu_i eta_i e_i,
        f1_m''(p) = rho_m(z) lam sigma^2
                    + lam (sum nu_i eta_i^2 e_i - sum_dropped nu_i eta_i^2),

        so a dropped bin keeps only its linear term. f1_m'' >= 0, and f1''
        > 0. On other rows the cap is not differentiated and the values
        are not f1_m's derivatives.
        """
        lam, sigma = self.lam, self.sigma
        x = self._exponent(P)
        _guard_exponent(x)
        e = np.exp(x, out=self._h)
        d1 = self.fade * (lam * sigma * (sigma * P - self.zc)) - e @ self.nu_eta
        d2 = self.curv + lam * (e @ self.nu_eta2 - self.dropped_nu_eta2)
        return d1, d2


def nosignal_slope(Z, U, P, ctx: DriverContext):
    """(f1'(P), f1''(P)) of the exact no-signal objective: the slope of
    ``_NoSignalPart`` at m = inf."""
    return _NoSignalPart(Z, U, ctx).slope(P)


def _exact_argmin(f1: _NoSignalPart, ctx: DriverContext):
    """Argmin on [-pi_lower, pi_upper], per row, of the exact f1 or of an
    f1_m whose phi_m cap cannot bind (``_cap_can_bind``).

    Both are convex with a nondecreasing slope (f1 strictly), so the
    argmin is the clipped root of the slope. A row with slope >= 0 at
    -pi_lower or <= 0 at pi_upper is clipped to that end; this takes
    every f1_m row that is linear in p. Every other row runs Newton on the
    slope inside a bracket on its sign, bisecting when a step is NaN or
    leaves the bracket, and stops on its own step, not on the other rows';
    only its slope's last bits can depend on them, through BLAS. Both ends
    pass the overflow guard first; the exponent is linear in p (no cap is
    applied on these rows), so no position inside the box exceeds them.
    """
    a, b = -ctx.pi_lower, ctx.pi_upper
    n = f1.zc.size
    ga, _ = f1.slope(np.full(n, a))
    gb, _ = f1.slope(np.full(n, b))
    at_a = ga >= 0.0
    at_b = ~at_a & (gb <= 0.0)
    lo = np.full(n, a)
    hi = np.full(n, b)
    # start from the secant of f1' across the box
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        p = np.clip(a - ga * (b - a) / (gb - ga), a, b)
    p = np.where(at_a, a, np.where(at_b, b, p))
    active = ~(at_a | at_b)
    for _ in range(_NEWTON_CAP):
        if not active.any():
            break
        g, h = f1.slope(p)
        lo = np.where(g < 0.0, p, lo)
        hi = np.where(g > 0.0, p, hi)
        # f1_m'' may vanish (an exponential underflows), giving inf or NaN
        with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
            step = p - g / h
        # inclusive test: a step landing on a bracket end is kept, and ends
        # the row, since evaluating that end again cannot shrink the bracket
        step = np.where((step >= lo) & (step <= hi), step, 0.5 * (lo + hi))
        done = (np.abs(step - p) <= _NEWTON_TOL) | (step == lo) | (step == hi)
        p = np.where(active, step, p)
        active &= ~done
    return p


def _signal_sum(U, ctx: DriverContext, m=math.inf):
    """Signal-branch sum of f_m at the boundary positions, at the level
    ``m`` (one per row, or one for all rows; f at m = inf, where phi_m,
    rho_m(u_i) and the active mask are exactly the identity and 1 and are
    skipped). f keeps the column-major order of U's signal columns and f_m
    works row-major, in place: the memory order of h picks the summation
    order of h @ nu in BLAS."""
    sig = ctx.sig_mask
    if not np.any(sig):
        return np.zeros(U.shape[0])
    lam = ctx.lam
    eta = ctx.eta_g[sig]
    nu = ctx.nu_g[sig]
    shift = ctx.boundary_p[sig] * eta
    lin = -float(shift @ nu) * np.ones(U.shape[0])
    m_col = np.asarray(m, dtype=float)[..., None]
    finite = np.isfinite(m_col).any()
    x = np.compress(sig, U, axis=1) if finite else U[:, sig]
    x -= shift
    if finite:
        _phi_m_inplace(x, m_col)
    x *= lam
    h = _h_lambda_of(x, lam)
    if finite:
        h *= _rho_m_inplace(np.compress(sig, U, axis=1, out=x), m_col)
        h *= _active_bins(ctx, sig, m_col)
    return h @ nu + lin


def _active_bins(ctx: DriverContext, bins, m_col):
    """The bins |e_i| > 1/m of f_m's truncated measure, per row of the
    level column m_col, over the grid bins selected by ``bins``."""
    return np.abs(ctx.grid.points[bins]) > 1.0 / m_col


def _cap_can_bind(U, m, ctx: DriverContext):
    """Rows of f_m whose phi_m cap can bind somewhere in the box: an active
    no-signal bin with u_i + max(pi_lower, pi_upper) |eta_i| > m, the bound
    ``fm_exact_threshold`` takes. On every other row f1_m is convex."""
    ns = ~ctx.sig_mask
    m_col = np.asarray(m, dtype=float)[:, None]
    reach = np.compress(ns, U, axis=1)
    reach += max(ctx.pi_lower, ctx.pi_upper) * np.abs(ctx.eta_g[ns])
    return np.any((reach > m_col) & _active_bins(ctx, ns, m_col), axis=1)


def _driver_rows(Z, U, ctx: DriverContext, m=math.inf, scan=False):
    """f_m at the level ``m`` (one per row; f at m = inf) on validated rows
    of (z, u); returns (values, argmin). The no-signal part is minimized
    by Newton on its slope, or with ``scan``, for rows whose cap can bind,
    capped, by ``minimize_on_interval``. The signal sum is taken first, so
    its arrays and the no-signal part's are never held at once. A value
    or argmin that is not finite raises, naming its row's z."""
    sig = _signal_sum(U, ctx, m)
    f1 = _NoSignalPart(Z, U, ctx, m, cap=scan)
    if scan:
        p0, f1min = minimize_on_interval(f1, -ctx.pi_lower, ctx.pi_upper)
    else:
        p0 = _exact_argmin(f1, ctx)
        f1min = f1(p0)
    with np.errstate(over="ignore", invalid="ignore"):
        vals = f1min + sig + ctx.affine_tail(Z)
    bad = ~(np.isfinite(vals) & np.isfinite(p0))
    if bad.any():
        r = bad.argmax()
        raise ValueError(f"driver not finite at z = {Z[r]:.6g}: f = {vals[r]}, p0 = {p0[r]}")
    return vals, p0


def _rows(Z, U, ctx: DriverContext):
    """z as a float vector and u as its (rows, 2q) matrix, validated."""
    Z = np.atleast_1d(np.asarray(Z, dtype=float))
    if not np.all(np.isfinite(Z)):
        raise ValueError("z must be finite on every row")
    return Z, _as_u_matrix(U, ctx.grid, Z.size)


def driver_f_batch(Z, U, ctx: DriverContext):
    """Evaluate the driver on rows of (z, u).

    Returns
    -------
    values, p_default : arrays over rows
        Driver values and the minimizing no-signal positions p*(0, z, u).
    """
    return _driver_rows(*_rows(Z, U, ctx), ctx)


def penalized_driver_fm_batch(Z, U, m, ctx: DriverContext):
    """Penalized driver f_m over rows of (z, u); see module docstring.

    m is one integer level >= 1 for every row, or one per row. Each row
    takes one of two paths: a row whose phi_m cap cannot bind
    (``_cap_can_bind``) minimizes the convex f1_m by Newton on its slope;
    a row whose cap can bind keeps the scan plus golden-section search of
    ``minimize_on_interval``.
    """
    Z, U = _rows(Z, U, ctx)
    m = np.asarray(m)
    ok = m.dtype.kind in "iuf" and np.all(np.isfinite(m) & (m >= 1) & (m == np.round(m)))
    if not ok or (m.ndim and m.shape != Z.shape):
        raise ValueError(f"m must be an integer >= 1, or one per row of z; got {m}")
    m = np.broadcast_to(m, Z.shape)
    capped = _cap_can_bind(U, m, ctx)
    vals = np.empty(Z.size)
    p0 = np.empty(Z.size)
    for rows, scan in ((~capped, False), (capped, True)):
        if rows.all():
            # no copy of the rows when they all take one path
            return _driver_rows(Z, U, ctx, m, scan)
        if rows.any():
            vals[rows], p0[rows] = _driver_rows(Z[rows], U[rows], ctx, m[rows], scan)
    return vals, p0


def driver_bounds(z, u, ctx: DriverContext):
    """Sandwich bounds (lower, upper) that every f_m and f respect, per row.

    lower = -lam C z - lam C^2 / 2 - (pi_lower + pi_upper) sum |eta_i| nu_i,
    upper = (lam/2) z^2 + |u|_lam,

    the affine tail less the most the linear jump terms can take in the
    box, and a bound on the objective at p = 0. lower has the shape of z;
    upper has one entry per row of u.
    """
    z = np.asarray(z, dtype=float)
    abs_eta_mass = float(np.abs(ctx.eta_g) @ ctx.nu_g)
    lower = ctx.affine_tail(z) - (ctx.pi_lower + ctx.pi_upper) * abs_eta_mass
    upper = 0.5 * ctx.lam * z ** 2 + u_lambda_norm(u, ctx)
    return lower, upper


def local_lipschitz_constant(ctx: DriverContext) -> float:
    """Constant K in |f(z,u) - f(z',u)| <= K (1 + |z| + |z'|) |z - z'|.

    By the envelope theorem df/dz = lam (z - sigma p*), with no C: the
    centre's C cancels the affine tail's. With p* in the box,
    |df/dz| <= lam (|z| + sigma pi_max), and integrating from z to z'
    gives lam ((|z| + |z'|) / 2 + sigma pi_max) |z - z'|, so
    K = lam max(1/2, sigma pi_max).
    """
    return ctx.lam * max(0.5, ctx.sigma * max(ctx.pi_lower, ctx.pi_upper))


def fm_exact_threshold(z, u, ctx: DriverContext):
    """Smallest bound on m past which f_m(z, u) = f(z, u) exactly, per row.

    Needs rho_m(z) = 1, every bin inside the truncated measure, the
    phi_m cap inactive for every admissible position, and rho_m(u_i) = 1
    on the signal bins. One entry per row of u.
    """
    z = np.asarray(z, dtype=float)
    U = _as_u_matrix(u, ctx.grid)
    pmax = max(ctx.pi_lower, ctx.pi_upper)
    phi_need = np.max(U + pmax * np.abs(ctx.eta_g), axis=1)
    return np.maximum(np.maximum(np.abs(z), np.max(np.abs(U), axis=1)),
                      np.maximum(phi_need, 1.0 / float(ctx.grid.points[ctx.grid.q])))
