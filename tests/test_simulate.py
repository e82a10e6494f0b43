"""Simulation oracles: counter-based reproducibility under chunking,
inverse-CDF and Gaussian-quantile correctness against scipy, exact price
recomputation, and a hand-checked wealth decomposition."""

import math
import os
import subprocess
import sys
import threading
import warnings

import numpy as np
import pytest
from scipy.special import ndtri
from scipy.stats import poisson

from jumpsignal import (
    DriverContext,
    LevyMarketSpec,
    NoSignal,
    PathBatch,
    TimeGrid,
    build_grid,
    payoff_digital,
    payoff_put,
    payoff_terminal,
    simulate_batch,
    wealth_forward,
)
from jumpsignal import simulate
from jumpsignal.config import ExperimentConfig
from jumpsignal.simulate import (
    JumpEvents,
    _ndtri,
    _poisson_cdf,
    _poisson_events,
    _words,
)

def test_time_grid_uniform():
    tg = TimeGrid.uniform(4, 0.5)
    assert tg.n_steps == 4 and tg.T == 0.5
    assert np.allclose(tg.dt, 0.125, rtol=0, atol=1e-16)
    assert tg.times[0] == 0.0
    with pytest.raises(ValueError):
        TimeGrid.uniform(0, 1.0)
    with pytest.raises(ValueError):
        TimeGrid.uniform(4, 0.0)
    with pytest.raises(ValueError):
        TimeGrid(np.array([0.0, 0.5, 0.5]))
    with pytest.raises(ValueError):
        TimeGrid(np.array([0.1, 0.5]))


def _events(ev, shift=0):
    """(bin, path, count) rows of one step's events, paths shifted."""
    return np.column_stack([ev.bin, ev.path + shift, ev.count])


def test_batch_shapes_and_determinism(spec_small, grid_small, tg_small,
                                      dense_counts):
    b = simulate_batch(spec_small, grid_small, tg_small, 64, seed=9)
    assert b.dW.shape == (4, 64)
    assert b.S.shape == (5, 64)
    assert np.all(b.S[0] == 1.0) and np.all(b.S > 0)
    assert len(b.jumps) == 4
    for k, ev in enumerate(b.jumps):
        # bin-major with paths increasing inside a bin: the key rises
        assert np.all(np.diff(ev.bin * 64 + ev.path) > 0)
        # exactly the nonzero counts of the full inverse-CDF draw
        dense = dense_counts(b, k)
        assert np.array_equal(ev.count, dense[ev.bin, ev.path])
        assert ev.count.size == np.count_nonzero(dense)
        # the dense view for outside readers agrees
        assert np.array_equal(b.dN[k], dense)
    assert b.dN.shape == (4, 6, 64) and b.dN.dtype == np.int16
    again = simulate_batch(spec_small, grid_small, tg_small, 64, seed=9)
    assert np.array_equal(b.dW, again.dW)
    for ev, ev_again in zip(b.jumps, again.jumps):
        assert np.array_equal(_events(ev), _events(ev_again))
    assert np.array_equal(b.S, again.S)
    other = simulate_batch(spec_small, grid_small, tg_small, 64, seed=10)
    assert not np.array_equal(b.dW, other.dW)
    with pytest.raises(ValueError):
        simulate_batch(spec_small, grid_small, tg_small, 0, seed=9)


def test_negative_path_offset_is_rejected(spec_small, grid_small, tg_small):
    # the streams would start inside their first Philox block, at
    # path_offset % 4: a batch labelled -5 would hold the paths of offset 3
    for offset in (-1, -5):
        with pytest.raises(ValueError, match="path_offset=-"):
            simulate_batch(spec_small, grid_small, tg_small, 8, seed=9,
                           path_offset=offset)


def test_chunked_paths_reproduce_full_run(spec_small, grid_small, tg_small):
    full = simulate_batch(spec_small, grid_small, tg_small, 40, seed=55)
    # offsets off the 4-wide Philox block boundary exercise the remainder
    head = simulate_batch(spec_small, grid_small, tg_small, 23, seed=55)
    tail = simulate_batch(spec_small, grid_small, tg_small, 17, seed=55,
                          path_offset=23)
    assert np.array_equal(full.dW[:, :23], head.dW)
    assert np.array_equal(full.dW[:, 23:], tail.dW)
    n_events = 0
    for ev, ev_head, ev_tail in zip(full.jumps, head.jumps, tail.jumps):
        merged = np.concatenate([_events(ev_head), _events(ev_tail, 23)])
        merged = merged[np.lexsort((merged[:, 1], merged[:, 0]))]
        assert np.array_equal(_events(ev), merged)
        n_events += ev.count.size
    assert n_events > 0
    assert np.array_equal(full.S[:, 23:], tail.S)


def test_one_cdf_per_distinct_mean(monkeypatch, spec_small, grid_small,
                                   dense_counts):
    # a non-uniform grid: every step differs, while mirrored bins share
    # a weight, so the six bins' 30 means take 15 values
    tg = TimeGrid(np.array([0.0, 0.02, 0.1, 0.13, 0.3, 0.5]))
    assert np.unique(tg.dt).size == 5
    means = []
    real = simulate._poisson_cdf

    def spy(mu):
        means.append(mu)
        return real(mu)

    monkeypatch.setattr(simulate, "_poisson_cdf", spy)
    b = simulate_batch(spec_small, grid_small, tg, 3000, seed=31)
    distinct = set(np.outer(grid_small.weights, tg.dt).ravel().tolist())
    assert len(distinct) == 15 and sorted(means) == sorted(distinct)
    n_events = 0
    for k, ev in enumerate(b.jumps):
        dense = dense_counts(b, k)
        assert ev.count.size == np.count_nonzero(dense)
        assert np.array_equal(ev.count, dense[ev.bin, ev.path])
        n_events += ev.count.size
    assert n_events > 0
    # the reference grid: 40 bins in 20 mirrored pairs over ten steps of
    # four float lengths, so 80 cdfs serve its 400 jump streams
    means.clear()
    cfg = ExperimentConfig()
    spec = cfg.market_spec()
    grid, tg10 = cfg.jump_grid(spec), cfg.time_grid()
    simulate_batch(spec, grid, tg10, 10, seed=31)
    assert grid.points.size * tg10.n_steps == 400
    assert sorted(means) == sorted(set(np.outer(grid.weights, tg10.dt).ravel().tolist()))
    assert len(means) == 80


def test_market_without_events(tg_small, dense_counts):
    # every bin mean so small that exp(-mu) rounds to 1: no jump at all
    spec = LevyMarketSpec(rho=1e-18, alpha=1.5, epsilon=0.01, kappa=0.0,
                          sigma=0.2, s0=1.0, T=0.5)
    grid = build_grid(3, spec, e_min=0.5, e_max=2.0)
    mu = np.outer(grid.weights, tg_small.dt)
    assert np.all(mu > 0) and np.all(np.exp(-mu) == 1.0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        b = simulate_batch(spec, grid, tg_small, 500, seed=9)
    for k, ev in enumerate(b.jumps):
        assert ev.count.size == 0 and not np.any(dense_counts(b, k))
        assert ev.path.dtype == np.int32 and ev.count.dtype == np.int32
    assert np.all(b.S > 0)


def _assert_same_batch(b, ref):
    assert np.array_equal(b.dW, ref.dW)
    assert np.array_equal(b.S, ref.S)
    assert len(b.jumps) == len(ref.jumps)
    for ev, ev_ref in zip(b.jumps, ref.jumps):
        for name in ("path", "bin", "count"):
            got, want = getattr(ev, name), getattr(ev_ref, name)
            assert got.dtype == want.dtype and np.array_equal(got, want)


@pytest.mark.parametrize("n_cpus", [1, 3])
def test_pool_size_does_not_change_the_batch(n_cpus, monkeypatch, spec_small,
                                             grid_small, tg_small, dense_counts):
    args = (spec_small, grid_small, tg_small, 1000)
    default = simulate_batch(*args, seed=9)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(n_cpus)))
    workers = set()
    real = simulate._poisson_events

    def spy(words, cdf):
        workers.add(threading.get_ident())
        return real(words, cdf)

    brownian = []
    real_brownian = simulate._brownian

    def brownian_spy(*a):
        brownian.append(threading.get_ident())
        return real_brownian(*a)

    monkeypatch.setattr(simulate, "_poisson_events", spy)
    monkeypatch.setattr(simulate, "_brownian", brownian_spy)
    b = simulate_batch(*args, seed=9)
    # the pool had at most n_cpus threads, none of them the caller, which
    # drew the Brownian stream and no jump bin
    assert 1 <= len(workers) <= n_cpus
    assert threading.get_ident() not in workers
    assert brownian == [threading.get_ident()]
    _assert_same_batch(b, default)
    for k, ev in enumerate(b.jumps):
        dense = dense_counts(b, k)
        assert ev.count.size == np.count_nonzero(dense)
        assert np.array_equal(ev.count, dense[ev.bin, ev.path])


def test_concurrent_calls_get_identical_batches(monkeypatch, spec_small,
                                                grid_small, tg_small):
    args = (spec_small, grid_small, tg_small, 1000)
    default = simulate_batch(*args, seed=9)
    # more pool threads than this test needs cores, switching often
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(3)))
    out = [None, None]

    def run(i):
        out[i] = simulate_batch(*args, seed=9)

    threads = [threading.Thread(target=run, args=(i,)) for i in range(2)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    for b in out:
        _assert_same_batch(b, default)


def test_pool_cleans_up_and_reports_errors(monkeypatch, spec_small, grid_small,
                                           tg_small):
    args = (spec_small, grid_small, tg_small, 1000)
    before = threading.active_count()
    simulate_batch(*args, seed=9)
    assert threading.active_count() == before
    real, lock, calls = simulate._poisson_events, threading.Lock(), []

    def failing(words, cdf):
        with lock:
            calls.append(cdf)
            # partway through the jump channels, other tasks still queued
            fail = len(calls) == 8
        if fail:
            raise ValueError("injected failure")
        return real(words, cdf)

    def pool_threads():
        return [t for t in threading.enumerate()
                if t.name.startswith("ThreadPoolExecutor")]

    monkeypatch.setattr(simulate, "_poisson_events", failing)
    with pytest.raises(ValueError, match="injected failure"):
        simulate_batch(*args, seed=9)
    # the pool is shut down before the error reaches the caller
    assert threading.active_count() == before
    assert not pool_threads()

    monkeypatch.setattr(simulate, "_poisson_events", real)
    queued = []

    def failing_ndtri(y, out=None):
        # the caller's Brownian draw fails while the jump tasks are queued
        queued.append(len(pool_threads()))
        raise FloatingPointError("injected quantile failure")

    monkeypatch.setattr(simulate, "_ndtri", failing_ndtri)
    with pytest.raises(FloatingPointError, match="injected quantile failure"):
        simulate_batch(*args, seed=9)
    assert queued and queued[0] >= 1
    assert threading.active_count() == before
    assert not pool_threads()


def test_brownian_increment_moments(spec_small, grid_small):
    tg = TimeGrid.uniform(1, 0.5)
    b = simulate_batch(spec_small, grid_small, tg, 20000, seed=3)
    w = b.dW[0] / math.sqrt(0.5)
    assert abs(np.mean(w)) < 4.0 / math.sqrt(20000)
    assert abs(np.std(w) - 1.0) < 4.0 / math.sqrt(20000)


EXP_M2 = math.exp(-2.0)


def _ulps(a, b):
    """Distance in units in the last place between same-signed floats."""
    return np.abs(a.view(np.int64) - b.view(np.int64))


def _assert_ndtri_matches_scipy(u):
    got, want = _ndtri(u), ndtri(u)
    central = (u > EXP_M2) & (u <= 1.0 - EXP_M2)
    # Cephes' operation order: bit for bit where no log is taken
    assert np.array_equal(got[central], want[central])
    # the tails differ only by numpy's log against the C library's
    assert np.all(_ulps(got[~central], want[~central]) <= 8)
    return int(np.count_nonzero(got != want))


def test_ndtri_matches_scipy_on_the_brownian_uniforms(uniforms):
    # the uniforms behind dW at the reference scale: seeds 1-20, 10 steps
    n_tail = 0
    for seed in range(1, 21):
        for k in range(10):
            u = np.maximum(uniforms(seed, k, 0, 65536), 2.0 ** -64)
            _assert_ndtri_matches_scipy(u)
            n_tail += np.count_nonzero((u <= EXP_M2) | (u > 1.0 - EXP_M2))
    assert n_tail > 0.25 * 200 * 65536


def test_ndtri_edge_values():
    # the floor of the uniforms, the largest uniform, the region bounds,
    # and exp(-32), where the tail switches to its far rational piece
    edges = np.array([2.0 ** -64, 1.0 - 2.0 ** -53, EXP_M2, 1.0 - EXP_M2,
                      math.exp(-32.0)])
    below, above = np.nextafter(edges, 0.0), np.nextafter(edges, 1.0)
    u = np.concatenate([edges, below, above[above < 1.0]])
    _assert_ndtri_matches_scipy(u)
    x = _ndtri(u)
    assert np.all(np.isfinite(x))
    assert np.all(np.sign(x) == np.sign(u - 0.5))
    # one value at a time runs the same code as a mixed array
    for v, xv in zip(u, x):
        assert _ndtri(np.array([v]))[0] == xv


def test_ndtri_out_may_alias_the_input(uniforms):
    u = np.maximum(uniforms(3, 1, 0, 4096), 2.0 ** -64)
    u[:2] = [2.0 ** -64, 1.0 - 2.0 ** -53]  # both tail pieces
    keep = u.copy()
    separate = _ndtri(u, out=np.empty_like(u))
    assert np.array_equal(u, keep)
    assert _ndtri(u, out=u) is u
    assert np.array_equal(u, separate)


@pytest.mark.parametrize("start", [0, 3, 9])
def test_brownian_increments_are_the_quantiles_of_the_stream(
        start, spec_small, grid_small, tg_small, uniforms):
    b = simulate_batch(spec_small, grid_small, tg_small, 50, seed=9,
                       path_offset=start)
    for k, dt in enumerate(tg_small.dt):
        u = np.maximum(uniforms(9, k, 0, 50, start), 2.0 ** -64)
        assert np.array_equal(b.dW[k], _ndtri(u) * math.sqrt(dt))


def test_package_runs_without_scipy():
    # scipy is a test dependency only: a fresh interpreter that cannot
    # import it still runs the driver checks
    code = (
        "import sys\n"
        "sys.modules['scipy'] = None\n"
        "from jumpsignal.cli import main\n"
        "rc = main(['verify', '--driver-only', '--samples', '50'])\n"
        "assert not [m for m in sys.modules if m.startswith('scipy.')]\n"
        "sys.exit(rc)\n"
    )
    src = os.path.dirname(os.path.dirname(simulate.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    run = subprocess.run([sys.executable, "-c", code], env=env,
                         capture_output=True, text=True, timeout=300)
    assert run.returncode == 0, run.stdout + run.stderr


def test_poisson_invcdf_matches_scipy(poisson_invcdf):
    rng = np.random.default_rng(77)
    u = rng.random(20000)
    # the smallest and largest bin mean of the reference config's steps
    cfg = ExperimentConfig()
    means = np.outer(cfg.jump_grid(cfg.market_spec()).weights, cfg.time_grid().dt)
    lo, hi = float(means.min()), float(means.max())
    assert lo == pytest.approx(0.00122, rel=1e-2)
    assert hi == pytest.approx(0.0426, rel=1e-2)
    for mu in (lo, hi, 0.01, 0.5, 3.0, 50.0):
        mine = poisson_invcdf(u, mu)
        ref = poisson.ppf(u, mu).astype(np.int64)
        assert np.array_equal(mine, ref)
    assert np.array_equal(poisson_invcdf(u, 0.0), np.zeros(u.size, np.int64))
    # near-1 uniforms stay finite through the saturation guard
    assert poisson_invcdf(np.array([1.0 - 1e-16]), 2.0)[0] < 100
    with pytest.raises(ValueError):
        poisson_invcdf(u, -1.0)


def test_poisson_cdf_runs_until_it_saturates():
    for mu in (1e-3, 0.0426, 3.0, 50.0):
        cdf = _poisson_cdf(mu)
        assert cdf[0] == math.exp(-mu) and np.all(np.diff(cdf) > 0)
        # the next term adds nothing in floating point
        nxt = cdf[-1] + math.exp(-mu) * mu ** cdf.size / math.factorial(cdf.size)
        assert nxt == cdf[-1]
    assert np.array_equal(_poisson_cdf(0.0), [1.0])
    with pytest.raises(ValueError):
        _poisson_cdf(-1.0)


def test_poisson_events_are_the_nonzero_inverse_cdf(poisson_invcdf):
    words = np.random.default_rng(78).integers(0, 2 ** 64, size=20000,
                                               dtype=np.uint64)
    # below ln 2, exp(-mu) * 2^53 is an integer; above it (1.2, 3.0) it
    # need not be, and the ceiling in the word threshold rounds up
    for mu in (1e-3, 0.05, 0.5, 1.2, 3.0):
        assert (mu > math.log(2)) == (math.exp(-mu) * 2.0 ** 53 % 1 != 0)
        w = words.copy()
        # the smallest word whose uniform reaches exp(-mu)
        cut = math.ceil(math.exp(-mu) * 2.0 ** 53) << 11
        # the boundary word, one uniform step (2^11 words) below it, and
        # the last word that still maps to the uniform below the boundary
        w[:3] = [cut, cut - 2 ** 11, cut - 1]
        dense = poisson_invcdf((w >> np.uint64(11)) * 2.0 ** -53, mu)
        idx, counts = _poisson_events(w, _poisson_cdf(mu))
        assert np.array_equal(idx, np.flatnonzero(dense))
        assert np.array_equal(counts, dense[idx])
        assert dense[0] == 1 and dense[1] == 0 and dense[2] == 0
        assert idx[0] == 0 and idx[1] > 2
    # exp(-mu) == 1.0: no events, and no word threshold at 2^64 is formed
    for mu in (0.0, 1e-17):
        assert math.exp(-mu) == 1.0
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            idx, counts = _poisson_events(words, _poisson_cdf(mu))
        assert idx.size == 0 and counts.size == 0
        assert idx.dtype == np.int32 and counts.dtype == np.int32


def test_jump_words_are_the_uniform_stream(uniforms):
    # the words behind the float uniforms, also off the 4-word block
    for start in (0, 3, 9):
        w = _words(7, 2, 5, 30, start)
        assert w.dtype == np.uint64
        u = (w >> np.uint64(11)) * 2.0 ** -53
        assert np.array_equal(u, uniforms(7, 2, 5, 30, start))


def test_jump_count_moments(spec_small, grid_small):
    tg = TimeGrid.uniform(1, 0.5)
    b = simulate_batch(spec_small, grid_small, tg, 16384, seed=21)
    ev = b.jumps[0]
    for j in range(6):
        mu = grid_small.weights[j] * 0.5
        got = float(np.sum(ev.count[ev.bin == j])) / 16384
        assert abs(got - mu) < 4.0 * math.sqrt(mu / 16384)


def test_price_path_hand_recomputation(spec_small, grid_small, batch_small,
                                      dense_counts):
    eta = grid_small.eta
    comp = sum(float(eta[i] * grid_small.weights[i]) for i in range(6))
    dt = batch_small.time_grid.dt
    dN = [dense_counts(batch_small, k) for k in range(4)]
    # the first 30 paths, plus every path with two or more jumps in a step
    multi = [int(p) for k in range(4)
             for p in np.flatnonzero(dN[k].sum(axis=0) >= 2)]
    assert len(multi) > 0
    for p in list(range(30)) + multi:
        s = 1.0
        for k in range(4):
            drift = (spec_small.kappa - 0.5 * spec_small.sigma ** 2 - comp) * dt[k]
            s *= math.exp(drift + spec_small.sigma * batch_small.dW[k, p])
            for j in range(6):
                s *= (1.0 + eta[j]) ** int(dN[k][j, p])
            assert batch_small.S[k + 1, p] == pytest.approx(s, rel=1e-12)


def test_price_step_bit_for_bit(spec_small, grid_small, batch_small):
    # S[k + 1] = S[k] exp((drift_k + sigma dW_k) + jump sum_k), in this
    # order of operations, so a reordered sum fails array_equal
    comp = grid_small.compensator()
    log_jump = grid_small.log_jumps()
    dt = batch_small.time_grid.dt
    n = batch_small.n_paths
    for k, ev in enumerate(batch_small.jumps):
        drift = (spec_small.kappa - 0.5 * spec_small.sigma ** 2 - comp) * dt[k]
        jump_sum = np.bincount(ev.path, weights=log_jump[ev.bin] * ev.count,
                               minlength=n)
        want = batch_small.S[k] * np.exp(
            (drift + spec_small.sigma * batch_small.dW[k]) + jump_sum)
        assert np.array_equal(batch_small.S[k + 1], want)


def test_price_mean_is_martingale(spec_small, grid_small, tg_small):
    # kappa = 0 and compensated jumps: E[S_T] = s0
    b = simulate_batch(spec_small, grid_small, tg_small, 32768, seed=13)
    se = float(np.std(b.S[-1], ddof=1)) / math.sqrt(32768)
    assert abs(float(np.mean(b.S[-1])) - 1.0) < 4.0 * se


def test_payoffs():
    s = np.array([0.5, 1.0, 1.5])
    assert np.array_equal(payoff_put(s, 1.0), [0.5, 0.0, 0.0])
    assert np.array_equal(payoff_digital(s, 1.0), [1.0, 1.0, 0.0])
    assert payoff_put(0.25, 1.0) == 0.75
    assert payoff_digital(1.25, 1.0) == 0.0
    assert np.array_equal(payoff_terminal(s, "put", 1.0), payoff_put(s, 1.0))
    with pytest.raises(ValueError):
        payoff_put(s, 0.0)
    # an unbounded payoff is outside the bounded-terminal-value setting
    for kind in ("call", "lookback"):
        with pytest.raises(ValueError):
            payoff_terminal(s, kind, 1.0)


def _hand_batch(spec, grid, dW, dN_sparse, n_paths):
    """One-step batch with prescribed increments, jumps given as
    {(bin, path): count}; prices are only used as regressors so any
    positive values do."""
    tg = TimeGrid.uniform(1, 0.5)
    keys = sorted(dN_sparse)  # (bin, path) order is bin-major
    ev = JumpEvents(path=np.array([p for _, p in keys], dtype=np.intp),
                    bin=np.array([j for j, _ in keys], dtype=np.intp),
                    count=np.array([dN_sparse[key] for key in keys], dtype=np.int64))
    S = np.ones((2, n_paths))
    return PathBatch(spec=spec, grid=grid, time_grid=tg, seed=0,
                     path_offset=0, dW=np.asarray(dW, float).reshape(1, -1),
                     jumps=(ev,), S=S)


def test_wealth_hand_case(spec_small, grid_small, ctx_hidesmall):
    batch = _hand_batch(spec_small, grid_small, [0.1, 0.0, -0.2, 0.0],
                        {(5, 1): 1, (2, 2): 1, (2, 3): 1, (5, 3): 2}, 4)
    eta = grid_small.eta
    comp = sum(float(eta[i] * grid_small.weights[i]) for i in range(6))
    p_sig = np.array([-1.0, -1.0, 0.25, 0.25, 1.0, 1.0])
    X = wealth_forward(batch, ctx_hidesmall, np.full((1, 4), 0.5), p_sig, 0.0)
    drift = -0.5 * comp * 0.5  # p0 * comp * dt charged on every path
    # path 0: Brownian only; path 1: signal jump at +2 trades p_sig = 1;
    # path 2: no-signal jump at -0.5 trades p0 despite p_sig = 0.25;
    # path 3: both, the signal jump twice in the step
    assert X[0] == pytest.approx(0.5 * 0.2 * 0.1 + drift, abs=1e-14)
    assert X[1] == pytest.approx(1.0 * 0.99 + drift, abs=1e-14)
    assert X[2] == pytest.approx(0.5 * 0.2 * -0.2 + 0.5 * -0.5 + drift, abs=1e-14)
    assert X[3] == pytest.approx(2 * 1.0 * 0.99 + 0.5 * -0.5 + drift, abs=1e-14)


def test_wealth_nosignal_ignores_psig(spec_small, grid_small, ctx_nosignal):
    batch = _hand_batch(spec_small, grid_small, [0.05, -0.1], {(4, 0): 2}, 2)
    p0 = np.full((1, 2), 0.7)
    wild = np.full(6, 77.0)  # never applied, so not checked against the box
    assert np.array_equal(wealth_forward(batch, ctx_nosignal, p0, np.full(6, 0.7), 0.0),
                          wealth_forward(batch, ctx_nosignal, p0, wild, 0.0))


def test_wealth_bounds_enforced(spec_small, grid_small, ctx_nosignal, ctx_hidesmall):
    batch = _hand_batch(spec_small, grid_small, [0.0, 0.0], {}, 2)
    ok = np.full((1, 2), 0.5)
    for p0 in (np.array([[0.5, 1.5]]), np.array([[np.nan, 0.5]])):
        with pytest.raises(ValueError, match="outside"):
            wealth_forward(batch, ctx_nosignal, p0, np.zeros(6), 0.0)
    # hide-small signals the outer bins 0, 1, 4 and 5
    for bad in (-1.2, np.nan):
        p_sig = np.array([0.5, 0.5, 0.5, 0.5, 0.5, bad])
        with pytest.raises(ValueError, match="outside"):
            wealth_forward(batch, ctx_hidesmall, ok, p_sig, 0.0)


def test_wealth_rejects_shapes(spec_small, grid_small, ctx_nosignal):
    # positions for every step and path, one signal position per bin, and
    # the strategy's grid is the batch's
    batch = _hand_batch(spec_small, grid_small, [0.0, 0.0], {}, 2)
    for p0 in (np.zeros(2), np.zeros((1, 3)), np.zeros((2, 2))):
        with pytest.raises(ValueError, match="p0 must have shape"):
            wealth_forward(batch, ctx_nosignal, p0, np.zeros(6), 0.0)
    with pytest.raises(ValueError, match="one entry per bin"):
        wealth_forward(batch, ctx_nosignal, np.zeros((1, 2)), np.zeros((6, 1)), 0.0)
    other = DriverContext(spec_small, build_grid(4, spec_small), NoSignal(), 0.4)
    with pytest.raises(ValueError, match="jump grid"):
        wealth_forward(batch, other, np.zeros((1, 2)), np.zeros(8), 0.0)
