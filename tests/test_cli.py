"""Config round-trips, builder wiring, and CLI subcommand smoke tests."""

import csv
import dataclasses
import io
import math
import multiprocessing
import os
import time
import warnings

import numpy as np
import pytest

from jumpsignal.cli import RESULT_COLUMNS, SCENARIO_LABELS, main
from jumpsignal.config import (
    ExperimentConfig,
    MarketBlock,
    ScenarioBlock,
    SchemeBlock,
    UtilityBlock,
    config_hash,
    dump_config,
    load_config,
    load_config_text,
)
from jumpsignal.levy_model import HideLarge, HideSmall, NoSignal


SMALL_YAML = """\
market: {T: 0.5}
grid: {q: 3, e_min: 0.5, e_max: 2.0}
scheme: {n_steps: 3, n_paths: 2048, n_cells: 8, min_count: 20, seeds: [1, 2]}
scenario: {variant: hidesmall, c_values: [0.7, 1.5]}
"""


@pytest.fixture(scope="module")
def cfg_file(tmp_path_factory):
    path = tmp_path_factory.mktemp("cfg") / "small.yaml"
    path.write_text(SMALL_YAML)
    return path


@pytest.fixture(scope="module")
def sweep_files(cfg_file, tmp_path_factory):
    out_dir = tmp_path_factory.mktemp("sweep")
    results = out_dir / "results.csv"
    summary = out_dir / "summary.csv"
    rc = main(["sweep", "--config", str(cfg_file), "--out", str(results),
               "--summary", str(summary)])
    assert rc == 0
    return results, summary


def _read_csv(path_or_text):
    if hasattr(path_or_text, "read_text"):
        text = path_or_text.read_text()
    else:
        text = path_or_text
    return list(csv.reader(io.StringIO(text)))


def test_config_roundtrip_and_hash():
    cfg = ExperimentConfig()
    assert load_config_text(dump_config(cfg)) == cfg
    assert load_config_text("") == cfg
    assert config_hash(load_config_text(dump_config(cfg))) == config_hash(cfg)
    other = dataclasses.replace(
        cfg, market=dataclasses.replace(cfg.market, rho=0.2))
    assert config_hash(other) != config_hash(cfg)


def test_config_file_load(cfg_file):
    cfg = load_config(cfg_file)
    assert cfg == load_config_text(SMALL_YAML)
    assert cfg.scheme.seeds == (1, 2)
    assert cfg.scenario.c_values == (0.7, 1.5)
    # untouched blocks fall back to defaults
    assert cfg.payoff == ExperimentConfig().payoff
    assert cfg.market.kappa == "compensate"


def test_config_rejects_unknown_keys():
    with pytest.raises(ValueError, match="unknown config block"):
        load_config_text("markett: {rho: 0.1}")
    with pytest.raises(ValueError, match="unknown key"):
        load_config_text("market: {rho: 0.1, rh0: 0.2}")
    with pytest.raises(ValueError, match="mapping"):
        load_config_text("- 1\n- 2\n")


def test_config_rejects_removed_keys():
    # the regression design and the quadratic's form are fixed, not settable
    with pytest.raises(ValueError, match="design"):
        load_config_text("scheme: {design: const}")
    with pytest.raises(ValueError, match="flags"):
        load_config_text("flags: {}")
    # the call payoff is unbounded, so the a priori bound does not apply
    with pytest.raises(ValueError, match=r"'put', 'digital'.*'call'"):
        load_config_text("payoff: {type: call, strike: 1.0}")


def test_config_rejects_duplicate_seeds_and_cutoffs():
    # a repeated seed would be simulated twice and weigh twice in the mean
    with pytest.raises(ValueError, match="seeds must be distinct"):
        load_config_text("scheme: {seeds: [1, 1, 2]}")
    with pytest.raises(ValueError, match="c_values must be distinct"):
        load_config_text("scenario: {c_values: [0.5, 1.0, 0.50]}")
    assert load_config_text("scheme: {seeds: [2, 1]}").scheme.seeds == (2, 1)


def test_block_validation():
    with pytest.raises(ValueError, match="kappa"):
        MarketBlock(kappa="offset")
    with pytest.raises(ValueError, match="seeds"):
        SchemeBlock(seeds=())
    with pytest.raises(ValueError, match="variant"):
        ScenarioBlock(variant="hideall")
    with pytest.raises(ValueError, match="cutoffs"):
        ScenarioBlock(c_values=(0.5, -1.0))
    with pytest.raises(ValueError, match="lam"):
        UtilityBlock(lam=0.0)
    with pytest.raises(ValueError, match="position bounds"):
        UtilityBlock(pi_lower=-0.5)


# each would load and then fail inside a command: a zero-step time grid,
# an empty batch, a partition with no cells or no minimum count, or a
# negative Philox key
SCHEME_OUT_OF_RANGE = {"n_steps": "0", "n_paths": "0", "n_cells": "0",
                       "min_count": "0", "seeds": "[2, -1]"}


@pytest.mark.parametrize("field", SCHEME_OUT_OF_RANGE)
def test_scheme_rejects_out_of_range(field):
    with pytest.raises(ValueError, match=rf"{field} must be >= "):
        load_config_text(f"scheme: {{{field}: {SCHEME_OUT_OF_RANGE[field]}}}")


# each used to load (an `ok` row from 8.5 cells, seed 2 from 2.5) or die
# with a TypeError inside a command
NOT_INTEGER = [("scheme", "n_steps", "2.0"), ("scheme", "n_paths", "true"),
               ("scheme", "n_cells", "8.5"), ("scheme", "n_cells", "true"),
               ("scheme", "min_count", "'50'"), ("scheme", "seeds", "[2.5]"),
               ("scheme", "seeds", "[1, false]"), ("scheme", "seeds", "3"),
               ("grid", "q", "2.5"), ("grid", "q", "true")]


@pytest.mark.parametrize("block,key,value", NOT_INTEGER,
                         ids=[f"{k}={v}" for _, k, v in NOT_INTEGER])
def test_config_rejects_non_integers(block, key, value):
    with pytest.raises(ValueError, match=rf"^{key} must be"):
        load_config_text(f"{block}: {{{key}: {value}}}")


# each used to load: a bool as 1 or 0 (dumped as `true` into the hashed
# config), a string to die with a TypeError inside a command
NOT_A_NUMBER = {
    "market": [("sigma", "'0.2'"), ("rho", "true"), ("T", "null"),
               ("kappa", "true"), ("kappa", "'0.3'")],
    "grid": [("e_min", "'0.05'"), ("e_max", "false")],
    "scenario": [("c_values", "[true]"), ("c_values", "['0.5']"),
                 ("c_values", "0.5")],
    "payoff": [("strike", "'1.0'"), ("strike", "true")],
    "utility": [("lam", "true"), ("pi_upper", "'1'"), ("x", "[0.0]")],
}


@pytest.mark.parametrize("block", NOT_A_NUMBER)
def test_config_rejects_non_numbers(block):
    for key, value in NOT_A_NUMBER[block]:
        with pytest.raises(ValueError, match=rf"^{key} must be a (list of )?number"):
            load_config_text(f"{block}: {{{key}: {value}}}")


def test_number_checks_keep_the_hash():
    # validated, not coerced: an integer stays an integer in the dump, so
    # every config that loaded before keeps its hash
    text = ("market: {sigma: 1, kappa: 0, T: 2}\ngrid: {e_min: 1}\n"
            "payoff: {strike: 2}\nutility: {lam: 1, x: -3}\n"
            "scenario: {c_values: [1, 0.5]}\n")
    cfg = load_config_text(text)
    assert (cfg.market.sigma, cfg.market.kappa, cfg.utility.x) == (1, 0, -3)
    assert isinstance(cfg.market.sigma, int) and isinstance(cfg.utility.lam, int)
    dump = dump_config(cfg)
    assert "sigma: 1\n" in dump and "lam: 1\n" in dump and "strike: 2\n" in dump
    assert load_config_text(dump) == cfg
    # the hashes these configs had before the checks (PyYAML 6.0.3)
    assert config_hash(cfg) == "acdc46f407f0502f"
    assert config_hash(ExperimentConfig()) == "6f5331641df09b96"


@pytest.mark.parametrize("text", ["scheme: 5", "grid: [1, 2]", "market: text",
                                  "utility: 0"])
def test_config_rejects_non_mapping_blocks(text):
    name = text.split(":")[0]
    with pytest.raises(ValueError, match=f"block '{name}' must be a mapping"):
        load_config_text(text)
    # an empty block still means the block's defaults
    assert load_config_text(f"{name}:\n") == ExperimentConfig()


def test_compensated_drift_kills_the_affine_tail():
    cfg = ExperimentConfig()
    spec = cfg.market_spec()
    # symmetric measure and odd eta: compensation lands exactly at zero
    assert spec.kappa == 0.0
    ctx = cfg.driver_context(spec, cfg.jump_grid(spec), cfg.scenarios()[0])
    assert ctx.c_const == 0.0
    explicit = dataclasses.replace(
        cfg, market=dataclasses.replace(cfg.market, kappa=0.3))
    assert explicit.market_spec().kappa == 0.3


def test_scenario_builders():
    cfg = ExperimentConfig()
    scens = cfg.scenarios()
    assert [type(s) for s in scens] == [HideSmall] * 5
    assert [s.c for s in scens] == [0.1, 0.3, 0.6, 1.0, 2.0]
    no = dataclasses.replace(
        cfg, scenario=dataclasses.replace(cfg.scenario, variant="nosignal"))
    assert no.scenarios() == [NoSignal()]
    hl = dataclasses.replace(
        cfg, scenario=ScenarioBlock(variant="hidelarge", c_values=(0.5,)))
    assert hl.scenarios() == [HideLarge(c=0.5)]


def test_signal_variants_need_cutoffs():
    # an empty cutoff list must not quietly run the no-signal scenario
    for variant in ("hidesmall", "hidelarge"):
        with pytest.raises(ValueError, match="at least one cutoff"):
            load_config_text(f"scenario: {{variant: {variant}, c_values: []}}")
    cfg = load_config_text("scenario: {variant: nosignal, c_values: []}")
    assert cfg.scenarios() == [NoSignal()]


def test_payoff_builder():
    cfg = ExperimentConfig()
    s = np.array([0.5, 1.0, 1.4])
    np.testing.assert_array_equal(cfg.payoff_values(s), [0.5, 0.0, 0.0])


def test_grid_dump_roundtrips_floats(cfg_file, capsys):
    assert main(["grid-dump", "--config", str(cfg_file)]) == 0
    rows = _read_csv(capsys.readouterr().out)
    assert rows[0] == ["index", "point", "weight", "eta"]
    cfg = load_config(cfg_file)
    spec = cfg.market_spec()
    grid = cfg.jump_grid(spec)
    assert len(rows) - 1 == grid.points.size == 6
    for i, row in enumerate(rows[1:]):
        assert int(row[0]) == grid.signed_indices[i]
        # repr round-trip must restore the exact binary values
        assert float(row[1]) == grid.points[i]
        assert float(row[2]) == grid.weights[i]
        assert float(row[3]) == grid.eta[i]


def test_driver_table(cfg_file, capsys):
    rc = main(["driver-table", "--config", str(cfg_file),
               "--z-min", "-1.0", "--z-max", "1.0", "--z-steps", "5"])
    assert rc == 0
    rows = _read_csv(capsys.readouterr().out)
    assert rows[0] == ["z", "f", "p0"]
    assert len(rows) - 1 == 5
    z = [float(r[0]) for r in rows[1:]]
    assert z == list(np.linspace(-1.0, 1.0, 5))
    for r in rows[1:]:
        assert math.isfinite(float(r[1]))
        assert -1.0 <= float(r[2]) <= 1.0


def test_solve_row_and_determinism(cfg_file, capsys):
    argv = ["solve", "--config", str(cfg_file)]
    assert main(argv) == 0
    first = list(csv.DictReader(io.StringIO(capsys.readouterr().out)))
    assert main(argv) == 0
    second = list(csv.DictReader(io.StringIO(capsys.readouterr().out)))
    assert len(first) == 1
    row = first[0]
    assert list(row) == RESULT_COLUMNS
    assert row["scenario"] == "hide-small"
    assert row["c"] == "0.7"
    assert row["seed"] == "1"
    assert row["status"] == "ok"
    assert float(row["value"]) < 0.0
    # counter-based noise and deterministic reductions: bit-for-bit rerun
    assert second[0]["y0"] == row["y0"]
    assert second[0]["config_hash"] == row["config_hash"]


def test_solve_overrides(cfg_file, capsys):
    rc = main(["solve", "--config", str(cfg_file), "--scenario", "hidelarge",
               "--c", "0.5", "--seed", "9", "--paths", "1024"])
    assert rc == 0
    row = list(csv.DictReader(io.StringIO(capsys.readouterr().out)))[0]
    assert row["scenario"] == "hide-large"
    assert row["c"] == "0.5"
    assert row["seed"] == "9"
    assert row["status"] == "ok"


def test_sweep_results(sweep_files):
    results, summary = sweep_files
    rows = _read_csv(results)
    assert rows[0] == RESULT_COLUMNS
    recs = [dict(zip(RESULT_COLUMNS, r)) for r in rows[1:]]
    assert len(recs) == 4
    assert all(r["status"] == "ok" for r in recs)
    keys = [(r["scenario"], float(r["c"]), int(r["seed"])) for r in recs]
    assert keys == [("hide-small", 0.7, 1), ("hide-small", 0.7, 2),
                    ("hide-small", 1.5, 1), ("hide-small", 1.5, 2)]
    srows = _read_csv(summary)
    assert srows[0] == ["scenario", "c", "n_seeds", "y0_mean", "y0_spread"]
    assert len(srows) == 3
    for srow in srows[1:]:
        c = float(srow[1])
        ys = [float(r["y0"]) for r in recs if float(r["c"]) == c]
        assert int(srow[2]) == 2
        assert float(srow[3]) == np.mean(ys)
        assert float(srow[4]) == np.max(ys) - np.min(ys)


def test_sweep_rows_match_standalone_solves(cfg_file, sweep_files, capsys):
    # the cells shared by a seed's cutoffs must not couple them: each row
    # is the standalone solve of its (c, seed), bit for bit
    results, _ = sweep_files
    recs = [dict(zip(RESULT_COLUMNS, r)) for r in _read_csv(results)[1:]]
    assert len(recs) == 4
    for rec in recs:
        assert main(["solve", "--config", str(cfg_file), "--c", rec["c"],
                     "--seed", rec["seed"]]) == 0
        row = list(csv.DictReader(io.StringIO(capsys.readouterr().out)))[0]
        assert (row["c"], row["seed"]) == (rec["c"], rec["seed"])
        assert row["y0"] == rec["y0"] and row["value"] == rec["value"]


def test_sweep_marks_bound_violation_as_error(cfg_file, tmp_path, monkeypatch):
    # a driver shifted far up at c = 1.5 pushes Ybar past the a priori bound;
    # those rows fail and the summary keeps only the sound cutoff
    from jumpsignal import drivers

    exact = drivers.driver_f_batch

    def broken(Z, U, ctx):
        vals, p0 = exact(Z, U, ctx)
        return (vals + 20.0 if ctx.scenario.c == 1.5 else vals), p0

    # a context calls the module's driver_f_batch when solve calls it
    monkeypatch.setattr(drivers, "driver_f_batch", broken)
    results, summary = tmp_path / "results.csv", tmp_path / "summary.csv"
    assert main(["sweep", "--config", str(cfg_file), "--out", str(results),
                 "--summary", str(summary)]) == 0
    recs = [dict(zip(RESULT_COLUMNS, r)) for r in _read_csv(results)[1:]]
    status = {(r["c"], r["seed"]): r["status"] for r in recs}
    assert status[("0.7", "1")] == status[("0.7", "2")] == "ok"
    for seed in ("1", "2"):
        assert status[("1.5", seed)].startswith("error: ")
        assert "a priori bound" in status[("1.5", seed)]
    srows = _read_csv(summary)
    assert [r[1] for r in srows[1:]] == ["0.7"]


# (config with SEEDS for the seed list, status prefix of every row): the
# small config, and the reference config at 4096 paths and c = 0.6, where
# every solve trips the driver's overflow guard
# the same config, and with a put struck at 5000, whose solve fails on
# the overflow guard at every path count
PROCESS_CONFIGS = [
    (SMALL_YAML.replace("seeds: [1, 2]", "seeds: SEEDS"), "ok"),
    (SMALL_YAML.replace("seeds: [1, 2]", "seeds: SEEDS") + "payoff: {strike: 5000}\n",
     "error: "),
]


@pytest.fixture
def cpus(monkeypatch):
    """cpus(n): every caller of os.sched_getaffinity sees n CPUs: the
    sweep's process count and the jump threads' budget alike."""
    def set_cpus(n):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(n)))
    return set_cpus


@pytest.fixture
def started(monkeypatch):
    """The processes multiprocessing starts during the test."""
    procs = []
    start = multiprocessing.process.BaseProcess.start

    def recording(self):
        procs.append(self)
        start(self)

    monkeypatch.setattr(multiprocessing.process.BaseProcess, "start", recording)
    return procs


@pytest.mark.parametrize("text, status", PROCESS_CONFIGS, ids=["ok-rows", "error-rows"])
def test_sweep_rows_do_not_depend_on_the_process_count(text, status, tmp_path, cpus,
                                                       started):
    # seeds[i::n] run in n processes: the rows (but their wall_time) and the
    # summary are the same at 1, 2 and 3 processes, error rows included
    config = tmp_path / "seeds.yaml"
    results, summary = tmp_path / "results.csv", tmp_path / "summary.csv"
    for seeds in ([1], [1, 2], [1, 2, 3], [1, 2, 3, 4, 5]):
        config.write_text(text.replace("SEEDS", str(seeds)))
        outputs = []
        for n in (1, 2, 3):
            cpus(n)
            started.clear()
            assert main(["sweep", "--config", str(config), "--out", str(results),
                         "--summary", str(summary)]) == 0
            assert len(started) == min(len(seeds), n) - 1
            rows = [{k: v for k, v in r.items() if k != "wall_time"}
                    for r in csv.DictReader(io.StringIO(results.read_text()))]
            outputs.append((rows, summary.read_text()))
        assert outputs[0] == outputs[1] == outputs[2]
        rows = outputs[0][0]
        assert sorted({int(r["seed"]) for r in rows}) == seeds
        assert rows and all(r["status"].startswith(status) for r in rows)
    assert multiprocessing.active_children() == []


def test_one_seed_starts_no_process(cfg_file, tmp_path, cpus, started, capsys):
    cpus(3)
    assert main(["solve", "--config", str(cfg_file)]) == 0
    assert main(["sweep", "--config", str(cfg_file), "--seed", "2",
                 "--out", str(tmp_path / "results.csv")]) == 0
    assert started == []


def test_jump_threads_run_only_on_free_cpus(tmp_path, monkeypatch, cpus, started):
    # one kind of parallelism at a time: with as many seeds as CPUs, no
    # worker starts a jump thread pool; the caller draws in-line while a
    # worker runs, and a seed it starts after every worker has finished
    # gets every CPU
    from jumpsignal import cli, simulate

    caller = os.getpid()
    real_pool = simulate.ThreadPoolExecutor

    def pool_in_the_caller(*args, **kwargs):
        if os.getpid() != caller:
            raise AssertionError("a sweep worker started a jump thread pool")
        return real_pool(*args, **kwargs)

    monkeypatch.setattr(simulate, "ThreadPoolExecutor", pool_in_the_caller)
    config, results = tmp_path / "seeds.yaml", tmp_path / "results.csv"
    config.write_text(PROCESS_CONFIGS[0][0].replace("SEEDS", "[1, 2, 3]"))
    cpus(3)
    assert main(["sweep", "--config", str(config), "--out", str(results)]) == 0
    assert len(started) == 2

    # at two CPUs the caller takes seeds 1 and 3 and the worker seed 2,
    # which starts only once the caller has its first budget
    marker, budgets, threads_used = tmp_path / "first-budget", [], []
    real_rows, real_cells = cli._seed_rows, cli.simulate_cells

    def wait_for(ready):
        deadline = time.monotonic() + 60
        while not ready() and time.monotonic() < deadline:
            time.sleep(0.01)

    def seed_rows(cfg, cfg_hash, seeds, scenarios, threads):
        if os.getpid() != caller:
            return real_rows(cfg, cfg_hash, seeds, scenarios, threads)

        def budget():
            if budgets:  # a later seed: once the worker has finished
                wait_for(lambda: threads() == 2)
            budgets.append(threads())
            marker.touch()
            return budgets[-1]

        return real_rows(cfg, cfg_hash, seeds, scenarios, budget)

    def cells(*args):
        if os.getpid() == caller:
            threads_used.append(args[-1])
        else:
            wait_for(marker.exists)
        return real_cells(*args)

    monkeypatch.setattr(cli, "_seed_rows", seed_rows)
    monkeypatch.setattr(cli, "simulate_cells", cells)
    cpus(2)
    started.clear()
    assert main(["sweep", "--config", str(config), "--out", str(results)]) == 0
    assert len(started) == 1
    assert budgets == threads_used == [1, 2]
    assert multiprocessing.active_children() == []


def test_sweep_raises_a_worker_failure(cfg_file, tmp_path, monkeypatch, cpus, started):
    # at two CPUs the worker owns seed 2 of (1, 2): its exception ends the
    # sweep in the caller, and no process is left running
    from jumpsignal import cli

    exact = cli.simulate_cells
    seen = []

    def failing(spec, grid, time_grid, n_paths, seed, n_cells, min_count, payoff, threads):
        seen.append(seed)
        if seed == 2:
            raise RuntimeError("injected worker failure")
        return exact(spec, grid, time_grid, n_paths, seed, n_cells, min_count, payoff,
                     threads)

    monkeypatch.setattr(cli, "simulate_cells", failing)
    cpus(2)
    with pytest.raises(RuntimeError, match="injected worker failure"):
        main(["sweep", "--config", str(cfg_file), "--out", str(tmp_path / "r.csv")])
    assert seen == [1]  # seed 2 failed in the worker
    assert len(started) == 1
    assert multiprocessing.active_children() == []


def test_solve_writes_error_row_and_exits_1(cfg_file, capsys, monkeypatch):
    # a failed backward pass gives the row sweep writes, not a traceback
    from jumpsignal import drivers

    def failing(Z, U, ctx):
        raise ValueError("exponent 7.76e+09 exceeds the overflow guard 700.0")

    monkeypatch.setattr(drivers, "driver_f_batch", failing)
    assert main(["solve", "--config", str(cfg_file)]) == 1
    rows = list(csv.DictReader(io.StringIO(capsys.readouterr().out)))
    assert len(rows) == 1
    row = rows[0]
    assert (row["scenario"], row["c"], row["seed"]) == ("hide-small", "0.7", "1")
    assert row["y0"] == row["value"] == row["wall_time"] == ""
    assert row["config_hash"] == config_hash(load_config(cfg_file))
    assert row["status"].startswith("error: driver failed at step ")
    assert "overflow guard" in row["status"]


def test_a_seed_that_loses_positivity_gives_error_rows(tmp_path, cpus, capsys):
    # at rho = 1500 the compensator drift takes every price to 0 in the
    # first step: each scenario of each seed gets an error row naming the
    # step, in the worker process too, and verify ends on its error line
    config = tmp_path / "rho.yaml"
    config.write_text(SMALL_YAML.replace("market: {T: 0.5}", "market: {T: 0.5, rho: 1500}"))
    status = "error: simulated price lost positivity at step 0"
    assert main(["solve", "--config", str(config)]) == 1
    [row] = csv.DictReader(io.StringIO(capsys.readouterr().out))
    assert (row["scenario"], row["c"], row["seed"], row["status"]) == \
        ("hide-small", "0.7", "1", status)
    assert row["y0"] == row["value"] == row["wall_time"] == ""

    cpus(2)
    results, summary = tmp_path / "results.csv", tmp_path / "summary.csv"
    assert main(["sweep", "--config", str(config), "--out", str(results),
                 "--summary", str(summary)]) == 0
    rows = list(csv.DictReader(io.StringIO(results.read_text())))
    assert [(r["c"], r["seed"], r["status"]) for r in rows] == \
        [(c, seed, status) for c in ("0.7", "1.5") for seed in ("1", "2")]
    assert summary.read_text().splitlines() == ["scenario,c,n_seeds,y0_mean,y0_spread"]

    assert main(["verify", "--config", str(config), "--samples", "60"]) == 1
    out, err = capsys.readouterr()
    assert set(DRIVER_CHECKS) <= {ln.split(":")[0] for ln in out.splitlines()}
    assert err.splitlines() == [f"jumpsignal: error: {status[len('error: '):]}"]


def test_a_seed_whose_prices_overflow_gives_error_rows(tmp_path, cpus, capsys):
    # at kappa = 10000 the drift alone, 1667 per step, takes every price
    # past the float range in the first step: the step kernel names the
    # step and the overflow, numpy's overflow warning (an error under
    # pytest) stays silent, and each scenario of each seed gets an error
    # row, where an infinite price once reached the driver's guard
    config = tmp_path / "kappa.yaml"
    config.write_text(SMALL_YAML.replace("market: {T: 0.5}", "market: {T: 0.5, kappa: 10000}"))
    status = "error: simulated price overflowed to inf at step 0"
    assert main(["solve", "--config", str(config)]) == 1
    [row] = csv.DictReader(io.StringIO(capsys.readouterr().out))
    assert (row["seed"], row["y0"], row["status"]) == ("1", "", status)

    cpus(2)
    results = tmp_path / "results.csv"
    assert main(["sweep", "--config", str(config), "--out", str(results)]) == 0
    rows = list(csv.DictReader(io.StringIO(results.read_text())))
    assert [(r["c"], r["seed"], r["status"]) for r in rows] == \
        [(c, seed, status) for c in ("0.7", "1.5") for seed in ("1", "2")]


def test_report_rejects_an_unknown_scenario(tmp_path, capsys):
    # report names its files after the scenario: '../escaped' would write
    # <out-dir>/../escaped.dat, outside the out-dir
    assert SCENARIO_LABELS == (NoSignal().label(), HideSmall(c=1.0).label(),
                               HideLarge(c=1.0).label())
    results, out_dir = tmp_path / "results.csv", tmp_path / "out"
    results.write_text(",".join(RESULT_COLUMNS) + "\n"
                       "hide-small,0.7,1,0.25,-1.0,0.1,abcd,ok\n"
                       "../escaped,0.7,1,0.25,-1.0,0.1,abcd,ok\n")
    with pytest.raises(SystemExit) as exc:
        main(["report", "--results", str(results), "--out-dir", str(out_dir)])
    assert exc.value.code == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.splitlines() == [
        f"jumpsignal: error: {results}:3: unknown scenario '../escaped'; "
        "options: no-signal, hide-small, hide-large"]
    assert sorted(os.listdir(tmp_path)) == ["results.csv"]


def test_report_files(sweep_files, tmp_path, capsys):
    results, _ = sweep_files
    rc = main(["report", "--results", str(results), "--out-dir", str(tmp_path)])
    assert rc == 0
    assert "hide-small" in capsys.readouterr().out
    dat = (tmp_path / "hide-small.dat").read_text().splitlines()
    assert len(dat) == 2
    recs = [dict(zip(RESULT_COLUMNS, r)) for r in _read_csv(results)[1:]]
    for line, c in zip(dat, ("0.7", "1.5")):
        label, mean = line.split()
        assert label == c
        ys = [float(r["y0"]) for r in recs if r["c"] == c]
        assert float(mean) == np.mean(ys)


MALFORMED_RESULTS = [
    ("bad_header.csv", "foo,bar\n", "bad_header.csv:1: unexpected header ['foo', 'bar']"),
    ("short_row.csv", ",".join(RESULT_COLUMNS) + "\nhide-small,0.7,1\n",
     "short_row.csv:2: expected 8 columns, got 3"),
    ("bad_y0.csv", ",".join(RESULT_COLUMNS) + "\nhide-small,0.7,1,oops,-1.0,0.1,abcd,ok\n",
     "bad_y0.csv:2: bad y0: could not convert string to float: 'oops'"),
    # a cutoff is empty or a finite number and an ok row's y0 is finite:
    # a nan or an inf y0 would carry into the mean of the .dat file
    ("bad_c.csv", ",".join(RESULT_COLUMNS) + "\nhide-small,abc,1,0.25,-1.0,0.1,abcd,ok\n",
     "bad_c.csv:2: bad c: could not convert string to float: 'abc'"),
    *((f"y0_{y0}.csv", ",".join(RESULT_COLUMNS) + f"\nhide-small,0.7,1,{y0},-1.0,0.1,abcd,ok\n",
       f"y0_{y0}.csv:2: bad y0: not a finite number: {y0}") for y0 in ("nan", "inf", "-inf")),
    ("long_field.csv", ",".join(RESULT_COLUMNS) + "\n" + "x" * 200000 + "\n",
     "long_field.csv:2: field larger than field limit (131072)"),
    ("binary.csv", b"\x89PNG\r\n", "binary.csv: not a text file: 'utf-8' codec"),
    ("missing.csv", None, "missing.csv: No such file or directory"),
]


def test_report_rejects_malformed_input(tmp_path, capsys):
    # a results file that is missing or malformed is a usage error, as a
    # bad config is: one line naming the file (and line) on stderr, exit 2
    for name, text, message in MALFORMED_RESULTS:
        results = tmp_path / name
        if isinstance(text, bytes):
            results.write_bytes(text)
        elif text is not None:
            results.write_text(text)
        with pytest.raises(SystemExit) as exc:
            main(["report", "--results", str(results), "--out-dir", str(tmp_path)])
        assert exc.value.code == 2
        out, err = capsys.readouterr()
        assert out == ""
        [line] = err.splitlines()
        assert line.startswith(f"jumpsignal: error: {tmp_path / message}")


def test_report_rejects_a_file_as_out_dir(tmp_path, capsys):
    # an out-dir that names an existing file ends as a bad results file does
    results = tmp_path / "results.csv"
    results.write_text(",".join(RESULT_COLUMNS) + "\nhide-small,0.7,1,0.25,-1.0,0.1,abcd,ok\n")
    with pytest.raises(SystemExit) as exc:
        main(["report", "--results", str(results), "--out-dir", str(results)])
    assert exc.value.code == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.splitlines() == [f"jumpsignal: error: {results}: File exists"]


def test_report_skips_error_rows(tmp_path, capsys):
    results = tmp_path / "mixed.csv"
    base = "hide-small,0.7,{seed},{y0},-1.0,0.1,abcd,{status}"
    results.write_text("\n".join([
        ",".join(RESULT_COLUMNS),
        base.format(seed=1, y0="0.25", status="ok"),
        base.format(seed=2, y0="", status="error: solver blew up"),
        base.format(seed=3, y0="0.35", status="ok"),
    ]) + "\n")
    assert main(["report", "--results", str(results),
                 "--out-dir", str(tmp_path)]) == 0
    capsys.readouterr()
    dat = (tmp_path / "hide-small.dat").read_text().splitlines()
    assert len(dat) == 1
    assert float(dat[0].split()[1]) == pytest.approx(0.3)


def test_verify_driver_only(cfg_file, tmp_path, capsys):
    csv_path = tmp_path / "checks.csv"
    rc = main(["verify", "--config", str(cfg_file), "--driver-only",
               "--samples", "60", "--csv", str(csv_path)])
    out = capsys.readouterr().out
    assert rc == 0
    lines = [ln for ln in out.splitlines() if ln.strip()]
    assert len(lines) == 5
    assert all("PASS" in ln for ln in lines)
    assert lines[0].startswith("driver_kkt: PASS")
    rows = _read_csv(csv_path.read_text())
    assert rows[0] == ["name", "samples", "violations", "worst_margin",
                       "tolerance", "passed"]
    assert len(rows) - 1 == 5
    assert all(r[-1] == "True" for r in rows[1:])


def test_verify_csv_dash_is_stdout(cfg_file, tmp_path, monkeypatch, capsys):
    # '-' means stdout for --csv as for every other output path: the CSV
    # follows the printout, and no file named '-' is written
    monkeypatch.chdir(tmp_path)
    rc = main(["verify", "--config", str(cfg_file), "--driver-only",
               "--samples", "50", "--csv", "-"])
    out = capsys.readouterr().out
    assert rc == 0
    lines = out.splitlines()
    assert [ln.split(":")[0] for ln in lines[:5]] == DRIVER_CHECKS
    rows = _read_csv("\n".join(lines[5:]))
    assert rows[0] == ["name", "samples", "violations", "worst_margin",
                       "tolerance", "passed"]
    assert [r[0] for r in rows[1:]] == DRIVER_CHECKS
    assert os.listdir(tmp_path) == []


DRIVER_CHECKS = ["driver_kkt", "driver_sandwich", "fm_monotone", "lipschitz_z",
                 "scenario_limits"]
VERIFY_CHECKS = ["comparison", "driver_kkt", "driver_sandwich", "fm_monotone",
                 "lipschitz_z", "martingale_optimality", "penalization",
                 "scenario_limits", "scheme_oracles", "y_bound"]


def test_verify_full(cfg_file, tmp_path, capsys):
    # the batch checks too: each takes the BSDE solved under the real driver
    csv_path = tmp_path / "checks.csv"
    rc = main(["verify", "--config", str(cfg_file), "--samples", "60",
               "--csv", str(csv_path)])
    lines = [ln for ln in capsys.readouterr().out.splitlines() if ln.strip()]
    assert rc == 0
    assert [ln.split(":")[0] for ln in lines] == VERIFY_CHECKS
    assert all(": PASS (" in ln for ln in lines)
    rows = _read_csv(csv_path.read_text())
    assert [r[0] for r in rows[1:]] == VERIFY_CHECKS
    assert all(r[-1] == "True" for r in rows[1:])


def test_verify_full_solve_count(cfg_file, capsys, monkeypatch):
    # two real-driver solves, two for the scheme oracles, one for the
    # comparison and 21 for the penalization (20 levels and m*)
    from jumpsignal import bsde_solver, cli, verify

    calls = []

    def counting(*args, **kwargs):
        calls.append(1)
        return bsde_solver.solve(*args, **kwargs)

    monkeypatch.setattr(cli, "solve", counting)
    monkeypatch.setattr(verify, "solve", counting)
    assert main(["verify", "--config", str(cfg_file), "--samples", "60"]) == 0
    capsys.readouterr()
    assert len(calls) == 26


def test_verify_failed_solve_keeps_the_driver_reports(tmp_path, capsys):
    # with a put struck at 5000 the reference config's solve trips the
    # overflow guard: verify prints the reports it made, the driver checks
    # among them, writes the same reports to its CSV, and ends with one
    # error line
    config, csv_path = tmp_path / "strike.yaml", tmp_path / "checks.csv"
    config.write_text("payoff: {strike: 5000}\n")
    rc = main(["verify", "--config", str(config), "--c", "0.6", "--seed", "1",
               "--csv", str(csv_path)])
    out, err = capsys.readouterr()
    assert rc == 1
    names = [ln.split(":")[0] for ln in out.splitlines()]
    assert set(DRIVER_CHECKS) <= set(names)
    assert all(": PASS (" in ln for ln in out.splitlines())
    rows = _read_csv(csv_path.read_text())[1:]
    assert [r[0] for r in rows] == names and all(r[5] == "True" for r in rows)
    [line] = err.splitlines()
    assert line.startswith("jumpsignal: error: ") and "overflow guard" in line


@pytest.mark.parametrize("samples", ["0", "-5"])
def test_verify_rejects_nonpositive_samples(samples, capsys):
    # zero samples would pass every driver check without testing anything
    with pytest.raises(SystemExit) as exc:
        main(["verify", "--driver-only", "--samples", samples])
    assert exc.value.code == 2
    assert "positive integer" in capsys.readouterr().err


@pytest.mark.parametrize("z_steps", ["0", "-3"])
def test_driver_table_rejects_nonpositive_z_steps(z_steps, capsys):
    # zero points would print an empty table and exit 0
    with pytest.raises(SystemExit) as exc:
        main(["driver-table", "--z-steps", z_steps])
    assert exc.value.code == 2
    assert "positive integer" in capsys.readouterr().err


@pytest.mark.parametrize("bounds", [["--z-min=nan"], ["--z-max=nan"], ["--z-min=inf"],
                                    ["--z-max=-inf"], ["--z-min=-1e308", "--z-max=1e308"]],
                         ids=" ".join)
def test_driver_table_rejects_z_that_is_not_finite(bounds, capsys):
    # the table would print nan rows and exit 0; the last bounds are finite,
    # but their spacing overflows
    err = _one_line_usage_error(["driver-table", *bounds, "--z-steps", "3"], capsys)
    assert err == "jumpsignal: error: z must be finite on every row\n"


def test_driver_table_rejects_a_driver_that_is_not_finite(capsys):
    # finite bounds, but the quadratic overflows at z = 1e200: the table
    # printed f = inf after numpy's overflow warning and exited 0
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        err = _one_line_usage_error(["driver-table", "--z-max", "1e200",
                                     "--z-steps", "2"], capsys)
    assert err.startswith("jumpsignal: error: driver not finite at z = 1e+200:")


@pytest.mark.parametrize("flag", ["--paths", "--seed"])
def test_driver_table_takes_no_batch_overrides(flag, capsys):
    # the table simulates no batch, so a path count or a seed would do nothing
    with pytest.raises(SystemExit) as exc:
        main(["driver-table", flag, "1"])
    assert exc.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err


@pytest.mark.parametrize("paths", ["0", "-5"])
def test_solve_rejects_nonpositive_paths(paths, capsys):
    # a zero path count must not fall back to the config's
    with pytest.raises(SystemExit) as exc:
        main(["solve", "--paths", paths])
    assert exc.value.code == 2
    assert "positive integer" in capsys.readouterr().err


# ranges the model objects check: the config builds them when it loads, so
# each is rejected there, before any command runs
BAD_RANGES = {
    "market: {alpha: 3.0}": "alpha must be in (1, 2), got 3.0",
    "market: {T: -1}": "T must be > 0, got -1",
    "grid: {layout: spiral}": "unknown grid layout 'spiral'",
    "grid: {e_min: 6.0}": "need 0 < e_min < e_max, got (6.0, 5.0)",
    "payoff: {strike: -1.0}": "strike must be > 0, got -1.0",
    # bins this narrow near 0 carry a Poisson mean whose exp(-mu) underflows
    "grid: {e_min: 1.0e-10}": "jump bin mean nu_i dt_k = 1517.74 is too large for the "
                              "Poisson draw: exp(-mu) underflows past 708.39",
    "grid: {e_min: 3.0e-10}": "jump bin mean nu_i dt_k = 859 is too large for the "
                              "Poisson draw: exp(-mu) underflows past 708.39",
}


# inf and nan pass the model objects' "x > 0" style checks, so the config
# blocks reject them at load, as they reject any other non-number
NON_FINITE = {
    "market: {sigma: .inf}": "sigma must be a number, got inf",
    "grid: {e_max: .inf}": "e_max must be a number, got inf",
    "payoff: {strike: .inf}": "strike must be a number, got inf",
    "utility: {lam: .inf}": "lam must be a number, got inf",
}
# integers too large for a float, and a seed past Philox's 2^128 keys:
# the model objects and the RNG would raise outside the config checks
_BIG = 10 ** 399
_SEED = 2 ** 128 + 1
TOO_LARGE = {
    f"market: {{sigma: {_BIG}}}": f"sigma must be a number, got {_BIG}",
    f"grid: {{q: {_BIG}}}": f"q must be an integer, got {_BIG}",
    f"scenario: {{c_values: [{_BIG}]}}": f"c_values must be a list of numbers, got [{_BIG}]",
    f"scheme: {{seeds: [{_SEED}]}}": f"seeds must be >= 0 and < 2**128 - 1009, got [{_SEED}]",
}


def _digits_id(value):
    """A short test id for a value with a 400-digit integer in it."""
    return value.replace(str(_BIG), "1e399") if str(_BIG) in value else None


REJECTED_AT_LOAD = {
    **BAD_RANGES,
    **NON_FINITE,
    **TOO_LARGE,
    "market: {kappa: .nan}": "kappa must be a number or 'compensate', got nan",
    "market: {rho: -.inf}": "rho must be a number, got -inf",
    "utility: {x: .nan}": "x must be a number, got nan",
    "scenario: {c_values: [0.5, .inf]}": "c_values must be a list of numbers, got [0.5, inf]",
}


@pytest.mark.parametrize("text", REJECTED_AT_LOAD, ids=_digits_id)
def test_config_rejects_out_of_range_models(text):
    with pytest.raises(ValueError) as exc:
        load_config_text(text)
    assert str(exc.value) == REJECTED_AT_LOAD[text]


@pytest.mark.parametrize("text, message", [
    ("utility: {lam: true}", "lam must be a number, got True"),
    ("utility: {lamb: 1.0}", "unknown key(s) in block 'utility': ['lamb']"),
    ("scheme: 5", "config block 'scheme' must be a mapping, got int"),
    *BAD_RANGES.items(),
    *NON_FINITE.items(),
    *TOO_LARGE.items(),
], ids=_digits_id)
@pytest.mark.parametrize("command", ["driver-table", "solve", "verify", "grid-dump",
                                     "sweep"])
def test_config_error_is_one_line(command, text, message, tmp_path, capsys):
    # a config error reads like a bad flag: one line on stderr, exit 2
    path = tmp_path / "bad.yaml"
    path.write_text(text)
    with pytest.raises(SystemExit) as exc:
        main([command, "--config", str(path)])
    assert exc.value.code == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.splitlines() == [f"jumpsignal: error: {message}"]


def test_override_error_is_one_line(capsys):
    # an override the config checks reject ends the same way
    with pytest.raises(SystemExit) as exc:
        main(["solve", "--c", "-1"])
    assert exc.value.code == 2
    assert capsys.readouterr().err == "jumpsignal: error: cutoffs must be > 0\n"


@pytest.fixture
def no_batches(monkeypatch):
    """A command that simulates a seed's cells or verify's fresh seed
    fails the test."""
    from jumpsignal import cli, verify

    for module, name in ((cli, "simulate_cells"), (verify, "_simulate_steps")):
        def called(*args, name=name):
            raise AssertionError(f"{name} was called")

        monkeypatch.setattr(module, name, called)


def _one_line_usage_error(argv, capsys) -> str:
    """Run ``argv``, which must end as a usage error; its stderr line."""
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert len(err.splitlines()) == 1
    return err


@pytest.mark.parametrize("case", ["missing", "directory", "yaml-syntax", "yaml-reader"])
@pytest.mark.parametrize("command", ["driver-table", "solve", "verify", "grid-dump",
                                     "sweep"])
def test_unreadable_config_is_one_line(command, case, tmp_path, capsys, no_batches):
    # a config file that cannot be opened or parsed ends as a bad config
    # does, and names the file (and, for a YAML syntax error, the line)
    syntax = tmp_path / "syntax.yaml"
    syntax.write_text("a: [1,\n")
    control = tmp_path / "control.yaml"
    control.write_text("a: \x01\n")
    path, message = {
        "missing": (tmp_path / "missing.yaml", "No such file or directory"),
        "directory": (tmp_path, "Is a directory"),
        "yaml-syntax": (syntax, "expected the node content, but found '<stream end>'"),
        "yaml-reader": (control, "unacceptable character #x0001: "
                                 "special characters are not allowed"),
    }[case]
    where = f"{path}:2" if case == "yaml-syntax" else f"{path}"
    err = _one_line_usage_error([command, "--config", str(path)], capsys)
    assert err == f"jumpsignal: error: {where}: {message}\n"


@pytest.mark.parametrize("args", [
    ["sweep", "--out", "{missing}"],
    ["sweep", "--out", "{kept}", "--summary", "{missing}"],
    ["sweep", "--out", "{fresh}", "--summary", "{missing}"],
    ["verify", "--csv", "{missing}"],
    ["grid-dump", "--out", "{missing}"],
    ["driver-table", "--out", "{missing}"],
], ids=" ".join)
def test_unwritable_output_fails_before_any_work(args, cfg_file, tmp_path, capsys,
                                                 no_batches):
    # an output path in a missing directory is a usage error before the
    # first batch; the check truncates no file and leaves none behind
    missing = tmp_path / "no-such-dir" / "out.csv"
    kept = tmp_path / "kept.csv"
    kept.write_text("kept\n")
    fresh = tmp_path / "fresh.csv"
    argv = [a.format(missing=missing, kept=kept, fresh=fresh) for a in args]
    err = _one_line_usage_error(argv + ["--config", str(cfg_file)], capsys)
    assert err == f"jumpsignal: error: {missing}: No such file or directory\n"
    assert kept.read_text() == "kept\n"
    assert not fresh.exists()
