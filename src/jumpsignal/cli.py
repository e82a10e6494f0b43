"""Command line entry points.

Subcommands:

* ``grid-dump``     jump grid as CSV (index, point, weight, eta)
* ``driver-table``  driver values f(z, 0) and argmin over a z range
* ``solve``         one backward solve, summary record to stdout
* ``sweep``         cutoff sweep over seeds, results CSV + per-c summary
* ``verify``        full property-check suite, exit 0 iff all pass
* ``report``        two-column (c, mean Y0) files per scenario from results

Every results row carries the config hash and the seed, so a rerun with
the same hash and seed reproduces Y0 bit for bit (the whole pipeline is
counter-based and uses deterministic reductions).
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import dataclasses
import os
import sys
import time
from typing import List, NoReturn, Optional

import numpy as np
import yaml

from .bsde_solver import (BackwardSolution, CellIndex, simulate_cells, solve,
                          value_and_strategy)
from .config import (
    FRESH_SEED_OFFSET,
    ExperimentConfig,
    config_hash,
    load_config,
)
from .drivers import driver_f_batch
from .levy_model import NoSignal
from .simulate import simulate_batch
from . import verify as verify_mod

RESULT_COLUMNS = ["scenario", "c", "seed", "y0", "value", "wall_time",
                  "config_hash", "status"]


def _load(args, *outputs: Optional[str]) -> ExperimentConfig:
    """The config of a command: the file (or the defaults) with the
    command-line overrides. A config error, a config file that cannot be
    read and an output file of ``outputs`` that cannot be written are
    usage errors, raised before the command does any work."""
    try:
        cfg = _configure(args)
        # appending truncates no file; a file the check made is removed
        for path in [p for p in outputs if p not in (None, "-")]:
            existed = os.path.lexists(path)
            open(path, "a").close()
            if not existed:
                os.remove(path)
        return cfg
    except OSError as exc:
        _usage_error(f"{exc.filename}: {exc.strerror}")
    except yaml.YAMLError as exc:
        # PyYAML's own text runs over several lines and names no file
        mark = getattr(exc, "problem_mark", None)
        if mark is None:
            _usage_error(f"{args.config}: {str(exc).splitlines()[0]}")
        _usage_error(f"{args.config}:{mark.line + 1}: {exc.problem}")
    except ValueError as exc:
        _usage_error(exc)


def _usage_error(message) -> NoReturn:
    """End the command as argparse does for a bad flag: one line on
    stderr and exit status 2."""
    print(f"jumpsignal: error: {message}", file=sys.stderr)
    raise SystemExit(2)


def _configure(args) -> ExperimentConfig:
    cfg = load_config(args.config) if args.config else ExperimentConfig()
    overrides = {"scenario": {}, "scheme": {}}
    if getattr(args, "scenario", None):
        overrides["scenario"]["variant"] = args.scenario
    if getattr(args, "c", None) is not None:
        overrides["scenario"]["c_values"] = (args.c,)
    if getattr(args, "paths", None) is not None:
        overrides["scheme"]["n_paths"] = args.paths
    if getattr(args, "seed", None) is not None:
        overrides["scheme"]["seeds"] = (args.seed,)
    # one replace per overridden block; the config checks itself again
    return dataclasses.replace(cfg, **{name: dataclasses.replace(getattr(cfg, name), **kw)
                                       for name, kw in overrides.items() if kw})


def _write_csv(path: Optional[str], header, rows) -> None:
    """Write ``header`` and ``rows`` as CSV to the file at ``path``, or to
    stdout for None or '-'. A float (numpy's too) is written as
    ``repr(float(x))``, the shortest text that reads back as the same
    double; any other value as ``str``."""
    to_stdout = path in (None, "-")
    with contextlib.nullcontext(sys.stdout) if to_stdout else open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(header)
        w.writerows([repr(float(x)) if isinstance(x, float) else x for x in row]
                    for row in rows)


def cmd_grid_dump(args) -> int:
    cfg = _load(args, args.out)
    grid = cfg.jump_grid(cfg.market_spec())
    _write_csv(args.out, ["index", "point", "weight", "eta"],
               zip(grid.signed_indices, grid.points, grid.weights, grid.eta))
    return 0


def cmd_driver_table(args) -> int:
    cfg = _load(args, args.out)
    spec = cfg.market_spec()
    ctx = cfg.driver_context(spec, cfg.jump_grid(spec), cfg.scenarios()[0])
    # a bound that is not finite, or bounds too far apart for a float
    # spacing, give a z the driver rejects: a usage error, as a bad flag
    with np.errstate(over="ignore", invalid="ignore"):
        z = np.linspace(args.z_min, args.z_max, args.z_steps)
    u = np.zeros((z.size, ctx.grid.points.size))
    try:
        vals, p0 = driver_f_batch(z, u, ctx)
    except ValueError as exc:
        _usage_error(exc)
    _write_csv(args.out, ["z", "f", "p0"], zip(z, vals, p0))
    return 0


def _cells(cfg, seed) -> CellIndex:
    """The seed's regression cells, shared by every scenario, built while
    the seed's steps are simulated: no S or dW of the seed is held whole."""
    spec = cfg.market_spec()
    return simulate_cells(spec, cfg.jump_grid(spec), cfg.time_grid(), cfg.scheme.n_paths,
                          seed, cfg.scheme.n_cells, cfg.scheme.min_count)


def _solution(cfg, seed, ctx) -> BackwardSolution:
    """The BSDE of driver ``ctx`` solved on the seed's cells."""
    cells = _cells(cfg, seed)
    return solve(cells, cfg.payoff_values(cells.S_last), ctx)


def _row(cfg, cfg_hash, scenario, cells) -> dict:
    """One scenario on a seed's cells as a result row: status ``ok``, or
    ``error: ...`` and no values when the solve or its bound check fails.

    ``wall_time`` is the solve with its checks, without the simulation
    and the cell index, which every scenario of the seed shares.
    """
    row = {"scenario": scenario.label(), "c": getattr(scenario, "c", ""),
           "seed": cells.seed, "y0": "", "value": "", "wall_time": "",
           "config_hash": cfg_hash}
    t0 = time.perf_counter()
    try:
        ctx = cfg.driver_context(cells.spec, cells.grid, scenario)
        sol = solve(cells, cfg.payoff_values(cells.S_last), ctx)
        bound = verify_mod.check_y_bound(sol, ctx)
        if not bound.passed:
            raise ValueError(f"backward values break the a priori bound: {bound.line()}")
        value, _ = value_and_strategy(sol, cfg.utility.x, ctx)
    except (ValueError, ArithmeticError) as exc:
        return {**row, "status": f"error: {exc}"}
    wall = time.perf_counter() - t0
    return {**row, "y0": sol.y0, "value": value,
            "wall_time": f"{wall:.3f}", "status": "ok"}


def _seed_rows(cfg, cfg_hash, seeds, scenarios) -> List[dict]:
    """The result row of every scenario on ``seeds``, one seed at a time."""
    rows = []
    # cells do not depend on the scenario: build them once per seed
    for seed in seeds:
        cells = _cells(cfg, seed)
        rows += [_row(cfg, cfg_hash, scenario, cells) for scenario in scenarios]
        # free this seed's cells before the next one is simulated
        del cells
    return rows


def _rows(cfg, seeds, scenarios) -> List[dict]:
    """The result row of every scenario on every seed, in no set order.

    Seeds are independent, so they run side by side in n = min(seeds,
    CPUs the process may use) processes: this one takes ``seeds[0::n]``
    and n - 1 forked workers take ``seeds[i::n]``. Each process holds one
    seed's cells at a time, never a whole batch. A row does not depend on
    the process that made it; a worker's exception is raised here. One
    seed starts no process.
    """
    cfg_hash = config_hash(cfg)
    n = min(len(seeds), len(os.sched_getaffinity(0)))
    if n == 1:
        return _seed_rows(cfg, cfg_hash, seeds, scenarios)
    # imported here: one seed (solve) does not pay for the import
    import multiprocessing
    from concurrent.futures import ProcessPoolExecutor

    # fork, not spawn: a spawned worker imports numpy and the package again
    # (about 0.2 s); the package runs no thread at the fork, as
    # simulate_cells joins its jump pool before it returns or raises
    with ProcessPoolExecutor(n - 1, mp_context=multiprocessing.get_context("fork")) as pool:
        shares = [pool.submit(_seed_rows, cfg, cfg_hash, seeds[i::n], scenarios)
                  for i in range(1, n)]
        rows = _seed_rows(cfg, cfg_hash, seeds[0::n], scenarios)
        for share in shares:
            rows += share.result()
    return rows


def cmd_solve(args) -> int:
    cfg = _load(args)
    [row] = _rows(cfg, cfg.scheme.seeds[:1], cfg.scenarios()[:1])
    _write_csv(None, RESULT_COLUMNS, [[row[k] for k in RESULT_COLUMNS]])
    return 0 if row["status"] == "ok" else 1


def cmd_sweep(args) -> int:
    """Every configured cutoff on every seed: one results row per solve,
    sorted by scenario, cutoff and seed, and the per-cutoff summary.

    The seeds run side by side in processes (see ``_rows``); the rows and
    the summary are the same at any process count, but each row's
    ``wall_time`` is measured while the other processes run.
    """
    cfg = _load(args, args.out, args.summary)
    rows = _rows(cfg, cfg.scheme.seeds, cfg.scenarios())
    rows.sort(key=lambda r: (r["scenario"], _c_key(r["c"]), r["seed"]))
    _write_csv(args.out, RESULT_COLUMNS, ([r[k] for k in RESULT_COLUMNS] for r in rows))
    _write_csv(args.summary, ["scenario", "c", "n_seeds", "y0_mean", "y0_spread"],
               ([scen, c, len(ys), np.mean(ys), np.max(ys) - np.min(ys)]
                for (scen, c), ys in _ok_groups(rows)))
    return 0


def _c_key(c):
    """Sort key of a cutoff; the empty cutoff of no-signal rows sorts first."""
    return float(c) if c != "" else -1.0


def _ok_groups(rows):
    """Y0 of the ``ok`` rows per (scenario, c), sorted by scenario, then c."""
    groups = {}
    for r in rows:
        if r["status"] == "ok":
            groups.setdefault((r["scenario"], r["c"]), []).append(float(r["y0"]))
    return sorted(groups.items(), key=lambda kv: (kv[0][0], _c_key(kv[0][1])))


def cmd_verify(args) -> int:
    cfg = _load(args, args.csv)
    spec = cfg.market_spec()
    n = args.samples
    ctx = cfg.driver_context(spec, cfg.jump_grid(spec), cfg.scenarios()[0])

    reports = [
        verify_mod.check_driver_kkt(n, ctx),
        verify_mod.check_driver_sandwich(n, ctx),
        verify_mod.check_fm_monotone(n, ctx),
        verify_mod.check_lipschitz_z(n, ctx),
        verify_mod.check_scenario_limits(dataclasses.replace(ctx, scenario=NoSignal()),
                                         n_samples=n),
    ]
    error = None
    if not args.driver_only:
        try:
            _batch_reports(cfg, ctx, reports)
        except (ValueError, ArithmeticError) as exc:
            error = exc  # a failed solve: print the reports made, then the error

    print(verify_mod.format_reports(reports))
    if args.csv:
        _write_csv(args.csv, ["name", "samples", "violations", "worst_margin",
                              "tolerance", "passed"],
                   ([r.name, r.samples, r.violations, r.worst_margin, r.tolerance,
                     r.passed] for r in sorted(reports, key=lambda r: r.name)))
    if error is not None:
        print(f"jumpsignal: error: {error}", file=sys.stderr)
        return 1
    return 0 if all(r.passed for r in reports) else 1


def _batch_reports(cfg, ctx, reports):
    """Append the batch checks to ``reports``, one at a time."""
    seeds = cfg.scheme.seeds[:2] if len(cfg.scheme.seeds) >= 2 \
        else (cfg.scheme.seeds[0], cfg.scheme.seeds[0] + 1)
    # each seed's real-driver BSDE: the first serves every check, the
    # second gives only the spread of Y0 between batches that the
    # martingale tie allows for, so only its Y0 is kept and its cells are
    # freed before the fresh batch, the one whole batch, is simulated
    sol = _solution(cfg, seeds[0], ctx)
    eps_reg = abs(sol.y0 - _solution(cfg, seeds[1], ctx).y0)
    reports.append(verify_mod.check_scheme_oracles(sol))
    delta = 0.05

    def plus_delta(Z, U):
        vals, p0 = ctx(Z, U)
        return vals + delta, p0

    reports.append(verify_mod.check_comparison(sol, sol.F, plus_delta))
    reports.append(verify_mod.check_penalization(sol, ctx))
    fresh_seed = max(cfg.scheme.seeds) + FRESH_SEED_OFFSET
    fresh = simulate_batch(ctx.spec, ctx.grid, cfg.time_grid(), cfg.scheme.n_paths,
                           fresh_seed)
    reports.append(verify_mod.check_martingale_optimality(
        fresh, sol, ctx, cfg.payoff_values, cfg.utility.x, eps_reg))
    reports.append(verify_mod.check_y_bound(sol, ctx))


def cmd_report(args) -> int:
    try:
        rows = _read_results(args.results)
        os.makedirs(args.out_dir, exist_ok=True)
    except OSError as exc:
        _usage_error(f"{exc.filename}: {exc.strerror}")
    except ValueError as exc:
        _usage_error(exc)

    by_scen = {}
    for (scen, c), ys in _ok_groups(rows):
        by_scen.setdefault(scen, []).append((c, ys))
    for scen, cuts in by_scen.items():
        path = os.path.join(args.out_dir, f"{scen}.dat")
        with open(path, "w") as fh:
            for c, ys in cuts:
                fh.write(f"{c or '-'} {float(np.mean(ys))!r}\n")
        print(f"{scen}: {len(cuts)} cutoff(s) -> {path}")
    return 0


def _read_results(path) -> List[dict]:
    """The rows of a results CSV. A malformed file raises ValueError,
    which names the file and, where there is one, the line."""
    rows = []
    with open(path, "r", newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader, None)
            if header != RESULT_COLUMNS:
                raise ValueError(f"{path}:1: unexpected header {header}")
            for row in reader:
                lineno = reader.line_num
                if len(row) != len(RESULT_COLUMNS):
                    raise ValueError(f"{path}:{lineno}: expected "
                                     f"{len(RESULT_COLUMNS)} columns, got {len(row)}")
                rec = dict(zip(RESULT_COLUMNS, row))
                if rec["c"] != "":
                    _finite(rec["c"], f"{path}:{lineno}: bad c")
                if rec["status"] == "ok":
                    _finite(rec["y0"], f"{path}:{lineno}: bad y0")
                rows.append(rec)
        except csv.Error as exc:
            raise ValueError(f"{path}:{reader.line_num}: {exc}")
        except UnicodeDecodeError as exc:
            raise ValueError(f"{path}: not a text file: {exc}")
    return rows


def _finite(text: str, where: str) -> None:
    """Raise ValueError, its message led by ``where``, unless ``text`` is
    a finite number."""
    try:
        x = float(text)
    except ValueError as exc:
        raise ValueError(f"{where}: {exc}") from None
    if not np.isfinite(x):
        raise ValueError(f"{where}: not a finite number: {text}")


def _positive_int(text: str) -> int:
    if int(text) < 1:
        raise argparse.ArgumentTypeError(f"must be a positive integer, got {text}")
    return int(text)


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="jumpsignal",
                                description="jump-signal portfolio BSDE toolkit")
    sub = p.add_subparsers(dest="command", required=True)

    def add_common(sp, batch=True):
        sp.add_argument("--config", help="YAML config path (defaults used if absent)")
        sp.add_argument("--scenario", choices=["nosignal", "hidesmall", "hidelarge"])
        sp.add_argument("--c", type=float, help="single cutoff override")
        if batch:
            sp.add_argument("--paths", type=_positive_int, help="path count override")
            sp.add_argument("--seed", type=int, help="single seed override")

    sp = sub.add_parser("grid-dump", help="dump the discretized jump measure")
    sp.add_argument("--config")
    sp.add_argument("--out", help="output CSV ('-' or absent: stdout)")
    sp.set_defaults(fn=cmd_grid_dump)

    sp = sub.add_parser("driver-table", help="tabulate f(z, 0) over a z range")
    add_common(sp, batch=False)
    sp.add_argument("--z-min", type=float, default=-2.0)
    sp.add_argument("--z-max", type=float, default=2.0)
    sp.add_argument("--z-steps", type=_positive_int, default=41)
    sp.add_argument("--out")
    sp.set_defaults(fn=cmd_driver_table)

    sp = sub.add_parser("solve", help="single backward solve")
    add_common(sp)
    sp.set_defaults(fn=cmd_solve)

    sp = sub.add_parser("sweep", help="cutoff sweep over all seeds")
    add_common(sp)
    sp.add_argument("--out", default="results.csv")
    sp.add_argument("--summary", help="per-cutoff summary CSV ('-': stdout)")
    sp.set_defaults(fn=cmd_sweep)

    sp = sub.add_parser("verify", help="run the property-check suite")
    add_common(sp)
    sp.add_argument("--samples", type=_positive_int, default=1000)
    sp.add_argument("--driver-only", action="store_true",
                    help="skip the batch-level checks")
    sp.add_argument("--csv", help="write the check reports as CSV ('-': stdout)")
    sp.set_defaults(fn=cmd_verify)

    sp = sub.add_parser("report", help="plot-ready files from a results CSV")
    sp.add_argument("--results", required=True)
    sp.add_argument("--out-dir", default=".")
    sp.set_defaults(fn=cmd_report)
    return p


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    return args.fn(args)


if __name__ == "__main__":
    sys.exit(main())
