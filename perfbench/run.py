"""Reference-scale benchmark of ``jumpsignal``.

    python3 perfbench/run.py --workload NAME [--seed N] [--seconds S] [--trace 0|1]

Run from the root of a checkout. Each operation is one ``jumpsignal``
command at the reference scale (65536 paths, 10 steps, 64 cells, 40 jump
bins) in a fresh process (child.py). The seed argument N becomes the seed
list N..N+4 of a generated config, so the program sees only the config;
N = 1 gives the reference seeds 1-5. Operations repeat, one after another
(a closed loop with one client), while the next one is expected to end
within S seconds; there is always at least one.

With ``--trace 0`` the last line of standard output holds the end-to-end
metrics: ``wall_s`` (median wall time of the command after set-up),
``setup_s`` (median over separate set-up-only processes), ``peak_rss_mb``
(median ``ru_maxrss`` of the command's process) and ``success_rate``
(1 - failed / attempted operations). With ``--trace 1`` the command runs
once untraced and once traced, and the last line holds per-layer metrics
from the traced run (spans.py). The line before it is the run record.

Every operation's outputs are checked (checks.py). The CSV ``wall_time``
column is not used for timing: it includes simulation for ``solve`` but
leaves it out for ``sweep``, whose batch is simulated once per seed.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

from checks import check_sweep_rows, check_verify
from child import BLAS_VARS

ROOT = Path(__file__).resolve().parent.parent
HERE = Path(__file__).resolve().parent
WORK = ROOT / ".perfbench_work"

N_SEEDS = 5
HIDESMALL_CUTOFFS = [0.1, 0.3, 0.6, 1.0, 2.0]
# timed set-up-only processes per run, after one warm-up; machine speed
# drifts over seconds, so they are split between before and after the
# operations rather than run back to back
SETUP_PROCESSES = 6
TIME_LIMIT_S = 170.0     # stop starting operations that would end later

# name -> (scenario block of the generated config, CLI arguments, cutoffs of
#          the result rows or None for verify, mean Y0 must rise in c)
WORKLOADS = {
    "sweep-hidesmall": ({"variant": "hidesmall", "c_values": HIDESMALL_CUTOFFS},
                        ["sweep"], HIDESMALL_CUTOFFS, True),
    "seeds-hidelarge": ({"variant": "hidelarge", "c_values": [0.5]},
                        ["sweep"], [0.5], False),
    "verify-drivers": (None, ["verify", "--driver-only", "--samples", "1000"],
                       None, False),
}


def blas_env():
    """Child environment: one process with one BLAS thread.

    The program's matrices are small, so a second thread does not make it
    faster; with one, a core is left for the rest of the machine.
    """
    nproc = len(os.sched_getaffinity(0))
    env = dict(os.environ)
    for var in BLAS_VARS:
        env[var] = "1"
    return env, nproc


class Runner:
    def __init__(self, work: Path, config: Path, env, started: float):
        self.work, self.config, self.env, self.started = work, config, env, started
        self.n = 0

    def child(self, cli_args=(), trace=False):
        self.n += 1
        result = self.work / f"result{self.n}.json"
        spans = self.work / f"spans{self.n}.json"
        cmd = [sys.executable, str(HERE / "child.py"), "--result", str(result),
               "--config", str(self.config)]
        if trace:
            cmd += ["--trace", str(spans)]
        cmd += ["--", *cli_args]
        timeout = max(1.0, TIME_LIMIT_S + 5.0 - (time.perf_counter() - self.started))
        # the command's own report goes nowhere: its CSV outputs are checked
        proc = subprocess.run(cmd, stdout=subprocess.DEVNULL, env=self.env,
                              cwd=self.work, timeout=timeout)
        if proc.returncode != 0:
            raise RuntimeError(f"program process exited with {proc.returncode}")
        with open(result) as fh:
            out = json.load(fh)
        if trace:
            with open(spans) as fh:
                out["trace"] = json.load(fh)
        return out

    def operation(self, cli_args, trace=False):
        """One command with its own output files; returns the child's record."""
        tag = f"op{self.n + 1}"
        outputs = {}
        args = list(cli_args) + ["--config", str(self.config)]
        if cli_args[0] == "sweep":
            outputs["results"] = self.work / f"{tag}_results.csv"
            args += ["--out", str(outputs["results"]),
                     "--summary", str(self.work / f"{tag}_summary.csv")]
        else:
            outputs["reports"] = self.work / f"{tag}_reports.csv"
            args += ["--csv", str(outputs["reports"])]
        out = self.child(args, trace=trace)
        out["outputs"] = outputs
        return out


def read_csv(path):
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def a_priori_bound(config_path):
    """|Y0| bound of ``verify.check_y_bound`` at t = 0, without eps_reg."""
    sys.path.insert(0, str(ROOT / "src"))
    import numpy as np
    from jumpsignal.config import load_config
    from jumpsignal.drivers import driver_bounds

    cfg = load_config(config_path)
    spec = cfg.market_spec()
    grid = cfg.jump_grid(spec)
    ctx = cfg.driver_context(spec, grid, cfg.scenarios()[0])
    lo, _ = driver_bounds(0.0, np.zeros(grid.points.size), ctx)
    lam = ctx.lam
    return math.log(math.exp(lam * cfg.payoff.strike) + 1.0) / lam - lo * cfg.market.T


def check_operation(op, workload, seeds, bound, reference):
    _, _, cutoffs, monotone = WORKLOADS[workload]
    if cutoffs is None:
        return check_verify(read_csv(op["outputs"]["reports"]), op["rc"])
    return check_sweep_rows(read_csv(op["outputs"]["results"]), seeds, cutoffs,
                            bound, op["config_hash"], reference.get(workload, {}),
                            monotone)


def git_commit():
    if not (ROOT / ".git").exists():
        return None
    proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                          capture_output=True, text=True, check=False)
    return proc.stdout.strip() or None


def run(args, work: Path):
    started = time.perf_counter()
    scenario, cli_args, _, _ = WORKLOADS[args.workload]
    seeds = [args.seed + i for i in range(N_SEEDS)]
    config = {"scheme": {"seeds": seeds}}
    if scenario is not None:
        config["scenario"] = scenario
    config_path = work / "config.yaml"
    config_path.write_text(json.dumps(config))  # JSON is a subset of YAML
    env, nproc = blas_env()
    runner = Runner(work, config_path, env, started)

    setup = []
    if not args.trace:
        runner.child()  # warm-up: byte-compiles and fills the page cache
        setup = [runner.child()["setup_s"] for _ in range(SETUP_PROCESSES // 2)]

    ops = []
    if args.trace:
        ops.append(runner.operation(cli_args))
        ops.append(runner.operation(cli_args, trace=True))
    else:
        loop_start = time.perf_counter()
        while True:
            ops.append(runner.operation(cli_args))
            now = time.perf_counter()
            per_op = (now - loop_start) / len(ops)
            if (now - loop_start + per_op > args.seconds
                    or now - started + per_op > TIME_LIMIT_S):
                break
        setup += [runner.child()["setup_s"]
                  for _ in range(SETUP_PROCESSES - len(setup))]

    with open(HERE / "reference_y0.json") as fh:
        reference = json.load(fh)
    bound = a_priori_bound(config_path)
    attempted = failed = 0
    problems = []
    for op in ops:
        a, f, p = check_operation(op, args.workload, seeds, bound, reference)
        attempted += a
        failed += f
        problems += p
    first = ops[0]
    record = {
        "workload": args.workload, "seed": args.seed, "seeds": seeds,
        "seconds": args.seconds, "trace": args.trace, "operations": len(ops),
        "config_hash": first["config_hash"], "commit": git_commit(),
        "python": first["python"], "numpy": first["numpy"], "scipy": first["scipy"],
        "platform": platform.platform(), "nproc": nproc,
        "blas_threads": first["blas_threads"],
        "error_rate": failed / attempted,
        "wall_s_each": [op["wall_s"] for op in ops], "setup_s_each": setup,
        "a_priori_bound": bound, "problems": problems[:20],
    }
    if args.trace:
        from spans import layer_metrics

        values = layer_metrics(ops[1]["trace"], untraced_wall_s=ops[0]["wall_s"])
        metrics = {name: {"value": v, "unit": unit_of(name)} for name, v in values.items()}
    else:
        metrics = {
            "wall_s": {"value": statistics.median(op["wall_s"] for op in ops),
                       "unit": "s"},
            "setup_s": {"value": statistics.median(setup), "unit": "s"},
            "peak_rss_mb": {"value": statistics.median(op["peak_rss_mb"] for op in ops),
                            "unit": "MB"},
            "success_rate": {"value": 1.0 - failed / attempted, "unit": "fraction"},
        }
    print(json.dumps({"record": record}))
    print(json.dumps({"correct": failed == 0,
                      "attempted": attempted, "failed": failed, "metrics": metrics}))


def unit_of(name):
    if name.endswith("_s"):
        return "s"
    if name.endswith("_bytes"):
        return "B"
    return "fraction" if name.endswith("_share") else "count"


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=35.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if not (ROOT / "src" / "jumpsignal" / "cli.py").is_file():
        print(f"no jumpsignal sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    WORK.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(dir=WORK))
    try:
        run(args, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
