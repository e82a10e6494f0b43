"""One program process of the benchmark: set-up, then one ``jumpsignal`` command.

    python3 perfbench/child.py --result OUT.json --config CFG.yaml \
        [--trace SPANS.json] [-- CLI ARGS...]

Set-up is importing numpy, scipy and ``jumpsignal`` and building the
config, jump grid and time grid. With CLI arguments the command then runs
through ``jumpsignal.cli.main`` (``src`` is put on the path; the console
script is not installed) and its wall time and the process's peak resident
set size are written to OUT.json. With ``--trace`` the layers' public
functions are wrapped first (see spans.py) and the spans are written to
SPANS.json after the command ends.
"""

import argparse
import json
import os
import platform
import resource
import sys
import time

_T0 = time.perf_counter()  # set-up starts before numpy is imported

_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def main():
    p = argparse.ArgumentParser()
    p.add_argument("--result", required=True)
    p.add_argument("--config", required=True)
    p.add_argument("--trace")
    p.add_argument("cli_args", nargs="*")
    args = p.parse_args()

    sys.path.insert(0, os.path.join(_ROOT, "src"))
    import numpy
    import scipy
    from jumpsignal import cli
    from jumpsignal.config import config_hash, load_config

    cfg = load_config(args.config)
    spec = cfg.market_spec()
    cfg.jump_grid(spec)
    cfg.time_grid()
    setup_s = time.perf_counter() - _T0

    out = {"setup_s": setup_s, "config_hash": config_hash(cfg),
           "python": platform.python_version(), "numpy": numpy.__version__,
           "scipy": scipy.__version__,
           "blas_threads": {v: os.environ.get(v) for v in BLAS_VARS}}
    if args.cli_args:
        tracer = None
        if args.trace:
            from spans import Tracer

            tracer = Tracer()
            tracer.install()
        t0 = time.perf_counter()
        rc = cli.main(args.cli_args)
        wall_s = time.perf_counter() - t0
        out.update(rc=rc, wall_s=wall_s,
                   peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024)
        if tracer is not None:
            tracer.dump(args.trace, wall_s)
    with open(args.result, "w") as fh:
        json.dump(out, fh)


if __name__ == "__main__":
    main()
