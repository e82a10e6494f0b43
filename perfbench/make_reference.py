"""Record the reference Y0 values that run.py checks sweep rows against.

    python3 perfbench/make_reference.py

Runs both sweep workloads on seeds 1-14, which covers every seed that
``run.py --seed N`` uses for N = 1..10, and rewrites reference_y0.json.
Rerun it only for a deliberate change of the results (an RNG rebase), and
say so in CHANGES.md.
"""

import csv
import json
import shutil
import sys
import tempfile
from pathlib import Path

from run import HERE, ROOT, WORK, WORKLOADS

SEEDS = list(range(1, 15))


def main():
    sys.path.insert(0, str(ROOT / "src"))
    from jumpsignal import cli

    WORK.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(dir=WORK))
    reference = {}
    try:
        for name, (scenario, cli_args, cutoffs, _) in WORKLOADS.items():
            if cutoffs is None:
                continue
            config = work / f"{name}.yaml"
            config.write_text(json.dumps({"scheme": {"seeds": SEEDS},
                                          "scenario": scenario}))
            out = work / f"{name}.csv"
            rc = cli.main([*cli_args, "--config", str(config), "--out", str(out)])
            with open(out, newline="") as fh:
                rows = list(csv.DictReader(fh))
            if rc != 0 or any(r["status"] != "ok" for r in rows):
                raise SystemExit(f"{name}: sweep failed; no reference written")
            table = reference.setdefault(name, {})
            for r in rows:
                table.setdefault(r["seed"], {})[repr(float(r["c"]))] = float(r["y0"])
    finally:
        shutil.rmtree(work, ignore_errors=True)
    with open(HERE / "reference_y0.json", "w") as fh:
        json.dump(reference, fh, indent=1, sort_keys=True)
        fh.write("\n")


if __name__ == "__main__":
    main()
