"""Show that the output checks raise the error rate on corrupted outputs.

    python3 perfbench/selftest.py

Builds sweep rows from the committed reference values of sweep-hidesmall
(seeds 1-5) and a verify report where every check passes; both must give
error rate 0. Then it corrupts one row, or fails one check, at a time and
requires each corruption to raise the error rate. Exits 1 otherwise.
"""

import json
import sys

from checks import VERIFY_CHECKS, check_sweep_rows, check_verify
from run import HERE, HIDESMALL_CUTOFFS

SEEDS = [1, 2, 3, 4, 5]
BOUND = 3.0
HASH = "0123456789abcdef"


def sweep_rows(reference):
    return [{"scenario": "hide-small", "c": repr(c), "seed": str(s),
             "y0": repr(reference[str(s)][repr(c)]), "value": "", "wall_time": "",
             "config_hash": HASH, "status": "ok"}
            for s in SEEDS for c in HIDESMALL_CUTOFFS]


def sweep_error_rate(rows, reference):
    attempted, failed, problems = check_sweep_rows(
        rows, SEEDS, HIDESMALL_CUTOFFS, BOUND, HASH, reference, monotone=True)
    return failed / attempted, problems


def verify_error_rate(reports, exit_code):
    attempted, failed, problems = check_verify(reports, exit_code)
    return failed / attempted, problems


def main():
    with open(HERE / "reference_y0.json") as fh:
        reference = json.load(fh)["sweep-hidesmall"]

    def corrupt(field, value, index=7):
        rows = sweep_rows(reference)
        rows[index] = dict(rows[index], **{field: value})
        return rows

    def swapped_means():
        # every seed's Y0 at c = 1.0 drops below its value at c = 0.6
        return [dict(r, y0=repr(float(r["y0"]) - 1.0)) if r["c"] == "1.0" else r
                for r in sweep_rows(reference)]

    off = repr(float(sweep_rows(reference)[7]["y0"]) + 1e-3)
    # name -> (rows, reference values they are checked against)
    sweep_cases = {
        "clean": (sweep_rows(reference), reference),
        "Y0 not finite": (corrupt("y0", "nan"), reference),
        "Y0 above the bound": (corrupt("y0", repr(BOUND * 2)), reference),
        "Y0 off its reference": (corrupt("y0", off), reference),
        "error status": (corrupt("status", "error: driver failed at step 3"), reference),
        "foreign config hash": (corrupt("config_hash", "fedcba9876543210"), reference),
        "row missing": (sweep_rows(reference)[1:], reference),
        # without references, so only the ordering can catch it
        "mean Y0 not rising in c": (swapped_means(), {}),
    }
    passing = [{"name": n, "passed": "True"} for n in VERIFY_CHECKS]
    verify_cases = {
        "clean": (passing, 0),
        "one check FAIL": ([dict(r, passed="False") if r["name"] == "fm_monotone" else r
                            for r in passing], 1),
        "one check missing": (passing[1:], 0),
        "nonzero exit with all PASS": (passing, 1),
    }

    ok = True
    for name, (rows, ref) in sweep_cases.items():
        rate, problems = sweep_error_rate(rows, ref)
        ok &= (rate == 0.0) == (name == "clean")
        print(f"sweep  {name:28s} error_rate {rate:.3f}  {problems[:1]}")
    for name, (reports, code) in verify_cases.items():
        rate, problems = verify_error_rate(reports, code)
        ok &= (rate == 0.0) == (name == "clean")
        print(f"verify {name:28s} error_rate {rate:.3f}  {problems[:1]}")
    print("self-test", "passed" if ok else "FAILED")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
