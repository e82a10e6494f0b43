"""Output checks that feed the benchmark's failure count.

An operation is one sweep row or one verify check. Each function returns
``(attempted, failed, problems)``, ``problems`` being one line per failure.
The functions take parsed outputs only, so selftest.py can feed them
corrupted ones. Standard library only.
"""

from __future__ import annotations

import math
from collections import defaultdict

# |Y0 - reference| allowed for seeds with a committed reference value. The
# seed-to-seed spread of Y0 is about 4e-3; an exact driver argmin moves Y0
# far less than this, while an RNG rebase moves it by up to the seed spread
# and has to record new references (make_reference.py).
Y0_TOLERANCE = 1e-4

# what ``verify --driver-only`` runs: the checks on the driver alone, which
# draw their samples from fixed seeds of their own
VERIFY_CHECKS = (
    "driver_sandwich",
    "fm_monotone",
    "lipschitz_z",
    "scenario_limits",
)


def _key(c):
    return repr(float(c))


def check_sweep_rows(rows, seeds, cutoffs, bound, config_hash, reference,
                     monotone):
    """Rows of a sweep results CSV (dicts keyed by its header).

    Every (seed, c) needs a row with status ``ok``, a finite Y0 with
    |Y0| <= ``bound`` and the run's config hash; ``reference`` maps seed
    and c (both as strings) to a committed Y0. With ``monotone`` the mean
    Y0 over seeds must increase in c; otherwise the rows of the cutoff that
    breaks it fail.
    """
    by_point = {}
    for r in rows:
        by_point[(int(r["seed"]), _key(r["c"]))] = r
    failed_points = {}
    y0s = defaultdict(list)
    for seed in seeds:
        for c in cutoffs:
            point = (seed, _key(c))
            r = by_point.get(point)
            why = None
            if r is None:
                why = "no row"
            elif r["status"] != "ok":
                why = f"status {r['status']!r}"
            elif r["config_hash"] != config_hash:
                why = f"config hash {r['config_hash']} != {config_hash}"
            else:
                try:
                    y0 = float(r["y0"])
                except ValueError:
                    y0 = math.nan
                ref = reference.get(str(seed), {}).get(_key(c))
                if not math.isfinite(y0):
                    why = f"Y0 {r['y0']!r} not finite"
                elif abs(y0) > bound:
                    why = f"|Y0| {abs(y0)!r} above the a-priori bound {bound!r}"
                elif ref is not None and abs(y0 - ref) > Y0_TOLERANCE:
                    why = f"Y0 {y0!r} off reference {ref!r} by more than {Y0_TOLERANCE}"
                else:
                    y0s[point[1]].append(y0)
            if why is not None:
                failed_points[point] = why
    if monotone:
        means = [(float(c), sum(y0s[_key(c)]) / len(y0s[_key(c)]))
                 for c in sorted(cutoffs) if y0s[_key(c)]]
        for (c_lo, m_lo), (c_hi, m_hi) in zip(means, means[1:]):
            if not m_hi > m_lo:
                for seed in seeds:
                    failed_points.setdefault(
                        (seed, _key(c_hi)),
                        f"mean Y0 {m_hi!r} at c={c_hi} not above {m_lo!r} at c={c_lo}")
    problems = [f"seed {s} c={c}: {why}" for (s, c), why in sorted(failed_points.items())]
    return len(seeds) * len(cutoffs), len(failed_points), problems


def check_verify(reports, exit_code):
    """Rows of ``verify --driver-only --csv`` output (dicts keyed by its header).

    Each of the four checks must be present and PASS, and the command must
    exit 0 exactly when they all do.
    """
    passed = {r["name"]: r["passed"] == "True" for r in reports}
    problems = [f"{name}: missing" for name in VERIFY_CHECKS if name not in passed]
    problems += [f"{name}: FAIL" for name, ok in sorted(passed.items()) if not ok]
    attempted = max(len(VERIFY_CHECKS), len(passed))
    failed = len(problems)
    if (exit_code == 0) != (failed == 0):
        problems.append(f"exit code {exit_code} with {failed} failed check(s)")
        failed = max(failed, 1)
    return attempted, failed, problems
