"""Spans around the calls into each layer of ``jumpsignal``, taken from outside.

The tracer replaces each traced public function at every module attribute
it is bound to (``cli.solve``, ``verify.solve`` and ``bsde_solver.solve``
are one function bound three times), so the program's own code is not
changed. A span records its name, start, end and the span that was open
when it began. Spans are kept in memory and written out once, when the
traced process ends.

Names bound before the wrappers exist cannot be reached this way.
``verify.check_driver_sandwich`` takes the penalised driver f_m as the
default value of its ``fm_fn`` argument, bound when the module was
imported, so those 1000 driver calls are not wrapped: their time stays in
the ``verify.driver_sandwich`` span and ``drivers.penalized_driver_fm_batch``
does not count them. Their minimiser calls are still counted, because
``drivers.minimize_on_interval`` is looked up at call time.

Byte and uniform counts are computed from array shapes (what the arrays
hold), not measured traffic; they ignore caches and temporaries.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from collections import defaultdict

from checks import VERIFY_CHECKS

# (module, function) pairs wrapped with a span named "<module>.<function>"
SPANNED = [
    ("simulate", "simulate_batch"),
    ("bsde_solver", "solve"),
    ("bsde_solver", "value_and_strategy"),
    ("drivers", "driver_f_batch"),
    ("drivers", "penalized_driver_fm_batch"),
]

PACKAGE = "jumpsignal"
PARTITION_SPAN = "bsde_solver.partition"


class Tracer:
    """In-memory span recorder for one process."""

    def __init__(self):
        # one list per span: [name, start, end, parent index, attributes]
        self.spans = []
        self.counters = defaultdict(int)
        self._stack = []
        self._open_batches = {}  # index of an open solve span -> its batch

    def wrap(self, name, fn, enter=None, leave=None):
        """``fn`` recording a span; ``enter``/``leave`` add attributes."""

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(self.spans)
            parent = self._stack[-1] if self._stack else -1
            rec = [name, 0.0, 0.0, parent, {}]
            self.spans.append(rec)
            if enter is not None:
                enter(idx, args, kwargs)
            self._stack.append(idx)
            rec[1] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[2] = time.perf_counter()
                self._stack.pop()
                self._open_batches.pop(idx, None)
            if leave is not None:
                leave(rec[4], result)
            return result

        return wrapper

    # attribute hooks

    def _enter_solve(self, idx, args, kwargs):
        batch = args[0] if args else kwargs.get("batch")
        self._open_batches[idx] = batch
        # dense float (n_bins, n_paths) compensated jump targets, one per step
        tg, grid = batch.time_grid, batch.grid
        self.spans[idx][4]["jump_target_bytes"] = \
            tg.n_steps * grid.points.size * batch.n_paths * 8

    def _enter_partition(self, idx, args, kwargs):
        # args are (cls, sample, ...); the sample is a row view of batch.S
        sample = args[1] if len(args) > 1 else kwargs.get("s")
        batch = next((self._open_batches[i] for i in reversed(self._stack)
                      if i in self._open_batches), None)
        key = None
        if batch is not None and hasattr(sample, "__array_interface__"):
            S = batch.S
            offset = (sample.__array_interface__["data"][0]
                      - S.__array_interface__["data"][0])
            if 0 <= offset < S.nbytes and offset % S.strides[0] == 0:
                key = (batch.seed, batch.path_offset, offset // S.strides[0])
        if key is None:
            key = ("untracked", idx)
        self.spans[idx][4]["sample"] = list(key)

    def _enter_rows(self, idx, args, kwargs):
        Z = args[0] if args else kwargs.get("Z")
        self.spans[idx][4]["rows"] = int(getattr(Z, "size", 1))

    @staticmethod
    def _leave_batch(attrs, batch):
        import numpy as np

        # one uniform per Brownian and per jump-count entry
        attrs["uniforms"] = int(batch.dW.size + batch.dN.size)
        attrs["dN_bytes"] = int(batch.dN.nbytes)
        attrs["dN_entries"] = int(batch.dN.size)
        attrs["dN_nonzero"] = int(np.count_nonzero(batch.dN))

    @staticmethod
    def _leave_check(attrs, report):
        attrs["passed"] = bool(getattr(report, "passed", False))

    def _counting_minimizer(self, fn):
        counters = self.counters

        @functools.wraps(fn)
        def wrapper(objective, *args, **kwargs):
            def counted(P):
                counters["objective_evals"] += 1
                return objective(P)
            counters["minimize_calls"] += 1
            return fn(counted, *args, **kwargs)

        return wrapper

    def install(self):
        """Wrap every traced function at each name it is bound to."""
        modules = [m for n, m in list(sys.modules.items())
                   if m is not None and (n == PACKAGE or n.startswith(PACKAGE + "."))]

        def mod(name):
            return sys.modules.get(f"{PACKAGE}.{name}")

        hooks = {
            "simulate_batch": (None, self._leave_batch),
            "solve": (self._enter_solve, None),
            "driver_f_batch": (self._enter_rows, None),
            "penalized_driver_fm_batch": (self._enter_rows, None),
        }
        replace = {}
        for module, func in SPANNED:
            fn = getattr(mod(module), func, None)
            if fn is not None:
                enter, leave = hooks.get(func, (None, None))
                replace[id(fn)] = self.wrap(f"{module}.{func}", fn, enter, leave)
        for check in VERIFY_CHECKS:
            fn = getattr(mod("verify"), f"check_{check}", None)
            if fn is not None:
                replace[id(fn)] = self.wrap(f"verify.{check}", fn,
                                            leave=self._leave_check)
        minimize = getattr(mod("drivers"), "minimize_on_interval", None)
        if minimize is not None:
            replace[id(minimize)] = self._counting_minimizer(minimize)

        # keyed by id: every original stays alive while it is bound
        for m in modules:
            for attr, val in list(vars(m).items()):
                if id(val) in replace:
                    setattr(m, attr, replace[id(val)])

        partition_cls = getattr(mod("bsde_solver"), "BasisPartition", None)
        from_sample = vars(partition_cls).get("from_sample") if partition_cls else None
        if isinstance(from_sample, classmethod):
            partition_cls.from_sample = classmethod(
                self.wrap(PARTITION_SPAN, from_sample.__func__,
                          enter=self._enter_partition))

    def dump(self, path, wall_s):
        with open(path, "w") as fh:
            json.dump({"wall_s": wall_s, "spans": self.spans,
                       "counters": dict(self.counters)}, fh)


def _share(num, den):
    return num / den if den else 0.0


def layer_metrics(trace, untraced_wall_s):
    """Per-layer metrics from a dumped trace.

    ``self_s`` is a span's duration minus that of its direct children,
    summed over the run; ``total_s`` the duration itself.
    """
    spans = trace["spans"]
    child_s = [0.0] * len(spans)
    for name, start, end, parent, _ in spans:
        if parent >= 0:
            child_s[parent] += end - start
    total = defaultdict(float)
    self_s = defaultdict(float)
    calls = defaultdict(int)
    attrs = defaultdict(lambda: defaultdict(int))
    top_level_s = 0.0
    samples = set()
    for i, (name, start, end, parent, extra) in enumerate(spans):
        total[name] += end - start
        self_s[name] += end - start - child_s[i]
        calls[name] += 1
        if parent < 0:
            top_level_s += end - start
        for key, val in extra.items():
            if key == "sample":
                samples.add(tuple(val))
            elif not isinstance(val, bool):
                attrs[name][key] += val
        if extra.get("passed") is False:
            attrs["verify"]["checks_failed"] += 1

    counters = trace["counters"]
    sim, slv = "simulate.simulate_batch", "bsde_solver.solve"
    out = {
        f"{sim}.self_s": self_s[sim],
        f"{sim}.calls": calls[sim],
        "simulate.uniforms": attrs[sim]["uniforms"],
        "simulate.dN_bytes": attrs[sim]["dN_bytes"],
        "simulate.dN_nonzero_share": _share(attrs[sim]["dN_nonzero"],
                                            attrs[sim]["dN_entries"]),
        f"{slv}.self_s": self_s[slv],
        f"{slv}.total_s": total[slv],
        f"{slv}.calls": calls[slv],
        "bsde_solver.jump_target_bytes": attrs[slv]["jump_target_bytes"],
        f"{PARTITION_SPAN}.self_s": self_s[PARTITION_SPAN],
        f"{PARTITION_SPAN}.calls": calls[PARTITION_SPAN],
        f"{PARTITION_SPAN}.useful_share": _share(len(samples), calls[PARTITION_SPAN]),
        "bsde_solver.value_and_strategy.self_s":
            self_s["bsde_solver.value_and_strategy"],
    }
    for drv in ("drivers.driver_f_batch", "drivers.penalized_driver_fm_batch"):
        out[f"{drv}.self_s"] = self_s[drv]
        out[f"{drv}.calls"] = calls[drv]
        out[f"{drv}.rows"] = attrs[drv]["rows"]
    out["drivers.objective_evals_per_call"] = _share(
        counters.get("objective_evals", 0), counters.get("minimize_calls", 0))
    for check in VERIFY_CHECKS:
        out[f"verify.{check}.total_s"] = total[f"verify.{check}"]
    out["verify.checks_failed"] = attrs["verify"]["checks_failed"]
    out["cli.self_s"] = trace["wall_s"] - top_level_s
    out["trace_overhead_share"] = _share(trace["wall_s"] - untraced_wall_s,
                                         untraced_wall_s)
    return out
