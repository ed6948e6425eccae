"""Span recorder that wraps aspo's public functions from outside the program.

``Tracer.install`` replaces every module binding of each wrapped function
(``snap`` and ``exact_configuration``, for instance, are imported by name
into several aspo modules) and patches the wrapped methods on their
classes.  Each call becomes a span with its parent span; self time is the
span's duration minus the time its child spans cover, so the self times of
all spans under the run's root add up to the traced run time.  A call made
while a span of the same name is open (recursion) is part of that span.

Spans are kept in memory in flat arrays and written out by ``write``.
"""

from __future__ import annotations

import functools
import inspect
import sys
from array import array
from collections import Counter
from time import perf_counter_ns

# function -> span name; methods are looked up on their classes
FUNCTIONS = {
    "space": {"snap": "space.snap", "encode": "space.encode",
              "relaxed_values": "space.relaxed_values"},
    "constraints": {"exact_configuration": "constraints.exact",
                    "smooth_tree": "constraints.smooth",
                    "smooth_gradient": "constraints.smooth"},
    "gp": {"fit": "gp.fit"},
    "warmstart": {"warm_start_configs": "warmstart.configs"},
    "acquisition": {"maximize_acquisition": "acquisition.maximize",
                    "alpha_cool": "acquisition.alpha_cool"},
    "checkpoints": {"cost_estimate": "checkpoints.cost",
                    "match_config": "checkpoints.match",
                    "learn_weights": "checkpoints.learn_weights"},
}
METHODS = {
    ("gp", "GpModel", "predict"): "gp.predict",
    ("gp", "GpModel", "predict_with_gradient"): "gp.predict_grad",
    ("evaluation", "EvalHarness", "evaluate"): "evaluation.evaluate",
    ("evaluation", "SyntheticModel", "synthesis_time"):
        "evaluation.synthesis_time",
}


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._name_id: dict[str, int] = {}
        self.span_name = array("h")
        self.span_parent = array("q")
        self.span_start = array("q")
        self.span_end = array("q")
        self._stack: list[int] = []
        self._child_ns: list[int] = []
        self._open = Counter()
        self.self_ns = Counter()
        self.calls = Counter()
        self.counts = Counter()

    # ------------------------------------------------------------ recording

    def call(self, name: str, fn, *args, **kwargs):
        """Run ``fn`` inside a span called ``name``."""
        if self._open[name]:
            return fn(*args, **kwargs)
        nid = self._name_id.get(name)
        if nid is None:
            nid = self._name_id[name] = len(self.names)
            self.names.append(name)
        idx = len(self.span_start)
        self.span_name.append(nid)
        self.span_parent.append(self._stack[-1] if self._stack else -1)
        self._stack.append(idx)
        self._child_ns.append(0)
        self._open[name] += 1
        self.span_end.append(0)
        t0 = perf_counter_ns()
        self.span_start.append(t0)
        try:
            return fn(*args, **kwargs)
        except Exception:
            self.counts[name + ".errors"] += 1
            raise
        finally:
            t1 = perf_counter_ns()
            self.span_end[idx] = t1
            self._open[name] -= 1
            self._stack.pop()
            dur = t1 - t0
            self.self_ns[name] += dur - self._child_ns.pop()
            self.calls[name] += 1
            if self._child_ns:
                self._child_ns[-1] += dur

    def wrap(self, name: str, fn, observe=None):
        """``fn`` traced as ``name``; ``observe(args, kwargs, result)`` runs
        after each call that returns."""
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            result = self.call(name, fn, *args, **kwargs)
            if observe is not None:
                observe(args, kwargs, result)
            return result
        return traced

    def counting(self, fn, observe):
        """``fn`` with ``observe(args, kwargs, result)`` but no span."""
        @functools.wraps(fn)
        def counted(*args, **kwargs):
            result = fn(*args, **kwargs)
            observe(args, kwargs, result)
            return result
        return counted

    # ---------------------------------------------------------- installing

    def install(self) -> None:
        """Wrap every binding of the traced functions in loaded aspo modules."""
        mods = {n: m for n, m in sys.modules.items()
                if n == "aspo" or n.startswith("aspo.")}
        replace = {}
        for short, table in FUNCTIONS.items():
            for attr, name in table.items():
                fn = getattr(mods[f"aspo.{short}"], attr)
                observe = self._exact_observer if name == "constraints.exact" \
                    else None
                replace[id(fn)] = self.wrap(name, fn, observe)
        for mod in mods.values():
            for attr, value in list(vars(mod).items()):
                if id(value) in replace:
                    setattr(mod, attr, replace[id(value)])

        for (short, cls_name, attr), name in METHODS.items():
            cls = getattr(mods[f"aspo.{short}"], cls_name)
            fn = getattr(cls, attr)
            observe = self._evaluate_observer(fn) \
                if name == "evaluation.evaluate" else None
            setattr(cls, attr, self.wrap(name, fn, observe))

        store = mods["aspo.checkpoints"].CheckpointStore
        store.insert = self.counting(store.insert, self._insert_observer)
        # one scipy ``minimize`` serves both modules; each binding gets its own
        # wrapper: L-BFGS-B inside gp.fit is counted, SLSQP is its own span
        gp, acq = mods["aspo.gp"], mods["aspo.acquisition"]
        gp.minimize = self.counting(gp.minimize, self._nfev_observer("gp.lbfgs"))
        acq.minimize = self.wrap("acquisition.slsqp", acq.minimize,
                                 self._nfev_observer("acquisition.slsqp"))

    def _exact_observer(self, args, kwargs, result):
        self.counts["constraints.exact_pass"] += bool(result)

    def _insert_observer(self, args, kwargs, result):
        self.counts["checkpoints.insert"] += 1

    def _nfev_observer(self, prefix):
        def observe(args, kwargs, result):
            self.counts[prefix + ".nfev"] += int(result.nfev)
        return observe

    def _evaluate_observer(self, fn):
        signature = inspect.signature(fn)

        def observe(args, kwargs, result):
            if not result.valid:
                self.counts["evaluation.invalid"] += 1
                return
            # the driver inserts only after evaluate returns, so the store
            # holds the configuration now exactly when it was a lookup hit
            call = signature.bind(*args, **kwargs)
            call.apply_defaults()
            a = call.arguments
            if a["strategy"] == "retrieval" and a["db"] is not None and \
                    a["db"].lookup(a["cfg"]) is not None:
                self.counts["evaluation.lookup_hit"] += 1
        return observe

    # -------------------------------------------------------------- output

    def write(self, path) -> None:
        """Every span, one line each: index, parent, name, start, end (ns)."""
        with open(path, "w") as fh:
            fh.write("index,parent,name,start_ns,end_ns\n")
            for i in range(len(self.span_start)):
                fh.write(f"{i},{self.span_parent[i]},"
                         f"{self.names[self.span_name[i]]},"
                         f"{self.span_start[i]},{self.span_end[i]}\n")

    def summary(self) -> dict:
        return {"self_ns": dict(self.self_ns), "calls": dict(self.calls),
                "counts": dict(self.counts)}
