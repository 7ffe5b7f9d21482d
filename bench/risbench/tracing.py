"""Spans and counters recorded around each layer's public functions.

The wrappers are installed at the names callers import the functions
by (``risload.harness.ica``, ``risload.mm.solve``, ...), so the program
runs unchanged and the spans cover exactly the calls between layers.
Spans stay in memory and are written out once the run ends.

A scheme call is one harness row: it opens a new row id, and every span
below it carries that id.  A scenario span carries the id of the first
row that uses the scenario.
"""

from __future__ import annotations

import importlib
import json
import time
from collections import Counter, defaultdict
from contextlib import contextmanager

from risload import NonConvergence

from .checks import Outcome

# (module, attribute, span name) of the scheme entry points, one per row.
SCHEMES = (
    ("risload.harness", "no_ris", "baselines.report"),
    ("risload.harness", "random_phases", "baselines.report"),
    ("risload.harness", "decomposition", "baselines.decomposition"),
    ("risload.harness", "ica", "ica"),
)

# (module, attribute, span name) of every other layer boundary.
LAYERS = (
    ("risload.harness", "generate_scenario", "scenario.generate"),
    ("risload.harness", "mm_single_cell", "mm"),
    ("risload.harness", "mm_single_cell_d3", "mm"),
    ("risload.ica", "freeze_cell", "coupling.freeze_cell"),
    ("risload.baselines", "freeze_cell", "coupling.freeze_cell"),
    ("risload.ica", "fixed_point_loads", "coupling.fixed_point"),
    ("risload.baselines", "fixed_point_loads", "coupling.fixed_point"),
    ("risload.mm", "assemble_p23", "cvxsub.assemble"),
    ("risload.mm", "assemble_p25", "cvxsub.assemble"),
    ("risload.mm", "interference_constraints", "cvxsub.assemble"),
    ("risload.baselines", "assemble_p31", "cvxsub.assemble"),
    ("risload.mm", "solve", "cvxsub.solve"),
    ("risload.baselines", "solve", "cvxsub.solve"),
    ("risload.cvxsub", "kkt_residual", "cvxsub.kkt"),
)

SPAN_FIELDS = ("name", "start", "end", "parent", "row")


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


class Tracer:
    """In-memory span recorder with counters taken at the same boundaries.

    A span is ``[name, start, end, parent index, row id, child seconds]``;
    the last field accumulates the durations of direct children, so a
    span's self time is its duration minus that.
    """

    def __init__(self):
        self.spans = []
        self.row = -1
        self.counts = Counter()
        self.cascade_mb = 0.0
        self._stack = []

    def wrap(self, name: str, fn, observe=None, starts_row: bool = False):
        """``fn`` recording a span per call; ``observe(out, exc)`` after it."""
        spans, stack, clock = self.spans, self._stack, time.perf_counter
        row_ahead = 1 if name == "scenario.generate" else 0

        def traced(*args, **kwargs):
            if starts_row:
                self.row += 1
            parent = stack[-1] if stack else -1
            rec = [name, 0.0, 0.0, parent, self.row + row_ahead, 0.0]
            stack.append(len(spans))
            spans.append(rec)
            out = err = None
            rec[1] = clock()
            try:
                out = fn(*args, **kwargs)
                return out
            except Exception as exc:
                err = exc
                raise
            finally:
                end = rec[2] = clock()
                stack.pop()
                if parent >= 0:
                    spans[parent][5] += end - rec[1]
                if observe is not None:
                    observe(out, err)

        return traced

    def observer(self, name: str):
        """Counter update for the results of one span name, or None."""
        counts = self.counts
        if name == "coupling.fixed_point":
            def seen(out, err):
                if out is not None:
                    counts["fp.iters"] += out.iterations
                elif isinstance(err, NonConvergence):
                    counts["fp.iters"] += err.iterations
                    counts["fp.diverged"] += 1
        elif name == "cvxsub.solve":
            def seen(out, err):
                if out is not None:
                    counts["solve.newton"] += out.newton_steps
                    counts["solve.optimal"] += out.status == "Optimal"
        elif name == "mm":
            def seen(out, err):
                if out is not None:
                    counts["mm.iterations"] += out.state.iterations
                    counts["mm.converged"] += bool(out.converged)
        elif name == "ica":
            def seen(out, err):
                if out is not None:
                    counts["ica.sweeps"] += out.sweeps
        elif name == "scenario.generate":
            def seen(out, err):
                if out is not None:
                    self.cascade_mb = max(self.cascade_mb,
                                          out.cascade.nbytes / 2 ** 20)
        else:
            return None
        return seen

    def layer_totals(self) -> dict:
        """Per span name: [calls, busy seconds, self seconds]."""
        agg = defaultdict(lambda: [0, 0.0, 0.0])
        for name, start, end, _, _, child in self.spans:
            a = agg[name]
            a[0] += 1
            a[1] += end - start
            a[2] += end - start - child
        return agg

    def per_layer(self) -> dict:
        """The tracer's share of the per-layer metrics, by name."""
        t = self.layer_totals()
        c = self.counts

        def calls(n):
            return t[n][0]

        def busy(n):
            return t[n][1]

        def own(n):
            return t[n][2]

        return {
            "scenario.generate.calls": calls("scenario.generate"),
            "scenario.generate.busy_s": busy("scenario.generate"),
            "scenario.cascade_mb": self.cascade_mb,
            "coupling.fixed_point.calls": calls("coupling.fixed_point"),
            "coupling.fixed_point.iters": c["fp.iters"],
            "coupling.fixed_point.busy_s": busy("coupling.fixed_point"),
            "coupling.fixed_point.diverged_ratio":
                _ratio(c["fp.diverged"], calls("coupling.fixed_point")),
            "coupling.freeze_cell.calls": calls("coupling.freeze_cell"),
            "coupling.freeze_cell.busy_s": busy("coupling.freeze_cell"),
            "cvxsub.assemble.calls": calls("cvxsub.assemble"),
            "cvxsub.assemble.busy_s": busy("cvxsub.assemble"),
            "cvxsub.solve.calls": calls("cvxsub.solve"),
            "cvxsub.solve.busy_s": busy("cvxsub.solve"),
            "cvxsub.solve.newton_steps": c["solve.newton"],
            "cvxsub.solve.newton_per_solve":
                _ratio(c["solve.newton"], calls("cvxsub.solve")),
            "cvxsub.solve.optimal_ratio":
                _ratio(c["solve.optimal"], calls("cvxsub.solve")),
            "cvxsub.kkt.busy_s": busy("cvxsub.kkt"),
            "mm.calls": calls("mm"),
            "mm.iterations": c["mm.iterations"],
            "mm.self_s": own("mm"),
            "mm.converged_ratio": _ratio(c["mm.converged"], calls("mm")),
            "ica.calls": calls("ica"),
            "ica.sweeps": c["ica.sweeps"],
            "ica.self_s": own("ica"),
            "baselines.decomposition.self_s": own("baselines.decomposition"),
            "baselines.report.self_s": own("baselines.report"),
            "harness.self_s": own("harness"),
        }

    def self_shares(self) -> dict:
        """Each span name's self time as a share of the harness span time."""
        t = self.layer_totals()
        total = t["harness"][1] if "harness" in t else 0.0
        return {n: _ratio(a[2], total) for n, a in sorted(t.items())}

    def write(self, path: str) -> None:
        """Dump every span as JSON: field names, then one list per span."""
        with open(path, "w") as fh:
            json.dump({"fields": SPAN_FIELDS,
                       "spans": [rec[:5] for rec in self.spans]}, fh)


def _capture(fn, sink: list):
    """``fn`` appending an :class:`Outcome` per call to ``sink``."""

    def captured(s, *args, **kwargs):
        try:
            sol = fn(s, *args, **kwargs)
        except Exception as exc:
            sink.append(Outcome(s, error=exc))
            raise
        sink.append(Outcome(s, solution=sol))
        return sol

    return captured


@contextmanager
def installed(sink: list, tracer: Tracer | None = None):
    """Capture every scheme outcome into ``sink``; trace every layer too
    when a tracer is given.  The original functions are restored on exit.
    """
    saved = []

    def patch(modname, attr, fn):
        module = importlib.import_module(modname)
        saved.append((module, attr, getattr(module, attr)))
        setattr(module, attr, fn)

    try:
        for modname, attr, name in SCHEMES:
            fn = _capture(getattr(importlib.import_module(modname), attr),
                          sink)
            if tracer is not None:
                fn = tracer.wrap(name, fn, tracer.observer(name),
                                 starts_row=True)
            patch(modname, attr, fn)
        if tracer is not None:
            for modname, attr, name in LAYERS:
                fn = getattr(importlib.import_module(modname), attr)
                patch(modname, attr, tracer.wrap(name, fn,
                                                 tracer.observer(name)))
        yield
    finally:
        for module, attr, fn in reversed(saved):
            setattr(module, attr, fn)
