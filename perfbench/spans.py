"""Spans around the calls into sphgas's layers, recorded from outside.

:class:`Tracer` replaces public functions in the modules that call them with
wrappers that record ``(name, start, end, parent)`` in memory; :meth:`remove`
puts the originals back.  :func:`layer_metrics` turns one traced round
(``run``, ``report`` and ``verify``, each under a ``cli.<verb>`` span) into
the per-layer metrics, in the probe-scaled seconds of meter.py.
"""

from __future__ import annotations

import importlib
import time

import numpy as np

# (span name, module defining it, attribute, modules whose calls are wrapped)
FUNCTIONS = [
    ("config.load_config", "config", "load_config", ["cli"]),
    ("config.resolve", "config", "resolve", ["cli"]),
    ("grid.build_mass_grid", "grid", "build_mass_grid", ["solver", "oracle"]),
    ("grid.radius_from_volume", "grid", "radius_from_volume", ["state", "solver"]),
    ("state.make_initial_data", "state", "make_initial_data", ["solver"]),
    ("state.discrete_gradients", "state", "discrete_gradients", ["diagnostics"]),
    ("state.save_snapshot", "state", "save_snapshot", ["cli"]),
    ("state.load_snapshot", "state", "load_snapshot", ["cli"]),
    ("solver.run", "solver", "run", ["cli"]),
    ("solver.step", "solver", "step", ["solver", "oracle"]),
    ("solver.select_dt", "solver", "select_dt", ["solver"]),
    # solver.run imports evaluate_series from the diagnostics module per call
    ("diagnostics.evaluate_series", "diagnostics", "evaluate_series", ["cli", "diagnostics"]),
    ("oracle.convergence_order", "oracle", "convergence_order", ["cli"]),
    ("oracle.solve_case", "oracle", "solve_case", ["oracle"]),
    ("oracle.manufactured_source", "oracle", "manufactured_source", ["oracle"]),
]

# (span name, module, class, method); the class attribute is replaced.
METHODS = [
    ("state.FlowState", "state", "FlowState", "__post_init__"),
    ("diagnostics.to_csv", "diagnostics", "DiagnosticsSeries", "to_csv"),
    ("diagnostics.from_csv", "diagnostics", "DiagnosticsSeries", "from_csv"),
]


def _module(name):
    try:
        return importlib.import_module(f"sphgas.{name}")
    except ImportError:
        return None


class Tracer:
    """Records spans as ``[name, start, end, parent_index]`` lists."""

    def __init__(self):
        self.spans: list = []
        self._stack = [-1]
        self._restore: list = []

    def span(self, name, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1]
            stack.append(idx)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                spans[idx] = [name, start, clock(), parent]
                stack.pop()

        return traced

    def install(self) -> list[str]:
        """Wrap every listed function and method.

        Returns the listed bindings that the program no longer has, as
        ``span@module``: their layers would read 0, so a traced round with
        any of them counts as failed.
        """
        missing = []
        for name, home, attr, callers in FUNCTIONS:
            original = getattr(_module(home), attr, None)
            for caller in callers:
                mod = _module(caller)
                if original is None or getattr(mod, attr, None) is not original:
                    missing.append(f"{name}@{caller}")
                    continue
                self._restore.append((mod, attr, original))
                setattr(mod, attr, self.span(name, original))
        for name, home, cls_name, attr in METHODS:
            cls = getattr(_module(home), cls_name, None)
            raw = vars(cls).get(attr) if cls is not None else None
            if raw is None:
                missing.append(f"{name}@{home}")
                continue
            self._restore.append((cls, attr, raw))
            if isinstance(raw, classmethod):
                setattr(cls, attr, classmethod(self.span(name, raw.__func__)))
            else:
                setattr(cls, attr, self.span(name, raw))
        return missing

    def remove(self):
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore.clear()


def _totals(spans, factors, pauses):
    """Per span name: [calls, total seconds, total self seconds].

    Probe pauses are taken out of every span that contains them, and every
    span is scaled by the factor of the verb span it runs under; ``factors``
    holds one factor per root span, in order.
    """
    scale = []
    roots = iter(factors)
    for _, _, _, parent in spans:
        scale.append(next(roots) if parent < 0 else scale[parent])
    starts = np.array([s[1] for s in spans])
    ends = np.array([s[2] for s in spans])
    busy = ends - starts
    for p_start, p_end in pauses:
        busy[(starts <= p_start) & (ends >= p_end)] -= p_end - p_start
    dur = busy * np.array(scale)
    child_time = np.zeros(len(spans))
    parents = np.array([s[3] for s in spans])
    np.add.at(child_time, parents[parents >= 0], dur[parents >= 0])
    out: dict[str, list] = {}
    for (name, _, _, _), d, c in zip(spans, dur.tolist(), child_time.tolist()):
        entry = out.setdefault(name, [0, 0.0, 0.0])
        entry[0] += 1
        entry[1] += d
        entry[2] += d - c
    return out


def layer_metrics(trace: dict, factors) -> dict[str, float]:
    """Per-layer metrics of one traced round from its spans, its probe
    pauses and its verbs' scale factors."""
    tot = _totals(trace["spans"], factors, trace["pauses"])

    def calls(name):
        return float(tot.get(name, (0, 0.0, 0.0))[0])

    def secs(name):
        return tot.get(name, (0, 0.0, 0.0))[1]

    def self_secs(name):
        return tot.get(name, (0, 0.0, 0.0))[2]

    steps = calls("solver.step")
    return {
        "solver.steps": steps,
        "solver.step_s": secs("solver.step"),
        "solver.step_us": 1e6 * secs("solver.step") / steps if steps else 0.0,
        "solver.select_dt_s": secs("solver.select_dt"),
        "solver.run_self_s": self_secs("solver.run"),
        "grid.radius_calls": calls("grid.radius_from_volume"),
        "grid.radius_s": secs("grid.radius_from_volume"),
        "state.flowstate_builds": calls("state.FlowState"),
        "state.flowstate_s": secs("state.FlowState"),
        "state.gradients_calls": calls("state.discrete_gradients"),
        "state.gradients_s": secs("state.discrete_gradients"),
        "state.snapshot_write_s": secs("state.save_snapshot"),
        "state.snapshot_read_s": secs("state.load_snapshot"),
        "diagnostics.evaluate_s": secs("diagnostics.evaluate_series"),
        "diagnostics.csv_write_s": secs("diagnostics.to_csv"),
        "diagnostics.csv_read_s": secs("diagnostics.from_csv"),
        "oracle.source_calls": calls("oracle.manufactured_source"),
        "oracle.source_s": secs("oracle.manufactured_source"),
        "oracle.solve_case_s": secs("oracle.solve_case"),
        "cli.run_self_s": self_secs("cli.run"),
        "cli.report_self_s": self_secs("cli.report"),
    }
