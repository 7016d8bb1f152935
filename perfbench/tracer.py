"""Per-layer spans recorded from outside the package.

``Tracer.install`` rebinds the module-level names through which the
package's modules call each other (and the callbacks passed to the root
scans and root finders) to wrappers that record a span per call: name,
parent span, duration and a work count.  ``uninstall`` restores every
binding.  Nothing under ``src/`` changes; spans live in memory until the
run ends and ``layer_metrics`` reduces them.
"""

from __future__ import annotations

import functools
import time

import qgbind
import qgbind.cli as cli
import qgbind.graph as graph
import qgbind.line as line
import qgbind.oracle as oracle
import qgbind.rayleigh as rayleigh
import qgbind.secular as secular
import qgbind.sweeps as sweeps

MODULES = (qgbind, graph, secular, line, oracle, rayleigh, sweeps, cli)


class Span:
    __slots__ = ("name", "parent", "seconds", "units", "extra", "ok")

    def __init__(self, name, parent):
        self.name = name
        self.parent = parent
        self.seconds = 0.0
        self.units = 1
        self.extra = 0.0
        self.ok = False


class _View:
    """Stand-in for a module binding: selected attributes replaced, the rest
    read through from the real module."""

    def __init__(self, real, **overrides):
        self._real = real
        self.__dict__.update(overrides)

    def __getattr__(self, name):
        return getattr(self._real, name)


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []

    def wrap(self, name, fn, units=None, callback=None):
        """Span per call of ``fn``; ``units(args, result)`` gives the work
        count and optional extra; ``callback`` names the span recorded for
        each call of the function passed as the first argument."""

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if callback is not None:
                args = (self.wrap(callback, args[0]),) + args[1:]
            span = Span(name, self._stack[-1] if self._stack else -1)
            self._stack.append(len(self.spans))
            self.spans.append(span)
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.seconds = time.perf_counter() - t0
                self._stack.pop()
            span.ok = True
            if units is not None:
                span.units, span.extra = units(args, result)
            return result
        return wrapper

    def _set(self, owner, attr, value):
        self._saved.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def _everywhere(self, fn, wrapper):
        for mod in MODULES:
            for attr, value in list(vars(mod).items()):
                if value is fn:
                    self._set(mod, attr, wrapper)

    def install(self) -> None:
        w = self.wrap
        for fn, name, units in (
            (graph.load_graph, "graph.load", None),
            (graph.require_valid, "graph.validate", None),
            (secular.find_ground_state, "secular.solve", _solve_units),
            (secular.vertex_condition_residuals, "secular.audit", None),
            (secular.classify_edge_index, "secular.audit", None),
            (line.ground_state_line, "line.solve", None),
            (line.ground_state_loop, "line.solve", None),
            (oracle.compare, "oracle.compare", None),
            (oracle.discretize, "oracle.discretize", lambda a, r: (r.node_count, 0.0)),
            (oracle.smallest_eigenvalue, "oracle.eigensolve", None),
            (oracle.comparison_constant, "oracle.calibrate", None),
            (rayleigh.rayleigh_quotient, "rayleigh.quotient", None),
            (rayleigh.scaled_trial_quotient, "rayleigh.quotient", None),
            (sweeps.run_sweep, "sweeps.run", None),
            (sweeps.find_critical_coupling, "sweeps.crit", None),
            (cli.main, "cli.main", None),
            (cli._sweep_csv, "cli.format", None),
        ):
            self._everywhere(fn, w(name, fn, units))
        self._set(secular, "_equilibrated_det",
                  w("secular.det", secular._equilibrated_det, _det_units))
        self._set(secular, "scan_down", w("rootscan.scan", secular.scan_down,
                                          callback="secular.indicator"))
        self._set(secular, "probe_geometric", w("rootscan.probe", secular.probe_geometric,
                                                callback="secular.indicator"))
        self._set(secular, "bisect_sign", w("rootscan.bisect", secular.bisect_sign,
                                            callback="secular.refine"))
        self._set(line, "scan_down", w("rootscan.scan", line.scan_down, callback="line.mu0"))
        self._set(line, "probe_geometric", w("rootscan.probe", line.probe_geometric,
                                             callback="line.mu0"))
        self._set(line, "brentq", w("line.brentq", line.brentq, callback="line.mu0"))
        gamma_units = lambda a, r: (len(a[1]), 0.0)  # noqa: E731
        self._set(line, "_gamma_line_stack", w("line.gamma", line._gamma_line_stack, gamma_units))
        self._set(line, "_gamma_loop_stack", w("line.gamma", line._gamma_loop_stack, gamma_units))
        linalg = line.np.linalg
        self._set(line, "np", _View(line.np, linalg=_View(
            linalg, eigvalsh=w("line.eig", linalg.eigvalsh), eigh=w("line.eig", linalg.eigh))))
        self._set(sweeps, "brentq", w("sweeps.brentq", sweeps.brentq, callback="sweeps.gap"))
        self._set(cli, "json", _View(cli.json, dumps=w("cli.format", cli.json.dumps)))

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, value = self._saved.pop()
            setattr(owner, attr, value)


def _solve_units(args, gs):
    d = gs.diagnostics
    return d.indicator_evaluations, float(len(d.dips))


def _det_units(args, dets):
    m, n, _ = args[0].shape
    return m, m * (2.0 / 3.0) * n**3 / 1e9


# ---------------------------------------------------------------- reduction

LAYER_UNITS = {
    "rootscan.scan_self_s": "s", "rootscan.scan_calls": "count",
    "rootscan.bisect_self_s": "s", "rootscan.probe_calls": "count",
    "secular.solves": "count", "secular.indicator_evals": "count",
    "secular.evals_per_solve": "count", "secular.indicator_s": "s",
    "secular.det_s": "s", "secular.det_matrices": "count",
    "secular.det_gflop_computed": "GFLOP", "secular.assembly_s": "s",
    "secular.refine_s": "s", "secular.refine_evals": "count",
    "secular.reconstruct_s": "s", "secular.audit_s": "s",
    "secular.dips": "count", "secular.kappa_max_doublings": "count",
    "line.solves": "count", "line.eigvalsh_s": "s", "line.gamma_evals": "count",
    "line.scan_self_s": "s", "line.brentq_s": "s", "line.brentq_evals": "count",
    "oracle.discretize_s": "s", "oracle.eigensolve_s": "s", "oracle.nodes": "count",
    "oracle.calibrate_s": "s",
    "sweeps.points": "count", "sweeps.point_solve_s": "s", "sweeps.overhead_s": "s",
    "sweeps.crit_solves": "count", "sweeps.crit_brentq_evals": "count",
    "rayleigh.quotient_s": "s", "cli.format_s": "s",
    "graph.load_s": "s", "graph.validate_s": "s",
    "trace_overhead_frac": "ratio", "unattributed_s": "s",
}


def layer_metrics(spans: list[Span], first_op_span: int) -> dict[str, float]:
    """Per-layer figures over the spans of timed operations (index >=
    ``first_op_span``); ``oracle.calibrate_s`` is the first calibration,
    which set-up makes."""
    child_s = [0.0] * len(spans)
    scans_under = [0] * len(spans)
    for s in spans:
        if s.parent >= 0:
            child_s[s.parent] += s.seconds
            if s.name == "rootscan.scan":
                scans_under[s.parent] += 1

    def under(i, name):
        p = spans[i].parent
        while p >= 0:
            if spans[p].name == name:
                return True
            p = spans[p].parent
        return False

    m = dict.fromkeys(LAYER_UNITS, 0.0)
    ok_solves = 0
    for i in range(first_op_span, len(spans)):
        s = spans[i]
        self_s = s.seconds - child_s[i]
        name = s.name
        if name == "rootscan.scan":
            m["rootscan.scan_self_s"] += self_s
            m["rootscan.scan_calls"] += 1
            if under(i, "line.solve"):
                m["line.scan_self_s"] += self_s
        elif name == "rootscan.bisect":
            m["rootscan.bisect_self_s"] += self_s
        elif name == "rootscan.probe":
            m["rootscan.probe_calls"] += 1
        elif name == "secular.solve":
            m["secular.solves"] += 1
            m["secular.reconstruct_s"] += self_s
            m["secular.kappa_max_doublings"] += max(0, scans_under[i] - 1)
            if s.ok:
                ok_solves += 1
                m["secular.indicator_evals"] += s.units
                m["secular.dips"] += s.extra
            if under(i, "sweeps.run"):
                m["sweeps.points"] += 1
                m["sweeps.point_solve_s"] += s.seconds
            if under(i, "sweeps.crit"):
                m["sweeps.crit_solves"] += 1
        elif name == "secular.indicator":
            m["secular.indicator_s"] += s.seconds
        elif name == "secular.refine":
            m["secular.refine_s"] += s.seconds
            m["secular.refine_evals"] += 1
        elif name == "secular.det":
            m["secular.det_s"] += s.seconds
            m["secular.det_matrices"] += s.units
            m["secular.det_gflop_computed"] += s.extra
        elif name == "secular.audit":
            m["secular.audit_s"] += s.seconds
        elif name == "line.solve":
            m["line.solves"] += 1
        elif name == "line.eig":
            m["line.eigvalsh_s"] += s.seconds
        elif name == "line.gamma":
            m["line.gamma_evals"] += s.units
        elif name == "line.brentq":
            m["line.brentq_s"] += s.seconds
        elif name == "line.mu0" and spans[s.parent].name == "line.brentq":
            m["line.brentq_evals"] += 1
        elif name in ("oracle.discretize", "oracle.eigensolve") and under(i, "oracle.compare"):
            if name == "oracle.discretize":
                m["oracle.discretize_s"] += s.seconds
                m["oracle.nodes"] += s.units
            else:
                m["oracle.eigensolve_s"] += s.seconds
        elif name == "sweeps.run":
            m["sweeps.overhead_s"] += s.seconds
        elif name == "sweeps.gap":
            m["sweeps.crit_brentq_evals"] += 1
        elif name == "rayleigh.quotient":
            m["rayleigh.quotient_s"] += s.seconds
        elif name == "cli.format":
            m["cli.format_s"] += s.seconds
        elif name == "graph.load":
            m["graph.load_s"] += s.seconds
        elif name == "graph.validate":
            m["graph.validate_s"] += s.seconds
    m["sweeps.overhead_s"] -= m["sweeps.point_solve_s"]
    m["secular.assembly_s"] = m["secular.indicator_s"] + m["secular.refine_s"] - m["secular.det_s"]
    m["secular.evals_per_solve"] = m["secular.indicator_evals"] / ok_solves if ok_solves else 0.0
    calib = [s.seconds for s in spans if s.name == "oracle.calibrate"]
    m["oracle.calibrate_s"] = calib[0] if calib else 0.0
    return m
