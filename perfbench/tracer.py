"""Outside-in tracing of the resilnet package.

The package binds names at import (``from .graph_core import
algebraic_connectivity``), so wrapping a function in its home module alone
misses most call sites.  :func:`rebind` swaps a function for a wrapper in
every package namespace that holds the same object, and hands back an undo
list.

:class:`Tracer` keeps two kinds of records:

- a *span* per call for coarse layers (a run, a plan, a worst-case search,
  a game solve, parsing and emitting files), with its parent span, start,
  end and self time;
- aggregated counters (calls, total and self time) for hot leaves such as
  eigensolves, which run hundreds of thousands of times.

Self time is the call's duration minus the time spent in wrapped callees.
Spans stay in memory until :meth:`Tracer.write_spans`.

:class:`Probe` is the light hook that timed (untraced) runs also carry: a
clock tick at the start of each simulated step and after each worst-case
search, and the ordered results of every worst-case search for the result
digest.
"""

from __future__ import annotations

import hashlib
import importlib
import json
import math
import os
import time
from collections import defaultdict

PACKAGE = "resilnet"
MODULES = ("graph_core", "adversary", "controller", "simulator", "gne", "scenario_io", "cli")

# (module, function) -> span name; one span per call
SPANS = {
    ("cli", "main"): "cli.main",
    ("simulator", "run_scenario"): "simulator.run_scenario",
    ("simulator", "compute_resilience_metrics"): "simulator.compute_resilience_metrics",
    ("controller", "plan_step"): "controller.plan",
    ("controller", "plan_step_decentralized"): "controller.plan",
    ("adversary", "worst_case_removal"): "adversary.worst_case_removal",
    ("gne", "gne_solve"): "gne.gne_solve",
    ("scenario_io", "_load_yaml"): "scenario_io.parse",
    ("scenario_io", "scenario_from_dict"): "scenario_io.parse",
    ("scenario_io", "parse_scenario"): "scenario_io.parse",
    ("scenario_io", "gne_from_dict"): "scenario_io.parse",
    ("scenario_io", "parse_gne"): "scenario_io.parse",
    ("scenario_io", "emit_trace"): "scenario_io.emit",
    ("scenario_io", "emit_report"): "scenario_io.emit",
    ("scenario_io", "emit_manifest"): "scenario_io.emit",
}

# hot leaves: aggregated, no span per call
LEAVES = (
    ("graph_core", "algebraic_connectivity"),
    ("graph_core", "laplacian"),
    ("graph_core", "remove_links"),
    ("graph_core", "build_proximity_graph"),
    ("graph_core", "connectivity_gradient"),
    ("gne", "signaling_equilibrium"),
    ("gne", "flipit_equilibrium"),
)


def namespaces():
    """The package and each of its modules, imported."""
    pkg = importlib.import_module(PACKAGE)
    return [pkg] + [importlib.import_module(f"{PACKAGE}.{m}") for m in MODULES]


def rebind(module: str, name: str, make_wrapper) -> list:
    """Replace ``module.name`` wherever the package holds it; return undo."""
    home = importlib.import_module(f"{PACKAGE}.{module}")
    orig = home.__dict__[name]
    wrapper = make_wrapper(orig)
    undo = []
    for ns in namespaces():
        if ns.__dict__.get(name) is orig:
            undo.append((ns, name, orig))
            setattr(ns, name, wrapper)
    return undo


def restore(undo: list) -> None:
    for ns, name, orig in reversed(undo):
        setattr(ns, name, orig)


def subsets_scanned(edges: int, m: int) -> int:
    """Subsets an exhaustive search at budget m enumerates: sum C(E, s)."""
    return sum(math.comb(edges, s) for s in range(1, m + 1))


class Probe:
    """Step-start stamps and worst-case results; cheap enough for timed runs.

    ``tick`` is called at each step start, and its value kept in
    ``step_starts``, and again after each worst-case search, which splits a
    step into pieces short enough to follow the host's speed (``speed.py``).
    """

    def __init__(self, tick=time.perf_counter) -> None:
        self.tick = tick
        self.step_starts: list = []
        self.removals: list[tuple[tuple[int, ...], float]] = []
        self._undo: list = []

    def install(self) -> None:
        stamps, removals, clock = self.step_starts, self.removals, self.tick

        def stamp(orig):
            def planner(*args, **kwargs):
                stamps.append(clock())
                return orig(*args, **kwargs)
            return planner

        def record(orig):
            def worst_case_removal(*args, **kwargs):
                res = orig(*args, **kwargs)
                removals.append((res.removal, res.lambda2_after))
                clock()
                return res
            return worst_case_removal

        # the simulator calls exactly one planner per step
        sim = importlib.import_module(f"{PACKAGE}.simulator")
        for name in ("plan_step", "plan_step_decentralized"):
            orig = sim.__dict__[name]
            self._undo.append((sim, name, orig))
            setattr(sim, name, stamp(orig))
        self._undo += rebind("adversary", "worst_case_removal", record)

    def uninstall(self) -> None:
        restore(self._undo)
        self._undo = []

    def digest(self) -> str:
        """sha256 of the ordered (removal, lambda2 to 12 significant digits)."""
        h = hashlib.sha256()
        for removal, lam in self.removals:
            h.update(f"{list(removal)}:{lam:.12g};".encode())
        return h.hexdigest()


class Tracer:
    """Spans for coarse layers, counters for hot leaves."""

    def __init__(self) -> None:
        self.spans: list[dict] = []
        self.leaves = defaultdict(lambda: [0, 0.0, 0.0])  # calls, total_s, self_s
        self.eig_work = 0
        self.eigensolves = 0
        self.br_iterations = 0
        self._stack: list[list] = []  # [child_s, span index or None]
        self._undo: list = []

    # -- installation -----------------------------------------------------

    def install(self) -> None:
        for (module, name), span_name in SPANS.items():
            self._undo += rebind(module, name, lambda f, s=span_name: self._span(s, f))
        for module, name in LEAVES:
            self._undo += rebind(module, name, lambda f, s=f"{module}.{name}": self._leaf(s, f))

    def uninstall(self) -> None:
        restore(self._undo)
        self._undo = []

    def excluded(self, fn):
        """``fn`` wrapped so that its time counts toward no layer's self time."""
        return self._leaf("excluded", fn)

    def _parent(self):
        for frame in reversed(self._stack):
            if frame[1] is not None:
                return frame[1]
        return None

    def _span(self, name: str, orig):
        stack, spans, clock = self._stack, self.spans, time.perf_counter

        def wrapper(*args, **kwargs):
            parent = self._parent()
            index = len(spans)
            rec = {"id": index, "name": name, "parent": parent}
            spans.append(rec)
            frame = [0.0, index]
            stack.append(frame)
            eig0 = self.eigensolves
            t0 = clock()
            try:
                result = orig(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                if stack:
                    stack[-1][0] += t1 - t0
                rec.update(start=t0, end=t1, self_s=t1 - t0 - frame[0],
                           eigensolves=self.eigensolves - eig0)
            rec.update(_describe(name, args, kwargs, result))
            return result

        return wrapper

    def _leaf(self, name: str, orig):
        stack, clock = self._stack, time.perf_counter
        agg = self.leaves[name]
        is_eig = name == "graph_core.algebraic_connectivity"
        is_flip = name == "gne.flipit_equilibrium"

        def wrapper(*args, **kwargs):
            frame = [0.0, None]
            stack.append(frame)
            t0 = clock()
            try:
                result = orig(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                if stack:
                    stack[-1][0] += t1 - t0
                agg[0] += 1
                agg[1] += t1 - t0
                agg[2] += t1 - t0 - frame[0]
            if is_eig:
                self.eigensolves += 1
                self.eig_work += args[0].n ** 3
            elif is_flip:
                self.br_iterations += result.iterations
            return result

        return wrapper

    # -- output -----------------------------------------------------------

    def write_spans(self, path) -> None:
        with open(path, "w") as fh:
            for rec in self.spans:
                fh.write(json.dumps(rec, sort_keys=True) + "\n")

    def metrics(self) -> dict:
        """Per-layer metrics: counts are exact, times are seconds."""
        spans = self.spans
        by_name = defaultdict(list)
        for s in spans:
            by_name[s["name"]].append(s)

        def parent_name(s):
            return None if s["parent"] is None else spans[s["parent"]]["name"]

        def leaf(name, stat):
            calls, total, self_s = self.leaves[name]
            return {"calls": calls, "total_s": total, "self_s": self_s}[stat]

        def self_s(name):
            return sum(s["self_s"] for s in by_name[name])

        wcr = by_name["adversary.worst_case_removal"]
        exact = [s for s in wcr if s["exact"]]
        subsets = sum(s["subsets"] for s in exact)
        plans = by_name["controller.plan"]
        evals = sum(1 for s in wcr if parent_name(s) == "controller.plan")
        accepted = sum(s["iterations_used"] for s in plans)
        solves = by_name["gne.gne_solve"]
        parse = [s for s in by_name["scenario_io.parse"] if parent_name(s) != "scenario_io.parse"]
        emit = by_name["scenario_io.emit"]
        return {
            "graph_core.algebraic_connectivity.calls": leaf("graph_core.algebraic_connectivity", "calls"),
            "graph_core.algebraic_connectivity.self_s": leaf("graph_core.algebraic_connectivity", "self_s"),
            "graph_core.laplacian.calls": leaf("graph_core.laplacian", "calls"),
            "graph_core.laplacian.self_s": leaf("graph_core.laplacian", "self_s"),
            "graph_core.remove_links.self_s": leaf("graph_core.remove_links", "self_s"),
            "graph_core.build_proximity_graph.calls": leaf("graph_core.build_proximity_graph", "calls"),
            "graph_core.build_proximity_graph.self_s": leaf("graph_core.build_proximity_graph", "self_s"),
            "graph_core.connectivity_gradient.self_s": leaf("graph_core.connectivity_gradient", "self_s"),
            "graph_core.eig_work": self.eig_work,
            "adversary.worst_case_removal.calls": len(wcr),
            "adversary.worst_case_removal.self_s": self_s("adversary.worst_case_removal"),
            "adversary.worst_case_removal.total_s": sum(s["end"] - s["start"] for s in wcr),
            "adversary.subsets_scanned": subsets,
            "adversary.exact_share": len(exact) / len(wcr) if wcr else 0.0,
            "adversary.eigensolves_per_subset": (
                sum(s["eigensolves"] for s in exact) / subsets if subsets else 0.0
            ),
            "controller.plan.calls": len(plans),
            "controller.plan.self_s": self_s("controller.plan"),
            "controller.plan.evals": evals,
            "controller.plan.accepted": accepted,
            "controller.plan.accept_ratio": accepted / evals if evals else 0.0,
            "simulator.run_scenario.self_s": self_s("simulator.run_scenario"),
            "simulator.attack_s": sum(
                s["end"] - s["start"] for s in wcr if parent_name(s) == "simulator.run_scenario"
            ),
            "simulator.compute_resilience_metrics.self_s": self_s("simulator.compute_resilience_metrics"),
            "gne.gne_solve.calls": len(solves),
            "gne.gne_solve.self_s": self_s("gne.gne_solve"),
            "gne.gne_solve.iterations": sum(s["iterations"] for s in solves),
            "gne.signaling_equilibrium.calls": leaf("gne.signaling_equilibrium", "calls"),
            "gne.signaling_equilibrium.self_s": leaf("gne.signaling_equilibrium", "self_s"),
            "gne.flipit_equilibrium.self_s": leaf("gne.flipit_equilibrium", "self_s"),
            "gne.flipit_equilibrium.br_iterations": self.br_iterations,
            "gne.converged_share": (
                sum(1 for s in solves if s["converged"]) / len(solves) if solves else 0.0
            ),
            "scenario_io.parse_s": sum(s["end"] - s["start"] for s in parse),
            "scenario_io.emit_s": sum(s["end"] - s["start"] for s in emit),
            "scenario_io.bytes_written": sum(s["bytes"] for s in emit),
            "cli.main.self_s": self_s("cli.main"),
        }


def _describe(name: str, args, kwargs, result) -> dict:
    """Call details a span keeps, taken from its arguments and result."""
    if name == "adversary.worst_case_removal":
        g = args[0]
        budget = args[1] if len(args) > 1 else kwargs["budget"]
        return {
            "edges": len(g.edges),
            "m": budget.m,
            "exact": result.exact,
            "subsets": subsets_scanned(len(g.edges), budget.m) if result.exact else 0,
        }
    if name == "controller.plan":
        return {"iterations_used": result.iterations_used}
    if name == "gne.gne_solve":
        return {"iterations": result.iterations, "converged": result.converged}
    if name == "scenario_io.emit":
        path = args[1] if len(args) > 1 else kwargs["path"]
        return {"bytes": os.path.getsize(path)}
    return {}
