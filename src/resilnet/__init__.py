"""Resilient control of mobile multi-agent networks under attack.

The package keeps a mobile network connected while an adversary removes
communication links and spoofs position reports.  It provides:

- weighted proximity graphs and algebraic-connectivity machinery
  (:mod:`resilnet.graph_core`),
- a worst-case link-removal adversary (:mod:`resilnet.adversary`),
- a moving-horizon max-min connectivity controller, centralized and
  decentralized (:mod:`resilnet.controller`),
- a closed-loop scenario simulator with jamming and spoofing events and
  resilience metrics (:mod:`resilnet.simulator`),
- a coupled stealthy-takeover timing game and trust signaling game solved
  for a joint equilibrium (:mod:`resilnet.gne`),
- YAML scenario parsing, canonical JSON output, trace parsing, and the
  ``resilnet`` command line (:mod:`resilnet.scenario_io`, :mod:`resilnet.cli`).

Every module's exports are package attributes.  Those of the four network
modules (graph, adversary, controller, simulator) load their module on
first use, and so does parsing a scenario or a trace: game-only work, in
the library or the ``resilnet`` command, never imports them.
"""

__version__ = "0.1.0"

import importlib

from . import gne, scenario_io
from .gne import *
from .scenario_io import *

# The network modules' exports, as each module's __all__ lists them; a test
# holds the two equal.  They resolve in __getattr__, without a cache, so a
# name rebound in its home module reads the same here.
_NETWORK_EXPORTS = {
    "graph_core": (
        "BINARY", "SMOOTH", "WeightProfile", "LayerProfiles", "WeightedGraph",
        "SpectralResult", "GradientResult", "SpectralError", "build_proximity_graph",
        "laplacian", "algebraic_connectivity", "connectivity_gradient", "remove_links",
    ),
    "adversary": (
        "RemovalBudget", "WorstCaseResult", "SUBSET_CAP", "worst_case_removal",
        "edge_impact_scores",
    ),
    "controller": (
        "CENTRALIZED", "DECENTRALIZED", "ControlOptions", "PlanResult", "plan_step",
        "plan_step_decentralized",
    ),
    "simulator": (
        "JamEvent", "SpoofEvent", "AttackEvent", "BaselineSpec", "RandomLayout",
        "ScenarioConfig", "StepTrace", "ResilienceReport", "initial_positions",
        "planning_profile", "run_scenario", "compute_resilience_metrics",
    ),
}
_HOME = {name: module for module, names in _NETWORK_EXPORTS.items() for name in names}

__all__ = [
    "__version__",
    *_HOME,
    *gne.__all__,
    *scenario_io.__all__,
]


def __getattr__(name: str):
    # only known names: ``from resilnet import cli`` asks for "cli" first
    if name in _NETWORK_EXPORTS:
        return importlib.import_module(f"{__name__}.{name}")
    if name in _HOME:
        return getattr(importlib.import_module(f"{__name__}.{_HOME[name]}"), name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__() -> list[str]:
    return sorted({*globals(), *_NETWORK_EXPORTS, *_HOME})
