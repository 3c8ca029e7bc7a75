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
"""

from .graph_core import (
    BINARY,
    SMOOTH,
    GradientResult,
    LayerProfiles,
    SpectralError,
    SpectralResult,
    WeightProfile,
    WeightedGraph,
    algebraic_connectivity,
    build_proximity_graph,
    connectivity_gradient,
    laplacian,
    remove_links,
)
from .adversary import (
    SUBSET_CAP,
    RemovalBudget,
    WorstCaseResult,
    edge_impact_scores,
    worst_case_removal,
)
from .controller import (
    CENTRALIZED,
    DECENTRALIZED,
    ControlOptions,
    PlanResult,
    plan_step,
    plan_step_decentralized,
    project_motion,
    two_hop_neighborhoods,
)
from .simulator import (
    AttackEvent,
    BaselineSpec,
    JamEvent,
    RandomLayout,
    ResilienceReport,
    ScenarioConfig,
    SpoofEvent,
    StepTrace,
    compute_resilience_metrics,
    initial_positions,
    planning_profile,
    run_scenario,
)
from .gne import (
    ATTACKER,
    DEFENDER,
    REJECT,
    TRUST,
    FlipItOutcome,
    FlipItParams,
    GNECosts,
    GNEState,
    PlantSpec,
    SignalingOutcome,
    SignalingParams,
    flipit_control_fraction,
    flipit_equilibrium,
    gne_solve,
    physical_utilities,
    signaling_equilibrium,
)
from .scenario_io import (
    ConfigError,
    GNEProblem,
    RunManifest,
    config_hash,
    dumps_canonical,
    emit_manifest,
    emit_report,
    emit_trace,
    gne_from_dict,
    gne_record,
    parse_gne,
    parse_scenario,
    parse_trace,
    plan_record,
    scenario_from_dict,
    trace_record,
)

__version__ = "0.1.0"

__all__ = [
    "__version__",
    # graph_core
    "BINARY",
    "SMOOTH",
    "WeightProfile",
    "LayerProfiles",
    "WeightedGraph",
    "SpectralResult",
    "GradientResult",
    "SpectralError",
    "build_proximity_graph",
    "laplacian",
    "algebraic_connectivity",
    "connectivity_gradient",
    "remove_links",
    # adversary
    "RemovalBudget",
    "WorstCaseResult",
    "SUBSET_CAP",
    "worst_case_removal",
    "edge_impact_scores",
    # controller
    "CENTRALIZED",
    "DECENTRALIZED",
    "ControlOptions",
    "PlanResult",
    "plan_step",
    "plan_step_decentralized",
    "project_motion",
    "two_hop_neighborhoods",
    # simulator
    "JamEvent",
    "SpoofEvent",
    "AttackEvent",
    "BaselineSpec",
    "RandomLayout",
    "ScenarioConfig",
    "StepTrace",
    "ResilienceReport",
    "initial_positions",
    "planning_profile",
    "run_scenario",
    "compute_resilience_metrics",
    # gne
    "ATTACKER",
    "DEFENDER",
    "TRUST",
    "REJECT",
    "FlipItParams",
    "FlipItOutcome",
    "flipit_control_fraction",
    "flipit_equilibrium",
    "SignalingParams",
    "SignalingOutcome",
    "signaling_equilibrium",
    "PlantSpec",
    "physical_utilities",
    "GNECosts",
    "GNEState",
    "gne_solve",
    # scenario_io
    "ConfigError",
    "GNEProblem",
    "RunManifest",
    "parse_scenario",
    "scenario_from_dict",
    "parse_gne",
    "gne_from_dict",
    "dumps_canonical",
    "config_hash",
    "trace_record",
    "emit_trace",
    "parse_trace",
    "emit_report",
    "gne_record",
    "plan_record",
    "emit_manifest",
]
