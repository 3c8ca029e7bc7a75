"""Deterministic closed-loop scenario engine with attack events.

Each step: spoofed reports are computed from true positions, the planner
picks targets from those reports, agents execute the plan as a displacement
command (so a spoofed agent physically moves by ``target - reported``, which
is what a position-deceived vehicle actually does and keeps physical motion
inside the per-step bound), the true proximity graph is rebuilt, active jam
events knock out links, and the step is traced.

Runs are bit-identical given the same config and seed; the seed only feeds
the optional random initial layout.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, replace
from typing import Mapping, Sequence, Union

import numpy as np

from .adversary import RemovalBudget, worst_case_removal
from .controller import (
    CENTRALIZED,
    ControlOptions,
    PlanResult,
    plan_step,
    plan_step_decentralized,
    two_hop_neighborhoods,
)
from .graph_core import (
    LayerProfiles,
    WeightProfile,
    WeightedGraph,
    algebraic_connectivity,
    build_proximity_graph,
    remove_links,
)

__all__ = [
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
]

log = logging.getLogger(__name__)


@dataclass(frozen=True)
class JamEvent:
    """Link removal active at steps in [start, end).

    ``edges`` holds scripted agent-id pairs; ``None`` means the jammer picks
    the worst-case removal of ``budget`` links at every active step.
    """

    budget: int
    start: int
    end: int
    edges: tuple[tuple[str, str], ...] | None = None

    def __post_init__(self) -> None:
        if self.budget < 0:
            raise ValueError("jam budget must be >= 0")
        if not 0 <= self.start < self.end:
            raise ValueError("jam window must satisfy 0 <= start < end")

    def active_at(self, step: int) -> bool:
        return self.start <= step < self.end


@dataclass(frozen=True)
class SpoofEvent:
    """Constant offset added to the reported positions of some agents."""

    targets: tuple[str, ...]
    offset: tuple[float, ...]
    start: int
    duration: int

    def __post_init__(self) -> None:
        if not self.targets:
            raise ValueError("spoof needs at least one target")
        if self.start < 0 or self.duration < 1:
            raise ValueError("spoof window must have start >= 0, duration >= 1")

    def active_at(self, step: int) -> bool:
        return self.start <= step < self.start + self.duration


AttackEvent = Union[JamEvent, SpoofEvent]


@dataclass(frozen=True)
class BaselineSpec:
    """How the pre-attack performance level is established."""

    policy: str = "pre_event"  # or "fixed"
    value: float | None = None
    recovery_fraction: float = 0.9

    def __post_init__(self) -> None:
        if self.policy not in ("pre_event", "fixed"):
            raise ValueError(f"unknown baseline policy {self.policy!r}")
        if self.policy == "fixed" and self.value is None:
            raise ValueError("fixed baseline needs a value")
        if not 0 < self.recovery_fraction <= 1:
            raise ValueError("recovery_fraction must be in (0, 1]")


@dataclass(frozen=True)
class RandomLayout:
    """Axis-aligned box from which missing initial positions are drawn."""

    low: tuple[float, ...]
    high: tuple[float, ...]


@dataclass(frozen=True)
class ScenarioConfig:
    dimension: int
    agent_ids: tuple[str, ...]
    agent_layers: tuple[str, ...]
    initial_positions: tuple[tuple[float, ...], ...] | None
    profiles: Mapping[str, WeightProfile]
    opts: ControlOptions
    steps: int
    events: tuple[AttackEvent, ...]
    rng_seed: int
    baseline: BaselineSpec
    layout: RandomLayout | None = None
    budget_schedule: tuple[tuple[int, int], ...] = ()

    def __post_init__(self) -> None:
        n = len(self.agent_ids)
        if n < 2:
            raise ValueError("scenario needs at least 2 agents")
        if len(set(self.agent_ids)) != n:
            raise ValueError("agent ids must be unique")
        if len(self.agent_layers) != n:
            raise ValueError("need one layer per agent")
        if self.steps < 1:
            raise ValueError("steps must be >= 1")
        if self.initial_positions is None and self.layout is None:
            raise ValueError("either initial positions or a random layout")

    def index_of(self, agent_id: str) -> int:
        return self.agent_ids.index(agent_id)


@dataclass(frozen=True, eq=False)
class StepTrace:
    """One simulated step: ground truth, what the planner saw, what survived."""

    step: int
    true_positions: np.ndarray
    reported_positions: np.ndarray
    realized_graph: WeightedGraph
    lambda2_realized: float
    lambda2_worst_anticipated: float
    active_events: tuple[int, ...]
    anticipated: tuple[bool, ...]


@dataclass(frozen=True)
class ResilienceReport:
    """Degradation-and-recovery summary of a performance trace."""

    baseline: float
    onset: int
    max_degradation: float
    recovery_level: float
    recovery_step: int
    recovered: bool
    total_loss: float
    recovery_fraction: float


def _profile_source(cfg: ScenarioConfig):
    """Scenario ground-truth profile (single or layered)."""
    distinct = {cfg.profiles[layer] for layer in set(cfg.agent_layers)}
    if len(distinct) == 1:
        return next(iter(distinct))
    return LayerProfiles(cfg.agent_layers, dict(cfg.profiles))


def initial_positions(cfg: ScenarioConfig) -> np.ndarray:
    """Starting positions: explicit, or drawn from the layout box by seed."""
    if cfg.initial_positions is not None:
        pos = np.asarray(cfg.initial_positions, dtype=float)
        if pos.shape != (len(cfg.agent_ids), cfg.dimension):
            raise ValueError("initial positions do not match agents x dimension")
        return pos
    rng = np.random.default_rng(cfg.rng_seed)
    low = np.asarray(cfg.layout.low, dtype=float)
    high = np.asarray(cfg.layout.high, dtype=float)
    if low.shape != (cfg.dimension,) or high.shape != (cfg.dimension,):
        raise ValueError("layout bounds do not match the dimension")
    return rng.uniform(low, high, size=(len(cfg.agent_ids), cfg.dimension))


def planning_profile(cfg: ScenarioConfig):
    """The smooth weight profile the planner differentiates."""
    return _profile_source(cfg).smooth_surrogate()


def _plan(reported: np.ndarray, ctrl_profile, opts: ControlOptions) -> PlanResult:
    """One planning step with the planner ``opts.mode`` names.

    The decentralized planner gets each agent's two-hop neighborhood in the
    graph the planner sees.
    """
    if opts.mode == CENTRALIZED:
        return plan_step(reported, ctrl_profile, opts)
    seen = build_proximity_graph(reported, ctrl_profile)
    return plan_step_decentralized(
        reported, two_hop_neighborhoods(seen), ctrl_profile, opts
    )


def _step_options(cfg: ScenarioConfig, step: int) -> ControlOptions:
    """The control options of ``step``, with its scheduled anticipated budget."""
    m = cfg.opts.anticipated_budget.m
    for from_step, budget in cfg.budget_schedule:
        if from_step <= step:
            m = budget
    return replace(cfg.opts, anticipated_budget=RemovalBudget(m))


def _resolve_edges(
    g: WeightedGraph, pairs: Sequence[tuple[str, str]], ids: Sequence[str]
) -> list[int]:
    index = {aid: k for k, aid in enumerate(ids)}
    found = []
    for a, b in pairs:
        ends = sorted((index.get(a, -1), index.get(b, -1)))
        hit = np.flatnonzero((g.edges == ends).all(axis=1))
        if hit.size == 0:
            log.warning("scripted jam edge (%s, %s) not present; ignored", a, b)
        else:
            found.append(int(hit[0]))
    return sorted(set(found))


def run_scenario(cfg: ScenarioConfig) -> list[StepTrace]:
    """Run the closed loop and return one :class:`StepTrace` per step."""
    source = _profile_source(cfg)
    ctrl_profile = source.smooth_surrogate()
    true = initial_positions(cfg)
    traces: list[StepTrace] = []
    for step in range(cfg.steps):
        reported = true.copy()
        for ev in cfg.events:
            if isinstance(ev, SpoofEvent) and ev.active_at(step):
                offset = np.asarray(ev.offset, dtype=float)
                for aid in ev.targets:
                    reported[cfg.index_of(aid)] += offset
        opts = _step_options(cfg, step)
        plan = _plan(reported, ctrl_profile, opts)
        # displacement execution: a spoofed agent moves by the commanded
        # step, so its physical displacement still honors the motion bound
        true = true + (plan.targets - reported)
        graph = build_proximity_graph(true, source)
        active: list[int] = []
        anticipated: list[bool] = []
        for idx, ev in enumerate(cfg.events):
            if not ev.active_at(step):
                continue
            active.append(idx)
            if isinstance(ev, SpoofEvent):
                anticipated.append(False)  # sensor attacks are never budgeted
                continue
            anticipated.append(ev.budget <= opts.anticipated_budget.m)
            if ev.edges is None:
                m_eff = min(ev.budget, graph.edge_count)
                wc = worst_case_removal(graph, RemovalBudget(m_eff))
                graph = remove_links(graph, wc.removal)
            else:
                graph = remove_links(
                    graph, _resolve_edges(graph, ev.edges, cfg.agent_ids)
                )
        lam = algebraic_connectivity(graph).lambda2
        traces.append(
            StepTrace(
                step=step,
                true_positions=true.copy(),
                reported_positions=reported,
                realized_graph=graph,
                lambda2_realized=lam,
                lambda2_worst_anticipated=plan.predicted_worst_lambda2,
                active_events=tuple(active),
                anticipated=tuple(anticipated),
            )
        )
    return traces


def compute_resilience_metrics(
    trace: Sequence[StepTrace],
    baseline: BaselineSpec,
    onset: int,
) -> ResilienceReport:
    """Summarize degradation and recovery of realized connectivity.

    Args:
        trace: simulation trace; performance is ``lambda2_realized``.
        baseline: pre-event-mean or fixed reference level, and the
            recovery fraction.
        onset: step at which the disturbance hits (t2).

    Returns:
        :class:`ResilienceReport` with max degradation, the first step at or
        after onset back at the recovery level, and the summed shortfall
        from onset through that step.  If the level is never reached again
        the last step is reported and ``recovered`` is False.
    """
    perf = [t.lambda2_realized for t in trace]
    if not perf:
        raise ValueError("empty trace")
    if not 0 <= onset < len(perf):
        raise ValueError(f"onset {onset} outside trace of length {len(perf)}")
    phi = baseline.recovery_fraction
    if baseline.policy == "pre_event":
        if onset == 0:
            raise ValueError("pre_event baseline needs at least one step before onset")
        level = float(np.mean(perf[:onset]))
    else:
        level = float(baseline.value)
    target = phi * level
    tail = perf[onset:]
    max_deg = max(0.0, max(level - p for p in tail))
    recovery_step = len(perf) - 1
    recovered = False
    for t in range(onset, len(perf)):
        if perf[t] >= target:
            recovery_step = t
            recovered = True
            break
    total_loss = sum(max(0.0, level - perf[t]) for t in range(onset, recovery_step + 1))
    return ResilienceReport(
        baseline=level,
        onset=onset,
        max_degradation=max_deg,
        recovery_level=target,
        recovery_step=recovery_step,
        recovered=recovered,
        total_loss=total_loss,
        recovery_fraction=phi,
    )
