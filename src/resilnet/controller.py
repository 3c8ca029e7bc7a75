"""Moving-horizon motion planning that maximizes worst-case connectivity.

Each planning step solves, by projected gradient ascent with a backtracking
line search, the max-min problem: choose target positions within the per-step
motion bound that maximize lambda2 of the proximity graph *after* the most
damaging removal of up to ``m`` links.  Anticipating the attack this way
keeps the realized network connected when a jammer strikes within budget.

When the anticipated attack currently disconnects the network the max-min
objective is flat at zero and carries no gradient, so the search falls back
to ascending the unattacked lambda2 until redundancy appears; acceptance is
lexicographic in (worst-case lambda2, full-graph lambda2).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .adversary import SUBSET_CAP, RemovalBudget, WorstCaseResult, worst_case_removal
from .graph_core import (
    LayerProfiles,
    WeightProfile,
    WeightedGraph,
    _pair_distances,
    algebraic_connectivity,
    as_positions,
    build_proximity_graph,
    connectivity_gradient,
    remove_links,
)

__all__ = [
    "CENTRALIZED",
    "DECENTRALIZED",
    "ControlOptions",
    "PlanResult",
    "plan_step",
    "plan_step_decentralized",
    "project_motion",
    "two_hop_neighborhoods",
]

_BALL_TOL = 1e-9
_SEP_TOL = 1e-9
_PUSH_SWEEPS = 12
_ZERO_GRAD = 1e-14

CENTRALIZED = "centralized"
DECENTRALIZED = "decentralized"


@dataclass(frozen=True)
class ControlOptions:
    """Tuning knobs for one planning step.

    Args:
        anticipated_budget: link removals the plan must survive.
        motion_bound: max displacement per agent per step; ``math.inf``
            disables the bound.
        min_separation: pairwise spacing floor, enforced by push-apart; must
            stay below the communication range.
        outer_iters: max ascent iterations.
        step_size: initial trial displacement of the farthest-moving agent.
        backtrack: line-search shrink factor in (0, 1).
        tol: required objective gain per unit step for acceptance.
        mode: ``"centralized"`` or ``"decentralized"``.
        attack_mode: worst-case search mode handed to the adversary model.
    """

    anticipated_budget: RemovalBudget
    motion_bound: float
    min_separation: float = 0.0
    outer_iters: int = 40
    step_size: float = 0.5
    backtrack: float = 0.5
    tol: float = 1e-9
    mode: str = CENTRALIZED
    attack_mode: str = "auto"
    subset_cap: int = SUBSET_CAP
    max_backtracks: int = 30

    def __post_init__(self) -> None:
        if self.motion_bound < 0:
            raise ValueError("motion_bound must be >= 0")
        if self.min_separation < 0:
            raise ValueError("min_separation must be >= 0")
        if self.outer_iters < 1:
            raise ValueError("outer_iters must be >= 1")
        if not 0 < self.backtrack < 1:
            raise ValueError("backtrack must be in (0, 1)")
        if self.step_size <= 0:
            raise ValueError("step_size must be > 0")
        if self.tol <= 0:
            raise ValueError("tol must be > 0")
        if self.mode not in (CENTRALIZED, DECENTRALIZED):
            raise ValueError(f"unknown mode {self.mode!r}")
        if self.max_backtracks < 1:
            raise ValueError("max_backtracks must be >= 1")


@dataclass(frozen=True, eq=False)
class PlanResult:
    """Targets for the next step plus the anticipated worst case there."""

    targets: np.ndarray
    predicted_worst_lambda2: float
    worst_removal: WorstCaseResult
    iterations_used: int


@dataclass(frozen=True, eq=False)
class _Eval:
    worst_lambda2: float
    full_lambda2: float
    worst: WorstCaseResult
    graph: WeightedGraph
    spectral: object


def project_motion(current, proposed, delta: float) -> np.ndarray:
    """Pull each proposed position back into the delta-ball of its origin."""
    cur = as_positions(current)
    prop = as_positions(proposed)
    if cur.shape != prop.shape:
        raise ValueError("current and proposed shapes differ")
    if math.isinf(delta):
        return prop.copy()
    out = prop.copy()
    step = prop - cur
    norms = np.linalg.norm(step, axis=1)
    for i, s in enumerate(norms):
        if s > delta:
            out[i] = cur[i] + step[i] * (delta / s) if s > 0 else cur[i]
    return out


def _push_apart(points: np.ndarray, d_min: float) -> None:
    # symmetric pairwise separation repair, in place
    n = len(points)
    for _ in range(_PUSH_SWEEPS):
        moved = False
        for i in range(n - 1):
            for j in range(i + 1, n):
                diff = points[i] - points[j]
                d = float(np.linalg.norm(diff))
                if d >= d_min - 1e-12:
                    continue
                if d < 1e-12:
                    # coincident pair: split along the first axis
                    unit = np.zeros(points.shape[1])
                    unit[0] = 1.0
                else:
                    unit = diff / d
                shift = 0.5 * (d_min - d)
                points[i] += shift * unit
                points[j] -= shift * unit
                moved = True
        if not moved:
            return


def _enforce(
    origin: np.ndarray, proposal: np.ndarray, delta: float, d_min: float
) -> tuple[np.ndarray, bool]:
    """Project into the motion ball, push pairs apart, check both limits."""
    adjusted = project_motion(origin, proposal, delta)
    if d_min > 0:
        _push_apart(adjusted, d_min)
    if not math.isinf(delta):
        disp = np.linalg.norm(adjusted - origin, axis=1)
        if np.any(disp > delta + _BALL_TOL):
            return adjusted, False
    if d_min > 0 and np.any(_pair_distances(adjusted)[2] < d_min - _SEP_TOL):
        return adjusted, False
    return adjusted, True


def _snap(lam: float) -> float:
    # eigensolver noise on disconnected graphs sits around 1e-15; a genuinely
    # connected graph here has lambda2 >= weight floor * path bound >> 1e-12
    return 0.0 if lam < 1e-12 else lam


def _evaluate(positions, profile, m: int, opts: ControlOptions) -> _Eval:
    g = build_proximity_graph(positions, profile)
    spectral = algebraic_connectivity(g)
    budget = RemovalBudget(min(m, g.edge_count))
    wc = worst_case_removal(g, budget, opts.attack_mode, opts.subset_cap)
    return _Eval(_snap(wc.lambda2_after), _snap(spectral.lambda2), wc, g, spectral)


def _ascent_gradient_rows(positions, profile, ev: _Eval) -> np.ndarray:
    """Per-agent gradient of the worst-case lambda2 at ``positions``."""
    attacked = remove_links(ev.graph, ev.worst.removal)
    spec_att = algebraic_connectivity(attacked)
    grad = connectivity_gradient(positions, profile, spec_att, attacked).per_agent
    if float(np.max(np.linalg.norm(grad, axis=1))) < _ZERO_GRAD:
        # worst-case objective is flat (attack disconnects); climb the
        # unattacked connectivity instead until redundancy appears
        grad = connectivity_gradient(
            positions, profile, ev.spectral, ev.graph
        ).per_agent
    return grad


def _improves(before: _Eval, after: _Eval, gain: float) -> bool:
    if after.worst_lambda2 >= before.worst_lambda2 + gain:
        return True
    return (
        after.worst_lambda2 >= before.worst_lambda2
        and after.full_lambda2 >= before.full_lambda2 + gain
    )


def _validate_plan_inputs(pos: np.ndarray, profile, opts: ControlOptions) -> None:
    if len(pos) < 2:
        raise ValueError("need at least 2 agents to plan")
    if opts.min_separation >= profile.min_range():
        raise ValueError("min_separation must be below the communication range")
    span = np.max(np.linalg.norm(pos - pos[0], axis=1))
    if span < 1e-12:
        raise ValueError("degenerate start: all agents coincident")


def plan_step(
    reported_positions, profile: WeightProfile | LayerProfiles, opts: ControlOptions
) -> PlanResult:
    """Plan one step of anticipatory connectivity control.

    Args:
        reported_positions: (n, d) positions as seen by the operator.
        profile: smooth weight profile (single or per layer) used for the
            differentiable objective.
        opts: see :class:`ControlOptions`.

    Returns:
        :class:`PlanResult` with targets inside the motion bound,
        ``predicted_worst_lambda2`` equal to the max-min objective at the
        targets, and the removal achieving it.  The objective never falls
        below its value at the starting configuration.
    """
    pos = as_positions(reported_positions)
    _validate_plan_inputs(pos, profile, opts)
    m = opts.anticipated_budget.m
    ev = _evaluate(pos, profile, m, opts)
    candidate = pos.copy()
    accepted = 0
    for _ in range(opts.outer_iters):
        grad = _ascent_gradient_rows(candidate, profile, ev)
        gmax = float(np.max(np.linalg.norm(grad, axis=1)))
        if gmax < _ZERO_GRAD:
            break  # no useful gradient
        direction = grad / gmax
        eta = opts.step_size
        took = False
        for _ in range(opts.max_backtracks):
            adjusted, feasible = _enforce(
                pos, candidate + eta * direction, opts.motion_bound,
                opts.min_separation,
            )
            if feasible:
                ev2 = _evaluate(adjusted, profile, m, opts)
                if _improves(ev, ev2, opts.tol * eta):
                    candidate, ev = adjusted, ev2
                    accepted += 1
                    took = True
                    break
            eta *= opts.backtrack
        if not took:
            break
    return PlanResult(candidate, ev.worst_lambda2, ev.worst, accepted)


def two_hop_neighborhoods(g: WeightedGraph) -> tuple[frozenset[int], ...]:
    """Each agent's own index plus its one- and two-hop neighbors."""
    adj = np.eye(g.n, dtype=np.intp)
    adj[g.edges[:, 0], g.edges[:, 1]] = 1
    adj[g.edges[:, 1], g.edges[:, 0]] = 1
    # with the diagonal set, (adj @ adj)[i, k] > 0 iff k is within two hops
    return tuple(frozenset(np.flatnonzero(row).tolist()) for row in adj @ adj)


def _slice_profile(profile, idx: Sequence[int]):
    if isinstance(profile, LayerProfiles):
        return LayerProfiles(
            tuple(profile.layers[k] for k in idx), profile.profiles
        )
    return profile


def plan_step_decentralized(
    reported_positions,
    neighborhoods: Sequence[frozenset[int]],
    profile: WeightProfile | LayerProfiles,
    opts: ControlOptions,
) -> PlanResult:
    """Decentralized variant: one synchronous round per outer iteration.

    Each agent line-searches its own local objective (neighbors frozen at the
    round's snapshot) and moves only itself; motion and separation limits are
    then enforced jointly.  There is no global-improvement guarantee; the
    globally evaluated objective at the final targets is reported for
    comparison against the centralized planner.
    """
    pos = as_positions(reported_positions)
    _validate_plan_inputs(pos, profile, opts)
    if len(neighborhoods) != len(pos):
        raise ValueError("need one neighborhood per agent")
    m = opts.anticipated_budget.m
    hoods = [sorted(set(nb) | {i}) for i, nb in enumerate(neighborhoods)]
    candidate = pos.copy()
    rounds = 0
    for _ in range(opts.outer_iters):
        snapshot = candidate.copy()
        proposal = candidate.copy()
        any_moved = False
        for i in range(len(pos)):
            idx = hoods[i]
            if len(idx) < 2:
                continue
            sub_profile = _slice_profile(profile, idx)
            loc = idx.index(i)
            local = snapshot[idx]
            ev = _evaluate(local, sub_profile, m, opts)
            gi = _ascent_gradient_rows(local, sub_profile, ev)[loc]
            norm = float(np.linalg.norm(gi))
            if norm < _ZERO_GRAD:
                continue
            unit = gi / norm
            eta = opts.step_size
            for _ in range(opts.max_backtracks):
                trial = local.copy()
                moved = snapshot[i] + eta * unit
                trial[loc] = project_motion(
                    pos[i][None, :], moved[None, :], opts.motion_bound
                )[0]
                ev2 = _evaluate(trial, sub_profile, m, opts)
                if _improves(ev, ev2, opts.tol * eta):
                    proposal[i] = trial[loc]
                    any_moved = True
                    break
                eta *= opts.backtrack
        if not any_moved:
            break
        adjusted, feasible = _enforce(
            pos, proposal, opts.motion_bound, opts.min_separation
        )
        if not feasible:
            break
        candidate = adjusted
        rounds += 1
    ev = _evaluate(candidate, profile, m, opts)
    return PlanResult(candidate, ev.worst_lambda2, ev.worst, rounds)
