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
from typing import Callable, Sequence

import numpy as np

from .adversary import RemovalBudget, WorstCaseResult, worst_case_removal
from .graph_core import (
    LayerProfiles,
    WeightProfile,
    WeightedGraph,
    _distances,
    _pair_distances,
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
]

_BALL_TOL = 1e-9
_SEP_TOL = 1e-9
_PUSH_SWEEPS = 12
_ZERO_GRAD = 1e-14
# Line search: the first trial moves the farthest-moving agent _STEP_SIZE,
# each rejected trial shrinks the step by _BACKTRACK, at most _MAX_BACKTRACKS
# trials are made, and a trial is accepted when it gains _TOL per unit step.
_STEP_SIZE = 0.5
_BACKTRACK = 0.5
_MAX_BACKTRACKS = 30
_TOL = 1e-9

CENTRALIZED = "centralized"
DECENTRALIZED = "decentralized"


@dataclass(frozen=True)
class ControlOptions:
    """Settings of one planning step.

    The planner anticipates the jammer's own attack model: the worst-case
    search of :func:`resilnet.adversary.worst_case_removal` with its defaults.

    Args:
        anticipated_budget: link removals the plan must survive.
        motion_bound: max displacement per agent per step; ``math.inf``
            disables the bound.
        min_separation: pairwise spacing floor, enforced by push-apart; must
            stay below the communication range.
        outer_iters: max ascent iterations.
        mode: ``"centralized"`` or ``"decentralized"``.
    """

    anticipated_budget: RemovalBudget
    motion_bound: float
    min_separation: float = 0.0
    outer_iters: int = 40
    mode: str = CENTRALIZED

    def __post_init__(self) -> None:
        # not >= rather than <: NaN fails it too
        if not self.motion_bound >= 0:
            raise ValueError("motion_bound must be >= 0")
        if not self.min_separation >= 0:
            raise ValueError("min_separation must be >= 0")
        if self.outer_iters < 1:
            raise ValueError("outer_iters must be >= 1")
        if self.mode not in (CENTRALIZED, DECENTRALIZED):
            raise ValueError(f"unknown mode {self.mode!r}")


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


def _project_motion(current, proposed, delta: float) -> np.ndarray:
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
    far = norms > delta
    out[far] = cur[far] + step[far] * (delta / norms[far])[:, None]
    return out


def _push_apart(points: np.ndarray, d_min: float) -> np.ndarray:
    """Symmetric pairwise separation repair, in place; returns the pair
    distances of the repaired points, in ``_pair_distances`` order.

    Each sweep visits the pairs i < j in lexicographic order and judges each
    on the positions the moves before it left.  A whole-team distance scan
    stands in for the per-pair norms (same bits); after each move only the
    distances from the two moved agents are computed again, and the sweep
    jumps to the next close pair.  So the distances returned have the bits
    of a fresh scan.
    """
    i, j, dist = _pair_distances(points)
    if np.all(dist >= d_min - 1e-12):
        return dist
    agents = np.arange(len(points))
    # slot[p, q] is where dist holds pair (p, q), either way round; the
    # diagonal points at a spare entry past the end of dist
    slot = np.full((len(agents), len(agents)), len(dist))
    slot[i, j] = slot[j, i] = np.arange(len(dist))
    store = np.append(dist, 0.0)
    dist = store[:-1]
    for _ in range(_PUSH_SWEEPS):
        k, moved = 0, False
        # ~(>=) rather than <: a NaN distance is close and moves like any other
        while len(close := np.flatnonzero(~(dist[k:] >= d_min - 1e-12))):
            k += int(close[0])
            a, b, d = int(i[k]), int(j[k]), float(dist[k])
            if d < 1e-12:
                # coincident pair: split along the first axis
                unit = np.zeros(points.shape[1])
                unit[0] = 1.0
            else:
                unit = (points[a] - points[b]) / d
            step = 0.5 * (d_min - d) * unit
            points[a] += step
            points[b] -= step
            moved = True
            k += 1
            # p - q is -(q - p) exactly, so either order gives the same bits
            ends = np.array([[a], [b]])
            store[slot[ends[:, 0]]] = _distances(points, ends, agents)
        if not moved:
            break
    return dist


def _enforce(
    origin: np.ndarray, proposal: np.ndarray, delta: float, d_min: float
) -> np.ndarray | None:
    """Project into the motion ball and push pairs apart; None if either
    limit then fails, or if every agent lands on one point, where no plan
    can start."""
    adjusted = _project_motion(origin, proposal, delta)
    if d_min > 0:
        dist = _push_apart(adjusted, d_min)
    if not math.isinf(delta):
        disp = np.linalg.norm(adjusted - origin, axis=1)
        if np.any(disp > delta + _BALL_TOL):
            return None
    if d_min > 0 and np.any(dist < d_min - _SEP_TOL):
        return None
    return None if _coincident(adjusted) else adjusted


def _coincident(points: np.ndarray) -> bool:
    return bool(np.max(np.linalg.norm(points - points[0], axis=1)) < 1e-12)


def _snap(lam: float) -> float:
    # eigensolver noise on disconnected graphs sits around 1e-15; a genuinely
    # connected graph here has lambda2 >= weight floor * path bound >> 1e-12
    return 0.0 if lam < 1e-12 else lam


def _evaluate(positions, profile, m: int) -> _Eval:
    g = build_proximity_graph(positions, profile)
    wc = worst_case_removal(g, RemovalBudget(min(m, g.edge_count)))
    return _Eval(_snap(wc.lambda2_after), _snap(wc.start.lambda2), wc, g)


def _ascent_gradient_rows(positions, profile, ev: _Eval) -> np.ndarray:
    """Per-agent gradient of the worst-case lambda2 at ``positions``, from
    the spectra the worst-case search solved."""
    attacked = remove_links(ev.graph, ev.worst.removal)
    grad = connectivity_gradient(positions, profile, ev.worst.attacked, attacked).per_agent
    if float(np.max(np.linalg.norm(grad, axis=1))) < _ZERO_GRAD:
        # worst-case objective is flat (attack disconnects); climb the
        # unattacked connectivity instead until redundancy appears
        grad = connectivity_gradient(
            positions, profile, ev.worst.start, ev.graph
        ).per_agent
    return grad


def _improves(before: _Eval, after: _Eval, gain: float) -> bool:
    if after.worst_lambda2 >= before.worst_lambda2 + gain:
        return True
    return (
        after.worst_lambda2 >= before.worst_lambda2
        and after.full_lambda2 >= before.full_lambda2 + gain
    )


def _line_search(
    ev: _Eval, trial_at: Callable[[float], np.ndarray | None], profile, m: int
) -> tuple[np.ndarray, _Eval] | None:
    """Backtracking search from ``ev``: the first trial that is feasible and
    gains _TOL per unit step, with its evaluation, or None.

    ``trial_at(eta)`` gives the positions at step ``eta``, or None where they
    break a limit.
    """
    eta = _STEP_SIZE
    for _ in range(_MAX_BACKTRACKS):
        trial = trial_at(eta)
        if trial is not None:
            ev2 = _evaluate(trial, profile, m)
            if _improves(ev, ev2, _TOL * eta):
                return trial, ev2
        eta *= _BACKTRACK
    return None


def _plan_input_errors(pos: np.ndarray, profile, opts: ControlOptions) -> list[tuple[str, str]]:
    """The planner's failed preconditions, each with the scenario field that
    sets it; the scenario validator reports them all, the planner the first."""
    errors = []
    if len(pos) < 2:
        errors.append(("agents", "need at least 2 agents to plan"))
    if opts.min_separation >= profile.min_range():
        errors.append(
            ("control.min_separation", "min_separation must be below the communication range")
        )
    return errors


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
    errors = _plan_input_errors(pos, profile, opts)
    if errors:
        raise ValueError(errors[0][1])
    m = opts.anticipated_budget.m
    bound, d_min = opts.motion_bound, opts.min_separation
    ev = _evaluate(pos, profile, m)
    candidate = pos.copy()
    accepted = 0
    for _ in range(opts.outer_iters):
        grad = _ascent_gradient_rows(candidate, profile, ev)
        gmax = float(np.max(np.linalg.norm(grad, axis=1)))
        if gmax < _ZERO_GRAD:
            break  # no useful gradient
        direction = grad / gmax
        found = _line_search(
            ev, lambda eta: _enforce(pos, candidate + eta * direction, bound, d_min), profile, m
        )
        if found is None:
            break
        candidate, ev = found
        accepted += 1
    return PlanResult(candidate, ev.worst_lambda2, ev.worst, accepted)


def _two_hop_neighborhoods(g: WeightedGraph) -> list[list[int]]:
    """Each agent's own index plus its one- and two-hop neighbors, sorted."""
    adj = np.eye(g.n, dtype=np.intp)
    adj[g.edges[:, 0], g.edges[:, 1]] = 1
    adj[g.edges[:, 1], g.edges[:, 0]] = 1
    # with the diagonal set, (adj @ adj)[i, k] > 0 iff k is within two hops
    return [np.flatnonzero(row).tolist() for row in adj @ adj]


def _slice_profile(profile, idx: Sequence[int]):
    if isinstance(profile, LayerProfiles):
        return LayerProfiles(
            tuple(profile.layers[k] for k in idx), profile.profiles
        )
    return profile


def plan_step_decentralized(
    reported_positions, profile: WeightProfile | LayerProfiles, opts: ControlOptions
) -> PlanResult:
    """Decentralized variant: one synchronous round per outer iteration.

    Each agent plans over its two-hop neighborhood in the proximity graph of
    the reported positions.  It runs the centralized planner's line search
    on that neighborhood's objective, with the neighbors frozen at the
    round's snapshot, and moves only itself; motion and separation limits
    are then enforced jointly.  There is no global-improvement guarantee;
    the globally evaluated objective at the final targets is reported for
    comparison against the centralized planner.
    """
    pos = as_positions(reported_positions)
    errors = _plan_input_errors(pos, profile, opts)
    if errors:
        raise ValueError(errors[0][1])
    m = opts.anticipated_budget.m
    hoods = _two_hop_neighborhoods(build_proximity_graph(pos, profile))
    candidate = pos.copy()
    rounds = 0
    for _ in range(opts.outer_iters):
        snapshot = candidate.copy()
        proposal = candidate.copy()
        any_moved = False
        for i, idx in enumerate(hoods):
            if len(idx) < 2:
                continue
            sub_profile = _slice_profile(profile, idx)
            loc = idx.index(i)
            local = snapshot[idx]
            ev = _evaluate(local, sub_profile, m)
            gi = _ascent_gradient_rows(local, sub_profile, ev)[loc]
            norm = float(np.linalg.norm(gi))
            if norm < _ZERO_GRAD:
                continue
            unit = gi / norm

            def trial_at(eta: float) -> np.ndarray:
                trial = local.copy()
                moved = (snapshot[i] + eta * unit)[None, :]
                trial[loc] = _project_motion(pos[i][None, :], moved, opts.motion_bound)[0]
                return trial
            found = _line_search(ev, trial_at, sub_profile, m)
            if found is not None:
                proposal[i] = found[0][loc]
                any_moved = True
        if not any_moved:
            break
        adjusted = _enforce(pos, proposal, opts.motion_bound, opts.min_separation)
        if adjusted is None:
            break
        candidate = adjusted
        rounds += 1
    ev = _evaluate(candidate, profile, m)
    return PlanResult(candidate, ev.worst_lambda2, ev.worst, rounds)
