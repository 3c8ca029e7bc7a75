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

import contextlib
import contextvars
import math
from dataclasses import dataclass
from typing import Callable, Iterator, Sequence

import numpy as np

from .adversary import RemovalBudget, WorstCaseResult, _certified_below, worst_case_removal
from .graph_core import (
    LayerProfiles,
    WeightProfile,
    WeightedGraph,
    _graph_from_distances,
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
# A planning scope keeps at most _MEMO_SIZE worst cases, _STORES certificate
# stores and _STORE_ROWS vectors in each store; the oldest go first.
_MEMO_SIZE = 512
_STORES = 256
_STORE_ROWS = 64

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


def _clip(cur: np.ndarray, prop: np.ndarray, delta: float) -> tuple[np.ndarray, bool]:
    """Pull each proposed position back into the delta-ball of its origin, on
    (n, d) arrays of one shape, and say whether it moved any agent."""
    out = prop.copy()
    if math.isinf(delta):
        return out, False
    step = prop - cur
    norms = np.linalg.norm(step, axis=1)
    far = norms > delta
    if not far.any():
        return out, False
    out[far] = cur[far] + step[far] * (delta / norms[far])[:, None]
    return out, True


def _push_apart(points: np.ndarray, d_min: float) -> np.ndarray:
    """Symmetric pairwise separation repair, in place; returns the pair
    distances of the repaired points, in ``_pair_distances`` order.

    Each sweep visits the pairs i < j in lexicographic order and judges each
    on the positions the moves before it left.  A whole-team distance scan
    stands in for the per-pair norms (same bits); it runs again after each
    move, and the sweep jumps to the next close pair.
    """
    i, j, dist = _pair_distances(points)
    for _ in range(_PUSH_SWEEPS):
        k, moved = 0, False
        # ~(>=) rather than <: a NaN distance is close and moves like any other
        while len(close := (~(dist[k:] >= d_min - 1e-12)).nonzero()[0]):
            k += int(close[0])
            a, b, d = int(i[k]), int(j[k]), float(dist[k])
            # the move on Python floats: the same elementwise IEEE operations
            pa, pb = points[a].tolist(), points[b].tolist()
            if d < 1e-12:
                # coincident pair: split along the first axis
                unit = [1.0] + [0.0] * (len(pa) - 1)
            else:
                unit = [(x - y) / d for x, y in zip(pa, pb)]
            half = 0.5 * (d_min - d)
            step = [half * u for u in unit]
            points[a] = [x + t for x, t in zip(pa, step)]
            points[b] = [x - t for x, t in zip(pb, step)]
            moved = True
            k += 1
            dist = _pair_distances(points)[2]
        if not moved:
            break
    return dist


def _enforce(
    origin: np.ndarray, proposal: np.ndarray, delta: float, d_min: float
) -> tuple[np.ndarray, np.ndarray] | None:
    """Project into the motion ball and push pairs apart: the positions and
    their pair distances, in ``_pair_distances`` order.  None if either
    limit then fails, or if every agent lands on one point, where no plan
    can start.  ``origin`` is the planner's checked start.

    Only the checks that could fail run.  The repair runs only where the
    scan finds a pair closer than d_min - 1e-12; elsewhere every distance
    clears d_min - ``_SEP_TOL`` as well.  Where no agent was clipped and no
    repair ran, the motion check would take the norms that the projection
    found within delta.  And once every pair lies ``d_min - _SEP_TOL`` >
    2e-12 apart, no two agents are within 1e-12, far outside roundoff.
    """
    adjusted, clipped = _clip(origin, as_positions(proposal), delta)
    dist = _pair_distances(adjusted)[2]
    moved = d_min > 0 and not np.all(dist >= d_min - 1e-12)
    if moved:
        dist = _push_apart(adjusted, d_min)
        if np.any(dist < d_min - _SEP_TOL):
            return None
    if (clipped or moved) and not math.isinf(delta):
        disp = np.linalg.norm(adjusted - origin, axis=1)
        if np.any(disp > delta + _BALL_TOL):
            return None
    if d_min - _SEP_TOL <= 2e-12 and _coincident(adjusted):
        return None
    return adjusted, dist


def _coincident(points: np.ndarray) -> bool:
    return bool(np.max(np.linalg.norm(points - points[0], axis=1)) < 1e-12)


def _snap(lam: float) -> float:
    # eigensolver noise on disconnected graphs sits around 1e-15; a genuinely
    # connected graph here has lambda2 >= weight floor * path bound >> 1e-12
    return 0.0 if lam < 1e-12 else lam


def _evaluate(g: WeightedGraph, m: int) -> _Eval:
    b = min(m, g.edge_count)
    scope = _SCOPE.get()
    wc = worst_case_removal(g, RemovalBudget(b)) if scope is None else scope.worst_case(g, b)
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


class _Rejected:
    """The attacked Fiedler vectors of the trials an evaluation rejected,
    centred and stacked, with their squared norms off the all-ones vector:
    the test vectors of :func:`resilnet.adversary._certified_below`.

    Rows go into a ring of ``_STORE_ROWS`` rows, allocated up front; once it
    is full each new row takes the place of the oldest.
    """

    def __init__(self, n: int) -> None:
        self._rows = np.empty((_STORE_ROWS, n))
        self._norms = np.empty(_STORE_ROWS)
        self._added = 0

    @property
    def vectors(self) -> np.ndarray:
        return self._rows[: self._added]

    @property
    def norms(self) -> np.ndarray:
        return self._norms[: self._added]

    def add(self, fiedler: np.ndarray) -> None:
        u = fiedler - fiedler.mean()
        k = self._added % _STORE_ROWS
        self._rows[k] = u
        self._norms[k] = u @ u - u.sum() ** 2 / len(u)
        self._added += 1


def _keep(table: dict, key, value, size: int) -> None:
    """Put ``key`` in ``table``, dropping its oldest keys past ``size``."""
    table[key] = value
    while len(table) > size:
        del table[next(iter(table))]


class _Scope:
    """What the plan calls of one run share.

    ``worst_case`` keeps every graph's worst case, keyed on the graph's
    bytes and the budget, so a graph met again takes no search: the search
    is a function of those bytes alone.  ``store`` keeps the certificate
    vectors of each team, keyed on its agents' indices; the Courant-Fischer
    bound of ``_certified_below`` holds for any test vector, so vectors from
    earlier steps serve as well.  Both are bounded, and dropping an entry
    can only make a hit or a certificate rarer, so no output depends on
    what they hold.
    """

    def __init__(self) -> None:
        self._memo: dict[tuple, WorstCaseResult] = {}
        self._stores: dict[tuple[int, ...], _Rejected] = {}

    def worst_case(self, g: WeightedGraph, b: int) -> WorstCaseResult:
        key = (g.n, g.edges.tobytes(), g.weights.tobytes(), b)
        wc = self._memo.get(key)
        if wc is None:
            wc = worst_case_removal(g, RemovalBudget(b))
            # every caller shares the arrays of a kept result
            wc.start.fiedler.flags.writeable = False
            wc.attacked.fiedler.flags.writeable = False
            _keep(self._memo, key, wc, _MEMO_SIZE)
        return wc

    def store(self, team: tuple[int, ...]) -> _Rejected:
        rejected = self._stores.get(team)
        if rejected is None:
            rejected = _Rejected(len(team))
            _keep(self._stores, team, rejected, _STORES)
        return rejected


_SCOPE: contextvars.ContextVar[_Scope | None] = contextvars.ContextVar(
    "resilnet_planning_scope", default=None
)


@contextlib.contextmanager
def _planning_scope() -> Iterator[_Scope]:
    """The planning scope of the enclosing block, made here and dropped on
    exit unless a block around it already holds one."""
    scope = _SCOPE.get()
    if scope is not None:
        yield scope
        return
    scope = _Scope()
    token = _SCOPE.set(scope)
    try:
        yield scope
    finally:
        _SCOPE.reset(token)


def _line_search(
    ev: _Eval,
    trial_at: Callable[[float], tuple[np.ndarray, np.ndarray] | None],
    profile,
    m: int,
    rejected: _Rejected,
) -> tuple[np.ndarray, _Eval] | None:
    """Backtracking search from ``ev``: the first trial that is feasible and
    gains _TOL per unit step, with its evaluation, or None.

    ``trial_at(eta)`` gives the positions at step ``eta`` and their pair
    distances, which build the trial graph, or None where they break a
    limit.  A trial whose worst case a Rayleigh quotient of one of the
    ``rejected`` vectors puts below the incumbent's is rejected with no
    search: ``_improves`` needs a worst case at least the incumbent's.  Each
    trial that an evaluation rejects adds its attacked Fiedler vector, so
    the trials after it, which lie on the same ray, are tested against it.
    """
    eta = _STEP_SIZE
    for _ in range(_MAX_BACKTRACKS):
        found = trial_at(eta)
        if found is not None:
            trial, dist = found
            g = _graph_from_distances(len(trial), dist, profile)
            if not _certified_below(g, m, rejected.vectors, rejected.norms, ev.worst_lambda2):
                ev2 = _evaluate(g, m)
                if _improves(ev, ev2, _TOL * eta):
                    return trial, ev2
                rejected.add(ev2.worst.attacked.fiedler)
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

    The attacked Fiedler vectors of the trials an evaluation rejected serve
    every later line search on the team as certificates (see
    ``_line_search``).  Inside a run (:func:`resilnet.simulator.run_scenario`,
    ``resilnet plan``) the plan calls share one scope: they keep those
    vectors across steps, and a graph evaluated at an earlier step takes no
    second search.  A call outside a run has a scope of its own.  Either
    way the result is the same, bit for bit.
    """
    pos = as_positions(reported_positions)
    errors = _plan_input_errors(pos, profile, opts)
    if errors:
        raise ValueError(errors[0][1])
    m = opts.anticipated_budget.m
    bound, d_min = opts.motion_bound, opts.min_separation
    with _planning_scope() as scope:
        ev = _evaluate(build_proximity_graph(pos, profile), m)
        candidate = pos.copy()
        accepted = 0
        rejected = scope.store(tuple(range(len(pos))))
        for _ in range(opts.outer_iters):
            grad = _ascent_gradient_rows(candidate, profile, ev)
            gmax = float(np.max(np.linalg.norm(grad, axis=1)))
            if gmax < _ZERO_GRAD:
                break  # no useful gradient
            direction = grad / gmax
            found = _line_search(
                ev,
                lambda eta: _enforce(pos, candidate + eta * direction, bound, d_min),
                profile,
                m,
                rejected,
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
    comparison against the centralized planner.  Each neighborhood keeps its
    own certificate vectors, across rounds, and across steps inside a run
    (see :func:`plan_step`).
    """
    pos = as_positions(reported_positions)
    errors = _plan_input_errors(pos, profile, opts)
    if errors:
        raise ValueError(errors[0][1])
    m = opts.anticipated_budget.m
    bound = opts.motion_bound
    hoods = _two_hop_neighborhoods(build_proximity_graph(pos, profile))
    candidate = pos.copy()
    rounds = 0
    with _planning_scope() as scope:
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
                ev = _evaluate(build_proximity_graph(local, sub_profile), m)
                gi = _ascent_gradient_rows(local, sub_profile, ev)[loc]
                norm = float(np.linalg.norm(gi))
                if norm < _ZERO_GRAD:
                    continue
                unit = gi / norm

                def trial_at(eta: float) -> tuple[np.ndarray, np.ndarray]:
                    trial = local.copy()
                    moved = (snapshot[i] + eta * unit)[None, :]
                    trial[loc] = _clip(pos[i][None, :], moved, bound)[0][0]
                    return trial, _pair_distances(trial)[2]
                found = _line_search(ev, trial_at, sub_profile, m, scope.store(tuple(idx)))
                if found is not None:
                    proposal[i] = found[0][loc]
                    any_moved = True
            if not any_moved:
                break
            enforced = _enforce(pos, proposal, bound, opts.min_separation)
            if enforced is None:
                break
            candidate = enforced[0]
            rounds += 1
        ev = _evaluate(build_proximity_graph(candidate, profile), m)
    return PlanResult(candidate, ev.worst_lambda2, ev.worst, rounds)
