"""Anticipatory connectivity controller: invariants and plateau escape."""

import contextlib
import importlib.util
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np
import pytest
from conftest import readme_documents
from hypothesis import example, given, settings, target
from hypothesis import strategies as st

from resilnet import (
    CENTRALIZED,
    DECENTRALIZED,
    SMOOTH,
    ControlOptions,
    LayerProfiles,
    RemovalBudget,
    WeightedGraph,
    WeightProfile,
    WorstCaseResult,
    adversary,
    algebraic_connectivity,
    build_proximity_graph,
    connectivity_gradient,
    controller,
    graph_core,
    plan_step,
    plan_step_decentralized,
    remove_links,
    run_scenario,
    scenario_from_dict,
    simulator,
    worst_case_removal,
)
from resilnet.controller import (
    _BACKTRACK,
    _BALL_TOL,
    _MAX_BACKTRACKS,
    _SEP_TOL,
    _STEP_SIZE,
    _TOL,
    _ZERO_GRAD,
    _ascent_gradient_rows,
    _improves,
    _pair_distances,
    _push_apart,
)
from resilnet.scenario_io import _trace_record, dumps_canonical

PROFILE = WeightProfile(SMOOTH, 1.5)


def opts(m=1, delta=0.5, **kw):
    return ControlOptions(RemovalBudget(m), delta, **kw)


def evaluate(g, m):
    """The planners' evaluation, in a scope of its own: a fresh search."""
    return controller._Scope().evaluate(g, m)


def worst_lambda2(positions, profile, m):
    g = build_proximity_graph(positions, profile)
    return worst_case_removal(g, RemovalBudget(min(m, g.edge_count))).lambda2_after


def reference_project_motion(cur, prop, delta):
    """Pull each proposed position back into the delta-ball of its origin:
    a per-agent loop."""
    out = prop.copy()
    step = prop - cur
    for i, s in enumerate(np.linalg.norm(step, axis=1)):
        if s > delta:
            out[i] = cur[i] + step[i] * (delta / s)
    return out


def project_motion(cur, prop, delta):
    """``_clip``'s positions, checked bit for bit against the loop."""
    out = controller._clip(cur, prop, delta)[0]
    assert np.array_equal(out, reference_project_motion(cur, prop, delta))
    return out


def test_project_motion_noop_inside_ball():
    cur = np.zeros((3, 2))
    prop = np.array([[0.1, 0.0], [0.0, -0.2], [0.3, 0.3]])
    np.testing.assert_array_equal(project_motion(cur, prop, 0.5), prop)


def test_project_motion_clips_per_agent():
    cur = np.zeros((2, 2))
    prop = np.array([[3.0, 4.0], [0.1, 0.0]])
    out = project_motion(cur, prop, 1.0)
    assert np.linalg.norm(out[0]) == pytest.approx(1.0)
    np.testing.assert_allclose(out[0], [0.6, 0.8])
    np.testing.assert_array_equal(out[1], prop[1])


@pytest.mark.parametrize("dim", [2, 3])
def test_project_motion_matches_loop_reference(dim):
    rng = np.random.default_rng(40 + dim)
    for case in range(50):
        n = int(rng.integers(1, 9))
        cur = rng.uniform(-2.0, 2.0, size=(n, dim))
        prop = cur + rng.normal(0.0, 0.5, size=(n, dim))
        still = rng.random(n) < 0.2
        prop[still] = cur[still]
        delta = float(rng.choice([0.0, 0.3, rng.uniform(0.0, 1.0)]))
        if case % 5 == 0:
            # one agent moves by delta, up to rounding: the edge of the ball
            prop[0] = cur[0] + np.eye(dim)[0] * delta
        project_motion(cur, prop, delta)


def test_project_motion_unbounded():
    cur = np.zeros((2, 2))
    prop = np.array([[10.0, 0.0], [0.0, 10.0]])
    np.testing.assert_array_equal(project_motion(cur, prop, np.inf), prop)


def test_plan_never_violates_motion_bound():
    rng = np.random.default_rng(5)
    for _ in range(10):
        pos = rng.uniform(0.0, 2.0, size=(5, 2))
        delta = float(rng.uniform(0.1, 0.6))
        plan = plan_step(pos, PROFILE, opts(m=1, delta=delta, outer_iters=8))
        moved = np.linalg.norm(plan.targets - pos, axis=1)
        assert np.all(moved <= delta + 1e-9)


def test_plan_respects_min_separation():
    pos = np.array([[0.0, 0.0], [0.4, 0.0], [0.8, 0.0], [1.2, 0.0]])
    plan = plan_step(pos, PROFILE, opts(m=1, delta=0.5, min_separation=0.3, outer_iters=10))
    d = np.linalg.norm(plan.targets[:, None] - plan.targets[None, :], axis=2)
    off_diag = d[np.triu_indices(4, k=1)]
    assert np.all(off_diag >= 0.3 - 1e-9)


def test_plan_improves_worst_case_from_line():
    # a line is 1-edge-connected: any cut disconnects it, so the worst-case
    # objective starts at 0 and must become positive as the line curls up
    pos = np.array([[i * 1.0, 0.0] for i in range(5)])
    o = opts(m=1, delta=0.8, outer_iters=30)
    start = worst_lambda2(pos, PROFILE, 1)
    plan = plan_step(pos, PROFILE, o)
    assert start <= 1e-12
    assert plan.predicted_worst_lambda2 > start
    assert plan.iterations_used > 0
    # reported prediction matches an independent evaluation at the targets
    assert plan.predicted_worst_lambda2 == pytest.approx(
        worst_lambda2(plan.targets, PROFILE, 1), abs=1e-9
    )


def test_plan_step_deterministic():
    rng = np.random.default_rng(13)
    pos = rng.uniform(0.0, 2.0, size=(6, 2))
    o = opts(m=1, delta=0.4, outer_iters=12)
    a = plan_step(pos, PROFILE, o)
    b = plan_step(pos, PROFILE, o)
    np.testing.assert_array_equal(a.targets, b.targets)
    assert a.predicted_worst_lambda2 == b.predicted_worst_lambda2
    assert a.worst_removal == b.worst_removal


def test_zero_budget_plan_climbs_plain_connectivity():
    pos = np.array([[0.0, 0.0], [1.3, 0.0], [2.6, 0.0]])
    before = algebraic_connectivity(build_proximity_graph(pos, PROFILE)).lambda2
    plan = plan_step(pos, PROFILE, opts(m=0, delta=0.5, outer_iters=10))
    after = algebraic_connectivity(build_proximity_graph(plan.targets, PROFILE)).lambda2
    assert after > before


def test_zero_motion_bound_holds_position():
    # motion_bound 0 is a legal static-network run; a negative or NaN bound
    # is not, and neither is a NaN min_separation: NaN would switch a limit off
    pos = np.array([[0.0, 0.0], [1.0, 0.0], [2.0, 0.0]])
    plan = plan_step(pos, PROFILE, opts(m=0, delta=0.0, outer_iters=3))
    np.testing.assert_array_equal(plan.targets, pos)
    nan = float("nan")
    for bound, d_min, name in [
        (-1.0, 0.0, "motion_bound"),
        (nan, 0.0, "motion_bound"),
        (0.5, nan, "min_separation"),
    ]:
        with pytest.raises(ValueError, match=name):
            ControlOptions(RemovalBudget(1), bound, d_min)


def test_plan_holds_a_coincident_start():
    # a spoof can report every agent on one point; lambda2's gradient is 0
    # there, so neither planner has a direction to move the team in
    pos = np.zeros((3, 2))
    for planner in (plan_step, plan_step_decentralized):
        for m in (0, 1):
            plan = planner(pos, PROFILE, opts(m=m))
            np.testing.assert_array_equal(plan.targets, pos)
            assert plan.iterations_used == 0
            assert plan.predicted_worst_lambda2 > 0


@pytest.mark.parametrize("planner", [plan_step, plan_step_decentralized])
@pytest.mark.parametrize(
    "pos, kw, message",
    [
        (np.array([[0.0, 0.0], [1.0, 0.0]]), dict(min_separation=1.5),
         "min_separation must be below the communication range"),
        (np.zeros((1, 2)), {}, "need at least 2 agents to plan"),
    ],
    ids=["separation_at_range", "one_agent"],
)
def test_planners_raise_their_first_failed_precondition(planner, pos, kw, message):
    with pytest.raises(ValueError, match=f"^{message}$"):
        planner(pos, PROFILE, opts(**kw))


def test_plan_never_gathers_every_agent_on_one_point():
    # any cut disconnects a pair, so the ascent climbs the unattacked lambda2,
    # whose smooth weight peaks where the two agents meet; a plan that met
    # there would leave the next step nothing to plan from
    pair = np.array([[0.25, 0.0], [0.0, 0.0]])
    o = opts(m=1, delta=0.3, outer_iters=8)
    for planner in (plan_step, plan_step_decentralized):
        plan = planner(pair, PROFILE, o)
        assert plan.iterations_used > 0
        assert not controller._coincident(plan.targets)
        planner(plan.targets, PROFILE, o)


def test_two_hop_neighborhoods_on_path():
    g = build_proximity_graph(
        [[0.0, 0.0], [1.0, 0.0], [2.0, 0.0], [3.0, 0.0]], WeightProfile(SMOOTH, 1.2)
    )
    hoods = controller._two_hop_neighborhoods(g)
    assert hoods[0] == [0, 1, 2]
    assert hoods[1] == [0, 1, 2, 3]


def test_decentralized_plan_moves_and_respects_bounds():
    pos = np.array([[i * 1.0, 0.0] for i in range(5)])
    o = opts(m=1, delta=0.6, outer_iters=15)
    plan = plan_step_decentralized(pos, PROFILE, o)
    moved = np.linalg.norm(plan.targets - pos, axis=1)
    assert np.all(moved <= 0.6 + 1e-9)
    assert plan.predicted_worst_lambda2 >= 0.0


def test_isolated_agent_contributes_zero_gradient():
    # an agent with no neighbours has no local objective to climb, so the
    # decentralized planner leaves it at its start while the pair moves
    pos = np.array([[0.0, 0.0], [1.0, 0.0], [50.0, 50.0]])
    hoods = controller._two_hop_neighborhoods(build_proximity_graph(pos, PROFILE))
    assert hoods[2] == [2]
    plan = plan_step_decentralized(pos, PROFILE, opts(m=0))
    np.testing.assert_array_equal(plan.targets[2], pos[2])
    assert not np.array_equal(plan.targets[:2], pos[:2])


def reference_push_apart(points, d_min, sweeps=controller._PUSH_SWEEPS):
    """The per-pair loop over ``np.linalg.norm`` that the distance scans
    replaced, verbatim but for the sweep count.  Its early exit when no pair
    is close is left out: such a sweep moves nothing."""
    n = len(points)
    for _ in range(sweeps):
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


def assert_push_matches_reference(points, d_min):
    got, want = points.copy(), points.copy()
    dist = controller._push_apart(got, d_min)
    reference_push_apart(want, d_min)
    assert got.tobytes() == want.tobytes()
    # the distances the repair returns are a fresh scan's, bit for bit
    assert dist.tobytes() == _pair_distances(got)[2].tobytes()


def perf_workloads():
    """The benchmark's seeded input generators, ``perfbench/workloads.py``."""
    path = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("perf_workloads", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def team(seed, n, dim, layout, d_min):
    rng = np.random.default_rng(seed)
    if layout == "uniform":
        return rng.uniform(0.0, 2.0, size=(n, dim))
    if layout == "cluster":
        # far closer than d_min: moves cascade, and often every sweep moves
        return rng.normal(0.0, d_min * rng.uniform(0.05, 1.0), size=(n, dim))
    if layout == "lattice":
        # unit spacing: many distances land exactly on d_min = 1
        return rng.integers(0, 3, size=(n, dim)).astype(float)
    sites = rng.uniform(0.0, 1.5, size=(max(1, n // 3), dim))
    return sites[rng.integers(0, len(sites), size=n)]  # coincident points


@settings(max_examples=300, deadline=None, derandomize=True)
@given(
    seed=st.integers(0, 2**32 - 1),
    n=st.integers(2, 20),
    dim=st.sampled_from([2, 3]),
    layout=st.sampled_from(["uniform", "cluster", "lattice", "coincident"]),
    d_min=st.sampled_from([0.05, 0.3, 0.5, 1.0, 1.0 - 1e-12, 1.0 + 1e-12, 2**0.5]),
)
def test_push_apart_matches_per_pair_loop(seed, n, dim, layout, d_min):
    assert_push_matches_reference(team(seed, n, dim, layout, d_min), d_min)


def test_push_apart_cases_the_property_must_reach():
    # coincident points split along the first axis
    coincident = np.array([[0.5, 0.5], [0.5, 0.5], [0.5, 0.5], [2.0, 0.0]])
    assert_push_matches_reference(coincident, 0.5)
    # pair (1, 2) starts clear of d_min, and the move of pair (0, 1) makes
    # it close in the same sweep
    chain = np.array([[0.0, 0.0], [0.5, 0.0], [1.55, 0.0]])
    assert np.linalg.norm(chain[1] - chain[2]) >= 1.0
    one_sweep = chain.copy()
    reference_push_apart(one_sweep, 1.0, sweeps=1)
    assert one_sweep[2, 0] != chain[2, 0]
    assert_push_matches_reference(chain, 1.0)
    # a tight cluster still moves in the last sweep allowed
    cluster = team(3, 20, 2, "cluster", 1.0)
    last, short = cluster.copy(), cluster.copy()
    reference_push_apart(last, 1.0)
    reference_push_apart(short, 1.0, sweeps=controller._PUSH_SWEEPS - 1)
    assert last.tobytes() != short.tobytes()
    assert_push_matches_reference(cluster, 1.0)


@pytest.mark.parametrize("seed", [1, 2, 7, 11, 2026])
def test_push_apart_matches_per_pair_loop_on_benchmark_inputs(monkeypatch, seed):
    # every separation repair of a grid16-jam run, as the planner calls it
    calls = []
    push = controller._push_apart

    def spy(points, d_min):
        calls.append((points.copy(), d_min))
        return push(points, d_min)

    monkeypatch.setattr(controller, "_push_apart", spy)
    [doc] = perf_workloads().grid16_jam(seed)
    run_scenario(scenario_from_dict(doc))
    monkeypatch.undo()
    moving = 0
    for points, d_min in calls:
        assert_push_matches_reference(points, d_min)
        moving += bool(np.any(controller._pair_distances(points)[2] < d_min - 1e-12))
    assert moving >= 10


@dataclass(frozen=True, eq=False)
class ReferenceEval:
    worst_lambda2: float
    full_lambda2: float
    worst: WorstCaseResult
    graph: WeightedGraph
    spectral: object


def reference_evaluate(g, m):
    """The evaluation that solves the start spectrum afresh."""
    spectral = algebraic_connectivity(g)
    wc = controller.worst_case_removal(g, RemovalBudget(min(m, g.edge_count)))
    return ReferenceEval(
        controller._snap(wc.lambda2_after), controller._snap(spectral.lambda2), wc, g, spectral
    )


def reference_ascent_gradient_rows(positions, profile, ev):
    """The ascent direction that solves the attacked spectrum afresh, and
    its largest row norm."""
    attacked = remove_links(ev.graph, ev.worst.removal)
    spec_att = algebraic_connectivity(attacked)
    grad = connectivity_gradient(positions, profile, spec_att, attacked).per_agent
    if float(np.max(np.linalg.norm(grad, axis=1))) < controller._ZERO_GRAD:
        grad = connectivity_gradient(
            positions, profile, ev.spectral, ev.graph
        ).per_agent
    return grad, float(np.max(np.linalg.norm(grad, axis=1)))


def plan_with_and_without_fresh_spectra(monkeypatch, planner, *args):
    got = planner(*args)
    with monkeypatch.context() as patch:
        patch.setattr(controller._Scope, "evaluate", lambda scope, g, m: reference_evaluate(g, m))
        patch.setattr(controller, "_ascent_gradient_rows", reference_ascent_gradient_rows)
        want = planner(*args)
    assert got.targets.tobytes() == want.targets.tobytes()
    assert got.predicted_worst_lambda2.hex() == want.predicted_worst_lambda2.hex()
    assert got.worst_removal.removal == want.worst_removal.removal
    assert got.iterations_used == want.iterations_used
    return got


@pytest.mark.parametrize("seed", [1, 11, 2026])
def test_plan_reuses_the_search_spectra_on_benchmark_inputs(monkeypatch, seed):
    # every planning call of a grid16-jam run, as the simulator makes it
    calls = []
    plan = simulator.plan_step
    monkeypatch.setattr(simulator, "plan_step", lambda *a: calls.append(a) or plan(*a))
    [doc] = perf_workloads().grid16_jam(seed)
    run_scenario(scenario_from_dict(doc))
    monkeypatch.undo()
    assert len(calls) == 3
    accepted = 0
    for args in calls:
        plan = plan_with_and_without_fresh_spectra(monkeypatch, plan_step, *args)
        accepted += plan.iterations_used
    assert accepted > 0


def test_plan_reuses_the_search_spectra_decentralized(monkeypatch):
    pos = np.random.default_rng(7).uniform(0.0, 2.0, size=(10, 2))
    profile = WeightProfile(SMOOTH, 1.3)
    o = opts(m=2, delta=0.3, outer_iters=2)
    decentral = plan_with_and_without_fresh_spectra(
        monkeypatch, plan_step_decentralized, pos, profile, o
    )
    central = plan_with_and_without_fresh_spectra(monkeypatch, plan_step, pos, profile, o)
    assert decentral.iterations_used > 0 and central.iterations_used > 0


def test_plan_reuses_the_start_spectrum_where_the_attack_disconnects(monkeypatch):
    # any cut disconnects a line, so the ascent climbs the unattacked lambda2
    line = np.array([[i * 1.0, 0.0] for i in range(5)])
    for planner, iters in [(plan_step, 30), (plan_step_decentralized, 4)]:
        o = opts(m=1, delta=0.8, outer_iters=iters)
        plan = plan_with_and_without_fresh_spectra(monkeypatch, planner, line, PROFILE, o)
        assert plan.iterations_used > 0


def test_decentralized_run_calls_its_planner_once_per_step(monkeypatch):
    # the benchmark's tracer stamps each step where the simulator calls its
    # module-global planner
    calls = []
    plan = simulator.plan_step_decentralized
    monkeypatch.setattr(
        simulator, "plan_step_decentralized", lambda *a: calls.append(a) or plan(*a)
    )
    monkeypatch.setattr(simulator, "plan_step", None)
    [doc] = perf_workloads().grid16_jam(11)
    doc["control"].update(mode="decentralized", outer_iters=2)
    cfg = scenario_from_dict(doc)
    run_scenario(cfg)
    assert len(calls) == cfg.steps


def reference_two_hop_neighborhoods(g):
    """Each agent's own index plus its one- and two-hop neighbors."""
    adj = np.eye(g.n, dtype=np.intp)
    adj[g.edges[:, 0], g.edges[:, 1]] = 1
    adj[g.edges[:, 1], g.edges[:, 0]] = 1
    # with the diagonal set, (adj @ adj)[i, k] > 0 iff k is within two hops
    return tuple(frozenset(np.flatnonzero(row).tolist()) for row in adj @ adj)


# The planners as they were when each kept its own copy of the backtracking
# loop, verbatim but for the validation that the property's inputs pass and
# for each evaluation made in a scope of its own, as one outside a run was,
# with the (positions, feasible) limit check they were written for.  That check
# does not reject a trial that gathers every agent on one point; the drawn
# teams of 3 to 9 never come near one.


def reference_enforce(origin, proposal, delta, d_min):
    """Project into the motion ball, push pairs apart, check both limits."""
    adjusted = reference_project_motion(origin, proposal, delta)
    if d_min > 0:
        _push_apart(adjusted, d_min)
    if not math.isinf(delta):
        disp = np.linalg.norm(adjusted - origin, axis=1)
        if np.any(disp > delta + _BALL_TOL):
            return adjusted, False
    if d_min > 0 and np.any(_pair_distances(adjusted)[2] < d_min - _SEP_TOL):
        return adjusted, False
    return adjusted, True


def reference_plan_step(pos, profile, opts):
    m = opts.anticipated_budget.m
    ev = evaluate(build_proximity_graph(pos, profile), m)
    candidate = pos.copy()
    accepted = 0
    for _ in range(opts.outer_iters):
        grad = _ascent_gradient_rows(candidate, profile, ev)[0]
        gmax = float(np.max(np.linalg.norm(grad, axis=1)))
        if gmax < _ZERO_GRAD:
            break  # no useful gradient
        direction = grad / gmax
        eta = _STEP_SIZE
        took = False
        for _ in range(_MAX_BACKTRACKS):
            adjusted, feasible = reference_enforce(
                pos, candidate + eta * direction, opts.motion_bound,
                opts.min_separation,
            )
            if feasible:
                ev2 = evaluate(build_proximity_graph(adjusted, profile), m)
                if _improves(ev, ev2, _TOL * eta):
                    candidate, ev = adjusted, ev2
                    accepted += 1
                    took = True
                    break
            eta *= _BACKTRACK
        if not took:
            break
    return candidate, ev.worst_lambda2, ev.worst, accepted


def reference_slice_profile(profile, idx):
    if isinstance(profile, LayerProfiles):
        return LayerProfiles(tuple(profile.layers[k] for k in idx), profile.profiles)
    return profile


def reference_plan_step_decentralized(pos, neighborhoods, profile, opts):
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
            sub_profile = reference_slice_profile(profile, idx)
            loc = idx.index(i)
            local = snapshot[idx]
            ev = evaluate(build_proximity_graph(local, sub_profile), m)
            gi = _ascent_gradient_rows(local, sub_profile, ev)[0][loc]
            norm = float(np.linalg.norm(gi))
            if norm < _ZERO_GRAD:
                continue
            unit = gi / norm
            eta = _STEP_SIZE
            for _ in range(_MAX_BACKTRACKS):
                trial = local.copy()
                moved = snapshot[i] + eta * unit
                trial[loc] = reference_project_motion(
                    pos[i][None, :], moved[None, :], opts.motion_bound
                )[0]
                ev2 = evaluate(build_proximity_graph(trial, sub_profile), m)
                if _improves(ev, ev2, _TOL * eta):
                    proposal[i] = trial[loc]
                    any_moved = True
                    break
                eta *= _BACKTRACK
        if not any_moved:
            break
        adjusted, feasible = reference_enforce(
            pos, proposal, opts.motion_bound, opts.min_separation
        )
        if not feasible:
            break
        candidate = adjusted
        rounds += 1
    ev = evaluate(build_proximity_graph(candidate, profile), m)
    return candidate, ev.worst_lambda2, ev.worst, rounds


PLANS = dict(
    seed=st.integers(0, 2**32 - 1),
    n=st.integers(3, 9),
    dim=st.sampled_from([2, 3]),
    layered=st.booleans(),
    m=st.integers(0, 2),
    delta=st.sampled_from([0.0, 0.2, 0.5, np.inf]),
    d_min=st.sampled_from([0.0, 0.0, 0.3, 0.6]),
    iters=st.integers(1, 4),
    mode=st.sampled_from([CENTRALIZED, DECENTRALIZED]),
)


def drawn_plan(seed, n, dim, layered, m, delta, d_min, iters, mode):
    """A team, its profile and the planner's options, from ``PLANS``."""
    rng = np.random.default_rng(seed)
    pos = rng.uniform(0.0, 2.0, size=(n, dim))
    profile = WeightProfile(SMOOTH, float(rng.uniform(0.9, 1.8)))
    if layered:
        layers = tuple(rng.choice(["a", "b"], size=n).tolist())
        other = WeightProfile(SMOOTH, float(rng.uniform(0.9, 1.8)))
        profile = LayerProfiles(layers, {"a": profile, "b": other})
    o = opts(m=m, delta=delta, min_separation=d_min, outer_iters=iters, mode=mode)
    return pos, profile, o


@settings(max_examples=60, deadline=None, derandomize=True)
@given(**PLANS)
def test_shared_line_search_matches_the_per_planner_loops(
    seed, n, dim, layered, m, delta, d_min, iters, mode
):
    pos, profile, o = drawn_plan(seed, n, dim, layered, m, delta, d_min, iters, mode)
    if mode == CENTRALIZED:
        got = plan_step(pos, profile, o)
        want = reference_plan_step(pos, profile, o)
    else:
        got = plan_step_decentralized(pos, profile, o)
        hoods = reference_two_hop_neighborhoods(build_proximity_graph(pos, profile))
        want = reference_plan_step_decentralized(pos, hoods, profile, o)
    targets, worst_lambda2, worst, used = want
    assert got.targets.tobytes() == targets.tobytes()
    assert got.predicted_worst_lambda2.hex() == worst_lambda2.hex()
    assert got.worst_removal.removal == worst.removal
    assert got.iterations_used == used


def certified_trials(patch, earlier=frozenset()):
    """Spy on the planners' certificate; the list it fills holds (graph,
    budget, incumbent level, by_earlier, by_incumbent) of each trial it
    rejected, where by_earlier tells whether one of the vectors whose bytes
    are in ``earlier`` certifies the trial on its own, and by_incumbent
    whether one that a line search put in for its incumbent does."""
    certified = []
    incumbents: set = set()
    certify, line_search = controller._certified_below, controller._line_search

    def search_spy(ev, *args):
        # centred as the store centres it
        u = ev.worst.attacked.fiedler
        incumbents.add((u - u.mean()).tobytes())
        return line_search(ev, *args)

    def spy(g, m, vectors, norms, level):
        verdict = certify(g, m, vectors, norms, level)
        if verdict:
            def alone(pick):
                rows = [k for k, row in enumerate(vectors) if pick(row.tobytes())]
                return any(certify(g, m, vectors[[k]], norms[[k]], level) for k in rows)
            by_earlier = alone(earlier.__contains__)
            certified.append((g, m, level, by_earlier, alone(incumbents.__contains__)))
        return verdict

    patch.setattr(controller, "_line_search", search_spy)
    patch.setattr(controller, "_certified_below", spy)
    return certified


def assert_certified_trials_fail(certified):
    """Every certified trial fails its full evaluation; returns how many a
    vector from an earlier plan call certified, and how many a line
    search's incumbent's vector did."""
    # the incumbent that lets most trials pass: no gain asked, and any full
    # lambda2; _improves then asks only for a worst case at the level
    for g, m, level, *_ in certified:
        incumbent = controller._Eval(level, -math.inf, None, None)
        assert not _improves(incumbent, evaluate(g, m), 0.0)
    return (
        sum(by_earlier for *_, by_earlier, _ in certified),
        sum(by_incumbent for *_, by_incumbent in certified),
    )


# teams whose trials the incumbents' vectors certify, 2 to 23 of them each,
# as few drawn teams do
CERTIFYING_PLANS = [
    (0, 9, 2, False, 2, 0.5, 0.0, 4, DECENTRALIZED),
    (2, 9, 2, False, 1, 0.2, 0.0, 4, DECENTRALIZED),
    (3, 9, 2, False, 2, 0.2, 0.0, 4, CENTRALIZED),
    (5, 9, 2, False, 1, 0.2, 0.0, 4, CENTRALIZED),
    (1, 9, 3, True, 2, 0.5, 0.0, 4, DECENTRALIZED),
]


def with_examples(rows):
    def attach(test):
        for row in reversed(rows):
            test = example(**dict(zip(PLANS, row)))(test)
        return test
    return attach


@settings(max_examples=60, deadline=None, derandomize=True)
@given(**PLANS)
@with_examples(CERTIFYING_PLANS)
def test_certified_trials_fail_the_full_evaluation(
    seed, n, dim, layered, m, delta, d_min, iters, mode
):
    pos, profile, o = drawn_plan(seed, n, dim, layered, m, delta, d_min, iters, mode)
    with pytest.MonkeyPatch.context() as patch:
        certified = certified_trials(patch)
        (plan_step if mode == CENTRALIZED else plan_step_decentralized)(pos, profile, o)
    # most drawn teams are cut apart by the attack, where the incumbent is 0
    # and nothing certifies; steer the search toward teams that certify, by
    # any vector and by the incumbent's own
    target(float(len(certified)), label="certified")
    _, by_incumbent = assert_certified_trials_fail(certified)
    target(float(by_incumbent), label="by the incumbent")


def w1_lattice():
    """W1: the exact 4x4 lattice, whose planner never moves, as four worst
    cases tie."""
    grid = [[float(k % 4), float(k // 4)] for k in range(16)]
    return {
        "dimension": 2,
        "steps": 10,
        "rng_seed": 0,
        "profile": {"kind": "binary", "range": 1.6},
        "agents": [{"id": f"a{k}", "position": p} for k, p in enumerate(grid)],
        "control": {
            "anticipated_budget": 2,
            "motion_bound": 0.3,
            "min_separation": 0.5,
            "outer_iters": 8,
        },
        "events": [{"type": "jam", "budget": 2, "start": 4, "end": 8}],
    }


@dataclass
class Counted:
    """What a run wrote, and the work it did."""

    lines: list  # trace lines
    searches: list  # every worst-case search, as (removal, lambda2 hex)
    solves: int  # dense eigensolves
    certified: list  # as ``certified_trials`` fills it
    hits: int  # kept worst cases taken, by a plan call or by the jam search


def counted_run(monkeypatch, doc, certify=True, memo=True, per_call=False):
    """Run ``doc`` and count its work.  ``certify=False`` turns the
    certificate off, ``memo=False`` the kept worst cases, and
    ``per_call=True`` gives each plan call a scope of its own, as outside a
    run, while the jam search keeps the run's.  A certificate is by an
    earlier step's vector when a vector that a store held as the step's plan
    call began certifies it alone.  Every search of a run goes through a
    scope, so the lookups that took no search are the hits."""
    searches, solves, lookups = [], [], [0]
    earlier: set = set()
    search, lap = adversary.worst_case_removal, graph_core.laplacian
    lookup = controller._Scope.worst_case

    def spy(g, budget):
        res = search(g, budget)
        searches.append((res.removal, res.lambda2_after.hex()))
        return res

    def lookup_spy(scope, g, m):
        lookups[0] += 1
        return lookup(scope, g, m)

    def stamped(planner):
        def call(*args):
            earlier.clear()
            for store in controller._SCOPE.get()._stores.values():
                earlier.update(row.tobytes() for row in store.vectors)
            return planner(*args)
        return call

    with monkeypatch.context() as patch:
        patch.setattr(controller, "worst_case_removal", spy)
        patch.setattr(controller._Scope, "worst_case", lookup_spy)
        patch.setattr(graph_core, "laplacian", lambda g: solves.append(g.n) or lap(g))
        certified = certified_trials(patch, earlier)
        if not certify:
            patch.setattr(controller, "_certified_below", lambda *a: False)
        if not memo:
            patch.setattr(controller, "_MEMO_SIZE", 0)
        if per_call:
            # the run holds a scope of its own, which no plan call sees
            patch.setattr(
                simulator, "_planning_scope", lambda: contextlib.nullcontext(controller._Scope())
            )
        else:
            for name in ("plan_step", "plan_step_decentralized"):
                patch.setattr(simulator, name, stamped(getattr(simulator, name)))
        trace = run_scenario(scenario_from_dict(doc))
    lines = [dumps_canonical(_trace_record(t)) for t in trace]
    return Counted(lines, searches, len(solves), certified, lookups[0] - len(searches))


def grid16_jam(seed, mode=CENTRALIZED):
    [doc] = perf_workloads().grid16_jam(seed)
    doc["control"]["mode"] = mode
    return doc


# W1's jam search, on a lattice that never moves, takes the kept worst case at
# three of its four jammed steps, so its searches and hits count those too.
@pytest.mark.parametrize(
    "doc, searches, solves, certified, earlier, by_incumbent, hits, full_solves",
    [
        (grid16_jam(5), 30, 63, 25, 8, 22, 2, 117),
        (grid16_jam(5, DECENTRALIZED), 261, 525, 70, 10, 45, 97, 859),
        (w1_lattice(), 23, 114, 117, 108, 0, 174, 1276),
    ],
    ids=["grid16-jam", "grid16-jam-decentralized", "w1"],
)
def test_certified_trials_skip_their_search(
    monkeypatch, doc, searches, solves, certified, earlier, by_incumbent, hits, full_solves
):
    # exact counts, and those of the run that searches every evaluation and
    # every trial: each certified trial and each kept worst case is one
    # search fewer, and its eigensolves
    got = counted_run(monkeypatch, doc)
    assert (len(got.searches), got.solves, len(got.certified), got.hits) == (
        searches, solves, certified, hits
    )
    assert assert_certified_trials_fail(got.certified) == (earlier, by_incumbent)
    full = counted_run(monkeypatch, doc, certify=False, memo=False)
    assert (len(full.searches), full.solves) == (searches + certified + hits, full_solves)
    assert (full.hits, full.certified) == (0, [])
    assert got.lines == full.lines
    # the searches left are the full run's, in order, less the ones saved
    rest = iter(full.searches)
    assert all(any(found == want for want in rest) for found in got.searches)


@pytest.mark.parametrize(
    "doc",
    [grid16_jam(11), grid16_jam(11, DECENTRALIZED), w1_lattice()],
    ids=["grid16-jam", "grid16-jam-decentralized", "w1"],
)
def test_planning_scope_keeps_every_output(monkeypatch, doc):
    run = counted_run(monkeypatch, doc)
    # a second run starts from nothing the first one kept
    again = counted_run(monkeypatch, doc)
    assert (again.searches, again.solves, again.hits) == (run.searches, run.solves, run.hits)
    assert len(again.certified) == len(run.certified)
    # a scope per plan call, as outside a run, writes the same bytes
    alone = counted_run(monkeypatch, doc, per_call=True)
    assert alone.lines == run.lines
    assert len(alone.searches) > len(run.searches)
    # so does a scope that can keep almost nothing
    with monkeypatch.context() as patch:
        for name in ("_MEMO_SIZE", "_STORES", "_STORE_ROWS"):
            patch.setattr(controller, name, 1)
        tiny = counted_run(monkeypatch, doc)
    assert tiny.lines == run.lines


def test_jam_search_takes_the_plan_calls_kept_worst_cases(monkeypatch):
    # the README's scenario, on smooth profiles: at each of its three jammed
    # steps the simulator's worst-case search meets a graph that a plan call
    # evaluates, so the run makes 9 searches, where a jam search that always
    # searches makes 12; the trace keeps its bytes
    doc = readme_documents()[0]
    got = counted_run(monkeypatch, doc)

    class Searches:
        def worst_case(self, g, b):
            return controller.worst_case_removal(g, RemovalBudget(b))

    @contextlib.contextmanager
    def apart():
        with controller._planning_scope():
            yield Searches()

    with monkeypatch.context() as patch:
        patch.setattr(simulator, "_planning_scope", apart)
        alone = counted_run(monkeypatch, doc)
    assert (len(got.searches), got.solves) == (9, 38)
    assert (len(alone.searches), alone.solves) == (12, 44)
    assert got.lines == alone.lines
    rest = iter(alone.searches)
    assert all(any(found == want for want in rest) for found in got.searches)


def test_plan_step_outside_a_run_searches_as_a_lone_call(monkeypatch):
    # the three plan calls of a grid16-jam run, each made on its own: the
    # searches of a call with no kept worst cases and a store of its own,
    # 11, 10 and 12 of them
    calls = []
    plan = simulator.plan_step
    monkeypatch.setattr(simulator, "plan_step", lambda *a: calls.append(a) or plan(*a))
    run_scenario(scenario_from_dict(grid16_jam(5)))
    monkeypatch.undo()
    search = adversary.worst_case_removal

    def searches(args, memo):
        found = []
        with monkeypatch.context() as patch:
            patch.setattr(
                controller, "worst_case_removal",
                lambda g, b: found.append(g.edges.tobytes() + g.weights.tobytes()) or search(g, b),
            )
            if not memo:
                patch.setattr(controller, "_MEMO_SIZE", 0)
            plan_step(*args)
        return found

    counts = []
    for args in calls:
        got = searches(args, memo=True)
        assert got == searches(args, memo=False)
        counts.append(len(got))
    assert counts == [11, 10, 12]


def test_kept_worst_cases_are_read_only():
    pos = np.array([[0.0, 0.0], [1.0, 0.0], [0.5, 0.9], [1.5, 0.9]])
    o = opts(m=1, delta=0.3, outer_iters=4)
    with controller._planning_scope():
        plan = plan_step(pos, PROFILE, o)
        again = plan_step(pos, PROFILE, o)
    assert again.worst_removal is plan.worst_removal
    for spectral in (plan.worst_removal.start, plan.worst_removal.attacked):
        with pytest.raises(ValueError, match="read-only"):
            spectral.fiedler[0] = 0.0


def test_certificate_store_keeps_its_newest_rows(monkeypatch):
    monkeypatch.setattr(controller, "_STORE_ROWS", 5)
    rng = np.random.default_rng(3)
    vectors = rng.normal(size=(12, 4))
    store = controller._Rejected(4)
    for k, v in enumerate(vectors, start=1):
        store.add(v)
        kept = vectors[max(0, k - 5) : k]
        want = kept - kept.mean(axis=1, keepdims=True)
        got = {row.tobytes(): norm for row, norm in zip(store.vectors, store.norms)}
        assert sorted(got) == sorted(u.tobytes() for u in want)
        for u in want:
            assert got[u.tobytes()] == u @ u - u.sum() ** 2 / 4


def head_enforce(origin, proposal, delta, d_min):
    """``_enforce`` with every check run, as it was before it skipped the
    checks that must pass: the positions, or None."""
    adjusted = reference_project_motion(origin, proposal, delta)
    if d_min > 0:
        dist = _push_apart(adjusted, d_min)
    if not math.isinf(delta):
        disp = np.linalg.norm(adjusted - origin, axis=1)
        if np.any(disp > delta + _BALL_TOL):
            return None
    if d_min > 0 and np.any(dist < d_min - _SEP_TOL):
        return None
    return None if controller._coincident(adjusted) else adjusted


def spied_enforce(patch, seen):
    """Spy on ``_enforce`` and the checks it runs.  For each call ``seen``
    gets a dict: its arguments, its result, whether the projection clipped
    an agent, and whether the repair and the coincidence test ran."""
    enforce, clip = controller._enforce, controller._clip
    push, coincident = controller._push_apart, controller._coincident
    call: dict = {}

    def spy(origin, proposal, delta, d_min):
        call.clear()
        call.update(args=(origin.copy(), np.array(proposal), delta, d_min), pushed=False,
                    tested=False)
        call["result"] = enforce(origin, proposal, delta, d_min)
        seen.append(dict(call))
        return call["result"]

    def clip_spy(cur, prop, delta):
        out, clipped = clip(cur, prop, delta)
        call["clipped"] = clipped
        return out, clipped

    def push_spy(points, d_min):
        call["pushed"] = True
        return push(points, d_min)

    def coincident_spy(points):
        call["tested"] = True
        return coincident(points)

    patch.setattr(controller, "_enforce", spy)
    patch.setattr(controller, "_clip", clip_spy)
    patch.setattr(controller, "_push_apart", push_spy)
    patch.setattr(controller, "_coincident", coincident_spy)


def assert_skipped_checks_pass(seen):
    """Each call agrees with ``head_enforce``, and each check it skipped
    passes on the positions it returned; returns how many calls skipped the
    motion, separation and coincidence checks."""
    skips = np.zeros(3, dtype=int)
    for call in seen:
        origin, proposal, delta, d_min = call["args"]
        want = head_enforce(origin, proposal.copy(), delta, d_min)
        got = call["result"]
        assert (got is None) == (want is None)
        if got is None:
            continue
        adjusted, dist = got
        assert adjusted.tobytes() == want.tobytes()
        assert dist.tobytes() == _pair_distances(adjusted)[2].tobytes()
        skipped = (
            not (call["clipped"] or call["pushed"]) and not math.isinf(delta),
            not call["pushed"] and d_min > 0,
            not call["tested"],
        )
        if skipped[0]:
            assert np.all(np.linalg.norm(adjusted - origin, axis=1) <= delta + _BALL_TOL)
        if skipped[1]:
            assert np.all(dist >= d_min - _SEP_TOL)
        if skipped[2]:
            assert not controller._coincident(adjusted)
        skips += skipped
    return skips


def test_enforce_skips_only_checks_that_pass():
    rng = np.random.default_rng(31)
    seen: list = []
    with pytest.MonkeyPatch.context() as patch:
        spied_enforce(patch, seen)
        for case in range(500):
            n, dim = int(rng.integers(2, 10)), int(rng.choice([2, 3]))
            layout = str(rng.choice(["uniform", "cluster", "lattice", "coincident"]))
            # d_min 1e-13 lets every agent sit on one point; a clipped agent
            # lands a rounding off the ball's edge, which at delta 1e8 lies
            # farther out than _BALL_TOL
            d_min = float(rng.choice(
                [0.0, 1e-13, _SEP_TOL, _SEP_TOL + 2e-12, _SEP_TOL + 4e-12, 0.3, 1.0]
            ))
            delta = float(rng.choice([0.0, 0.2, 0.5, 1e8, np.inf]))
            origin = team(case, n, dim, layout, d_min or 0.5)
            scale = float(rng.choice([0.0, 0.1, 0.6, 3e8]))
            proposal = origin + rng.normal(0.0, scale, origin.shape)
            controller._enforce(origin, proposal, delta, d_min)
    skips = assert_skipped_checks_pass(seen)
    runs = len(seen) - skips
    # every check is skipped, and run, in many of the cases
    assert np.all(skips >= 40) and np.all(runs >= 40), (skips, runs)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(**PLANS)
def test_trial_graphs_come_from_the_repair_distances(
    seed, n, dim, layered, m, delta, d_min, iters, mode
):
    pos, profile, o = drawn_plan(seed, n, dim, layered, m, delta, d_min, iters, mode)
    trials, seen = [], []
    line_search = controller._line_search

    def spy(ev, trial_at, profile, m, scope, team):
        def recorded(eta):
            found = trial_at(eta)
            if found is not None:
                trials.append((found[0].copy(), found[1], profile))
            return found
        return line_search(ev, recorded, profile, m, scope, team)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(controller, "_line_search", spy)
        spied_enforce(patch, seen)
        (plan_step if mode == CENTRALIZED else plan_step_decentralized)(pos, profile, o)
    assert_skipped_checks_pass(seen)
    for trial, dist, sub_profile in trials:
        assert dist.tobytes() == _pair_distances(trial)[2].tobytes()
        g = graph_core._graph_from_distances(len(trial), dist, sub_profile)
        want = build_proximity_graph(trial, sub_profile)
        assert g == want
        assert g.weights.tobytes() == want.weights.tobytes()
