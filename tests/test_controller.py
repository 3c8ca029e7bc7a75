"""Anticipatory connectivity controller: invariants and plateau escape."""

import importlib.util
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
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
    algebraic_connectivity,
    build_proximity_graph,
    connectivity_gradient,
    controller,
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
    _evaluate,
    _improves,
    _pair_distances,
    _project_motion,
    _push_apart,
    _slice_profile,
)

PROFILE = WeightProfile(SMOOTH, 1.5)


def opts(m=1, delta=0.5, **kw):
    return ControlOptions(RemovalBudget(m), delta, **kw)


def worst_lambda2(positions, profile, m):
    g = build_proximity_graph(positions, profile)
    return worst_case_removal(g, RemovalBudget(min(m, g.edge_count))).lambda2_after


def test_project_motion_noop_inside_ball():
    cur = np.zeros((3, 2))
    prop = np.array([[0.1, 0.0], [0.0, -0.2], [0.3, 0.3]])
    np.testing.assert_array_equal(controller._project_motion(cur, prop, 0.5), prop)


def test_project_motion_clips_per_agent():
    cur = np.zeros((2, 2))
    prop = np.array([[3.0, 4.0], [0.1, 0.0]])
    out = controller._project_motion(cur, prop, 1.0)
    assert np.linalg.norm(out[0]) == pytest.approx(1.0)
    np.testing.assert_allclose(out[0], [0.6, 0.8])
    np.testing.assert_array_equal(out[1], prop[1])


def reference_project_motion(cur, prop, delta):
    """Per-agent loop."""
    out = prop.copy()
    step = prop - cur
    for i, s in enumerate(np.linalg.norm(step, axis=1)):
        if s > delta:
            out[i] = cur[i] + step[i] * (delta / s)
    return out


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
        out = controller._project_motion(cur, prop, delta)
        assert np.array_equal(out, reference_project_motion(cur, prop, delta))


def test_project_motion_unbounded():
    cur = np.zeros((2, 2))
    prop = np.array([[10.0, 0.0], [0.0, 10.0]])
    np.testing.assert_array_equal(controller._project_motion(cur, prop, np.inf), prop)


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


def reference_evaluate(positions, profile, m):
    """The evaluation that solves the start spectrum afresh."""
    g = build_proximity_graph(positions, profile)
    spectral = algebraic_connectivity(g)
    wc = controller.worst_case_removal(g, RemovalBudget(min(m, g.edge_count)))
    return ReferenceEval(
        controller._snap(wc.lambda2_after), controller._snap(spectral.lambda2), wc, g, spectral
    )


def reference_ascent_gradient_rows(positions, profile, ev):
    """The ascent direction that solves the attacked spectrum afresh."""
    attacked = remove_links(ev.graph, ev.worst.removal)
    spec_att = algebraic_connectivity(attacked)
    grad = connectivity_gradient(positions, profile, spec_att, attacked).per_agent
    if float(np.max(np.linalg.norm(grad, axis=1))) < controller._ZERO_GRAD:
        grad = connectivity_gradient(
            positions, profile, ev.spectral, ev.graph
        ).per_agent
    return grad


def plan_with_and_without_fresh_spectra(monkeypatch, planner, *args):
    got = planner(*args)
    with monkeypatch.context() as patch:
        patch.setattr(controller, "_evaluate", reference_evaluate)
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
# loop, verbatim but for the validation that the property's inputs pass, with
# the (positions, feasible) limit check they were written for.  That check
# does not reject a trial that gathers every agent on one point; the drawn
# teams of 3 to 9 never come near one.


def reference_enforce(origin, proposal, delta, d_min):
    """Project into the motion ball, push pairs apart, check both limits."""
    adjusted = _project_motion(origin, proposal, delta)
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
    ev = _evaluate(pos, profile, m)
    candidate = pos.copy()
    accepted = 0
    for _ in range(opts.outer_iters):
        grad = _ascent_gradient_rows(candidate, profile, ev)
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
                ev2 = _evaluate(adjusted, profile, m)
                if _improves(ev, ev2, _TOL * eta):
                    candidate, ev = adjusted, ev2
                    accepted += 1
                    took = True
                    break
            eta *= _BACKTRACK
        if not took:
            break
    return candidate, ev.worst_lambda2, ev.worst, accepted


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
            sub_profile = _slice_profile(profile, idx)
            loc = idx.index(i)
            local = snapshot[idx]
            ev = _evaluate(local, sub_profile, m)
            gi = _ascent_gradient_rows(local, sub_profile, ev)[loc]
            norm = float(np.linalg.norm(gi))
            if norm < _ZERO_GRAD:
                continue
            unit = gi / norm
            eta = _STEP_SIZE
            for _ in range(_MAX_BACKTRACKS):
                trial = local.copy()
                moved = snapshot[i] + eta * unit
                trial[loc] = _project_motion(
                    pos[i][None, :], moved[None, :], opts.motion_bound
                )[0]
                ev2 = _evaluate(trial, sub_profile, m)
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
    ev = _evaluate(candidate, profile, m)
    return candidate, ev.worst_lambda2, ev.worst, rounds


@settings(max_examples=60, deadline=None, derandomize=True)
@given(
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
def test_shared_line_search_matches_the_per_planner_loops(
    seed, n, dim, layered, m, delta, d_min, iters, mode
):
    rng = np.random.default_rng(seed)
    pos = rng.uniform(0.0, 2.0, size=(n, dim))
    profile = WeightProfile(SMOOTH, float(rng.uniform(0.9, 1.8)))
    if layered:
        layers = tuple(rng.choice(["a", "b"], size=n).tolist())
        other = WeightProfile(SMOOTH, float(rng.uniform(0.9, 1.8)))
        profile = LayerProfiles(layers, {"a": profile, "b": other})
    o = opts(m=m, delta=delta, min_separation=d_min, outer_iters=iters, mode=mode)
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
