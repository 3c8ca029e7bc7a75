"""Anticipatory connectivity controller: invariants and plateau escape."""

import numpy as np
import pytest

from resilnet import (
    SMOOTH,
    ControlOptions,
    RemovalBudget,
    WeightProfile,
    algebraic_connectivity,
    build_proximity_graph,
    plan_step,
    plan_step_decentralized,
    project_motion,
    two_hop_neighborhoods,
    worst_case_removal,
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
    np.testing.assert_array_equal(project_motion(cur, prop, 0.5), prop)


def test_project_motion_clips_per_agent():
    cur = np.zeros((2, 2))
    prop = np.array([[3.0, 4.0], [0.1, 0.0]])
    out = project_motion(cur, prop, 1.0)
    assert np.linalg.norm(out[0]) == pytest.approx(1.0)
    np.testing.assert_allclose(out[0], [0.6, 0.8])
    np.testing.assert_array_equal(out[1], prop[1])


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
    # motion_bound 0 is a legal static-network run, negative is not
    pos = np.array([[0.0, 0.0], [1.0, 0.0], [2.0, 0.0]])
    plan = plan_step(pos, PROFILE, opts(m=0, delta=0.0, outer_iters=3))
    np.testing.assert_array_equal(plan.targets, pos)
    with pytest.raises(ValueError):
        ControlOptions(RemovalBudget(1), -1.0)


def test_plan_rejects_coincident_start():
    pos = np.zeros((3, 2))
    with pytest.raises(ValueError, match="coincident"):
        plan_step(pos, PROFILE, opts())


def test_two_hop_neighborhoods_on_path():
    g = build_proximity_graph(
        [[0.0, 0.0], [1.0, 0.0], [2.0, 0.0], [3.0, 0.0]], WeightProfile(SMOOTH, 1.2)
    )
    hoods = two_hop_neighborhoods(g)
    assert hoods[0] == frozenset({0, 1, 2})
    assert hoods[1] == frozenset({0, 1, 2, 3})


def test_decentralized_plan_moves_and_respects_bounds():
    pos = np.array([[i * 1.0, 0.0] for i in range(5)])
    o = opts(m=1, delta=0.6, outer_iters=15)
    g = build_proximity_graph(pos, PROFILE)
    plan = plan_step_decentralized(pos, two_hop_neighborhoods(g), PROFILE, o)
    moved = np.linalg.norm(plan.targets - pos, axis=1)
    assert np.all(moved <= 0.6 + 1e-9)
    assert plan.predicted_worst_lambda2 >= 0.0


def test_isolated_agent_contributes_zero_gradient():
    # an agent with no neighbours has no local objective to climb, so the
    # decentralized planner leaves it at its start while the pair moves
    pos = np.array([[0.0, 0.0], [1.0, 0.0], [50.0, 50.0]])
    hoods = two_hop_neighborhoods(build_proximity_graph(pos, PROFILE))
    assert hoods[2] == frozenset({2})
    plan = plan_step_decentralized(pos, hoods, PROFILE, opts(m=0))
    np.testing.assert_array_equal(plan.targets[2], pos[2])
    assert not np.array_equal(plan.targets[:2], pos[:2])
