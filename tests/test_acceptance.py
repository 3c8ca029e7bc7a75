"""End-to-end acceptance checks, one test per shipped guarantee.

Each test here states a user-facing property of the package at the
tolerance we commit to, verified against an independent oracle wherever
one exists (dense eigensolvers, finite differences, brute-force
enumeration, Monte Carlo simulation, grid search).  The unit suites in
the sibling modules cover the internals; this file is the contract.
"""

import itertools
import time
from dataclasses import replace

import numpy as np
import pytest
import yaml

from resilnet import (
    ATTACKER,
    DEFENDER,
    SMOOTH,
    BaselineSpec,
    ControlOptions,
    FlipItParams,
    GNECosts,
    RemovalBudget,
    ScenarioConfig,
    SignalingParams,
    SpoofEvent,
    JamEvent,
    WeightProfile,
    WeightedGraph,
    algebraic_connectivity,
    build_proximity_graph,
    compute_resilience_metrics,
    connectivity_gradient,
    flipit_control_fraction,
    flipit_equilibrium,
    gne_solve,
    laplacian,
    plan_step,
    remove_links,
    run_scenario,
    signaling_equilibrium,
    worst_case_removal,
)
from resilnet.cli import main as cli_main

from test_gne import (
    DEMO_COSTS,
    DEMO_RECEIVER,
    DEMO_SENDER,
    assert_mutual_best_response,
    check_pbe,
    grid_scan_no_better_deviation,
    mc_control_fraction,
)
from test_graph_core import random_graph
from test_simulator import fake_trace, ring_config


# ---------------------------------------------------------------------------
# 1. spectral oracle
# ---------------------------------------------------------------------------


def test_connectivity_and_fiedler_match_dense_eigensolver():
    """lambda2 and the Fiedler vector agree with a dense solve to 1e-8
    on 1,000 random weighted graphs with up to 8 nodes, in under 10 s."""
    rng = np.random.default_rng(20260815)
    start = time.perf_counter()
    for _ in range(1000):
        g = random_graph(rng)
        res = algebraic_connectivity(g)
        lap = laplacian(g)
        dense_vals, dense_vecs = np.linalg.eigh(lap)
        assert abs(res.lambda2 - dense_vals[1]) <= 1e-8
        # the Fiedler vector must lie in the dense eigenspace of lambda2
        # (projection residual, so repeated eigenvalues are handled too)
        basis = dense_vecs[:, np.abs(dense_vals - res.lambda2) <= 1e-6]
        v = res.fiedler
        assert np.linalg.norm(v - basis @ (basis.T @ v)) <= 1e-8
        assert abs(np.linalg.norm(v) - 1.0) <= 1e-9
    assert time.perf_counter() - start < 10.0


# ---------------------------------------------------------------------------
# 2. gradient correctness
# ---------------------------------------------------------------------------


def _fd_gradient(pos, profile, h):
    grad = np.zeros_like(pos)
    for i in range(pos.shape[0]):
        for d in range(pos.shape[1]):
            for sign in (+1.0, -1.0):
                shifted = pos.copy()
                shifted[i, d] += sign * h
                g = build_proximity_graph(shifted, profile)
                grad[i, d] += sign * algebraic_connectivity(g).lambda2
    return grad / (2.0 * h)


def test_analytic_gradient_matches_central_differences():
    """Analytic connectivity gradient within 1e-4 relative error of central
    finite differences on 100 random smooth configurations with simple
    lambda2."""
    rng = np.random.default_rng(90210)
    profile = WeightProfile(SMOOTH, 2.0)
    checked = 0
    while checked < 100:
        n = int(rng.integers(4, 7))
        pos = rng.uniform(0.0, 2.5, size=(n, 2))
        g = build_proximity_graph(pos, profile)
        spec = algebraic_connectivity(g)
        if not spec.is_simple or spec.lambda2 < 1e-6:
            continue
        dists = [
            float(np.linalg.norm(pos[i] - pos[j]))
            for i in range(n)
            for j in range(i + 1, n)
        ]
        if any(abs(d - profile.comm_range) < 1e-3 for d in dists):
            continue  # lambda2 is not differentiable at the cutoff
        grad = connectivity_gradient(pos, profile, spec, g).per_agent
        fd = _fd_gradient(pos, profile, h=1e-5 * profile.comm_range)
        scale = max(np.linalg.norm(fd), 1e-12)
        assert np.linalg.norm(grad - fd) / scale <= 1e-4
        checked += 1


# ---------------------------------------------------------------------------
# 3. worst-case attacker exactness
# ---------------------------------------------------------------------------


def _enumerate_worst(g, m):
    """Independent brute force: try every removal subset up to size m."""
    best = algebraic_connectivity(g).lambda2
    for k in range(1, m + 1):
        for combo in itertools.combinations(range(len(g.edges)), k):
            kept = [i for i in range(len(g.edges)) if i not in combo]
            lap = laplacian(WeightedGraph(g.n, g.edges[kept], g.weights[kept]))
            best = min(best, float(np.linalg.eigvalsh(lap)[1]))
    return best


def test_exhaustive_attacker_matches_enumeration_greedy_never_below():
    """Exhaustive search equals independent full enumeration on random
    instances with n <= 6 and m <= 2; greedy never reports a smaller
    post-removal lambda2 than the exhaustive optimum."""
    rng = np.random.default_rng(431)
    cases = 0
    while cases < 60:
        n = int(rng.integers(3, 7))
        g = random_graph(rng, n)
        m = int(rng.integers(1, 3))
        if len(g.edges) < max(m, 2):
            continue
        exact = worst_case_removal(g, RemovalBudget(m), mode="exhaustive")
        assert exact.lambda2_after == pytest.approx(
            _enumerate_worst(g, m), abs=1e-10
        )
        greedy = worst_case_removal(g, RemovalBudget(m), mode="greedy")
        assert greedy.lambda2_after >= exact.lambda2_after - 1e-10
        cases += 1


# ---------------------------------------------------------------------------
# 4. planning to survive any single link loss
# ---------------------------------------------------------------------------


def test_three_plan_steps_make_five_agents_survive_any_single_cut():
    """From a connected line of five agents where one cut disconnects the
    network, three planning steps with removal budget 1 and a generous
    motion bound reach a configuration where every single-link removal
    leaves lambda2 > 0 (checked by exhaustive removal), deterministically."""
    line5 = np.array([[float(i), 0.0] for i in range(5)])
    profile = WeightProfile(SMOOTH, 1.3)
    opts = ControlOptions(RemovalBudget(1), motion_bound=1.0)

    start_graph = build_proximity_graph(line5, profile)
    assert algebraic_connectivity(start_graph).lambda2 > 1e-9  # connected
    start_worst = worst_case_removal(start_graph, RemovalBudget(1), mode="exhaustive")
    assert start_worst.lambda2_after <= 1e-12  # but one cut disconnects it

    def three_steps():
        pos = line5.copy()
        for _ in range(3):
            pos = plan_step(pos, profile, opts).targets
        return pos

    final = three_steps()
    g = build_proximity_graph(final, profile)
    for k in range(len(g.edges)):
        survived = algebraic_connectivity(remove_links(g, (k,))).lambda2
        assert survived > 1e-9, f"cut {g.edges[k][:2]} disconnects the plan"
    assert np.array_equal(final, three_steps())  # bitwise deterministic


# ---------------------------------------------------------------------------
# 5. anticipated jamming absorbed
# ---------------------------------------------------------------------------


def test_in_budget_jam_never_disconnects_once_plan_covers_it():
    """When a jam, or a stack of overlapping jams, stays within the
    anticipated removal budget in sum, realized lambda2 stays positive at
    every step where the plan predicts a positive worst case."""
    single = ring_config(steps=8, events=(JamEvent(budget=1, start=2, end=5),))
    stacked = ring_config(
        steps=8,
        events=(JamEvent(budget=1, start=2, end=6), JamEvent(budget=1, start=3, end=7)),
    )
    stacked = replace(stacked, opts=replace(stacked.opts, anticipated_budget=RemovalBudget(2)))
    for cfg in (single, stacked):
        trace = run_scenario(cfg)
        covered = [t for t in trace if t.lambda2_worst_anticipated > 0.0]
        assert covered, "plan never predicted a safe worst case"
        for t in covered:
            assert all(t.anticipated)
            assert t.lambda2_realized > 1e-9
    assert any(len(t.active_events) == 2 for t in covered), "jams never stacked"


# ---------------------------------------------------------------------------
# 6. spoofing dip and recovery
# ---------------------------------------------------------------------------

# two clusters of four ground agents bridged by two relays above the gap;
# positions are the settled state of a quiet run, so the pre-attack
# connectivity is flat
_BRIDGE_POSITIONS = (
    (0.48, 0.16),
    (1.19, 0.54),
    (0.69, 1.16),
    (1.71, 1.15),
    (4.81, 0.54),
    (5.52, 0.16),
    (4.29, 1.14),
    (5.31, 1.16),
    (2.51, 1.22),
    (3.49, 1.22),
)


def test_spoofed_bridge_dips_then_recovers():
    """A two-layer ten-agent formation spoofed on steps [9, 14) loses more
    than 10% of its pre-attack connectivity during the window and climbs
    back to at least 90% of the pre-attack mean within five steps after."""
    ids = tuple(f"g{i}" for i in range(8)) + ("u0", "u1")
    cfg = ScenarioConfig(
        dimension=2,
        agent_ids=ids,
        agent_layers=("ground",) * 8 + ("air",) * 2,
        initial_positions=_BRIDGE_POSITIONS,
        profiles={
            "ground": WeightProfile(SMOOTH, 1.6),
            "air": WeightProfile(SMOOTH, 2.4),
        },
        opts=ControlOptions(
            RemovalBudget(1), motion_bound=0.3, min_separation=0.8, outer_iters=12
        ),
        steps=20,
        events=(SpoofEvent(targets=("u0", "u1"), offset=(0.0, -1.5), start=9, duration=5),),
        rng_seed=0,
        baseline=BaselineSpec(),
    )
    lam = [t.lambda2_realized for t in run_scenario(cfg)]
    pre_mean = float(np.mean(lam[:9]))
    floor = 0.9 * pre_mean
    assert min(lam[9:14]) < floor, "spoof never dented connectivity"
    recovered = [step for step in range(14, 19) if lam[step] >= floor]
    assert recovered, "connectivity did not recover within five steps"


# ---------------------------------------------------------------------------
# 7. resilience metrics
# ---------------------------------------------------------------------------


def test_resilience_metrics_hand_example_and_constant_trace():
    """The hand-worked trace gives max degradation 3, total loss 6 and
    recovery at step 5, exactly; a constant trace yields zero losses."""
    report = compute_resilience_metrics(
        fake_trace((4.0, 4.0, 1.0, 2.0, 3.0, 4.0)), BaselineSpec(), onset=2
    )
    assert report.max_degradation == 3.0
    assert report.total_loss == 6.0
    assert report.recovery_step == 5
    assert report.recovered

    flat = compute_resilience_metrics(
        fake_trace((4.0, 4.0, 4.0, 4.0)), BaselineSpec(), onset=1
    )
    assert flat.max_degradation == 0.0
    assert flat.total_loss == 0.0


# ---------------------------------------------------------------------------
# 8. timing-game oracle
# ---------------------------------------------------------------------------


def test_control_fraction_formula_matches_monte_carlo_and_equilibria_hold():
    """The closed-form control fraction is within 0.01 of Monte Carlo
    periodic play over 25 rate pairs, and returned equilibrium rate pairs
    are mutual best responses over exhaustive rate grids."""
    rng = np.random.default_rng(5150)
    rates = (0.2, 0.5, 1.0, 2.0, 3.7)
    for alpha_a, alpha_d in itertools.product(rates, rates):
        closed = flipit_control_fraction(alpha_a, alpha_d)
        simulated = mc_control_fraction(alpha_a, alpha_d, rng)
        assert abs(closed - simulated) <= 0.01

    for prm in (
        FlipItParams(1.0, 1.0, 1.0, 1.0),
        FlipItParams(0.3, 0.2, 0.9, 0.9),
        FlipItParams(0.2, 0.3, 0.9, 0.9),
        FlipItParams(0.5, 0.1, 2.0, 1.0),
    ):
        assert_mutual_best_response(flipit_equilibrium(prm), prm)


# ---------------------------------------------------------------------------
# 9. signaling equilibria
# ---------------------------------------------------------------------------


def test_signaling_equilibria_consistent_and_grid_undominated():
    """Every returned signaling equilibrium passes Bayes-consistency and
    no-deviation checks at 1e-9 and cannot be beaten by any strategy on a
    101-point mixed grid by more than 1e-3, on 20 random utility tables."""
    rng = np.random.default_rng(1847)
    for _ in range(20):
        prm = SignalingParams(
            float(rng.uniform(0.05, 0.95)),
            rng.uniform(-1.0, 1.0, size=(2, 2, 2)),
            rng.uniform(-1.0, 1.0, size=(2, 2, 2)),
        )
        out = signaling_equilibrium(prm)
        check_pbe(prm, out, tol=1e-9)
        grid_scan_no_better_deviation(prm, out, tol=1e-3, points=101)


# ---------------------------------------------------------------------------
# 10. composed fixed point
# ---------------------------------------------------------------------------


def test_composed_fixed_point_converges_and_is_stationary():
    """On a 3x3 cost grid the composed solver converges with residual below
    1e-6, replaying one full round at the fixed point moves the control
    fraction by less than 1e-6, damping factors that converge agree within
    1e-5, and the control fraction never rises with the attack cost."""
    for ca, cd in itertools.product((0.3, 0.45, 0.6), (0.12, 0.2, 0.24)):
        state = gne_solve(GNECosts(ca, cd), DEMO_SENDER, DEMO_RECEIVER)
        assert state.converged and state.residual < 1e-6

        sig = signaling_equilibrium(
            SignalingParams(state.control_fraction, DEMO_SENDER, DEMO_RECEIVER)
        )
        flip = flipit_equilibrium(
            FlipItParams(
                ca,
                cd,
                max(0.0, sig.sender_values[ATTACKER]),
                max(0.0, sig.sender_values[DEFENDER]),
            )
        )
        assert abs(flip.control_fraction - state.control_fraction) < 1e-6

        converged = [
            gne_solve(GNECosts(ca, cd), DEMO_SENDER, DEMO_RECEIVER, damping=d)
            for d in (0.25, 0.5, 1.0)
        ]
        agreeing = [s.control_fraction for s in converged if s.converged]
        assert len(agreeing) >= 2
        assert max(agreeing) - min(agreeing) < 1e-5

    fractions = [
        gne_solve(GNECosts(ca, 0.2), DEMO_SENDER, DEMO_RECEIVER).control_fraction
        for ca in (0.3, 0.45, 0.6, 0.9, 1.2)
    ]
    assert all(a >= b - 1e-9 for a, b in zip(fractions, fractions[1:]))


# ---------------------------------------------------------------------------
# 11. reproducibility
# ---------------------------------------------------------------------------


def test_simulate_twice_yields_byte_identical_traces(tmp_path):
    """Running the simulate command twice on the same scenario produces
    byte-identical trace files."""
    scenario = {
        "dimension": 2,
        "steps": 6,
        "rng_seed": 11,
        "profile": {"kind": "binary", "range": 1.6},
        "agents": [{"id": f"a{i}"} for i in range(5)],
        "layout": {"low": [0.0, 0.0], "high": [2.5, 2.5]},
        "control": {"anticipated_budget": 1, "motion_bound": 0.3},
        "events": [{"type": "jam", "budget": 1, "start": 2, "end": 4}],
    }
    scn = tmp_path / "scenario.yaml"
    scn.write_text(yaml.safe_dump(scenario))
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    assert cli_main(["simulate", str(scn), "--out", str(out_a)]) == 0
    assert cli_main(["simulate", str(scn), "--out", str(out_b)]) == 0
    first = (out_a / "trace.jsonl").read_bytes()
    second = (out_b / "trace.jsonl").read_bytes()
    assert first and first == second
