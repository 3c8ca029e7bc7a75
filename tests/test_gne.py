"""Timing game, trust signaling game, and their composed fixed point."""

import numpy as np
import pytest

from resilnet import gne
from resilnet import (
    ATTACKER,
    DEFENDER,
    REJECT,
    TRUST,
    FlipItParams,
    GNECosts,
    PlantSpec,
    SignalingParams,
    flipit_control_fraction,
    flipit_equilibrium,
    gne_solve,
    physical_utilities,
    signaling_equilibrium,
)

# shared demo instance: commands are valuable to fake (attacker trusts pay
# 1.0 at message 0) and the receiver loses 5x more trusting an attacker
DEMO_SENDER = np.array(
    [
        [[1.0, 0.0], [0.2, -0.8]],
        [[0.4, -0.6], [0.9, -0.1]],
    ]
)
DEMO_RECEIVER = np.array(
    [
        [[-5.0, -1.0], [-5.0, -1.0]],
        [[-0.5, -1.0], [-0.5, -1.0]],
    ]
)
DEMO_COSTS = GNECosts(0.3, 0.2)


# ---------------------------------------------------------------------------
# timing game
# ---------------------------------------------------------------------------


def mc_control_fraction(alpha_a, alpha_d, rng, trials=100_000):
    """Simulated periodic play with random phases, inspected at random times."""
    ta, td = 1.0 / alpha_a, 1.0 / alpha_d
    phase_a = rng.uniform(0.0, ta, trials)
    phase_d = rng.uniform(0.0, td, trials)
    t = rng.uniform(50.0, 150.0) * max(ta, td) + rng.uniform(0.0, 100.0, trials)
    last_a = phase_a + np.floor((t - phase_a) / ta) * ta
    last_d = phase_d + np.floor((t - phase_d) / td) * td
    return float(np.mean(last_a > last_d))


def test_control_fraction_trivials():
    assert flipit_control_fraction(0.0, 1.0) == 0.0
    assert flipit_control_fraction(1.0, 0.0) == 1.0
    assert flipit_control_fraction(0.0, 0.0) == 0.0
    assert flipit_control_fraction(1.0, 1.0) == 0.5
    assert flipit_control_fraction(1.0, 2.0) == 0.25
    assert flipit_control_fraction(2.0, 1.0) == 0.75
    with pytest.raises(ValueError):
        flipit_control_fraction(-1.0, 1.0)


def test_control_fraction_against_simulation():
    rng = np.random.default_rng(101)
    for _ in range(8):
        a, d = rng.uniform(0.1, 3.0, 2)
        assert flipit_control_fraction(a, d) == pytest.approx(
            mc_control_fraction(a, d, rng), abs=0.01
        )


def assert_mutual_best_response(out, prm, tol=1e-9):
    """No deviation along the stored grids may beat the returned rates."""
    ga = np.asarray(out.grid_attacker)
    gd = np.asarray(out.grid_defender)
    for a in ga:
        pay = prm.attacker_value * flipit_control_fraction(
            float(a), out.defender_rate
        ) - prm.attack_cost * float(a)
        assert pay <= out.attacker_payoff + tol
    for d in gd:
        pay = prm.defender_value * (
            1.0 - flipit_control_fraction(out.attacker_rate, float(d))
        ) - prm.defense_cost * float(d)
        assert pay <= out.defender_payoff + tol


def test_equilibrium_symmetric():
    prm = FlipItParams(1.0, 1.0, 1.0, 1.0)
    out = flipit_equilibrium(prm)
    assert out.attacker_rate == pytest.approx(0.5, abs=1e-9)
    assert out.defender_rate == pytest.approx(0.5, abs=1e-9)
    assert out.control_fraction == pytest.approx(0.5, abs=1e-9)
    assert out.is_equilibrium and not out.dropped_out
    assert_mutual_best_response(out, prm)


def test_equilibrium_attacker_slower():
    # cost ratios 1/3 vs 2/9: attacker indifference pins the defender at
    # v_a/(2 c_a) = 1.5, defender indifference pins the attacker at 1.0
    prm = FlipItParams(0.3, 0.2, 0.9, 0.9)
    out = flipit_equilibrium(prm)
    assert out.attacker_rate == pytest.approx(1.0, abs=1e-9)
    assert out.defender_rate == pytest.approx(1.5, abs=1e-9)
    assert out.control_fraction == pytest.approx(1.0 / 3.0, abs=1e-9)
    assert out.attacker_payoff == pytest.approx(0.0, abs=1e-9)
    assert out.defender_payoff == pytest.approx(0.3, abs=1e-9)
    assert out.is_equilibrium
    assert_mutual_best_response(out, prm)


def test_equilibrium_mirror_case():
    prm = FlipItParams(0.2, 0.3, 0.9, 0.9)
    out = flipit_equilibrium(prm)
    assert out.attacker_rate == pytest.approx(1.5, abs=1e-9)
    assert out.defender_rate == pytest.approx(1.0, abs=1e-9)
    assert out.control_fraction == pytest.approx(2.0 / 3.0, abs=1e-9)
    assert out.attacker_payoff == pytest.approx(0.3, abs=1e-9)
    assert out.defender_payoff == pytest.approx(0.0, abs=1e-9)
    assert_mutual_best_response(out, prm)


def test_attacker_drops_out_when_attack_too_costly():
    out = flipit_equilibrium(FlipItParams(1e4, 0.2, 0.9, 0.9))
    assert out.dropped_out
    assert out.attacker_rate == 0.0
    assert out.control_fraction == 0.0
    assert out.defender_payoff == pytest.approx(0.9)
    assert out.is_equilibrium


def test_attacker_drops_out_when_resource_worthless():
    out = flipit_equilibrium(FlipItParams(0.5, 0.5, 0.0, 1.0))
    assert out.dropped_out
    assert out.control_fraction == 0.0
    assert out.is_equilibrium


def test_defender_abandons_worthless_resource():
    out = flipit_equilibrium(FlipItParams(0.5, 0.5, 1.0, 0.0))
    assert out.defender_rate == 0.0
    assert out.control_fraction == 1.0
    assert out.attacker_rate > 0.0


def test_near_free_defense_drives_control_fraction_down():
    prm = FlipItParams(0.3, 1e-6, 0.9, 0.9)
    out = flipit_equilibrium(prm)
    assert out.control_fraction < 0.01
    assert out.is_equilibrium
    assert_mutual_best_response(out, prm)


@pytest.fixture()
def profit_checks(monkeypatch):
    """Results of every ``_can_profit`` call made while the test runs."""
    results = []
    check = gne._can_profit

    def spy(grid, prm):
        results.append(check(grid, prm))
        return results[-1]

    monkeypatch.setattr(gne, "_can_profit", spy)
    return results


def test_uncertified_pair_kept_when_entry_pays(profit_checks):
    prm = FlipItParams(
        0.3387374160483393, 11.955067520600078, 0.012171270244015833, 0.0023749992365946202
    )
    out = flipit_equilibrium(prm)
    assert profit_checks == [True]
    assert not out.is_equilibrium and not out.dropped_out
    assert out.attacker_rate > 0.0
    p = flipit_control_fraction(out.attacker_rate, out.defender_rate)
    assert out.control_fraction == p
    assert out.attacker_payoff > 0.0


def test_uncertified_pair_drops_out_when_entry_never_pays(profit_checks):
    prm = FlipItParams(
        48.17596441419009, 0.08677029216649411, 0.006666736042161903, 24.247360344741047
    )
    out = flipit_equilibrium(prm)
    assert profit_checks == [False]
    assert out.dropped_out and not out.is_equilibrium
    assert out.attacker_rate == 0.0 and out.control_fraction == 0.0
    assert out.defender_payoff == prm.defender_value


def test_flipit_params_validation():
    with pytest.raises(ValueError):
        FlipItParams(0.0, 1.0, 1.0, 1.0)
    with pytest.raises(ValueError):
        FlipItParams(1.0, 1.0, -1.0, 1.0)


# ---------------------------------------------------------------------------
# signaling game
# ---------------------------------------------------------------------------


def check_pbe(prm, out, tol=1e-9):
    """Bayes consistency plus sequential rationality for both sides."""
    u_s, u_r = prm.sender_utils, prm.receiver_utils
    sig_s, sig_r, mu = out.sender_strategy, out.receiver_strategy, out.beliefs
    pi = np.array([prm.prior, 1.0 - prm.prior])
    np.testing.assert_allclose(sig_s.sum(axis=1), 1.0, atol=tol)
    np.testing.assert_allclose(sig_r.sum(axis=1), 1.0, atol=tol)
    np.testing.assert_allclose(mu.sum(axis=1), 1.0, atol=tol)
    assert np.all(sig_s >= -tol) and np.all(sig_r >= -tol) and np.all(mu >= -tol)
    # Bayes on path
    for m in range(2):
        mass = pi * sig_s[:, m]
        if mass.sum() > 1e-12:
            np.testing.assert_allclose(mu[m], mass / mass.sum(), atol=tol)
    # receiver plays a best response to its stated beliefs at every message
    for m in range(2):
        eu = [float(mu[m] @ u_r[:, m, a]) for a in (TRUST, REJECT)]
        played = float(sig_r[m] @ eu)
        assert played >= max(eu) - tol
    # no sender type gains by re-mixing its message
    for t in range(2):
        eu_m = [float(sig_r[m] @ u_s[t, m]) for m in range(2)]
        played = float(sig_s[t] @ eu_m)
        assert played >= max(eu_m) - tol
        assert out.sender_values[t] == pytest.approx(played, abs=tol)


def grid_scan_no_better_deviation(prm, out, tol=1e-3, points=101):
    """Brute-force mixed deviations on a strategy grid for both players."""
    u_s, u_r = prm.sender_utils, prm.receiver_utils
    grid = np.linspace(0.0, 1.0, points)
    for t in range(2):
        eu_m = [float(out.receiver_strategy[m] @ u_s[t, m]) for m in range(2)]
        got = float(out.sender_strategy[t] @ eu_m)
        best = max(x * eu_m[0] + (1 - x) * eu_m[1] for x in grid)
        assert got >= best - tol
    for m in range(2):
        eu = [float(out.beliefs[m] @ u_r[:, m, a]) for a in (TRUST, REJECT)]
        got = float(out.receiver_strategy[m] @ eu)
        best = max(q * eu[0] + (1 - q) * eu[1] for q in grid)
        assert got >= best - tol


def test_signaling_demo_above_threshold_is_hybrid():
    # above the receiver's indifference prior 1/9 trusting blindly is too
    # dangerous, so the attacker must mix to be partially believed
    prm = SignalingParams(0.3, DEMO_SENDER, DEMO_RECEIVER)
    out = signaling_equilibrium(prm)
    check_pbe(prm, out)
    assert out.kind == "hybrid"
    assert out.sender_values[ATTACKER] == pytest.approx(0.0, abs=1e-9)


def test_signaling_demo_below_threshold_is_supported_pooling():
    prm = SignalingParams(0.1, DEMO_SENDER, DEMO_RECEIVER)
    out = signaling_equilibrium(prm)
    check_pbe(prm, out)
    assert out.kind == "pooling"
    np.testing.assert_allclose(out.sender_strategy, [[0.0, 1.0], [0.0, 1.0]], atol=1e-12)
    # off-path trust of 0.2 leaves the attacker exactly indifferent, held up
    # by the indifference belief 1/9 rather than the prior
    np.testing.assert_allclose(out.receiver_strategy, [[0.2, 0.8], [1.0, 0.0]], atol=1e-9)
    np.testing.assert_allclose(out.beliefs[0], [1.0 / 9.0, 8.0 / 9.0], atol=1e-9)
    np.testing.assert_allclose(out.beliefs[1], [0.1, 0.9], atol=1e-12)
    assert out.sender_values == pytest.approx((0.2, 0.9))


def test_signaling_degenerate_priors():
    for prior in (0.0, 1.0):
        prm = SignalingParams(prior, DEMO_SENDER, DEMO_RECEIVER)
        out = signaling_equilibrium(prm)
        check_pbe(prm, out)


def test_signaling_separating_instance():
    # type-revealing messages are strictly preferred and the receiver
    # punishes the attacker's message: separation is incentive-compatible
    u_s = np.array(
        [
            [[0.5, 0.4], [-1.0, -0.5]],
            [[-1.0, -0.8], [0.2, 0.1]],
        ]
    )
    u_r = np.array(
        [
            [[-2.0, 0.0], [-2.0, 0.0]],
            [[1.0, 0.0], [1.0, 0.0]],
        ]
    )
    prm = SignalingParams(0.4, u_s, u_r)
    out = signaling_equilibrium(prm)
    check_pbe(prm, out)
    assert out.kind == "separating"
    np.testing.assert_allclose(out.sender_strategy, [[1.0, 0.0], [0.0, 1.0]], atol=1e-12)
    np.testing.assert_allclose(out.beliefs, [[1.0, 0.0], [0.0, 1.0]], atol=1e-12)
    # receiver rejects the revealed attacker, trusts the revealed defender
    np.testing.assert_allclose(out.receiver_strategy, [[0.0, 1.0], [1.0, 0.0]], atol=1e-12)


def test_signaling_random_tables_always_solve():
    rng = np.random.default_rng(211)
    for _ in range(20):
        prm = SignalingParams(
            float(rng.uniform(0.05, 0.95)),
            rng.uniform(-1.0, 1.0, size=(2, 2, 2)),
            rng.uniform(-1.0, 1.0, size=(2, 2, 2)),
        )
        out = signaling_equilibrium(prm)
        check_pbe(prm, out)
        grid_scan_no_better_deviation(prm, out)


def test_signaling_rejects_bad_inputs():
    with pytest.raises(ValueError):
        SignalingParams(1.5, DEMO_SENDER, DEMO_RECEIVER)
    with pytest.raises(ValueError):
        SignalingParams(0.5, np.zeros((2, 2)), DEMO_RECEIVER)


# ---------------------------------------------------------------------------
# utilities from the plant model
# ---------------------------------------------------------------------------


def test_plant_utilities_hand_example():
    # one step from x0 = 1: attack input 1 -> x = 2, cost 4 + 1 = 5;
    # fallback 0 -> x = 1, cost 1; optimal u = -ab q/(q b^2 + r) = -0.5
    # -> x = 0.5, cost 0.25 + 0.25 = 0.5
    plant = PlantSpec(a=1.0, b=1.0, q=1.0, r=1.0, horizon=1, attack_input=1.0)
    table = physical_utilities(plant)
    assert table.shape == (2, 2, 2)
    assert np.all(table[ATTACKER, :, TRUST] == pytest.approx(-5.0))
    assert np.all(table[DEFENDER, :, TRUST] == pytest.approx(-0.5))
    assert np.all(table[:, :, REJECT] == pytest.approx(-1.0))


def test_plant_trust_beats_fallback_beats_attack():
    plant = PlantSpec(a=1.1, b=1.0, q=1.0, r=0.5, horizon=6, attack_input=2.0)
    table = physical_utilities(plant)
    for m in range(2):
        assert (
            table[DEFENDER, m, TRUST]
            > table[DEFENDER, m, REJECT]
            > table[ATTACKER, m, TRUST]
        )


def test_costless_plant_gives_zero_utilities():
    plant = PlantSpec(a=0.9, b=1.0, q=0.0, r=0.0, horizon=4, attack_input=3.0)
    np.testing.assert_array_equal(physical_utilities(plant), np.zeros((2, 2, 2)))


# ---------------------------------------------------------------------------
# composed equilibrium
# ---------------------------------------------------------------------------


def test_gne_demo_fixed_point():
    state = gne_solve(DEMO_COSTS, DEMO_SENDER, DEMO_RECEIVER)
    assert state.converged and state.verified
    assert state.control_fraction == pytest.approx(2.0 / 27.0, abs=1e-6)
    assert state.attacker_value == pytest.approx(0.2)
    assert state.defender_value == pytest.approx(0.9)
    assert state.flipit.defender_rate == pytest.approx(1.0 / 3.0, abs=1e-6)
    assert state.flipit.is_equilibrium
    assert state.signaling.kind == "pooling"
    # the prior the timing game induces is consistent with the signaling
    # stage that produced the values: a genuine joint fixed point
    assert state.residual < 1e-8


def test_gne_replay_at_fixed_point_is_stationary():
    state = gne_solve(DEMO_COSTS, DEMO_SENDER, DEMO_RECEIVER)
    sig = signaling_equilibrium(
        SignalingParams(state.control_fraction, DEMO_SENDER, DEMO_RECEIVER)
    )
    v_a = max(0.0, sig.sender_values[ATTACKER])
    v_d = max(0.0, sig.sender_values[DEFENDER])
    flip = flipit_equilibrium(
        FlipItParams(DEMO_COSTS.attack_cost, DEMO_COSTS.defense_cost, v_a, v_d)
    )
    assert abs(flip.control_fraction - state.control_fraction) < 1e-6


def test_gne_damping_invariance():
    results = {}
    for damping in (0.25, 0.5, 1.0):
        state = gne_solve(DEMO_COSTS, DEMO_SENDER, DEMO_RECEIVER, damping=damping)
        if state.converged:
            results[damping] = state.control_fraction
    assert len(results) >= 2  # heavy damping converges; eta = 1 may cycle
    vals = list(results.values())
    assert max(vals) - min(vals) < 1e-5


def test_gne_attacker_dropout_params():
    hopeless = np.array(
        [
            [[-1.0, -1.0], [-1.0, -1.0]],
            [[0.4, -0.6], [0.9, -0.1]],
        ]
    )
    state = gne_solve(DEMO_COSTS, hopeless, DEMO_RECEIVER)
    assert state.converged
    assert state.control_fraction < 1e-6
    assert state.flipit.dropped_out


def test_gne_control_fraction_monotone_in_attack_cost():
    fractions = []
    for cost in (0.3, 0.45, 0.6, 0.9, 1.2):
        state = gne_solve(GNECosts(cost, 0.2), DEMO_SENDER, DEMO_RECEIVER)
        assert state.converged
        fractions.append(state.control_fraction)
    assert all(a >= b - 1e-9 for a, b in zip(fractions, fractions[1:]))
    assert fractions[0] > fractions[-1]


def test_gne_residual_history_records_convergence():
    state = gne_solve(DEMO_COSTS, DEMO_SENDER, DEMO_RECEIVER)
    assert len(state.residual_history) == state.iterations
    assert state.residual_history[-1] < 1e-8
    assert state.residual_history[0] > state.residual_history[-1]


def test_gne_rejects_bad_solver_settings():
    with pytest.raises(ValueError):
        gne_solve(DEMO_COSTS, DEMO_SENDER, DEMO_RECEIVER, damping=0.0)
    with pytest.raises(ValueError):
        gne_solve(DEMO_COSTS, DEMO_SENDER, DEMO_RECEIVER, p0=1.5)

