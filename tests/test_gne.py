"""Timing game, trust signaling game, and their composed fixed point."""

import bisect
import dataclasses
import math
import re
import sys
import threading
import warnings
from concurrent.futures import ThreadPoolExecutor
from itertools import product

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from resilnet import gne
from resilnet import (
    ATTACKER,
    DEFENDER,
    REJECT,
    TRUST,
    FlipItParams,
    GNECosts,
    PlantSpec,
    SignalingOutcome,
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


RATES = st.one_of(
    st.floats(min_value=0.0, allow_infinity=True),
    st.sampled_from([0.0, -0.0, math.nan, math.inf, 5e-324, 1.0, 1.7976931348623157e308]),
)


@settings(max_examples=500, deadline=None, derandomize=True)
@given(alpha_a=RATES, alpha_d=RATES, equal=st.booleans())
def test_control_fraction_has_the_bits_of_the_array_form(alpha_a, alpha_d, equal):
    if equal:
        alpha_d = alpha_a
    with np.errstate(all="ignore"):
        want = float(_ref_holding(alpha_a, alpha_d))
    # repr tells -0.0 from 0.0 and writes every bit; a NaN rate gives 1.0
    assert repr(flipit_control_fraction(alpha_a, alpha_d)) == repr(want)


def test_control_fraction_against_simulation():
    rng = np.random.default_rng(101)
    for _ in range(8):
        a, d = rng.uniform(0.1, 3.0, 2)
        assert flipit_control_fraction(a, d) == pytest.approx(
            mc_control_fraction(a, d, rng), abs=0.01
        )


def deviations(*rates):
    """A fixed dense grid of rates: 0, the least positive float, a geometric
    grid from 1e-4 times the smallest positive rate to 1e4 times the largest,
    and each rate times 1 +- 2**-k."""
    positive = [r for r in rates if r > 0]
    grid = {0.0, 2.0**-1074}
    if positive:
        lo, hi = max(min(positive) * 1e-4, 2.0**-1074), max(positive) * 1e4
        grid.update(np.geomspace(lo, min(hi, sys.float_info.max), 400).tolist())
    for r in positive:
        for k in range(1, 54):
            grid.update((r * (1.0 + 2.0**-k), r * (1.0 - 2.0**-k)))
    return sorted(r for r in grid if math.isfinite(r))


def deviation_gains(out, prm):
    """The most each player gains by a unilateral move to a rate of
    :func:`deviations` on the outcome's rates."""
    grid = deviations(out.attacker_rate, out.defender_rate)
    best_a = max(
        prm.attacker_value * flipit_control_fraction(a, out.defender_rate) - prm.attack_cost * a
        for a in grid
    )
    best_d = max(
        prm.defender_value * (1.0 - flipit_control_fraction(out.attacker_rate, d))
        - prm.defense_cost * d
        for d in grid
    )
    return best_a - out.attacker_payoff, best_d - out.defender_payoff


def assert_mutual_best_response(out, prm, tol=1e-9):
    """``out`` is certified, and no deviation along a dense rate grid around
    its rates beats them by more than ``tol``."""
    assert out.is_equilibrium
    gain_a, gain_d = deviation_gains(out, prm)
    assert gain_a <= tol and gain_d <= tol


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


def test_costly_attack_keeps_a_tiny_certified_pair():
    # with no rate floor the costly attacker still moves, far below 1e-4:
    # the defender's rate v_a / (2 c_a) keeps it indifferent
    prm = FlipItParams(1e4, 0.2, 0.9, 0.9)
    out = flipit_equilibrium(prm)
    assert out.attacker_rate == pytest.approx(9.0e-10, rel=1e-12)
    assert out.defender_rate == pytest.approx(4.5e-5, rel=1e-12)
    assert out.control_fraction == pytest.approx(1e-5, rel=1e-12)
    assert out.is_equilibrium and not out.dropped_out
    assert_mutual_best_response(out, prm)


def test_attacker_drops_out_when_resource_worthless():
    out = flipit_equilibrium(FlipItParams(0.5, 0.5, 0.0, 1.0))
    assert out.dropped_out
    assert out.control_fraction == 0.0
    assert out.is_equilibrium


def test_defender_abandons_worthless_resource():
    # the attacker wants the least positive rate, which does not exist: no
    # equilibrium, and the rate floor is reported
    out = flipit_equilibrium(FlipItParams(0.5, 0.5, 1.0, 0.0))
    assert out.defender_rate == 0.0
    assert out.control_fraction == 1.0
    assert out.attacker_rate == gne._RATE_FLOOR
    assert not out.is_equilibrium and not out.dropped_out


def test_near_free_defense_drives_control_fraction_down():
    prm = FlipItParams(0.3, 1e-6, 0.9, 0.9)
    out = flipit_equilibrium(prm)
    assert out.control_fraction < 0.01
    assert out.is_equilibrium
    assert_mutual_best_response(out, prm)


def test_sub_floor_rates_are_a_certified_pair():
    # the grid search once dropped this attacker out and flagged the dropout
    # as no equilibrium; both closed-form rates lie below the old 1e-4 floor
    prm = FlipItParams(
        48.17596441419009, 0.08677029216649411, 0.006666736042161903, 24.247360344741047
    )
    out = flipit_equilibrium(prm)
    assert out.attacker_rate == pytest.approx(3.426433309942551e-11, rel=1e-12)
    assert out.defender_rate == pytest.approx(6.91915161764591e-05, rel=1e-12)
    assert out.is_equilibrium and not out.dropped_out
    assert_mutual_best_response(out, prm)


# The timing-game grid search that the closed form replaced, with verbatim
# copies of the helpers it used, so that the closed form is checked against
# it where its 1e-4 rate floor does not bind.

_REF_PAYOFF_TOL = 1e-12


def _ref_holding(alpha_a, alpha_d):
    slow, fast = np.minimum(alpha_a, alpha_d), np.maximum(alpha_a, alpha_d)
    half = np.divide(slow, 2.0 * fast, out=np.zeros_like(slow, dtype=float), where=fast > 0)
    return np.where(alpha_a <= alpha_d, half, 1.0 - half)


def _ref_attacker_payoffs(grid, alpha_d, prm):
    return prm.attacker_value * _ref_holding(grid, alpha_d) - prm.attack_cost * grid


def _ref_defender_payoffs(grid, alpha_a, prm):
    return prm.defender_value * (1.0 - _ref_holding(alpha_a, grid)) - prm.defense_cost * grid


def _ref_argmax_with_ties(payoffs, incumbent):
    best = float(np.max(payoffs))
    ties = np.flatnonzero(payoffs >= best - _REF_PAYOFF_TOL)
    if incumbent is not None and incumbent in ties:
        return incumbent
    return int(ties[0])


def _ref_rate_grid(lo, hi, points, extra=()):
    base = np.concatenate(([0.0], np.geomspace(lo, hi, points)))
    pos = [r for r in extra if r > 0]
    return np.union1d(base, pos) if pos else base


def _ref_can_profit(grid, prm):
    """True if some grid rate strictly profits against the defender's response."""
    rates = grid[1:]
    held = _ref_holding(rates[:, None], grid)
    payoffs = prm.defender_value * (1.0 - held) - prm.defense_cost * grid
    # each row's response is its first rate within _PAYOFF_TOL of the best,
    # the rule of _argmax_with_ties without an incumbent
    ties = payoffs >= payoffs.max(axis=1, keepdims=True) - _REF_PAYOFF_TOL
    response = grid[np.argmax(ties, axis=1)]
    u_a = prm.attacker_value * _ref_holding(rates, response) - prm.attack_cost * rates
    return bool(np.any(u_a > _REF_PAYOFF_TOL))


def _ref_best_response_pair(grid_a, grid_d, prm, start_a, start_d, max_iters):
    i_a = start_a
    i_d = start_d
    seen = set()
    prev = (-1, -1)
    for it in range(1, max_iters + 1):
        i_a = _ref_argmax_with_ties(
            _ref_attacker_payoffs(grid_a, float(grid_d[i_d]), prm), i_a
        )
        i_d = _ref_argmax_with_ties(
            _ref_defender_payoffs(grid_d, float(grid_a[i_a]), prm), i_d
        )
        state = (i_a, i_d)
        if state == prev:
            return i_a, i_d, it, True
        if state in seen:
            return i_a, i_d, it, False  # cycling
        seen.add(state)
        prev = state
    return i_a, i_d, max_iters, False


def _ref_dropout_outcome(prm, grid):
    deviation = float(np.max(_ref_attacker_payoffs(grid, 0.0, prm)))
    return gne.FlipItOutcome(
        attacker_rate=0.0,
        defender_rate=0.0,
        control_fraction=0.0,
        attacker_payoff=0.0,
        defender_payoff=prm.defender_value,
        is_equilibrium=deviation <= 1e-9,
        dropped_out=True,
        iterations=0,
    )


def reference_flipit_equilibrium(prm, grid_points=200, max_iters=500):
    """The timing game by iterated best response on a rate grid, refined
    once, with a deviation scan and a dropout where no rate can profit."""
    v = max(prm.attacker_value, prm.defender_value)
    alpha_max = max(1.0, v / min(prm.attack_cost, prm.defense_cost))
    ratio = (alpha_max / gne._RATE_FLOOR) ** (1.0 / (grid_points - 1))
    if prm.attacker_value <= 0:
        return _ref_dropout_outcome(prm, _ref_rate_grid(gne._RATE_FLOOR, alpha_max, grid_points))

    candidate = gne._equilibrium_candidate(prm, prm.attacker_value, prm.defender_value)
    extras = candidate if max(candidate) >= gne._RATE_FLOOR else ()
    grid = _ref_rate_grid(gne._RATE_FLOOR, alpha_max, grid_points, extras)

    def refine(center):
        if center <= 0:
            return grid
        lo = max(center / ratio, gne._RATE_FLOOR / ratio)
        hi = min(center * ratio, alpha_max * ratio)
        return _ref_rate_grid(lo, hi, grid_points, extras)

    start_a = int(np.argmin(np.abs(grid - candidate[0])))
    start_d = int(np.argmin(np.abs(grid - candidate[1])))
    i_a, i_d, it1, _ = _ref_best_response_pair(grid, grid, prm, start_a, start_d, max_iters)
    grid_a, grid_d = refine(float(grid[i_a])), refine(float(grid[i_d]))
    j_a = int(np.argmin(np.abs(grid_a - grid[i_a])))
    j_d = int(np.argmin(np.abs(grid_d - grid[i_d])))
    i_a, i_d, it2, _ = _ref_best_response_pair(grid_a, grid_d, prm, j_a, j_d, max_iters)

    a_star = float(grid_a[i_a])
    d_star = float(grid_d[i_d])
    if a_star == 0.0:
        return _ref_dropout_outcome(prm, grid)
    p = flipit_control_fraction(a_star, d_star)
    u_a = prm.attacker_value * p - prm.attack_cost * a_star
    u_d = prm.defender_value * (1.0 - p) - prm.defense_cost * d_star
    gain_a = float(np.max(_ref_attacker_payoffs(grid_a, d_star, prm))) - u_a
    gain_d = float(np.max(_ref_defender_payoffs(grid_d, a_star, prm))) - u_d
    certified = gain_a <= 1e-9 and gain_d <= 1e-9
    if not certified and not _ref_can_profit(grid, prm):
        return _ref_dropout_outcome(prm, grid)
    return gne.FlipItOutcome(
        attacker_rate=a_star,
        defender_rate=d_star,
        control_fraction=p,
        attacker_payoff=u_a,
        defender_payoff=u_d,
        is_equilibrium=certified,
        dropped_out=False,
        iterations=it1 + it2,
    )


def fields_but_iterations(out):
    """repr of every field but ``iterations``, which counted the search's steps."""
    return repr(dataclasses.astuple(out)[:-1])


# log-uniform parameters at the scales a game has
in_range = st.floats(-3.0, 1.0).map(lambda e: 10.0**e)


@settings(max_examples=150, deadline=None, derandomize=True)
@given(attack=in_range, defense=in_range, value=in_range, defender_value=in_range)
@example(attack=1.0, defense=1.0, value=1.0, defender_value=1.0)
@example(attack=0.3, defense=0.2, value=0.9, defender_value=0.9)
@example(attack=0.5, defense=0.1, value=2.0, defender_value=1.0)
def test_flipit_matches_the_frozen_reference(attack, defense, value, defender_value):
    # the grid search resolves rates down to its 1e-4 floor: below it, it
    # returned other pairs or a dropout, which the closed form replaces
    prm = FlipItParams(attack, defense, value, defender_value)
    assume(max(gne._equilibrium_candidate(prm, value, defender_value)) >= gne._RATE_FLOOR)
    out = flipit_equilibrium(prm)
    assert fields_but_iterations(out) == fields_but_iterations(reference_flipit_equilibrium(prm))
    assert out.iterations == 0


# log-uniform parameters: mostly at the scales a game has, and now and then
# far out, or subnormal, or 0
magnitudes = (st.floats(-8.0, 8.0) | st.floats(-300.0, 300.0)).map(lambda e: 10.0**e)
tiny = st.floats(0.0, sys.float_info.min, allow_subnormal=True) | st.just(0.0)


def rounding_tolerance(prm):
    """What rounding allows a deviation to gain: 1e-9 of the game's scale,
    the larger value; the share 2**-1074 / k of it, where rates that resolve
    only to 2**-1074 meet the smaller value per cost k (where k rounds to 0,
    the rates are 0 or 2**-1074, exactly); and a few least positive rates'
    worth of either cost and of the payoffs."""
    scale = max(prm.attacker_value, prm.defender_value)
    per_cost = min(prm.attacker_value / prm.attack_cost, prm.defender_value / prm.defense_cost)
    resolution = 2.0**-1074 / per_cost if per_cost > 0 else 0.0
    return scale * (1e-9 + resolution) + 4 * 2.0**-1074 * (1.0 + prm.attack_cost + prm.defense_cost)


@settings(max_examples=400, deadline=None, derandomize=True)
@given(
    attack=magnitudes | tiny.filter(lambda c: c > 0),
    defense=magnitudes | tiny.filter(lambda c: c > 0),
    value=st.just(0.0) | magnitudes | tiny,
    defender_value=st.just(0.0) | magnitudes | tiny,
)
# 0 * inf / inf once made the attacker's rate NaN
@example(attack=1.0, defense=1.0, value=5e-324, defender_value=5e-324)
@example(attack=1.0, defense=2.0, value=5e-324, defender_value=1e-300)
# an attacker rate that rounds to 0: a dropout against the closed-form defender rate
@example(attack=1e300, defense=1e-5, value=1.0, defender_value=1.0)
@example(attack=1.0, defense=1.0, value=1e-320, defender_value=1.0)
# both ratios overflow, and the attacker is the faster player
@example(attack=1.65e-08, defense=1.26e186, value=1.576e-321, defender_value=4.5e-245)
# rates near 1e111, where rounding alone leaves the slower player's payoff,
# 0 in exact arithmetic, at 3.4e10 of a value of 5.8e26
@example(attack=3.0473359558793765e-85, defense=1.3995520034172545e-86,
         value=5.7537887631076724e+26, defender_value=3.0869956715846345e+25)
def test_flipit_outcomes_are_finite_and_certified_ones_survive_deviations(
    attack, defense, value, defender_value
):
    args = (attack, defense, value, defender_value)
    if max(value, defender_value) / min(attack, defense) > gne._MAX_FLIPIT_RATIO:
        with pytest.raises(ValueError, match=r"^max value / min cost must be <= "):
            FlipItParams(*args)
        return
    prm = FlipItParams(*args)
    out = flipit_equilibrium(prm)
    rates = (out.attacker_rate, out.defender_rate)
    assert all(math.isfinite(r) and r >= 0.0 for r in rates)
    assert 0.0 <= out.control_fraction <= 1.0
    assert math.isfinite(out.attacker_payoff) and math.isfinite(out.defender_payoff)
    # no dropout is flagged as no equilibrium; only a worthless resource is one
    assert out.is_equilibrium == (value == 0.0 or defender_value > 0.0)
    assert not (out.dropped_out and not out.is_equilibrium)
    assert out.dropped_out == (out.attacker_rate == 0.0)
    if out.dropped_out:
        assert out.control_fraction == 0.0 and out.attacker_payoff == 0.0
    if out.is_equilibrium:
        gain_a, gain_d = deviation_gains(out, prm)
        tol = rounding_tolerance(prm)
        assert gain_a <= tol and gain_d <= tol


def test_flipit_params_bound_the_value_per_cost():
    bound = gne._MAX_FLIPIT_RATIO
    over = math.nextafter(bound, math.inf)
    error = r"^max value / min cost must be <= 1\.7976931348614984e\+304, got "
    for args in [
        (1.0, 1e-300, 1.0, 1e10),
        (1.0, 1e-300, 0.0, 1e10),
        (1e300, 1e-305, 1.0, 1.0),
        (1.0, 1.0, over, 0.0),
        (1.0, 1.0, 0.0, over),
        (2.0, 1.0, 0.0, 2.0 * over),
        (5e-324, 1.0, 1.0, 0.0),
    ]:
        with pytest.raises(ValueError, match=error):
            FlipItParams(*args)
    # at the bound the closed form is finite, and certified where the
    # defender has value
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for args in [(1.0, 1.0, bound, 0.0), (1.0, 1.0, bound, bound), (1.0, 1.0, 1.0, bound)]:
            prm = FlipItParams(*args)
            out = flipit_equilibrium(prm)
            fields = dataclasses.astuple(out)[:5]
            assert all(math.isfinite(x) for x in fields)
            assert out.is_equilibrium == (prm.defender_value > 0)
            if out.is_equilibrium:
                gain_a, gain_d = deviation_gains(out, prm)
                assert max(gain_a, gain_d) <= rounding_tolerance(prm)


def test_a_sender_value_past_the_table_bound_per_cost_still_solves():
    # in a hybrid the defender sends message 1 alone, where the receiver
    # mixes over two entries of 1/3, the largest; that fold rounds one ulp
    # past it.  At the least cost that the table bound accepts, the value per
    # cost lies past _MAX_VALUE_PER_COST, and within _MAX_FLIPIT_RATIO
    third = 0.3333333333333333
    u_s = np.array([
        [[0.1, 0.2333333333333333], [0.1, third]],
        [[-0.2, 0.09999999999999999], [third, third]],
    ])
    u_r = np.array([
        [[-0.2, 0.7], [0.6666666666666666, third]],
        [[0.1, 0.3], [0.3, third]],
    ])
    cost = 1.8542282154243544e-305
    costs = GNECosts(cost, cost)
    assert not gne._cost_errors(costs, gne._trust_game(u_s, u_r).top)
    state = assert_matches_reference(costs, u_s, u_r, p0=0.25)
    assert state.verified and state.signaling.kind == "hybrid"
    assert state.signaling.sender_strategy[DEFENDER].tolist() == [0.0, 1.0]
    assert state.defender_value == math.nextafter(third, 1.0)
    assert state.defender_value / cost > gne._MAX_VALUE_PER_COST


def test_flipit_params_validation():
    with pytest.raises(ValueError):
        FlipItParams(0.0, 1.0, 1.0, 1.0)
    with pytest.raises(ValueError):
        FlipItParams(1.0, 1.0, -1.0, 1.0)


FLIPIT_FIELDS = ("attack_cost", "defense_cost", "attacker_value", "defender_value")


@pytest.mark.parametrize("field", FLIPIT_FIELDS)
@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_flipit_params_reject_non_finite_numbers(field, bad):
    # NaN once slipped past every sign check and ended in a bare IndexError
    args = dict(zip(FLIPIT_FIELDS, (0.3, 0.2, 0.9, 0.9)), **{field: bad})
    with pytest.raises(ValueError, match=f"^{field} must be finite"):
        FlipItParams(**args)


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


def test_the_demo_hybrids_attacker_value_is_exactly_zero():
    # the attacker mixes, so it is indifferent: its value is its payoff at
    # message 0, which the receiver rejects, an entry of 0.0 at every prior
    for prior in np.linspace(0.12, 1.0 - 1e-9, 60).tolist():
        out = signaling_equilibrium(SignalingParams(prior, DEMO_SENDER, DEMO_RECEIVER))
        assert out.kind == "hybrid"
        assert repr(out.sender_values) == "(0.0, 0.7000000000000001)", prior


def test_beliefs_follow_bayes_at_a_mixing_message_with_little_mass():
    # the attacker sends message 1 with mass 3.3e-17 here; the receiver
    # rejects it, which only the posterior there, not the prior, supports
    u_s = [[[-5, -0.5], [4.8, -3]], [[1, 0], [-1, -0.5]]]
    u_r = [[[2, -5], [-5, -3]], [[-3, 0], [2, 0.5]]]
    prm = SignalingParams(0.30000000000000004, u_s, u_r)
    out = signaling_equilibrium(prm)
    assert out.kind == "hybrid" and 0.0 < prm.prior * out.sender_strategy[ATTACKER, 1] < 1e-15
    assert out.receiver_strategy[1].tolist() == [0.0, 1.0]
    check_pbe(prm, out)


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


def test_signaling_priors_just_above_one_ninth_have_an_equilibrium():
    # the demo receiver is indifferent at prior 1/9; just above it pooling
    # fails and the hybrid's sender share is within 1e-12 of 1, a window
    # where no candidate used to qualify
    ninth = 1.0 / 9.0
    priors = [ninth + k * np.spacing(ninth) for k in range(-4, 12)]
    priors += list(ninth + np.linspace(-2e-13, 2e-13, 81))
    priors += [ninth + 5e-14, ninth - 1e-13, ninth + 1e-13]
    for prior in priors:
        prm = SignalingParams(prior, DEMO_SENDER, DEMO_RECEIVER)
        out = signaling_equilibrium(prm)
        check_pbe(prm, out)
        # pooling up to the threshold, the hybrid past it: the choice of
        # the regimes on either side of the window is kept
        if prior <= ninth:
            assert out.kind == "pooling" and out.sender_values == pytest.approx((0.2, 0.9))
        elif prior >= ninth + 1e-13:
            assert out.kind == "hybrid" and out.sender_values[ATTACKER] == pytest.approx(0.0)
    # one ulp above 1/9 pooling still passes and is kept; from two ulp up the
    # hybrid is chosen, also at + 2 and + 3 ulp, where pooling passed only by
    # rounding and was the choice before the window was closed
    kinds = {
        k: signaling_equilibrium(
            SignalingParams(ninth + k * np.spacing(ninth), DEMO_SENDER, DEMO_RECEIVER)
        ).kind
        for k in range(1, 6)
    }
    assert kinds == {1: "pooling", 2: "hybrid", 3: "hybrid", 4: "hybrid", 5: "hybrid"}
    nudged = SignalingParams(np.nextafter(ninth, 1.0), DEMO_SENDER, DEMO_RECEIVER)
    assert signaling_equilibrium(nudged).kind == "pooling"


# ---------------------------------------------------------------------------
# the numpy trust-game solver, kept as the reference for the float one
# ---------------------------------------------------------------------------


def _ref_posterior(prior: float, sigma_s: np.ndarray, floor: float = 1e-15) -> np.ndarray:
    """Beliefs per message; passive (prior) beliefs off path."""
    pi = np.array([prior, 1.0 - prior])
    beliefs = np.empty((2, 2))
    for m in range(2):
        mass = pi * sigma_s[:, m]
        total = float(mass.sum())
        beliefs[m] = mass / total if total > floor else pi
    return beliefs


def _ref_receiver_br(beliefs_m: np.ndarray, u_r: np.ndarray, m: int) -> int:
    eu_trust = float(beliefs_m @ u_r[:, m, TRUST])
    eu_reject = float(beliefs_m @ u_r[:, m, REJECT])
    return TRUST if eu_trust >= eu_reject else REJECT  # ties trust


def _ref_values(
    prior: float,
    sigma_s: np.ndarray,
    sigma_r: np.ndarray,
    u_s: np.ndarray,
    u_r: np.ndarray,
) -> tuple[tuple[float, float], float]:
    sender_vals = []
    for t in range(2):
        v = sum(
            sigma_s[t, m] * sigma_r[m, a] * u_s[t, m, a]
            for m in range(2)
            for a in range(2)
        )
        sender_vals.append(float(v))
    pi = np.array([prior, 1.0 - prior])
    rv = sum(
        pi[t] * sigma_s[t, m] * sigma_r[m, a] * u_r[t, m, a]
        for t in range(2)
        for m in range(2)
        for a in range(2)
    )
    return (sender_vals[0], sender_vals[1]), float(rv)


def _ref_mixing_values(
    prior: float,
    sigma_s: np.ndarray,
    sigma_r: np.ndarray,
    u_s: np.ndarray,
    u_r: np.ndarray,
) -> tuple[tuple[float, float], float]:
    """:func:`_ref_values`, where a type that mixes takes its payoff at one
    message of its support: one the receiver answers with a pure action if
    there is one, else message 0."""
    def pure(row):
        return sorted(row.tolist()) == [0.0, 1.0]

    m_mix = 1 if pure(sigma_r[1]) and not pure(sigma_r[0]) else 0
    sigma_v = np.array([row if pure(row) else np.eye(2)[m_mix] for row in sigma_s])
    sender_vals = _ref_values(prior, sigma_v, sigma_r, u_s, u_r)[0]
    return sender_vals, _ref_values(prior, sigma_s, sigma_r, u_s, u_r)[1]


def _ref_pure_equilibria(prm: SignalingParams) -> list[SignalingOutcome]:
    u_s, u_r = prm.sender_utils, prm.receiver_utils
    found = []
    for m_att, m_def in product(range(2), range(2)):
        sigma_s = np.zeros((2, 2))
        sigma_s[ATTACKER, m_att] = 1.0
        sigma_s[DEFENDER, m_def] = 1.0
        beliefs = _ref_posterior(prm.prior, sigma_s)
        actions = [_ref_receiver_br(beliefs[m], u_r, m) for m in range(2)]
        ok = True
        for t, m_t in ((ATTACKER, m_att), (DEFENDER, m_def)):
            other = 1 - m_t
            if u_s[t, other, actions[other]] > u_s[t, m_t, actions[m_t]] + 1e-9:
                ok = False
                break
        if not ok:
            continue
        sigma_r = np.zeros((2, 2))
        for m in range(2):
            sigma_r[m, actions[m]] = 1.0
        sender_vals, rv = _ref_values(prm.prior, sigma_s, sigma_r, u_s, u_r)
        kind = "separating" if m_att != m_def else "pooling"
        found.append(
            SignalingOutcome(sigma_s, sigma_r, beliefs, sender_vals, rv, kind)
        )
    return found


def _ref_hybrid_equilibria(prm: SignalingParams) -> list[SignalingOutcome]:
    """One type mixes, the receiver mixes on the shared message.

    The receiver's indifference at the shared message pins the posterior,
    Bayes then pins the sender's mixing weight, and the mixing type's own
    indifference pins the receiver's trust probability.
    """
    u_s, u_r = prm.sender_utils, prm.receiver_utils
    pi = np.array([prm.prior, 1.0 - prm.prior])
    if pi[0] < 1e-12 or pi[1] < 1e-12:
        return []  # a missing type cannot mix on path
    found = []
    for tau in range(2):
        other = 1 - tau
        for m_s in range(2):  # message shared with the pure type
            m_x = 1 - m_s
            d_tau = u_r[tau, m_s, TRUST] - u_r[tau, m_s, REJECT]
            d_oth = u_r[other, m_s, TRUST] - u_r[other, m_s, REJECT]
            if abs(d_oth - d_tau) < 1e-15:
                continue
            mu = d_oth / (d_oth - d_tau)  # posterior on tau at m_s
            if not 1e-12 < mu < 1.0 - 1e-12:
                continue
            share = mu * pi[other] / ((1.0 - mu) * pi[tau])
            # no margin below 1: a share under 1 puts the prior past the
            # pooling threshold, so a margin there left priors with no
            # equilibrium at all
            if not 1e-12 < share < 1.0:
                continue
            a_x = _ref_receiver_br(np.eye(2)[tau], u_r, m_x)
            denom = u_s[tau, m_s, TRUST] - u_s[tau, m_s, REJECT]
            if abs(denom) < 1e-15:
                continue
            q = (u_s[tau, m_x, a_x] - u_s[tau, m_s, REJECT]) / denom
            if not -1e-12 <= q <= 1.0 + 1e-12:
                continue
            q = min(max(q, 0.0), 1.0)
            eu_other = q * u_s[other, m_s, TRUST] + (1.0 - q) * u_s[other, m_s, REJECT]
            if u_s[other, m_x, a_x] > eu_other + 1e-9:
                continue
            sigma_s = np.zeros((2, 2))
            sigma_s[tau, m_s] = share
            sigma_s[tau, m_x] = 1.0 - share
            sigma_s[other, m_s] = 1.0
            sigma_r = np.zeros((2, 2))
            sigma_r[m_s, TRUST] = q
            sigma_r[m_s, REJECT] = 1.0 - q
            sigma_r[m_x, a_x] = 1.0
            beliefs = _ref_posterior(prm.prior, sigma_s, 0.0)
            sender_vals, rv = _ref_mixing_values(prm.prior, sigma_s, sigma_r, u_s, u_r)
            found.append(
                SignalingOutcome(sigma_s, sigma_r, beliefs, sender_vals, rv, "hybrid")
            )
    return found


def _ref_mixed_equilibria(prm: SignalingParams) -> list[SignalingOutcome]:
    """Both sender types mix; the receiver is indifferent at both messages.

    The receiver's per-message indifference pins both posteriors, Bayes then
    pins both sender mixing weights, and the two sender-indifference
    conditions pin the receiver's trust probabilities.  Degenerate when the
    receiver's tables do not depend on the message (equal posterior targets).
    """
    u_s, u_r = prm.sender_utils, prm.receiver_utils
    p = prm.prior
    if not 1e-12 < p < 1.0 - 1e-12:
        return []
    targets = []
    for m in range(2):
        g_att = u_r[ATTACKER, m, TRUST] - u_r[ATTACKER, m, REJECT]
        g_def = u_r[DEFENDER, m, TRUST] - u_r[DEFENDER, m, REJECT]
        if abs(g_def - g_att) < 1e-15:
            return []
        mu = g_def / (g_def - g_att)
        if not 1e-9 < mu < 1.0 - 1e-9:
            return []
        targets.append(mu)
    c0, c1 = ((1.0 - mu) / mu for mu in targets)
    if abs(c0 - c1) < 1e-15:
        return []
    x = ((1.0 - p) / p - c1) / (c0 - c1)  # attacker's weight on message 0
    if not 1e-12 < x < 1.0 - 1e-12:
        return []
    y = p * x * c0 / (1.0 - p)
    if not 1e-12 < y < 1.0 - 1e-12:
        return []
    delta = u_s[:, :, TRUST] - u_s[:, :, REJECT]
    rhs = u_s[:, 1, REJECT] - u_s[:, 0, REJECT]
    mat = np.column_stack((delta[:, 0], -delta[:, 1]))
    if abs(np.linalg.det(mat)) < 1e-15:
        return []
    q = np.linalg.solve(mat, rhs)
    if not np.all((q > -1e-12) & (q < 1.0 + 1e-12)):
        return []
    q = np.clip(q, 0.0, 1.0)
    sigma_s = np.array([[x, 1.0 - x], [y, 1.0 - y]])
    sigma_r = np.array([[q[0], 1.0 - q[0]], [q[1], 1.0 - q[1]]])
    beliefs = _ref_posterior(prm.prior, sigma_s, 0.0)
    sender_vals, rv = _ref_mixing_values(prm.prior, sigma_s, sigma_r, u_s, u_r)
    return [SignalingOutcome(sigma_s, sigma_r, beliefs, sender_vals, rv, "mixed")]


def _ref_supported_pooling(prm: SignalingParams) -> list[SignalingOutcome]:
    """Pooling held up by off-path beliefs other than the prior.

    Off the path any belief is admissible, so the receiver's off-path trust
    probability can be anything its possible beliefs rationalize: a pure
    action, or any mixture when some belief makes it indifferent.  Within
    the q-interval that deters both sender types, the value closest to the
    passive-belief response is chosen and the rationalizing belief stored.
    """
    u_s, u_r = prm.sender_utils, prm.receiver_utils
    pi = np.array([prm.prior, 1.0 - prm.prior])
    found = []
    for m in range(2):
        m_off = 1 - m
        a_on = _ref_receiver_br(pi, u_r, m)
        base = [float(u_s[t, m, a_on]) for t in range(2)]
        lo, hi = 0.0, 1.0
        feasible = True
        for t in range(2):
            slope = float(u_s[t, m_off, TRUST] - u_s[t, m_off, REJECT])
            level = base[t] - float(u_s[t, m_off, REJECT])
            # need slope*q <= level for q in the deterrence interval
            if slope > 1e-15:
                hi = min(hi, level / slope)
            elif slope < -1e-15:
                lo = max(lo, level / slope)
            elif level < -1e-12:
                feasible = False
                break
        if not feasible or lo > hi + 1e-12:
            continue
        g_att = float(u_r[ATTACKER, m_off, TRUST] - u_r[ATTACKER, m_off, REJECT])
        g_def = float(u_r[DEFENDER, m_off, TRUST] - u_r[DEFENDER, m_off, REJECT])
        if min(g_att, g_def) >= 0.0:
            rationalizable = (1.0, 1.0)  # trust at every belief
        elif max(g_att, g_def) < 0.0:
            rationalizable = (0.0, 0.0)
        else:
            rationalizable = (0.0, 1.0)
        lo = max(lo, rationalizable[0])
        hi = min(hi, rationalizable[1])
        if lo > hi + 1e-12:
            continue
        q_passive = 1.0 if _ref_receiver_br(pi, u_r, m_off) == TRUST else 0.0
        q_off = min(max(q_passive, lo), hi)
        belief_off = _ref_rationalizing_belief(q_off, g_att, g_def, prm.prior)
        if belief_off is None:
            continue
        sigma_s = np.zeros((2, 2))
        sigma_s[:, m] = 1.0
        sigma_r = np.zeros((2, 2))
        sigma_r[m, a_on] = 1.0
        sigma_r[m_off, TRUST] = q_off
        sigma_r[m_off, REJECT] = 1.0 - q_off
        beliefs = _ref_posterior(prm.prior, sigma_s)
        beliefs[m_off] = np.array([belief_off, 1.0 - belief_off])
        sender_vals, rv = _ref_values(prm.prior, sigma_s, sigma_r, u_s, u_r)
        found.append(
            SignalingOutcome(sigma_s, sigma_r, beliefs, sender_vals, rv, "pooling")
        )
    return found


def _ref_rationalizing_belief(q, g_att, g_def, prior):
    """A belief P(attacker) under which trust probability q is a best response."""

    def gap(mu):
        return mu * g_att + (1.0 - mu) * g_def

    if q >= 1.0 - 1e-12:  # trust: needs weak preference (ties go to trust)
        for mu in (prior, 0.0, 1.0):
            if gap(mu) >= 0.0:
                return mu
        return None
    if q <= 1e-12:  # reject: needs strict preference
        for mu in (prior, 1.0, 0.0):
            if gap(mu) < 0.0:
                return mu
        return None
    if abs(g_def - g_att) < 1e-15:
        return None
    mu = g_def / (g_def - g_att)  # indifference point
    return mu if -1e-9 <= mu <= 1.0 + 1e-9 else None


def reference_signaling_equilibrium(prm: SignalingParams) -> SignalingOutcome:
    """The trust-game solver on numpy arrays, as it was before the float one."""
    candidates = _ref_pure_equilibria(prm) + _ref_hybrid_equilibria(prm)
    if not candidates:
        candidates = _ref_mixed_equilibria(prm)
    if not candidates:
        candidates = _ref_supported_pooling(prm)
    if not candidates:
        raise RuntimeError("no equilibrium with passive or supported beliefs")

    def key(out: SignalingOutcome):
        return (
            gne._KIND_RANK[out.kind],
            -out.receiver_value,
            (
                out.sender_strategy[ATTACKER, 0],
                out.sender_strategy[DEFENDER, 0],
                out.receiver_strategy[0, TRUST],
                out.receiver_strategy[1, TRUST],
            ),
        )

    return min(candidates, key=key)


def assert_signaling_matches_reference(prior, u_s, u_r):
    prm = SignalingParams(prior, u_s, u_r)
    try:
        want = reference_signaling_equilibrium(prm)
    except RuntimeError:
        # the reference finds no equilibrium; the solver's last layer must
        check_pbe(prm, signaling_equilibrium(prm))
        return "raise"
    got = signaling_equilibrium(prm)
    assert got.kind == want.kind
    for name in ("sender_strategy", "receiver_strategy", "beliefs"):
        assert getattr(got, name).tobytes() == getattr(want, name).tobytes()
    # repr writes every float with all its bits, and tells -0.0 from 0.0
    assert repr(got.sender_values) == repr(want.sender_values)
    assert repr(got.receiver_value) == repr(want.receiver_value)
    return got.kind


def ulp_neighbours(x, k):
    """x and the k floats on either side of it."""
    out = [x]
    below = above = x
    for _ in range(k):
        below, above = math.nextafter(below, -math.inf), math.nextafter(above, math.inf)
        out += [below, above]
    return out


def indifference_priors(u_r):
    """Each message's prior at which the receiver is indifferent, if in [0, 1]."""
    priors = []
    for m in range(2):
        g_att = u_r[ATTACKER, m, TRUST] - u_r[ATTACKER, m, REJECT]
        g_def = u_r[DEFENDER, m, TRUST] - u_r[DEFENDER, m, REJECT]
        if g_def != g_att and 0.0 <= g_def / (g_def - g_att) <= 1.0:
            priors.append(float(g_def / (g_def - g_att)))
    return priors


def test_signaling_matches_numpy_reference_around_the_demo_threshold():
    kinds = {
        assert_signaling_matches_reference(prior, DEMO_SENDER, DEMO_RECEIVER)
        for prior in ulp_neighbours(1.0 / 9.0, 3000) + [0.0, 0.1, 0.3, 1.0]
    }
    assert kinds == {"separating", "pooling", "hybrid"}


@pytest.mark.parametrize(
    "seed, kind", [(0, "pooling"), (2, "separating"), (20, "hybrid"), (22, "mixed")]
)
def test_signaling_matches_numpy_reference_on_each_kind(seed, kind):
    rng = np.random.default_rng(seed)
    u_s = rng.uniform(-1.0, 1.0, size=(2, 2, 2))
    u_r = rng.uniform(-1.0, 1.0, size=(2, 2, 2))
    prior = float(rng.uniform())
    assert assert_signaling_matches_reference(prior, u_s, u_r) == kind


def test_signaling_finds_an_equilibrium_where_the_numpy_reference_raises():
    u_s = np.array([[[-1.0, 0.9], [0.6, -0.3]], [[0.4, 0.5], [0.6, -0.8]]])
    u_r = np.array([[[-0.4, -0.4], [0.2, 0.2]], [[0.8, 0.5], [-0.2, 0.6]]])
    with pytest.raises(RuntimeError, match="no equilibrium with passive or supported beliefs"):
        reference_signaling_equilibrium(SignalingParams(0.5, u_s, u_r))
    assert assert_signaling_matches_reference(0.5, u_s, u_r) == "raise"


# tables of a scan of ENTRIES tables where the numpy reference finds no
# equilibrium, as (sender, receiver, priors): the first with no tie, where
# the hybrid's share rounds to exactly 1; the last two only with a mixing
# sender type and the receiver mixing at a tied row
REFERENCE_RAISES = [
    ([[[0.2, 0.5], [-1, 1]], [[-0.5, -3], [4.8, -1]]],
     [[[4.8, 0.2], [-0.5, -1]], [[0.5, -3], [-5, -3]]], [0.8]),
    ([[[4.8, 1], [2, 4.8]], [[-0.5, 4.8], [2, 1]]],
     [[[0.5, 2], [0, -5]], [[0.5, -0.5], [0, 0.2]]], [0.4]),
    ([[[-3, 2], [2, -1]], [[0.2, -1], [0.5, -0.5]]],
     [[[2, 1], [0.2, 0.2]], [[-3, -0.5], [0.5, 1]]], np.linspace(0.0, 1.0, 41)[29:40]),
    ([[[0.5, -1], [-0.5, 2]], [[-3, 0.5], [-3, 4.8]]],
     [[[-5, -1], [-1, 2]], [[0.5, 0.5], [0, -3]]], np.linspace(0.0, 1.0, 41)[1:21]),
]


@pytest.mark.parametrize("u_s, u_r, priors", REFERENCE_RAISES)
def test_scan_tables_without_a_reference_equilibrium_get_one(u_s, u_r, priors):
    kinds = set()
    game = gne._TrustGame(u_s, u_r)
    for prior in priors:
        prm = SignalingParams(float(prior), u_s, u_r)
        with pytest.raises(RuntimeError):
            reference_signaling_equilibrium(prm)
        out = signaling_equilibrium(prm)
        check_pbe(prm, out)
        kinds.add(out.kind)
        # the last layer's selections are never held in the values memo
        assert game.lookup(prm.prior)[0] == out.sender_values
    assert kinds <= {"pooling", "hybrid"} and not game.memo


def test_signaling_matches_numpy_reference_on_subnormal_receiver_tables():
    # products of subnormal numbers round by an absolute amount, so a gap
    # within a few of them of a tie is left to numpy's dot
    for seed in range(130):
        rng = np.random.default_rng(seed)
        u_s = rng.uniform(-1.0, 1.0, size=(2, 2, 2))
        u_r = rng.integers(-6, 7, size=(2, 2, 2)) * 5e-324
        for prior in (0.25, 0.5, 0.75):
            assert_signaling_matches_reference(prior, u_s, u_r)

TABLE_STYLES = ["random", "tenths", "message-free", "message-free tenths", "entries"]
# few and coarse entries, so that receiver rows and sender payoffs tie
ENTRIES = np.array([-5.0, -3.0, -1.0, -0.5, 0.0, 0.2, 0.5, 1.0, 2.0, 4.8])


def random_tables(rng, style):
    if style == "entries":
        return tuple(rng.choice(ENTRIES, size=(2, 2, 2, 2)))
    u_s = rng.uniform(-1.0, 1.0, size=(2, 2, 2))
    u_r = rng.uniform(-1.0, 1.0, size=(2, 2, 2))
    if style.startswith("message-free"):
        u_r[:, 1, :] = u_r[:, 0, :]  # the receiver's payoffs ignore the message
    if style.endswith("tenths"):  # coarse tables tie often
        u_s, u_r = np.round(u_s, 1), np.round(u_r, 1)
    return u_s, u_r


@settings(max_examples=300, deadline=None, derandomize=True)
@given(seed=st.integers(0, 2**32 - 1), style=st.sampled_from(TABLE_STYLES))
def test_signaling_matches_numpy_reference_on_random_tables(seed, style):
    rng = np.random.default_rng(seed)
    u_s, u_r = random_tables(rng, style)
    priors = [0.0, 1.0, float(rng.uniform())]
    for mu in indifference_priors(u_r):
        priors += [p for p in ulp_neighbours(mu, 3) if 0.0 <= p <= 1.0]
    for prior in priors:
        assert_signaling_matches_reference(prior, u_s, u_r)


# priors where a branch of the trust-game solver switches: a type's mass
# against the posterior's 1e-15 floor and the 1e-12 floors of the hybrid and
# mixed constructions, and the demo receiver's indifference prior 1/9
BRANCH_PRIORS = [
    0.0, 1.0, 1e-16, 1.0 - 1e-12,
    *ulp_neighbours(1e-15, 1), *ulp_neighbours(1e-12, 1),
    *ulp_neighbours(1.0 - 1e-15, 1), *ulp_neighbours(1.0 - 1e-12, 1),
    *ulp_neighbours(1.0 / 9.0, 4),
]


@settings(max_examples=150, deadline=None, derandomize=True)
@given(seed=st.integers(0, 2**32 - 1), style=st.sampled_from(["demo", *TABLE_STYLES]))
def test_prepared_game_matches_numpy_reference_at_branch_priors(seed, style):
    rng = np.random.default_rng(seed)
    u_s, u_r = (DEMO_SENDER, DEMO_RECEIVER) if style == "demo" else random_tables(rng, style)
    game = gne._TrustGame(u_s, u_r)  # one set-up serves every prior, as in gne_solve
    priors = BRANCH_PRIORS + [float(rng.uniform())]
    for mu in indifference_priors(u_r):
        priors += [p for p in ulp_neighbours(mu, 2) if 0.0 <= p <= 1.0]
    for prior in priors:
        assert_prepared_matches_reference(game, prior, u_s, u_r)


def assert_prepared_matches_reference(game, prior, u_s, u_r):
    """The prepared game's solve at ``prior`` has the numpy reference's bits,
    and values among those of its layer group's plans, which gne_solve takes
    its candidate priors from."""
    sig = game.solve(prior)
    assert sig.sender_values in game.values(sig.selection[0] == gne._TIED)
    prm = SignalingParams(prior, u_s, u_r)
    try:
        want = reference_signaling_equilibrium(prm)
    except RuntimeError:
        # the reference finds no equilibrium; the solver's last layer must
        check_pbe(prm, game.solve(prior).outcome())
        return "raise"
    got = game.solve(prior).outcome()
    assert got.kind == want.kind
    for name in ("sender_strategy", "receiver_strategy", "beliefs"):
        assert getattr(got, name).tobytes() == getattr(want, name).tobytes()
    assert [v.hex() for v in got.sender_values] == [v.hex() for v in want.sender_values]
    assert got.receiver_value.hex() == want.receiver_value.hex()
    return got


def ulp_shifted_tables(rng):
    """Message-free tables whose message-1 receiver columns are message 0's
    moved by an ulp or two, so the two pooling candidates' receiver values
    tie or differ in the last bits."""
    u_s, u_r = random_tables(rng, "message-free")
    for a in range(2):
        k = int(rng.choice([0, 0, 1, 2, 3, 4]))  # equal, or 1 or 2 ulp either way
        u_r[:, 1, a] = [ulp_neighbours(float(x), 2)[k] for x in u_r[:, 0, a]]
    return u_s, u_r


SIGNED_ENTRIES = np.array([0.0, -0.0, 0.5, -0.5, 1.0, -1.0])


def test_pooling_candidates_whose_values_tie_within_rounding_match_the_reference():
    # the strategy profile or the last bit of the receiver values decides
    # between the two pooling candidates
    rng = np.random.default_rng(19)
    kinds = set()
    for _ in range(100):
        u_s, u_r = ulp_shifted_tables(rng)
        game = gne._TrustGame(u_s, u_r)
        for prior in [*BRANCH_PRIORS, *rng.uniform(size=8).tolist()]:
            got = assert_prepared_matches_reference(game, prior, u_s, u_r)
            if got != "raise":
                kinds.add(got.kind)
    assert "pooling" in kinds


def test_tables_with_signed_zeros_match_the_reference_at_priors_0_and_1():
    # signed zeros in the tables and at the priors reach the values and the
    # beliefs; the sign of each zero must be the reference's
    rng = np.random.default_rng(23)
    for _ in range(200):
        u_s, u_r = rng.choice(SIGNED_ENTRIES, size=(2, 2, 2, 2))
        game = gne._TrustGame(u_s, u_r)
        for prior in (0.0, -0.0, 1.0, 0.5, float(rng.uniform())):
            assert_prepared_matches_reference(game, prior, u_s, u_r)


def sender_values_or_error(values, prior):
    try:
        return [v.hex() for v in values(prior)]
    except RuntimeError as exc:
        return str(exc)


MEMO_STYLES = ["demo", *TABLE_STYLES, "ulp-shifted", "signed zeros"]


def memo_tables_and_priors(seed, style):
    """Tables of ``style`` and the priors where a memo could go wrong: both
    ends of every band, each band's middle (its breakpoint, where the band
    was not merged), the receiver's indifference priors, -0.0, the branch
    priors and random ones."""
    rng = np.random.default_rng(seed)
    if style == "demo":
        u_s, u_r = DEMO_SENDER, DEMO_RECEIVER
    elif style == "ulp-shifted":
        u_s, u_r = ulp_shifted_tables(rng)
    elif style == "signed zeros":
        u_s, u_r = rng.choice(SIGNED_ENTRIES, size=(2, 2, 2, 2))
    else:
        u_s, u_r = random_tables(rng, style)
    edges = gne._TrustGame(u_s, u_r)._band_edges()
    middles = [(lo + hi) / 2 for lo, hi in zip(edges[::2], edges[1::2])]
    centres = [x for x in edges + middles if math.isfinite(x)] + indifference_priors(u_r)
    priors = [p for x in centres for p in ulp_neighbours(x, 4)]
    priors += [-0.0, *BRANCH_PRIORS, *rng.uniform(size=20).tolist()]
    return u_s, u_r, [p for p in priors if 0.0 <= p <= 1.0]


def memo_cases(test):
    """``test`` on 300 table pairs of MEMO_STYLES, and on tables that need
    one family of bands each: the 1e-15 and 1e-12 floors and bands of some
    width (demo), the passive responses (0), the separating profiles'
    receiver values (62), the pooled messages' (103, 22), a hybrid's share
    at 1e-12 (46) and the mixed construction's bounds (22, tenths); and two
    hybrids whose order swaps inside an interval, which no band marks (1905)."""
    for seed, style in [(1905, "random"), (22, "tenths"), (46, "random"), (22, "ulp-shifted"),
                        (103, "random"), (62, "random"), (0, "random"), (0, "demo")]:
        test = example(seed=seed, style=style)(test)
    test = given(seed=st.integers(0, 2**32 - 1), style=st.sampled_from(MEMO_STYLES))(test)
    return settings(max_examples=300, deadline=None, derandomize=True)(test)


@memo_cases
def test_memoized_values_match_a_full_solve(seed, style):
    u_s, u_r, priors = memo_tables_and_priors(seed, style)
    # a memo taken in a narrow interval and read in a wide one, and one
    # taken in a wide interval and read in a narrow one
    for order in (priors, priors[::-1]):
        game = gne._TrustGame(u_s, u_r)
        for prior in order:
            assert sender_values_or_error(
                lambda p: game.lookup(p)[0], prior
            ) == sender_values_or_error(
                lambda p: game.solve(p).sender_values, prior
            ), prior


@memo_cases
def test_candidates_built_from_memoized_selections_match_a_full_solve(seed, style):
    # every field but held, which ranks a selection against its rivals, bit
    # for bit (floats by repr), in both fill orders as above
    u_s, u_r, priors = memo_tables_and_priors(seed, style)
    for order in (priors, priors[::-1]):
        game = gne._TrustGame(u_s, u_r)
        for prior in order:
            got, want = game.build(prior, *game.lookup(prior)[1]), game.solve(prior)
            assert repr(got[:-1]) == repr(want[:-1]), prior
            # an interval keeps only a selection the solve marks held
            if 0.0 < prior < 1.0 and bisect.bisect_right(game.bands(), prior) in game.memo:
                assert want.held, prior


def test_values_solve_once_per_interval_of_a_pooling_selection(monkeypatch):
    game = gne._TrustGame(DEMO_SENDER, DEMO_RECEIVER)
    kinds = []
    solve = gne._TrustGame.solve

    def count(self, prior):
        out = solve(self, prior)
        kinds.append(out.kind)
        return out

    monkeypatch.setattr(gne._TrustGame, "solve", count)
    # the demo selects supported pooling on (0, 1/9) and a hybrid above
    pooled = {game.lookup(p)[0] for p in np.linspace(0.01, 0.1, 10)}
    assert pooled == {(0.2, 0.9)} and kinds == ["pooling"]
    # so are those of a hybrid with no rival in its layer
    for prior in (0.2, 0.3, 0.2):
        assert game.lookup(prior)[0] == (0.0, 0.7000000000000001)
    assert kinds == ["pooling", "hybrid"]


def test_band_edges_are_set_up_by_gne_solve_alone(monkeypatch):
    gne._prepared_game.cache_clear()
    calls = []
    band_edges = gne._TrustGame._band_edges

    def spy(self):
        calls.append(self)
        return band_edges(self)

    monkeypatch.setattr(gne._TrustGame, "_band_edges", spy)
    for prior in (0.0, 0.1, 0.3):
        signaling_equilibrium(SignalingParams(prior, DEMO_SENDER, DEMO_RECEIVER))
    assert calls == []
    gne_solve(DEMO_COSTS, DEMO_SENDER, DEMO_RECEIVER)
    assert len(calls) == 1
    # equal tables, as new arrays or nested lists, share the prepared game
    gne_solve(DEMO_COSTS, DEMO_SENDER.copy(), DEMO_RECEIVER.copy())
    gne_solve(DEMO_COSTS, DEMO_SENDER.tolist(), DEMO_RECEIVER.tolist())
    assert len(calls) == 1
    # a table one ulp or a signed zero away is another game
    ulp, signed = DEMO_SENDER.copy(), DEMO_SENDER.copy()
    ulp[ATTACKER, 0, TRUST] = math.nextafter(1.0, 2.0)
    signed[ATTACKER, 0, REJECT] = -0.0
    for u_s in (ulp, signed):
        gne_solve(DEMO_COSTS, u_s, DEMO_RECEIVER)
    assert len(calls) == 3
    signaling_equilibrium(SignalingParams(0.3, DEMO_SENDER, DEMO_RECEIVER[::-1]))
    assert len(calls) == 3


def test_each_both_mixing_plan_is_built_once_per_table_pair(monkeypatch):
    # the plan ignores the receiver's responses, so one key holds it; the
    # first three layers' values match an enumeration under every key
    built = []
    plan = gne._TrustGame._plan

    def spy(self, *key):
        built.append(key)
        return plan(self, *key)

    monkeypatch.setattr(gne._TrustGame, "_plan", spy)
    rng = np.random.default_rng(5)
    mixed = 0
    for _ in range(100):
        u_s, u_r = random_tables(rng, "random")
        game = gne._TrustGame(u_s, u_r)
        built.clear()
        keys = [(k, pair) for k in range(3) for pair in gne._LAYER_PAIRS[k]]
        every = [plan(game, *key, *r) for key in keys for r in product(range(2), repeat=2)]
        want = list(dict.fromkeys(p[1] for p in every if p))
        assert repr(game.values(False)) == repr(want)
        game.bands()
        for prior in np.linspace(0.0, 1.0, 21):
            game.solve(prior)
        assert [key for key in built if key[0] == gne._BOTH_MIXING] == [
            (gne._BOTH_MIXING, (gne._MIX, gne._MIX), TRUST, TRUST)
        ]
        mixed += game.plan(gne._BOTH_MIXING, (gne._MIX, gne._MIX), TRUST, TRUST) is not None
    assert mixed == 7


def test_a_prior_sweep_on_fixed_tables_builds_each_plan_once(monkeypatch):
    gne._prepared_game.cache_clear()
    built = []
    plan = gne._TrustGame._plan

    def spy(self, *key):
        built.append(key)
        return plan(self, *key)

    monkeypatch.setattr(gne._TrustGame, "_plan", spy)
    priors = np.linspace(0.0, 1.0, 41)
    for _ in range(2):
        for prior in priors:
            signaling_equilibrium(SignalingParams(prior, DEMO_SENDER, DEMO_RECEIVER))
        assert len(built) == len(set(built)) > 0


def signaling_afresh(prm):
    """:func:`signaling_equilibrium` on a game set up for this call alone."""
    return gne._TrustGame(prm.sender_utils, prm.receiver_utils).solve(prm.prior).outcome()


def state_bits(state):
    """Every field of a GNEState, floats by repr (all their bits, and the
    sign of a zero) and arrays by their bytes."""
    sig = state.signaling
    arrays = (sig.sender_strategy, sig.receiver_strategy, sig.beliefs)
    fields = {**vars(state), "signaling": (*(a.tobytes() for a in arrays), sig.kind,
                                           repr(sig.sender_values), repr(sig.receiver_value))}
    return {name: repr(value) for name, value in fields.items()}


def test_a_table_changed_after_a_solve_leaves_the_prepared_game_alone(monkeypatch):
    # the reference solves each stage on a game of its own
    monkeypatch.setitem(globals(), "signaling_equilibrium", signaling_afresh)
    gne._prepared_game.cache_clear()
    u_s, u_r = DEMO_SENDER.copy(), DEMO_RECEIVER.copy()
    before = assert_matches_reference(DEMO_COSTS, u_s, u_r)
    assert not np.shares_memory(gne._trust_game(u_s, u_r).sender_utils, u_s)
    u_s[ATTACKER, 0, TRUST], u_r[ATTACKER, 0, TRUST] = 0.5, -2.0
    changed = assert_matches_reference(DEMO_COSTS, u_s, u_r)
    assert changed.control_fraction != before.control_fraction
    again = assert_matches_reference(DEMO_COSTS, DEMO_SENDER, DEMO_RECEIVER)
    assert state_bits(again) == state_bits(before)


def test_the_prepared_game_cache_is_bounded():
    gne._prepared_game.cache_clear()
    for k in range(40):
        signaling_equilibrium(SignalingParams(0.3, DEMO_SENDER + k, DEMO_RECEIVER))
    info = gne._prepared_game.cache_info()
    assert (info.misses, info.hits) == (40, 0)
    assert info.currsize == info.maxsize <= 8


def test_interleaved_cost_sweeps_on_two_table_pairs_match_the_reference(monkeypatch):
    monkeypatch.setitem(globals(), "signaling_equilibrium", signaling_afresh)
    gne._prepared_game.cache_clear()
    tables = [(DEMO_SENDER, DEMO_RECEIVER), random_tables(np.random.default_rng(7), "random")]
    for attack, defense in product((0.3, 0.6), (0.1, 0.2, 0.5)):
        for u_s, u_r in tables:
            assert_matches_reference(GNECosts(attack, defense), u_s, u_r)


@pytest.mark.parametrize("style", ["demo", "random"])
def test_threads_solving_the_same_tables_get_the_reference_results(style):
    tables = (DEMO_SENDER, DEMO_RECEIVER)
    if style == "random":  # pooling and separating selections, which the memo keeps
        tables = random_tables(np.random.default_rng(7), "random")
    # the last cell has no fixed point
    costs = [GNECosts(a, d) for a, d in [*product((0.3, 0.5, 0.8), (0.1, 0.3)), (0.2, 0.5)]]
    want = [state_bits(reference_gne_solve(cost, *tables)) for cost in costs]
    gne._prepared_game.cache_clear()
    gne._trust_game(*tables)  # one shared game, whose bands and values the threads race to set up
    workers = 4  # more than the cores of a small host, racing to set the game up
    start = threading.Barrier(workers)

    def sweep(shift):
        start.wait(timeout=60)
        order = [(i + shift) % len(costs) for i in range(len(costs))]
        return {i: state_bits(gne_solve(costs[i], *tables)) for i in order}

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            futures = [pool.submit(sweep, 2 * k) for k in range(workers)]
            runs = [f.result(timeout=120) for f in futures]
    finally:
        sys.setswitchinterval(interval)
    for got in runs:
        assert [got[i] for i in range(len(costs))] == want


def test_a_second_cost_sweep_solves_the_trust_game_only_inside_a_band(monkeypatch):
    # a sweep run again finds each candidate's selection in the shared memo,
    # and builds the reported state from it, but for a prior inside the band
    # around 1/9, the demo receiver's indifference prior: a candidate at
    # (0.5, 0.1), and the reported fixed point at (0.3, 0.3)
    costs = [GNECosts(a, d) for a, d in product((0.3, 0.5, 0.8), (0.1, 0.2, 0.3))]
    want = [state_bits(reference_gne_solve(cost, DEMO_SENDER, DEMO_RECEIVER)) for cost in costs]
    gne._prepared_game.cache_clear()
    solved = []
    solve = gne._TrustGame.solve

    def spy(self, prior):
        solved.append(prior)
        return solve(self, prior)

    monkeypatch.setattr(gne._TrustGame, "solve", spy)
    for sweep in range(2):
        for cost, bits in zip(costs, want):
            solved.clear()
            state = gne_solve(cost, DEMO_SENDER, DEMO_RECEIVER)
            assert state_bits(state) == bits
            if sweep:
                banded = cost in (GNECosts(0.5, 0.1), GNECosts(0.3, 0.3))
                assert solved == [0.11111111111111112] * banded
    assert bisect.bisect_right(gne._trust_game(DEMO_SENDER, DEMO_RECEIVER).bands(), 1 / 9) % 2


@pytest.mark.parametrize("starts", [(-0.0, 0.0), (0.0, -0.0)])
def test_starts_at_both_signed_zeros_match_the_reference(starts):
    # -0.0 and 0.0 rank the candidates alike
    rng = np.random.default_rng(23)
    tables = [(DEMO_SENDER, DEMO_RECEIVER)]
    tables += [tuple(rng.choice(SIGNED_ENTRIES, size=(2, 2, 2, 2))) for _ in range(4)]
    gne._prepared_game.cache_clear()
    for p0 in starts:
        for u_s, u_r in tables:
            assert_matches_reference(DEMO_COSTS, u_s, u_r, p0=p0)


def test_the_values_memo_holds_an_int_key_per_gap_interval_at_most():
    game = gne._TrustGame(DEMO_SENDER, DEMO_RECEIVER)
    gaps = len(game.bands()) // 2 + 1  # the even intervals of bisect_right
    # the demo selects a lone hybrid above 1/9 and supported pooling below
    priors = np.linspace(0.2, 0.9, 300).tolist() + np.linspace(0.01, 0.1, 100).tolist()
    for prior in priors:
        assert repr(game.lookup(prior)[0]) == repr(game.solve(prior).sender_values), prior
        assert all(type(key) is int for key in game.memo)
        assert len(game.memo) <= gaps
    assert len(game.memo) == 2


BAD_TABLES = [
    (np.zeros((2, 2)), "must have shape (2, 2, 2)"),
    (np.where(np.eye(2, dtype=bool)[None], np.nan, DEMO_RECEIVER), "must be finite"),
    (np.full((2, 2, 2), -np.inf), "must be finite"),
]


@pytest.mark.parametrize("bad, error", BAD_TABLES)
@pytest.mark.parametrize("name", ["sender_utils", "receiver_utils"])
def test_bad_tables_raise_the_same_errors_in_both_solvers(name, bad, error):
    tables = {"sender_utils": DEMO_SENDER, "receiver_utils": DEMO_RECEIVER, name: bad}
    message = f"^{re.escape(f'{name} {error}')}$"
    with pytest.raises(ValueError, match=message):
        signaling_equilibrium(SignalingParams(0.5, **tables))
    with pytest.raises(ValueError, match=message):
        gne_solve(DEMO_COSTS, tables["sender_utils"], tables["receiver_utils"])
    # with both tables bad, both solvers name the sender's first
    with pytest.raises(ValueError, match="^sender_utils"):
        SignalingParams(0.5, bad, bad)
    with pytest.raises(ValueError, match="^sender_utils"):
        gne_solve(DEMO_COSTS, bad, bad)


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
    gne._prepared_game.cache_clear()
    state = assert_matches_reference(DEMO_COSTS, DEMO_SENDER, DEMO_RECEIVER)
    assert state.converged and state.verified
    assert state.control_fraction == pytest.approx(2.0 / 27.0, abs=1e-6)
    assert state.attacker_value == pytest.approx(0.2)
    assert state.defender_value == pytest.approx(0.9)
    assert state.flipit.defender_rate == pytest.approx(1.0 / 3.0, abs=1e-6)
    assert state.flipit.is_equilibrium
    assert state.signaling.kind == "pooling"
    # a fixed point among the first three layers' candidates: no last layer
    assert state.residual == 0.0 and state.iterations == 3
    assert list(gne._trust_game(DEMO_SENDER, DEMO_RECEIVER).candidates) == [False]


def test_gne_damping_invariance():
    # damping scales only the residual, which is 0.0 at the fixed point
    bits = [state_bits(gne_solve(DEMO_COSTS, DEMO_SENDER, DEMO_RECEIVER, damping=d))
            for d in (0.25, 0.5, 1.0)]
    assert bits[0] == bits[1] == bits[2]


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


def test_gne_rejects_bad_solver_settings():
    with pytest.raises(ValueError):
        gne_solve(DEMO_COSTS, DEMO_SENDER, DEMO_RECEIVER, damping=0.0)
    with pytest.raises(ValueError):
        gne_solve(DEMO_COSTS, DEMO_SENDER, DEMO_RECEIVER, p0=1.5)
    for unread in ({"tol": 0.0}, {"max_iters": 0}):  # checked, though not read
        with pytest.raises(ValueError, match="^tol must be > 0 and max_iters >= 1$"):
            gne_solve(DEMO_COSTS, DEMO_SENDER, DEMO_RECEIVER, **unread)
    # bad move costs are rejected as the timing game does, before 0 / 0
    with pytest.raises(ValueError, match="^defense_cost must be > 0$"):
        gne_solve(GNECosts(0.0, 0.0), DEMO_SENDER, DEMO_RECEIVER)


@pytest.mark.parametrize("costs", [GNECosts(1e-310, 0.2), GNECosts(0.3, 1e-310)])
def test_gne_solve_rejects_a_move_cost_beyond_the_value_per_cost_bound(costs):
    # the rule gne_from_dict reports with the field; it once surfaced as
    # numpy's "Geometric sequence cannot include zero"
    with pytest.raises(ValueError, match=r"^max \|sender_utils\| / cost must be <= "):
        gne_solve(costs, DEMO_SENDER, DEMO_RECEIVER)


def reference_gne_solve(costs, u_s, u_r, damping=0.5, p0=0.5):
    """The exact check with both games solved afresh at each candidate prior
    h(v), v a plan's sender values: nearest p0 first, the smaller on a tie,
    and the last layer's plans only if the first three's give no fixed
    point; without one, the checked candidate nearest p0."""

    def timing(values):
        v_a, v_d = (max(0.0, v) for v in values)
        prm = FlipItParams(costs.attack_cost, costs.defense_cost, v_a, v_d)
        return v_a, v_d, flipit_equilibrium(prm)

    def fixed(p):
        checked.append(p)
        sig = signaling_equilibrium(SignalingParams(p, u_s, u_r))
        return timing(sig.sender_values)[2].control_fraction == p

    def near(p):
        return abs(p - p0), p

    game = gne._TrustGame(u_s, u_r)  # its plans only, on a game of its own
    checked, p = [], None
    for layers, n in (([0, 1, 2], 2), ([3], 4)):
        keys = [(k, pair) for k in layers for pair in gne._LAYER_PAIRS[k]]
        plans = [game._plan(*key, *r) for key in keys for r in product(range(n), repeat=2)]
        fresh = {timing(plan[1])[2].control_fraction for plan in plans if plan is not None}
        p = next((q for q in sorted(fresh - set(checked), key=near) if fixed(q)), None)
        if p is not None:
            break
    converged = p is not None
    p = p if converged else min(checked, key=near)
    sig = signaling_equilibrium(SignalingParams(p, u_s, u_r))
    v_a, v_d, flip = timing(sig.sender_values)
    residual = damping * abs(flip.control_fraction - p)
    verified = converged and flip.is_equilibrium
    return gne.GNEState(p, v_a, v_d, flip, sig, residual, len(checked), converged, verified)


def assert_matches_reference(costs, u_s, u_r, **solver):
    want = reference_gne_solve(costs, u_s, u_r, **solver)
    got = gne_solve(costs, u_s, u_r, **solver)
    assert state_bits(got) == state_bits(want)
    # a fixed point reproduces itself exactly, and nothing else is one
    p, replayed = want.control_fraction, want.flipit.control_fraction
    assert (replayed == p) == want.converged == (want.residual == 0.0)
    return got


@pytest.mark.parametrize("attack, defense", [
    (0.3, 0.2), (0.5, 0.1), (0.8, 0.4), (0.6, 0.6),  # a fixed point
    (0.2, 0.5), (0.3, 0.8), (0.5, 0.7), (0.2, 0.3),  # defense dearer: none
])
def test_gne_solve_matches_uncached_reference(attack, defense):
    got = assert_matches_reference(GNECosts(attack, defense), DEMO_SENDER, DEMO_RECEIVER)
    assert got.converged == (defense <= attack)


def test_the_demo_cost_grid_has_exact_fixed_points_or_none():
    # the damped iteration reported verified at equal costs 0.557...
    # (p = 0.11111110531621511), where pooling's h rounds to just above 1/9,
    # which selects the hybrid, whose h is 0: no fixed point
    grid = np.linspace(0.1, 0.9, 8).tolist()
    states = [assert_matches_reference(GNECosts(*c), DEMO_SENDER, DEMO_RECEIVER)
              for c in product(grid, grid)]
    none = [c for c, state in zip(product(grid, grid), states) if not state.converged]
    assert (sum(state.verified for state in states), len(none)) == (35, 29)
    assert (0.5571428571428572, 0.5571428571428572) in none


# tables, costs, p0, and the state's control fraction, converged, iterations
EXACT_CASES = [
    # no fixed point; 0.87 lies exactly midway between two candidates
    (DEMO_SENDER, DEMO_RECEIVER, (0.2, 0.5), 0.87, (0.8200000000000001, False, 5)),
    # ENTRIES tables (seed 215): the plan values (2.0, 2.0) and (4.8, 4.8)
    # give control fractions an ulp apart, and both priors select (4.8, 4.8)
    ([[[2.0, 4.8], [-1.0, -5.0]], [[0.2, 4.8], [4.8, 2.0]]],
     [[[-0.5, 0.2], [-0.5, -5.0]], [[1.0, 0.0], [4.8, 0.2]]],
     (0.2, 0.3), 0.5, (0.6666666666666666, True, 2)),
    # ENTRIES tables (seed 170): no fixed point among the first three
    # layers' 3 candidates, so the last layer's own is checked, the nearest
    ([[[1.0, 1.0], [0.5, 4.8]], [[-0.5, 2.0], [-0.5, 4.8]]],
     [[[-0.5, -3.0], [1.0, 4.8]], [[0.5, -5.0], [-5.0, -5.0]]],
     (0.2, 0.5), 0.5, (0.5999999999999999, False, 4)),
]


@pytest.mark.parametrize("u_s, u_r, costs, p0, want", EXACT_CASES, ids=["tie", "ulp", "last"])
def test_fixed_cases_of_the_exact_check(u_s, u_r, costs, p0, want):
    state = assert_matches_reference(GNECosts(*costs), np.array(u_s), np.array(u_r), p0=p0)
    assert (state.control_fraction, state.converged, state.iterations) == want


@settings(max_examples=40, deadline=None, derandomize=True)
@given(
    seed=st.integers(0, 2**32 - 1),
    damping=st.sampled_from([0.25, 0.5, 1.0]),
    p0=st.floats(0.0, 1.0),
)
@example(seed=0, damping=1.0, p0=0.0)
@example(seed=0, damping=1.0, p0=1.0)
@example(seed=7, damping=1.0, p0=0.0)
@example(seed=7, damping=1.0, p0=1.0)
@example(seed=2026, damping=0.5, p0=0.0)
@example(seed=2026, damping=0.5, p0=1.0)
# starts on breakpoints of the trust game: a receiver indifference prior, a
# band's lower end, where pooling gives way to a hybrid, a hybrid's share at
# 1e-12
@example(seed=7, damping=0.5, p0=0.6654678673300932)
@example(seed=7, damping=1.0, p0=0.5160689530990551)
@example(seed=2026, damping=0.5, p0=0.8683482871091496)
@example(seed=2026, damping=0.25, p0=6.595799386383759e-12)
def test_gne_solve_matches_uncached_reference_on_random_tables(seed, damping, p0):
    rng = np.random.default_rng(seed)
    costs = GNECosts(*(float(c) for c in rng.uniform(0.05, 1.0, size=2)))
    u_s = rng.uniform(-1.0, 1.0, size=(2, 2, 2))
    u_r = rng.uniform(-1.0, 1.0, size=(2, 2, 2))
    assert_matches_reference(costs, u_s, u_r, damping=damping, p0=p0)


@pytest.mark.parametrize("defense", [0.2, 0.5])
def test_gne_solve_skips_trust_game_solves_between_bands(monkeypatch, defense):
    # a cold sweep solves at a candidate prior only where no earlier cell's
    # memo holds its interval, and never again for the reported state.  At
    # defense 0.5 the first cell has no fixed point, and attack 0.6's is the
    # first in the pooling interval below 1/9
    gne._prepared_game.cache_clear()
    visited = []
    signaling = gne._TrustGame.solve
    monkeypatch.setattr(gne._TrustGame, "solve", lambda g, p: visited.append(p) or signaling(g, p))
    solves = []
    for attack in (0.3, 0.45, 0.6, 0.9):
        visited.clear()
        state = gne_solve(GNECosts(attack, defense), DEMO_SENDER, DEMO_RECEIVER)
        assert state.converged == (defense < attack)
        assert len(visited) <= state.iterations
        solves.append(len(visited))
    assert solves == {0.2: [2, 0, 0, 0], 0.5: [3, 0, 1, 0]}[defense]
