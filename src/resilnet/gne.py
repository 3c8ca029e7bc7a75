"""Coupled attack-timing and trust games over a contested command channel.

Two games share state.  A timing game decides how often an attacker and a
defender re-take control of a cloud service: with periodic strategies and
random phases, the attacker holds the resource a closed-form fraction of the
time.  A 2-type/2-message/2-action signaling game decides whether the device
trusts commands coming from that service, with the attacker's holding
fraction as the prior probability that the sender is malicious.

The composed equilibrium is a fixed point: the signaling equilibrium at
prior p yields each sender type's value of holding the service, those values
feed the timing game, and the resulting holding fraction must reproduce p.
It is found by damped fixed-point iteration, and verified by one more stage
at the converged point: the timing game's pair must be a certified mutual
best response there, and p must stay put to within the tolerance.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import product
from typing import Sequence

import numpy as np

__all__ = [
    "ATTACKER",
    "DEFENDER",
    "TRUST",
    "REJECT",
    "FlipItParams",
    "FlipItOutcome",
    "flipit_control_fraction",
    "flipit_equilibrium",
    "SignalingParams",
    "SignalingOutcome",
    "signaling_equilibrium",
    "PlantSpec",
    "physical_utilities",
    "GNECosts",
    "GNEState",
    "gne_solve",
]

ATTACKER, DEFENDER = 0, 1
TRUST, REJECT = 0, 1

_RATE_FLOOR = 1e-4
_GRID_POINTS = 200
_PAYOFF_TOL = 1e-12


# ---------------------------------------------------------------------------
# timing game
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class FlipItParams:
    """Move costs and per-unit-time values of holding the resource."""

    attack_cost: float
    defense_cost: float
    attacker_value: float
    defender_value: float

    def __post_init__(self) -> None:
        if self.defense_cost <= 0:
            raise ValueError("defense_cost must be > 0")
        if self.attack_cost <= 0:
            raise ValueError("attack_cost must be > 0")
        if self.attacker_value < 0 or self.defender_value < 0:
            raise ValueError("values must be >= 0")


@dataclass(frozen=True)
class FlipItOutcome:
    """Rates, attacker control fraction, payoffs, and search diagnostics.

    ``is_equilibrium`` is True when the pair is a mutual best response on the
    stored grids; ``dropped_out`` marks the attacker-exits outcome.
    """

    attacker_rate: float
    defender_rate: float
    control_fraction: float
    attacker_payoff: float
    defender_payoff: float
    is_equilibrium: bool
    dropped_out: bool
    iterations: int
    grid_attacker: tuple[float, ...]
    grid_defender: tuple[float, ...]


def flipit_control_fraction(alpha_a: float, alpha_d: float) -> float:
    """Long-run fraction of time the attacker holds the resource.

    Both players move periodically with uniformly random phases.  The slower
    mover's last move lands uniformly inside the faster mover's period, so the
    slower mover holds the resource a fraction slow / (2 fast) of the time.
    """
    if alpha_a < 0 or alpha_d < 0:
        raise ValueError("rates must be >= 0")
    return float(_holding(alpha_a, alpha_d))


def _holding(alpha_a, alpha_d) -> np.ndarray:
    """:func:`flipit_control_fraction` broadcast over arrays of rates."""
    slow, fast = np.minimum(alpha_a, alpha_d), np.maximum(alpha_a, alpha_d)
    half = np.divide(slow, 2.0 * fast, out=np.zeros_like(slow, dtype=float), where=fast > 0)
    return np.where(alpha_a <= alpha_d, half, 1.0 - half)


def _attacker_payoffs(grid: np.ndarray, alpha_d: float, prm: FlipItParams) -> np.ndarray:
    return prm.attacker_value * _holding(grid, alpha_d) - prm.attack_cost * grid


def _defender_payoffs(grid: np.ndarray, alpha_a: float, prm: FlipItParams) -> np.ndarray:
    return prm.defender_value * (1.0 - _holding(alpha_a, grid)) - prm.defense_cost * grid


def _argmax_with_ties(payoffs: np.ndarray, incumbent: int | None) -> int:
    best = float(np.max(payoffs))
    ties = np.flatnonzero(payoffs >= best - _PAYOFF_TOL)
    if incumbent is not None and incumbent in ties:
        return incumbent
    return int(ties[0])


def _rate_grid(lo: float, hi: float, points: int, extra: Sequence[float] = ()) -> np.ndarray:
    """The rate 0, a geometric grid on [lo, hi], and the positive extra rates."""
    base = np.concatenate(([0.0], np.geomspace(lo, hi, points)))
    pos = [r for r in extra if r > 0]
    return np.union1d(base, pos) if pos else base


def _equilibrium_candidate(prm: FlipItParams) -> tuple[float, float]:
    """Analytic rate pair where both linear-branch indifferences balance.

    With periodic play, the slower player's payoff is linear in its own
    rate, so at equilibrium that player is indifferent and the faster
    player's interior optimum pins both rates.  Which side is slower is
    decided by the cost/value ratios.  The candidate seeds (and is inserted
    into) the search grid; naive best-response dynamics orbit around this
    plateau instead of settling on it.
    """
    if prm.attacker_value <= 0:
        return 0.0, 0.0
    if prm.defender_value <= 0:
        # nothing worth defending: attacker flips at the cheapest rate
        return _RATE_FLOOR, 0.0
    ratio_a = prm.attack_cost / prm.attacker_value
    ratio_d = prm.defense_cost / prm.defender_value
    if ratio_a >= ratio_d:
        a_d = prm.attacker_value / (2.0 * prm.attack_cost)
        return a_d * ratio_d / ratio_a, a_d
    a_a = prm.defender_value / (2.0 * prm.defense_cost)
    return a_a, a_a * ratio_a / ratio_d


def _best_response_pair(
    grid_a: np.ndarray,
    grid_d: np.ndarray,
    prm: FlipItParams,
    start_a: int,
    start_d: int,
    max_iters: int,
) -> tuple[int, int, int, bool]:
    """Gauss-Seidel best response on the grids; returns (iA, iD, iters, fixed)."""
    i_a = start_a
    i_d = start_d
    seen: set[tuple[int, int]] = set()
    prev = (-1, -1)
    for it in range(1, max_iters + 1):
        i_a = _argmax_with_ties(
            _attacker_payoffs(grid_a, float(grid_d[i_d]), prm), i_a
        )
        i_d = _argmax_with_ties(
            _defender_payoffs(grid_d, float(grid_a[i_a]), prm), i_d
        )
        state = (i_a, i_d)
        if state == prev:
            return i_a, i_d, it, True
        if state in seen:
            return i_a, i_d, it, False  # cycling
        seen.add(state)
        prev = state
    return i_a, i_d, max_iters, False


def _dropout_outcome(prm: FlipItParams, grid: np.ndarray) -> FlipItOutcome:
    """Attacker-exits outcome; flagged an equilibrium only if re-entry never pays."""
    deviation = float(np.max(_attacker_payoffs(grid, 0.0, prm)))
    return FlipItOutcome(
        attacker_rate=0.0,
        defender_rate=0.0,
        control_fraction=0.0,
        attacker_payoff=0.0,
        defender_payoff=prm.defender_value,
        is_equilibrium=deviation <= 1e-9,
        dropped_out=True,
        iterations=0,
        grid_attacker=tuple(grid),
        grid_defender=tuple(grid),
    )


def _can_profit(grid: np.ndarray, prm: FlipItParams) -> bool:
    """True if some grid rate strictly profits against the defender's response."""
    for a in grid[1:]:
        i_d = _argmax_with_ties(_defender_payoffs(grid, float(a), prm), None)
        u_a = prm.attacker_value * flipit_control_fraction(
            float(a), float(grid[i_d])
        ) - prm.attack_cost * float(a)
        if u_a > _PAYOFF_TOL:
            return True
    return False


def flipit_equilibrium(
    prm: FlipItParams,
    grid_points: int = _GRID_POINTS,
    max_iters: int = 500,
) -> FlipItOutcome:
    """Solve the timing game by iterated best response on a rate grid.

    The grid is geometric on [1e-4, alpha_max] plus the rate 0, with
    alpha_max = max(1, max-value / min-cost).  When the analytic
    indifference rates are at grid scale they are inserted into the grid
    and the iteration is seeded there: the equilibrium lies on a payoff
    plateau that unseeded best-response dynamics orbit without reaching.
    After the coarse iteration settles, the grid is refined once around the
    incumbent and iterated again.  ``is_equilibrium`` is certified by an
    exhaustive unilateral-deviation scan over the stored (refined) grids.
    If no mutual best response is certified and no positive grid rate earns
    the attacker a positive payoff against the defender's response, the
    attacker drops out (rate 0, control fraction 0); otherwise the last
    iterate is returned as a non-equilibrium diagnostic.
    """
    v = max(prm.attacker_value, prm.defender_value)
    alpha_max = max(1.0, v / min(prm.attack_cost, prm.defense_cost))
    ratio = (alpha_max / _RATE_FLOOR) ** (1.0 / (grid_points - 1))
    if prm.attacker_value <= 0:
        return _dropout_outcome(prm, _rate_grid(_RATE_FLOOR, alpha_max, grid_points))

    candidate = _equilibrium_candidate(prm)
    # sub-grid-scale candidates would let the attacker lurk at rates the
    # grid is not meant to resolve; without them the dropout rule applies
    extras = candidate if max(candidate) >= _RATE_FLOOR else ()
    grid = _rate_grid(_RATE_FLOOR, alpha_max, grid_points, extras)

    def refine(center: float) -> np.ndarray:
        if center <= 0:
            return grid
        lo = max(center / ratio, _RATE_FLOOR / ratio)
        hi = min(center * ratio, alpha_max * ratio)
        return _rate_grid(lo, hi, grid_points, extras)

    start_a = int(np.argmin(np.abs(grid - candidate[0])))
    start_d = int(np.argmin(np.abs(grid - candidate[1])))
    i_a, i_d, it1, _ = _best_response_pair(grid, grid, prm, start_a, start_d, max_iters)
    grid_a, grid_d = refine(float(grid[i_a])), refine(float(grid[i_d]))
    j_a = int(np.argmin(np.abs(grid_a - grid[i_a])))
    j_d = int(np.argmin(np.abs(grid_d - grid[i_d])))
    i_a, i_d, it2, _ = _best_response_pair(grid_a, grid_d, prm, j_a, j_d, max_iters)

    a_star = float(grid_a[i_a])
    d_star = float(grid_d[i_d])
    if a_star == 0.0:
        return _dropout_outcome(prm, grid)
    p = flipit_control_fraction(a_star, d_star)
    u_a = prm.attacker_value * p - prm.attack_cost * a_star
    u_d = prm.defender_value * (1.0 - p) - prm.defense_cost * d_star
    gain_a = float(np.max(_attacker_payoffs(grid_a, d_star, prm))) - u_a
    gain_d = float(np.max(_defender_payoffs(grid_d, a_star, prm))) - u_d
    certified = gain_a <= 1e-9 and gain_d <= 1e-9
    if not certified and not _can_profit(grid, prm):
        return _dropout_outcome(prm, grid)
    return FlipItOutcome(
        attacker_rate=a_star,
        defender_rate=d_star,
        control_fraction=p,
        attacker_payoff=u_a,
        defender_payoff=u_d,
        is_equilibrium=certified,
        dropped_out=False,
        iterations=it1 + it2,
        grid_attacker=tuple(grid_a),
        grid_defender=tuple(grid_d),
    )


# ---------------------------------------------------------------------------
# signaling game
# ---------------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class SignalingParams:
    """Prior P(sender = attacker) and utility tables u[type, message, action]."""

    prior: float
    sender_utils: np.ndarray
    receiver_utils: np.ndarray

    def __post_init__(self) -> None:
        if not 0.0 <= self.prior <= 1.0:
            raise ValueError("prior must be in [0, 1]")
        for name, table in (
            ("sender_utils", self.sender_utils),
            ("receiver_utils", self.receiver_utils),
        ):
            arr = np.asarray(table, dtype=float)
            if arr.shape != (2, 2, 2):
                raise ValueError(f"{name} must have shape (2, 2, 2)")
            if not np.all(np.isfinite(arr)):
                raise ValueError(f"{name} must be finite")
            object.__setattr__(self, name, arr)


@dataclass(frozen=True, eq=False)
class SignalingOutcome:
    """A perfect Bayesian equilibrium of the 2x2x2 trust game.

    ``sender_strategy[t, m]`` is P(message m | type t); ``receiver_strategy
    [m, a]`` is P(action a | message m); ``beliefs[m, t]`` is the posterior
    P(type t | message m), which is the prior off path, except for
    equilibria that exist only under some other supporting off-path belief.
    """

    sender_strategy: np.ndarray
    receiver_strategy: np.ndarray
    beliefs: np.ndarray
    sender_values: tuple[float, float]
    receiver_value: float
    kind: str


def _posterior(prior: float, sigma_s: np.ndarray) -> np.ndarray:
    """Beliefs per message; passive (prior) beliefs off path."""
    pi = np.array([prior, 1.0 - prior])
    beliefs = np.empty((2, 2))
    for m in range(2):
        mass = pi * sigma_s[:, m]
        total = float(mass.sum())
        beliefs[m] = mass / total if total > 1e-15 else pi
    return beliefs


def _receiver_br(beliefs_m: np.ndarray, u_r: np.ndarray, m: int) -> int:
    eu_trust = float(beliefs_m @ u_r[:, m, TRUST])
    eu_reject = float(beliefs_m @ u_r[:, m, REJECT])
    return TRUST if eu_trust >= eu_reject else REJECT  # ties trust


def _values(
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


def _pure_equilibria(prm: SignalingParams) -> list[SignalingOutcome]:
    u_s, u_r = prm.sender_utils, prm.receiver_utils
    found = []
    for m_att, m_def in product(range(2), range(2)):
        sigma_s = np.zeros((2, 2))
        sigma_s[ATTACKER, m_att] = 1.0
        sigma_s[DEFENDER, m_def] = 1.0
        beliefs = _posterior(prm.prior, sigma_s)
        actions = [_receiver_br(beliefs[m], u_r, m) for m in range(2)]
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
        sender_vals, rv = _values(prm.prior, sigma_s, sigma_r, u_s, u_r)
        kind = "separating" if m_att != m_def else "pooling"
        found.append(
            SignalingOutcome(sigma_s, sigma_r, beliefs, sender_vals, rv, kind)
        )
    return found


def _hybrid_equilibria(prm: SignalingParams) -> list[SignalingOutcome]:
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
            if not 1e-12 < share < 1.0 - 1e-12:
                continue
            a_x = _receiver_br(np.eye(2)[tau], u_r, m_x)
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
            beliefs = _posterior(prm.prior, sigma_s)
            sender_vals, rv = _values(prm.prior, sigma_s, sigma_r, u_s, u_r)
            found.append(
                SignalingOutcome(sigma_s, sigma_r, beliefs, sender_vals, rv, "hybrid")
            )
    return found


def _mixed_equilibria(prm: SignalingParams) -> list[SignalingOutcome]:
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
    beliefs = _posterior(prm.prior, sigma_s)
    sender_vals, rv = _values(prm.prior, sigma_s, sigma_r, u_s, u_r)
    return [SignalingOutcome(sigma_s, sigma_r, beliefs, sender_vals, rv, "mixed")]


def _supported_pooling(prm: SignalingParams) -> list[SignalingOutcome]:
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
        a_on = _receiver_br(pi, u_r, m)
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
        q_passive = 1.0 if _receiver_br(pi, u_r, m_off) == TRUST else 0.0
        q_off = min(max(q_passive, lo), hi)
        belief_off = _rationalizing_belief(q_off, g_att, g_def, prm.prior)
        if belief_off is None:
            continue
        sigma_s = np.zeros((2, 2))
        sigma_s[:, m] = 1.0
        sigma_r = np.zeros((2, 2))
        sigma_r[m, a_on] = 1.0
        sigma_r[m_off, TRUST] = q_off
        sigma_r[m_off, REJECT] = 1.0 - q_off
        beliefs = _posterior(prm.prior, sigma_s)
        beliefs[m_off] = np.array([belief_off, 1.0 - belief_off])
        sender_vals, rv = _values(prm.prior, sigma_s, sigma_r, u_s, u_r)
        found.append(
            SignalingOutcome(sigma_s, sigma_r, beliefs, sender_vals, rv, "pooling")
        )
    return found


def _rationalizing_belief(
    q: float, g_att: float, g_def: float, prior: float
) -> float | None:
    """A belief P(attacker) under which trust probability q is a best response."""

    def gap(mu: float) -> float:
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


_KIND_RANK = {"separating": 0, "hybrid": 1, "pooling": 2, "mixed": 3}


def signaling_equilibrium(prm: SignalingParams) -> SignalingOutcome:
    """Find a perfect Bayesian equilibrium of the 2x2x2 trust game.

    All pure sender profiles are enumerated with Bayes-consistent beliefs on
    path, prior beliefs off path, and receiver ties resolved toward trust;
    partially-mixing equilibria are constructed in closed form.  Among the
    candidates the order of preference is separating, then hybrid, then
    pooling, then higher receiver value, then the lexicographically smallest
    strategy profile.  Some games have no equilibrium with passive off-path
    beliefs; for those a fully-mixed construction is tried, and failing
    that, pooling supported by other off-path beliefs.
    """
    candidates = _pure_equilibria(prm) + _hybrid_equilibria(prm)
    if not candidates:
        candidates = _mixed_equilibria(prm)
    if not candidates:
        candidates = _supported_pooling(prm)
    if not candidates:
        raise RuntimeError("no equilibrium with passive or supported beliefs")

    def key(out: SignalingOutcome):
        return (
            _KIND_RANK[out.kind],
            -out.receiver_value,
            (
                out.sender_strategy[ATTACKER, 0],
                out.sender_strategy[DEFENDER, 0],
                out.receiver_strategy[0, TRUST],
                out.receiver_strategy[1, TRUST],
            ),
        )

    return min(candidates, key=key)


# ---------------------------------------------------------------------------
# physical-layer utilities
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class PlantSpec:
    """Scalar plant x' = a x + b u with stage cost q x'^2 + r u^2."""

    a: float
    b: float
    q: float
    r: float
    horizon: int
    attack_input: float
    fallback_input: float = 0.0
    x0: float = 1.0

    def __post_init__(self) -> None:
        if self.q < 0 or self.r < 0:
            raise ValueError("cost weights must be >= 0")
        if self.horizon < 1:
            raise ValueError("horizon must be >= 1")
        for name in ("a", "b", "attack_input", "fallback_input", "x0"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite")


def _rollout_cost(plant: PlantSpec, policy) -> float:
    x = plant.x0
    cost = 0.0
    for _ in range(plant.horizon):
        u = policy(x)
        x = plant.a * x + plant.b * u
        cost += plant.q * x * x + plant.r * u * u
    return cost


def physical_utilities(plant: PlantSpec) -> np.ndarray:
    """Receiver utility table ``u[type, message, action]`` from the plant model.

    Trusting an attacker applies the constant attack input; rejecting falls
    back to the (safe) fallback input; trusting the defender applies the
    one-step-optimal feedback u = -(a b q x) / (q b^2 + r) at every step.
    Utilities are negated accumulated costs over the horizon and do not
    depend on the message.
    """
    denom = plant.q * plant.b**2 + plant.r
    if denom > 0:
        gain = plant.a * plant.b * plant.q / denom
    else:
        gain = 0.0  # costless plant: any input is optimal
    attack = _rollout_cost(plant, lambda x: plant.attack_input)
    fallback = _rollout_cost(plant, lambda x: plant.fallback_input)
    defend = _rollout_cost(plant, lambda x: -gain * x)
    u_r = np.empty((2, 2, 2))
    u_r[ATTACKER, :, TRUST] = -attack
    u_r[DEFENDER, :, TRUST] = -defend
    u_r[:, :, REJECT] = -fallback
    return u_r


# ---------------------------------------------------------------------------
# composed equilibrium
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class GNECosts:
    """Move costs of the timing game; sender values come from signaling."""

    attack_cost: float
    defense_cost: float


@dataclass(frozen=True, eq=False)
class GNEState:
    """Fixed point of the composed timing + signaling system."""

    control_fraction: float
    attacker_value: float
    defender_value: float
    flipit: FlipItOutcome
    signaling: SignalingOutcome
    residual: float
    iterations: int
    converged: bool
    verified: bool
    residual_history: tuple[float, ...]


def _stage(
    p: float, costs: GNECosts, u_s: np.ndarray, u_r: np.ndarray
) -> tuple[SignalingOutcome, float, float, FlipItOutcome]:
    sig = signaling_equilibrium(SignalingParams(p, u_s, u_r))
    v_a = max(0.0, sig.sender_values[ATTACKER])
    v_d = max(0.0, sig.sender_values[DEFENDER])
    flip = flipit_equilibrium(
        FlipItParams(costs.attack_cost, costs.defense_cost, v_a, v_d)
    )
    return sig, v_a, v_d, flip


def gne_solve(
    costs: GNECosts,
    sender_utils,
    receiver_utils,
    damping: float = 0.5,
    tol: float = 1e-8,
    max_iters: int = 200,
    p0: float = 0.5,
) -> GNEState:
    """Find the composed equilibrium by damped fixed-point iteration.

    Args:
        costs: timing-game move costs.
        sender_utils, receiver_utils: (2, 2, 2) trust-game tables.
        damping: update weight in (0, 1]; p_next = (1-d) p + d p_hat.
        tol: stop when |p_next - p| < tol.
        max_iters: iteration cap; on hitting it the state is returned with
            ``converged`` False and the residual history for diagnosis.
        p0: starting prior.

    Returns:
        :class:`GNEState` at the last iterate, with both games solved at
        the final p.  ``verified`` confirms that the iteration converged,
        that the timing-game pair there is a certified mutual best response,
        and that one further iteration moves p by less than ``tol``.
    """
    if not 0 < damping <= 1:
        raise ValueError("damping must be in (0, 1]")
    if not 0 <= p0 <= 1:
        raise ValueError("p0 must be in [0, 1]")
    u_s = np.asarray(sender_utils, dtype=float)
    u_r = np.asarray(receiver_utils, dtype=float)
    p = float(p0)
    history: list[float] = []
    converged = False
    iterations = 0
    for iterations in range(1, max_iters + 1):
        _, _, _, flip = _stage(p, costs, u_s, u_r)
        p_next = (1.0 - damping) * p + damping * flip.control_fraction
        residual = abs(p_next - p)
        history.append(residual)
        p = p_next
        if residual < tol:
            converged = True
            break
    sig, v_a, v_d, flip = _stage(p, costs, u_s, u_r)
    final_residual = damping * abs(flip.control_fraction - p)
    return GNEState(
        control_fraction=p,
        attacker_value=v_a,
        defender_value=v_d,
        flipit=flip,
        signaling=sig,
        residual=final_residual,
        iterations=iterations,
        converged=converged,
        verified=converged and flip.is_equilibrium and final_residual < tol,
        residual_history=tuple(history),
    )

