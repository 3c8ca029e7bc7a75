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
best response there, and p must stay put to within the tolerance.  The
sender values are piecewise constant in p, so the iteration meets the same
timing game again and again; each distinct one is solved once per solve.
The trust game is set up once per solve, with narrow bands around every
prior where a decision of its solver can flip.  Between two bands a
separating or pooling equilibrium, once found, is selected at every prior,
and its values are table entries, so later stages there reuse them without
a solve.  A priced-out timing game is settled without a search or a payoff
scan, and a search's certification reuses the payoffs of its last scans.
Every result keeps the bits of solving both games afresh.
"""

from __future__ import annotations

import bisect
import functools
import math
import sys
from dataclasses import dataclass
from itertools import product
from typing import NamedTuple, Sequence

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
# The largest ratio of a sender value to a move cost whose search grids stay
# finite and positive.  alpha_max / _RATE_FLOOR must not overflow; below that
# the refined grids' ends, alpha_max times a grid ratio under 36, are finite
# too.  The margin covers a sender value that rounds a few ulps past the
# largest table entry.
_MAX_VALUE_PER_COST = sys.float_info.max * _RATE_FLOOR * (1.0 - 2.0**-40)


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
        for name in ("attack_cost", "defense_cost", "attacker_value", "defender_value"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite, got {getattr(self, name)}")
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

    The rates are taken as Python floats, and the result has the bits of
    :func:`_holding` on them, for NaN, infinite and signed-zero rates too.
    """
    if alpha_a < 0 or alpha_d < 0:
        raise ValueError("rates must be >= 0")
    a, d = float(alpha_a), float(alpha_d)
    if a != a or d != d:
        return 1.0  # _holding's minimum and maximum are NaN, and a <= d fails
    if a <= d:
        return a / (2.0 * d) if d > 0 else 0.0
    return 1.0 - d / (2.0 * a)


def _holding(alpha_a, alpha_d) -> np.ndarray:
    """:func:`flipit_control_fraction` broadcast over arrays of rates."""
    slow, fast = np.minimum(alpha_a, alpha_d), np.maximum(alpha_a, alpha_d)
    half = np.divide(slow, 2.0 * fast, out=np.zeros_like(slow, dtype=float), where=fast > 0)
    return np.where(alpha_a <= alpha_d, half, 1.0 - half)


def _attacker_payoffs(grid: np.ndarray, alpha_d: float, prm: FlipItParams) -> np.ndarray:
    return prm.attacker_value * _holding(grid, alpha_d) - prm.attack_cost * grid


def _defender_payoffs(grid: np.ndarray, alpha_a: float, prm: FlipItParams) -> np.ndarray:
    return prm.defender_value * (1.0 - _holding(alpha_a, grid)) - prm.defense_cost * grid


def _argmax_with_ties(payoffs: np.ndarray, incumbent: int) -> tuple[int, float]:
    """The incumbent if within _PAYOFF_TOL of the best payoff, else the first
    index that is; and the best payoff.

    A NaN payoff (from rates that overflow to inf) leaves no index within
    tolerance, and the search fails with an IndexError.
    """
    best = payoffs.max()
    ties = payoffs >= best - _PAYOFF_TOL
    if ties[incumbent]:
        return incumbent, best
    return int(np.flatnonzero(ties)[0]), best


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
) -> tuple[int, int, int, tuple[float, float] | None]:
    """Gauss-Seidel best response on the grids; returns (iA, iD, iters, best).

    At a fixed point the last two scans were against (d*, a*), so ``best``
    holds their best payoffs, attacker's then defender's; otherwise None.
    """
    i_a = start_a
    i_d = start_d
    seen: set[tuple[int, int]] = set()
    prev = (-1, -1)
    for it in range(1, max_iters + 1):
        i_a, best_a = _argmax_with_ties(
            _attacker_payoffs(grid_a, float(grid_d[i_d]), prm), i_a
        )
        i_d, best_d = _argmax_with_ties(
            _defender_payoffs(grid_d, float(grid_a[i_a]), prm), i_d
        )
        state = (i_a, i_d)
        if state == prev:
            return i_a, i_d, it, (best_a, best_d)
        if state in seen:
            return i_a, i_d, it, None  # cycling
        seen.add(state)
        prev = state
    return i_a, i_d, max_iters, None


def _dropout_outcome(
    prm: FlipItParams, grid: Sequence[float], certified: bool | None = None
) -> FlipItOutcome:
    """Attacker-exits outcome; flagged an equilibrium only if re-entry never pays.

    ``certified`` is passed where that is known without scoring re-entry.
    """
    if certified is None:
        certified = float(np.max(_attacker_payoffs(grid, 0.0, prm))) <= 1e-9
    grid = tuple(grid)
    return FlipItOutcome(
        attacker_rate=0.0,
        defender_rate=0.0,
        control_fraction=0.0,
        attacker_payoff=0.0,
        defender_payoff=prm.defender_value,
        is_equilibrium=certified,
        dropped_out=True,
        iterations=0,
        grid_attacker=grid,
        grid_defender=grid,
    )


@functools.lru_cache(maxsize=4)
def _exit_grid(alpha_max: float, grid_points: int, extras: tuple[float, ...]) -> tuple:
    """The search grid as a tuple, for an attacker that exits without a search.

    It depends on these three alone, so the games a solve prices out, which
    differ only in the attacker's value, share one build.
    """
    return tuple(_rate_grid(_RATE_FLOOR, alpha_max, grid_points, extras))


def _can_profit(grid: np.ndarray, prm: FlipItParams) -> bool:
    """True if some grid rate strictly profits against the defender's response."""
    rates = grid[1:]
    payoffs = _defender_payoffs(grid[None, :], rates[:, None], prm)
    # each row's response is its first rate within _PAYOFF_TOL of the best,
    # the rule of _argmax_with_ties without an incumbent
    ties = payoffs >= payoffs.max(axis=1, keepdims=True) - _PAYOFF_TOL
    response = grid[np.argmax(ties, axis=1)]
    u_a = prm.attacker_value * _holding(rates, response) - prm.attack_cost * rates
    return bool(np.any(u_a > _PAYOFF_TOL))


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

    An attacker priced out of the grid, one whose value minus the cost of
    the smallest positive grid rate is below -1e-12, drops out without a
    search: the control fraction is at most 1 and float rounding is
    monotone, so every positive rate then pays less than rate 0 pays (0)
    against any defender rate, and the first best response, hence the
    search, ends at rate 0.  With ``max_iters`` 0 no best response is taken
    and the analytic start is returned, so the shortcut is not applied.
    The same argument against defender rate 0 makes the dropout an
    equilibrium, so it is flagged without a deviation scan, and so is that
    of an attacker with no value.  The smallest positive grid rate is the
    least of 1e-4 and the positive analytic rates, so the grid is built
    only for the outcome.  It depends on alpha_max, ``grid_points`` and
    those rates alone, so a small cache shares it between games that differ
    only in the attacker's value, as the hybrid regimes of one composed
    solve do.  ``grid_points`` must be at least 2.
    """
    if grid_points < 2:
        raise ValueError("grid_points must be >= 2")
    v = max(prm.attacker_value, prm.defender_value)
    alpha_max = max(1.0, v / min(prm.attack_cost, prm.defense_cost))
    ratio = (alpha_max / _RATE_FLOOR) ** (1.0 / (grid_points - 1))
    # an attacker with nothing to gain exits: re-entry pays at most 0
    if prm.attacker_value <= 0:
        return _dropout_outcome(prm, _exit_grid(alpha_max, grid_points, ()), True)

    candidate = _equilibrium_candidate(prm)
    # sub-grid-scale candidates would let the attacker lurk at rates the
    # grid is not meant to resolve; without them the dropout rule applies
    extras = tuple(r for r in candidate if r > 0) if max(candidate) >= _RATE_FLOOR else ()
    # grid[1], the grid's smallest positive rate (geomspace starts at lo)
    smallest = min((_RATE_FLOOR, *extras))
    if max_iters > 0 and prm.attacker_value - prm.attack_cost * smallest < -_PAYOFF_TOL:
        # priced out: the search would end at rate 0 (see the docstring)
        return _dropout_outcome(prm, _exit_grid(alpha_max, grid_points, extras), True)
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
    i_a, i_d, it2, best = _best_response_pair(grid_a, grid_d, prm, j_a, j_d, max_iters)

    a_star = float(grid_a[i_a])
    d_star = float(grid_d[i_d])
    if a_star == 0.0:
        return _dropout_outcome(prm, grid)
    p = flipit_control_fraction(a_star, d_star)
    u_a = prm.attacker_value * p - prm.attack_cost * a_star
    u_d = prm.defender_value * (1.0 - p) - prm.defense_cost * d_star
    if best is None:
        best = (
            np.max(_attacker_payoffs(grid_a, d_star, prm)),
            np.max(_defender_payoffs(grid_d, a_star, prm)),
        )
    gain_a = float(best[0]) - u_a
    gain_d = float(best[1]) - u_d
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


def _check_table(name: str, table: np.ndarray) -> None:
    if table.shape != (2, 2, 2):
        raise ValueError(f"{name} must have shape (2, 2, 2)")
    if not np.all(np.isfinite(table)):
        raise ValueError(f"{name} must be finite")


@dataclass(frozen=True, eq=False)
class SignalingParams:
    """Prior P(sender = attacker) and utility tables u[type, message, action]."""

    prior: float
    sender_utils: np.ndarray
    receiver_utils: np.ndarray

    def __post_init__(self) -> None:
        if not 0.0 <= self.prior <= 1.0:
            raise ValueError("prior must be in [0, 1]")
        object.__setattr__(self, "prior", float(self.prior))
        for name in ("sender_utils", "receiver_utils"):
            arr = np.asarray(getattr(self, name), dtype=float)
            _check_table(name, arr)
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


# Candidates are solved on Python floats, which cost far less than numpy on
# 2x2 tables: ``sigma_s[t][m]``, ``sigma_r[m][a]`` and ``beliefs[m][t]`` are
# nested tuples, and only the selected equilibrium becomes arrays.
_ONE_HOT = ((1.0, 0.0), (0.0, 1.0))
# a gap beyond this share of the products' magnitudes (plus an absolute floor
# for subnormal products) has the sign of any rounding of both dot products
_TIE_REL = 2.0**-50
_TIE_ABS = 2.0**-1070
_KIND_RANK = {"separating": 0, "hybrid": 1, "pooling": 2, "mixed": 3}


class _Candidate(NamedTuple):
    """A :class:`SignalingOutcome` on nested float tuples, in its field order."""

    sender_strategy: tuple
    receiver_strategy: tuple
    beliefs: tuple
    sender_values: tuple[float, float]
    receiver_value: float
    kind: str

    def rank(self) -> tuple:
        s, r = self.sender_strategy, self.receiver_strategy
        profile = (s[ATTACKER][0], s[DEFENDER][0], r[0][TRUST], r[1][TRUST])
        return _KIND_RANK[self.kind], -self.receiver_value, profile

    def outcome(self) -> SignalingOutcome:
        return SignalingOutcome(*(np.array(x) for x in self[:3]), *self[3:])


def _posterior(prior: float, sigma_s: tuple) -> tuple:
    """Beliefs per message; passive (prior) beliefs off path."""
    pi = (prior, 1.0 - prior)
    beliefs = []
    for m in range(2):
        mass = (pi[0] * sigma_s[0][m], pi[1] * sigma_s[1][m])
        total = mass[0] + mass[1]
        beliefs.append((mass[0] / total, mass[1] / total) if total > 1e-15 else pi)
    return tuple(beliefs)


def _sender_values(u_s: list, sigma_s: tuple, sigma_r: tuple) -> tuple[float, float]:
    # folds from 0.0 in numpy's order; sum() of floats is compensated from
    # Python 3.12 on and would change the last bits
    vals = []
    for t in range(2):
        v = 0.0
        for m in range(2):
            for a in range(2):
                v += sigma_s[t][m] * sigma_r[m][a] * u_s[t][m][a]
        vals.append(v)
    return vals[0], vals[1]


# An exclusion band's ends lie this share of their magnitude beyond the
# rounding bounds they are derived from.
_BAND_REL = 2.0**-40
# Priors within about 1e-12 of 0 or 1 meet the 1e-15 floors on a type's mass
# and the 1e-12 floors of the hybrid and mixed constructions: one band each.
_EDGE_BANDS = ((-math.inf, 1e-12 * (1.0 + _BAND_REL)), (1.0 - 1e-12 - _BAND_REL, math.inf))


def _band(lo: float, hi: float) -> tuple[float, float] | None:
    """[lo, hi] widened by _BAND_REL, or None if it misses [0, 1]."""
    if hi < -0.5 or lo > 1.5:
        return None
    return lo - _BAND_REL * abs(lo), hi + _BAND_REL * abs(hi)


def _line_band(a: float, b: float, scale: float) -> tuple[float, float] | None:
    """The priors p where the gap p a + (1 - p) b may round to either sign.

    ``scale`` bounds the magnitudes of the terms the gap is computed from.
    Outside the band the exact gap exceeds four times the _TIE_REL/_TIE_ABS
    tie bound there, which is several times the rounding of both the gap's
    float evaluation and of a and b, so the float gap keeps the exact sign
    and stays clear of that tie bound.  None if it keeps one sign on [0, 1].
    """
    if not math.isfinite(2.0 * scale):
        return -math.inf, math.inf
    tie = 4.0 * (_TIE_REL * scale + _TIE_ABS)
    if (a > tie and b > tie) or (a < -tie and b < -tie):
        return None
    slope = a - b
    if slope == 0.0:  # within rounding of 0 at every prior
        return -math.inf, math.inf
    ends = ((tie - b) / slope, (-tie - b) / slope)
    return _band(min(ends), max(ends))


def _crossing(line: tuple, other: tuple) -> tuple[float, float] | None:
    """Where two candidates' receiver values, p A + (1 - p) B at the lines'
    (A, B), may tie or swap order.  Identical lines round alike and tie at
    every prior, so their strategy profiles decide: no band.  Lines that
    differ only by rounding get a band over all of [0, 1]."""
    if line == other:
        return None
    (a1, b1), (a2, b2) = line, other
    return _line_band(a1 - a2, b1 - b2, abs(a1) + abs(a2) + abs(b1) + abs(b2))


class _TrustGame:
    """The trust game on fixed tables, set up once to be solved at many priors.

    The constructor validates the tables and does every step that does not
    depend on the prior.  :meth:`solve` does the rest with the float
    operations of a fresh solve, in the same order, so each result has its
    bits.  :meth:`values` returns the sender values of a solve, and skips
    the solve where they are already known (see there).
    """

    def __init__(self, sender_utils, receiver_utils) -> None:
        s, r = (np.asarray(t, dtype=float) for t in (sender_utils, receiver_utils))
        _check_table("sender_utils", s)
        _check_table("receiver_utils", r)
        self.receiver_utils = r
        self.u_s, self.u_r = u_s, u_r = s.tolist(), r.tolist()
        # [type][message]: the response where that type alone sends the message
        self.alone = tuple(tuple(self._br(_ONE_HOT[t], m) for m in range(2)) for t in range(2))

        # (m_att, m_def, actions) -> receiver strategy, sender values; kept
        # only where neither type gains by switching its message
        self.pure = {}
        for m_att, m_def, a0, a1 in product(range(2), repeat=4):
            actions = (a0, a1)
            if any(
                u_s[t][1 - m_t][actions[1 - m_t]] > u_s[t][m_t][actions[m_t]] + 1e-9
                for t, m_t in ((ATTACKER, m_att), (DEFENDER, m_def))
            ):
                continue
            sigma_s = (_ONE_HOT[m_att], _ONE_HOT[m_def])
            sigma_r = (_ONE_HOT[a0], _ONE_HOT[a1])
            self.pure[m_att, m_def, actions] = sigma_r, _sender_values(u_s, sigma_s, sigma_r)

        # (mixing type, shared message, posterior on it there, receiver strategy)
        self.hybrids = []
        for tau, m_s in product(range(2), range(2)):
            other, m_x = 1 - tau, 1 - m_s
            d_tau = u_r[tau][m_s][TRUST] - u_r[tau][m_s][REJECT]
            d_oth = u_r[other][m_s][TRUST] - u_r[other][m_s][REJECT]
            if abs(d_oth - d_tau) < 1e-15:
                continue
            mu = d_oth / (d_oth - d_tau)  # posterior on tau at m_s
            if not 1e-12 < mu < 1.0 - 1e-12:
                continue
            a_x = self.alone[tau][m_x]
            denom = u_s[tau][m_s][TRUST] - u_s[tau][m_s][REJECT]
            if abs(denom) < 1e-15:
                continue
            q = (u_s[tau][m_x][a_x] - u_s[tau][m_s][REJECT]) / denom
            if not -1e-12 <= q <= 1.0 + 1e-12:
                continue
            q = min(max(q, 0.0), 1.0)
            eu_other = q * u_s[other][m_s][TRUST] + (1.0 - q) * u_s[other][m_s][REJECT]
            if u_s[other][m_x][a_x] > eu_other + 1e-9:
                continue
            mixed_r = (q, 1.0 - q)
            sigma_r = (mixed_r, _ONE_HOT[a_x]) if m_s == 0 else (_ONE_HOT[a_x], mixed_r)
            self.hybrids.append((tau, m_s, mu, sigma_r))

        self.mixed = self._mixed_setup(s)

        # (pooled message, its action, the passive off-path action) -> the
        # off-path trust probability, g_att, g_def, receiver strategy, values
        self.pooling = {}
        for m, a_on in product(range(2), range(2)):
            m_off = 1 - m
            lo, hi = 0.0, 1.0
            feasible = True
            for t in range(2):
                slope = u_s[t][m_off][TRUST] - u_s[t][m_off][REJECT]
                level = u_s[t][m][a_on] - u_s[t][m_off][REJECT]
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
            g_att = u_r[ATTACKER][m_off][TRUST] - u_r[ATTACKER][m_off][REJECT]
            g_def = u_r[DEFENDER][m_off][TRUST] - u_r[DEFENDER][m_off][REJECT]
            # only trust is rationalizable if every belief trusts, only
            # rejection if every belief rejects, and any mixture otherwise
            lo = max(lo, 1.0 if min(g_att, g_def) >= 0.0 else 0.0)
            hi = min(hi, 0.0 if max(g_att, g_def) < 0.0 else 1.0)
            if lo > hi + 1e-12:
                continue
            sigma_s = (_ONE_HOT[m], _ONE_HOT[m])
            for a_off in range(2):
                q_off = min(max(1.0 if a_off == TRUST else 0.0, lo), hi)
                on_r, off_r = _ONE_HOT[a_on], (q_off, 1.0 - q_off)
                sigma_r = (on_r, off_r) if m == 0 else (off_r, on_r)
                values = _sender_values(u_s, sigma_s, sigma_r)
                self.pooling[m, a_on, a_off] = q_off, g_att, g_def, sigma_r, values

        # flat [lo, hi) ends of the merged exclusion bands, and the memo of
        # the sender values selected between them
        self.edges = self._band_edges()
        self.memo: dict[int, tuple[float, float]] = {}

    def _band_edges(self) -> list[float]:
        """The ends of the bands around every prior where a decision of
        :meth:`solve` that a pure or pooling selection rests on can flip."""
        u_r, alone, pure, pooling = self.u_r, self.alone, self.pure, self.pooling
        bands = [*_EDGE_BANDS]
        # the passive responses: the sign of each message's trust gap
        for m in range(2):
            t0, t1 = u_r[0][m][TRUST], u_r[1][m][TRUST]
            r0, r1 = u_r[0][m][REJECT], u_r[1][m][REJECT]
            bands.append(_line_band(t0 - r0, t1 - r1, abs(t0) + abs(t1) + abs(r0) + abs(r1)))
        # the receiver values of the two separating profiles; inside the
        # edge bands a type's lone response is always self.alone
        a01, a10 = (alone[0][0], alone[1][1]), (alone[1][0], alone[0][1])
        if (0, 1, a01) in pure and (1, 0, a10) in pure:
            bands.append(_crossing(
                (u_r[0][0][a01[0]], u_r[1][1][a01[1]]), (u_r[0][1][a10[1]], u_r[1][0][a10[0]])
            ))
        # those of the two pooled messages, pure or supported, at each pair
        # of passive responses.  Which supported poolings exist does not
        # depend on p: their deterrence intervals keep an off-path trust
        # only where the gap at belief 0 or 1 is >= 0, and a rejection only
        # where one is < 0, so _rationalizing_belief never returns None for
        # a pure off-path action, and it ignores the prior for a mixed one.
        for a0, a1 in product(range(2), repeat=2):
            if ((0, 0, (a0, a1)) in pure and (1, 1, (a0, a1)) in pure) or (
                (0, a0, a1) in pooling and (1, a1, a0) in pooling
            ):
                bands.append(_crossing(
                    (u_r[0][0][a0], u_r[1][0][a0]), (u_r[0][1][a1], u_r[1][1][a1])
                ))
        # each hybrid's share, mu pi[other] / ((1 - mu) pi[tau]), at 1e-12
        # and at 1: it is monotone in p and a few roundings from exact, so
        # the prior where it meets each bound is known to a few ulps
        for tau, _, mu, _ in self.hybrids:
            c = 1.0 - mu
            for theta in (1e-12, 1.0):
                r = mu / (mu + theta * c) if tau == 0 else theta * c / (mu + theta * c)
                bands.append(_band(r, r))
        # the mixed construction's weights x and y at 1e-12 and 1 - 1e-12,
        # through the odds o = (1 - p) / p: x = (o - c1) / (c0 - c1) and
        # y = c0 x / o.  The widths bound the rounding of x and y (with the
        # cancellation in o - c1) over their slopes in p.
        if self.mixed is not None:
            c0, c1, _ = self.mixed
            for theta in (1e-12, 1.0 - 1e-12):
                r = 1.0 / (1.0 + c1 * (1.0 - theta) + theta * c0)
                h = _BAND_REL * r * (1.0 + r * (c0 + c1))
                bands.append(_band(r - h, r + h))
                den = c0 * (1.0 - theta) + theta * c1
                r = den / (den + c0 * c1)
                h = _BAND_REL * (r + (1.0 - r) ** 2 * (1.0 / c0 + 1.0 / c1))
                bands.append(_band(r - h, r + h))
        edges: list[float] = []
        for lo, hi in sorted(b for b in bands if b is not None):
            if edges and lo <= edges[-1]:
                edges[-1] = max(edges[-1], hi)
            else:
                edges += (lo, hi)
        return edges

    def values(self, p: float) -> tuple[float, float]:
        """``solve(p).sender_values`` for p in [0, 1], without the solve
        where it is known.

        Between two exclusion bands no decision of :meth:`solve` that a
        separating or pooling selection rests on changes: which candidates
        exist, the passive responses, and the order of the receiver values
        of two candidates of one kind.  So once a solve there selects one,
        every prior up to the next band selects it too, and its sender
        values are table entries computed at set-up, the same bits at every
        prior.  They are kept for that interval.  Hybrid and mixed values
        depend on p in their last bits, and priors inside a band are
        always solved.
        """
        i = bisect.bisect_right(self.edges, p)
        values = self.memo.get(i)
        if values is None:
            sig = self.solve(p)
            values = sig.sender_values
            if not i & 1 and sig.kind in ("separating", "pooling"):
                self.memo[i] = values
        return values

    def _br(self, belief: tuple, m: int) -> int:
        """The receiver's action at message m under ``belief``; ties trust.

        The float gap decides unless it is within rounding of a tie.  There the
        decision is numpy's own length-2 dot on the table, so that a
        platform's rounding of it, fused or not, is kept.
        """
        u_r = self.u_r
        b0, b1 = belief
        t0, t1 = b0 * u_r[0][m][TRUST], b1 * u_r[1][m][TRUST]
        r0, r1 = b0 * u_r[0][m][REJECT], b1 * u_r[1][m][REJECT]
        gap = (t0 + t1) - (r0 + r1)
        if abs(gap) > _TIE_REL * (abs(t0) + abs(t1) + abs(r0) + abs(r1)) + _TIE_ABS:
            return TRUST if gap > 0.0 else REJECT
        beliefs_m = np.array(belief)
        eu_trust = float(beliefs_m @ self.receiver_utils[:, m, TRUST])
        eu_reject = float(beliefs_m @ self.receiver_utils[:, m, REJECT])
        return TRUST if eu_trust >= eu_reject else REJECT

    def _mixed_setup(self, table: np.ndarray) -> tuple | None:
        """Both posterior odds targets and the receiver strategy of the
        mixed construction, or None if the tables admit none."""
        targets = []
        for m in range(2):
            g_att = self.u_r[ATTACKER][m][TRUST] - self.u_r[ATTACKER][m][REJECT]
            g_def = self.u_r[DEFENDER][m][TRUST] - self.u_r[DEFENDER][m][REJECT]
            if abs(g_def - g_att) < 1e-15:
                return None
            mu = g_def / (g_def - g_att)
            if not 1e-9 < mu < 1.0 - 1e-9:
                return None
            targets.append(mu)
        c0, c1 = ((1.0 - mu) / mu for mu in targets)
        if abs(c0 - c1) < 1e-15:
            return None
        delta = table[:, :, TRUST] - table[:, :, REJECT]
        rhs = table[:, 1, REJECT] - table[:, 0, REJECT]
        mat = np.column_stack((delta[:, 0], -delta[:, 1]))
        if abs(np.linalg.det(mat)) < 1e-15:
            return None
        q = np.linalg.solve(mat, rhs)
        if not np.all((q > -1e-12) & (q < 1.0 + 1e-12)):
            return None
        q0, q1 = np.clip(q, 0.0, 1.0).tolist()
        return c0, c1, ((q0, 1.0 - q0), (q1, 1.0 - q1))

    def _candidate(self, kind, pi, sigma_s, sigma_r, beliefs, values) -> _Candidate:
        """The profile with the receiver's value."""
        u_r = self.u_r
        rv = 0.0
        for t in range(2):
            for m in range(2):
                for a in range(2):
                    rv += pi[t] * sigma_s[t][m] * sigma_r[m][a] * u_r[t][m][a]
        return _Candidate(sigma_s, sigma_r, beliefs, values, rv, kind)

    def solve(self, p: float) -> _Candidate:
        """The equilibrium :func:`signaling_equilibrium` selects at prior p."""
        pi = (p, 1.0 - p)
        passive = (self._br(pi, 0), self._br(pi, 1))
        found = self._pure(p, pi, passive) + self._hybrid(p, pi)
        if not found:
            found = self._mixed(p, pi)
        if not found:
            found = self._supported_pooling(p, pi, passive)
        if not found:
            raise RuntimeError("no equilibrium with passive or supported beliefs")
        return min(found, key=_Candidate.rank)

    def _pure(self, p: float, pi: tuple, passive: tuple) -> list[_Candidate]:
        # A message one type sends alone has that type's one-hot posterior
        # while the type's mass exceeds 1e-15 (see _posterior), and the prior
        # otherwise.  A pooled message's posterior is the prior too, since
        # p + (1 - p) rounds to 1 for every p in [0, 1].  In a separating
        # profile type m_att sends message 0, and type m_def message 1.
        alone = tuple(self.alone[t] if pi[t] > 1e-15 else passive for t in range(2))
        found = []
        for m_att, m_def in product(range(2), range(2)):
            actions = passive if m_att == m_def else (alone[m_att][0], alone[m_def][1])
            entry = self.pure.get((m_att, m_def, actions))
            if entry is None:
                continue
            kind = "separating" if m_att != m_def else "pooling"
            sigma_s = (_ONE_HOT[m_att], _ONE_HOT[m_def])
            beliefs = _posterior(p, sigma_s)
            found.append(self._candidate(kind, pi, sigma_s, entry[0], beliefs, entry[1]))
        return found

    def _hybrid(self, p: float, pi: tuple) -> list[_Candidate]:
        """One type mixes, the receiver mixes on the shared message.

        The receiver's indifference at the shared message pins the posterior,
        Bayes then pins the sender's mixing weight, and the mixing type's own
        indifference pins the receiver's trust probability.
        """
        if pi[0] < 1e-12 or pi[1] < 1e-12:
            return []  # a missing type cannot mix on path
        found = []
        for tau, m_s, mu, sigma_r in self.hybrids:
            share = mu * pi[1 - tau] / ((1.0 - mu) * pi[tau])
            # no margin below 1: a share under 1 puts the prior past the
            # pooling threshold, so a margin there left priors with no
            # equilibrium at all
            if not 1e-12 < share < 1.0:
                continue
            mixing = (share, 1.0 - share) if m_s == 0 else (1.0 - share, share)
            sigma_s = (mixing, _ONE_HOT[m_s]) if tau == 0 else (_ONE_HOT[m_s], mixing)
            values = _sender_values(self.u_s, sigma_s, sigma_r)
            found.append(
                self._candidate("hybrid", pi, sigma_s, sigma_r, _posterior(p, sigma_s), values)
            )
        return found

    def _mixed(self, p: float, pi: tuple) -> list[_Candidate]:
        """Both sender types mix; the receiver is indifferent at both messages.

        The receiver's per-message indifference pins both posteriors, Bayes then
        pins both sender mixing weights, and the two sender-indifference
        conditions pin the receiver's trust probabilities.  Degenerate when the
        receiver's tables do not depend on the message (equal posterior targets).
        """
        if self.mixed is None or not 1e-12 < p < 1.0 - 1e-12:
            return []
        c0, c1, sigma_r = self.mixed
        x = ((1.0 - p) / p - c1) / (c0 - c1)  # attacker's weight on message 0
        if not 1e-12 < x < 1.0 - 1e-12:
            return []
        y = p * x * c0 / (1.0 - p)
        if not 1e-12 < y < 1.0 - 1e-12:
            return []
        sigma_s = ((x, 1.0 - x), (y, 1.0 - y))
        values = _sender_values(self.u_s, sigma_s, sigma_r)
        return [self._candidate("mixed", pi, sigma_s, sigma_r, _posterior(p, sigma_s), values)]

    def _supported_pooling(self, p: float, pi: tuple, passive: tuple) -> list[_Candidate]:
        """Pooling held up by off-path beliefs other than the prior.

        Off the path any belief is admissible, so the receiver's off-path trust
        probability can be anything its possible beliefs rationalize: a pure
        action, or any mixture when some belief makes it indifferent.  Within
        the q-interval that deters both sender types, the value closest to the
        passive-belief response is chosen and the rationalizing belief stored.
        """
        found = []
        for m in range(2):
            entry = self.pooling.get((m, passive[m], passive[1 - m]))
            if entry is None:
                continue
            q_off, g_att, g_def, sigma_r, values = entry
            belief_off = _rationalizing_belief(q_off, g_att, g_def, p)
            if belief_off is None:
                continue
            sigma_s = (_ONE_HOT[m], _ONE_HOT[m])
            on_b, off_b = _posterior(p, sigma_s)[m], (belief_off, 1.0 - belief_off)
            beliefs = (on_b, off_b) if m == 0 else (off_b, on_b)
            found.append(self._candidate("pooling", pi, sigma_s, sigma_r, beliefs, values))
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

    The candidates are built on Python floats with numpy's operation order,
    so every result has the bits a numpy evaluation gives.  The receiver
    trusts when its expected payoff from trusting is at least that from
    rejecting.  When the two are within rounding of a tie, the comparison is
    numpy's own dot product of the beliefs with the table, so a platform's
    rounding of a near tie decides as it does in numpy.  This is one solve
    of the prepared game that :func:`gne_solve` sets up once per solve.
    """
    return _TrustGame(prm.sender_utils, prm.receiver_utils).solve(prm.prior).outcome()


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
    depend on the message.  A cost past the float range raises ValueError.
    """
    overflow = "rollout costs overflow a float; shorten the horizon or scale the plant"
    try:
        denom = plant.q * plant.b**2 + plant.r
    except OverflowError:
        raise ValueError(overflow) from None
    if denom > 0:
        gain = plant.a * plant.b * plant.q / denom
    else:
        gain = 0.0  # costless plant: any input is optimal
    attack = _rollout_cost(plant, lambda x: plant.attack_input)
    fallback = _rollout_cost(plant, lambda x: plant.fallback_input)
    defend = _rollout_cost(plant, lambda x: -gain * x)
    if not all(math.isfinite(c) for c in (attack, fallback, defend)):
        raise ValueError(overflow)
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


def _timing_game(
    values: tuple[float, float],
    costs: GNECosts,
    timing: dict[tuple[float, float], FlipItOutcome],
) -> tuple[float, float, FlipItOutcome]:
    """The timing game at the sender values, clamped at 0.

    ``timing`` holds the timing games already solved at these costs, keyed
    on the exact clamped values; a new pair is solved and added.
    """
    v_a = max(0.0, values[ATTACKER])
    v_d = max(0.0, values[DEFENDER])
    if (v_a, v_d) not in timing:
        timing[v_a, v_d] = flipit_equilibrium(
            FlipItParams(costs.attack_cost, costs.defense_cost, v_a, v_d)
        )
    return v_a, v_d, timing[v_a, v_d]


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

    The trust game's table-only work, and its bands around the priors
    where its selection can change, are done once, before the iteration.
    A stage takes its sender values from :meth:`_TrustGame.values`, which
    reuses, with the same bits, a separating or pooling selection found
    earlier between the same two bands; the final stage solves in full.
    The timing game is solved once per distinct pair of sender values
    (v_a, v_d), compared exactly, and reused by later stages and by the
    final one.  So the result is what solving both games afresh at every
    stage gives, bit for bit.

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
    game = _TrustGame(sender_utils, receiver_utils)
    p = float(p0)
    history: list[float] = []
    timing: dict[tuple[float, float], FlipItOutcome] = {}
    converged = False
    iterations = 0
    for iterations in range(1, max_iters + 1):
        flip = _timing_game(game.values(p), costs, timing)[2]
        p_next = (1.0 - damping) * p + damping * flip.control_fraction
        residual = abs(p_next - p)
        history.append(residual)
        p = p_next
        if residual < tol:
            converged = True
            break
    sig = game.solve(p)
    v_a, v_d, flip = _timing_game(sig.sender_values, costs, timing)
    final_residual = damping * abs(flip.control_fraction - p)
    return GNEState(
        control_fraction=p,
        attacker_value=v_a,
        defender_value=v_d,
        flipit=flip,
        signaling=sig.outcome(),
        residual=final_residual,
        iterations=iterations,
        converged=converged,
        verified=converged and flip.is_equilibrium and final_residual < tol,
        residual_history=tuple(history),
    )

