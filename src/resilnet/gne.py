"""Coupled attack-timing and trust games over a contested command channel.

Two games share state.  A timing game decides how often an attacker and a
defender re-take control of a cloud service: with periodic strategies and
random phases, the attacker holds the resource a closed-form fraction of the
time.  A 2-type/2-message/2-action signaling game decides whether the device
trusts commands coming from that service, with the attacker's holding
fraction as the prior probability that the sender is malicious.  It has an
equilibrium at every prior, found by one enumeration of sender supports.

The composed equilibrium is a fixed point: the signaling equilibrium at
prior p yields each sender type's value of holding the service, those values
feed the timing game, and the resulting holding fraction must reproduce p.
The trust game's sender values are fixed per candidate, a mixing type's by
its indifference, so they take finitely many values, and a fixed point is
the timing game's holding fraction at one of them.  The solver checks each
such prior exactly, and reports a fixed point or that there is none.  The
timing game is solved in closed form with an analytic certificate.  A memo
per table pair, shared by all its solves, keeps the trust game's selected
plan per interval between exclusion bands; the values checked and the
equilibrium reported are built from it, with the bits of fresh solves.
"""

from __future__ import annotations

import bisect
import functools
import math
import sys
from dataclasses import dataclass
from itertools import product
from typing import NamedTuple

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
# The largest ratio of a value to a move cost that FlipItParams accepts.  The
# equilibrium rates are at most value / (2 cost) and the payoffs at most the
# values, so every outcome stays finite well inside it; the margin, a 1e-4
# share of the float range, is the bound the README and the game-document
# validator state.
_MAX_FLIPIT_RATIO = sys.float_info.max * _RATE_FLOOR * (1.0 - 2.0**-41)
# The bound on max |sender_utils| / move cost that gne_solve and game
# documents check.  Its margin below _MAX_FLIPIT_RATIO covers a sender value
# that rounds a few ulps past the largest table entry, so that every timing
# game a solve meets is a valid FlipItParams.
_MAX_VALUE_PER_COST = sys.float_info.max * _RATE_FLOOR * (1.0 - 2.0**-40)


def _ratio_error(what: str, ratio: float, bound: float) -> str | None:
    """The error for a value-per-cost ``ratio`` over ``bound``, or None."""
    if ratio > bound:
        return f"{what} must be <= {bound!r}, got {ratio!r}"
    return None


# ---------------------------------------------------------------------------
# timing game
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class FlipItParams:
    """Move costs and per-unit-time values of holding the resource.

    The larger value over the smaller cost must be at most
    _MAX_FLIPIT_RATIO, the bound the README states.
    """

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
        value = max(self.attacker_value, self.defender_value)
        ratio = value / min(self.attack_cost, self.defense_cost)
        error = _ratio_error("max value / min cost", ratio, _MAX_FLIPIT_RATIO)
        if error:
            raise ValueError(error)


@dataclass(frozen=True)
class FlipItOutcome:
    """Rates, attacker control fraction, and payoffs of the closed form.

    ``is_equilibrium`` is the closed form's analytic certificate: True
    unless the attacker has value and the defender none, where the game has
    no equilibrium.  ``dropped_out`` marks the attacker-exits outcome, and
    ``iterations`` is always 0, since no search runs.
    """

    attacker_rate: float
    defender_rate: float
    control_fraction: float
    attacker_payoff: float
    defender_payoff: float
    is_equilibrium: bool
    dropped_out: bool
    iterations: int


def flipit_control_fraction(alpha_a: float, alpha_d: float) -> float:
    """Long-run fraction of time the attacker holds the resource.

    Both players move periodically with uniformly random phases.  The slower
    mover's last move lands uniformly inside the faster mover's period, so the
    slower mover holds the resource a fraction slow / (2 fast) of the time.

    The rates are taken as Python floats, and the result has the bits of the
    array form ``where(a <= d, half, 1 - half)``, with ``half = min / (2 max)``
    (0 where max is 0), for NaN, infinite and signed-zero rates too.
    """
    if alpha_a < 0 or alpha_d < 0:
        raise ValueError("rates must be >= 0")
    a, d = float(alpha_a), float(alpha_d)
    if a != a or d != d:
        return 1.0  # the array form's minimum and maximum are NaN, and a <= d fails
    if a <= d:
        return a / (2.0 * d) if d > 0 else 0.0
    return 1.0 - d / (2.0 * a)


def _equilibrium_candidate(costs, v_a: float, v_d: float) -> tuple[float, float]:
    """The periodic game's equilibrium rates in closed form, at the move
    costs of ``costs`` (a FlipItParams or GNECosts) and values v_a and v_d.

    With periodic play the slower player's payoff is linear in its own rate,
    with slope value / (2 fast) - cost, so at equilibrium the faster
    player's rate zeroes that slope.  The faster player's payoff is concave,
    with its maximum at the rate where the slower player's slope is zero
    too.  Which side is slower is decided by the cost/value ratios.  With no
    defender value the attacker wants the least positive rate, which does
    not exist; the rate floor 1e-4 is reported.

    A value per cost below about 5.6e-309 makes its ratio overflow, where
    0 * inf or inf / inf could make a rate NaN.  There the values per cost
    decide instead, and every rate is below 2.8e-309.  A faster attacker's
    rate is then at least the least positive float: at rate 0 it would hold
    nothing, and against a defender at 0 that rate is its best response.
    """
    if v_a <= 0:
        return 0.0, 0.0
    if v_d <= 0:
        return _RATE_FLOOR, 0.0
    ratio_a = costs.attack_cost / v_a
    ratio_d = costs.defense_cost / v_d
    if max(ratio_a, ratio_d) < math.inf:
        if ratio_a >= ratio_d:
            a_d = v_a / (2.0 * costs.attack_cost)
            return a_d * ratio_d / ratio_a, a_d
        a_a = v_d / (2.0 * costs.defense_cost)
        return a_a, a_a * ratio_a / ratio_d
    k_a = v_a / costs.attack_cost
    k_d = v_d / costs.defense_cost
    if k_a <= k_d:
        a_d = v_a / (2.0 * costs.attack_cost)
        return (a_d / k_d * k_a if a_d else 0.0), a_d
    a_a = max(v_d / (2.0 * costs.defense_cost), 5e-324)
    return a_a, a_a / k_a * k_d


def flipit_equilibrium(prm: FlipItParams) -> FlipItOutcome:
    """Solve the timing game in closed form, with an analytic certificate.

    The rates are :func:`_equilibrium_candidate`'s, with no rate floor.
    Where both players have value the pair is an equilibrium: the slower
    player's payoff is linear in its own rate, with slope 0 at the faster
    player's rate, and the faster player's is concave, with its maximum at
    its own rate.  With no defender value there is none, and the outcome
    says so.  The attacker drops out (rate 0, control fraction 0 and
    payoff 0), certified, where it has no value or its closed-form rate
    rounds to 0.  The defender then keeps its closed-form rate, at which
    entry pays nothing: 0 where the attacker has no value.
    """
    a_star, d_star = _equilibrium_candidate(prm, prm.attacker_value, prm.defender_value)
    p = flipit_control_fraction(a_star, d_star)
    u_a = prm.attacker_value * p - prm.attack_cost * a_star
    u_d = prm.defender_value * (1.0 - p) - prm.defense_cost * d_star
    return FlipItOutcome(
        attacker_rate=a_star,
        defender_rate=d_star,
        control_fraction=p,
        attacker_payoff=u_a,
        defender_payoff=u_d,
        is_equilibrium=prm.defender_value > 0 or a_star == 0.0,
        dropped_out=a_star == 0.0,
        iterations=0,
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
# a gap below this share lets the last layer's receiver mix
_NEAR_REL = 1e-10
_KIND_RANK = {"separating": 0, "hybrid": 1, "pooling": 2, "mixed": 3}
# A sender type sends message 0, message 1, or mixes over both (_MIX).  The
# receiver trusts or rejects, or near a tie gives _NEAR plus the action it
# picks; _TRUST_RANGE is each response's interval of trust probabilities.
_MIX = _NEAR = 2
_TRUST_RANGE = ((1.0, 1.0), (0.0, 0.0), (0.0, 1.0), (0.0, 1.0))


def _entry(pair: tuple) -> tuple:
    """``pair``, its kind, and the source of the response at each message:
    the type sending it alone, the prior (2), or a pinned posterior (3)."""
    senders = [[t for t in range(2) if pair[t] in (m, _MIX)] for m in range(2)]
    sources = [s[0] if len(s) == 1 else 3 if _MIX in pair else 2 for s in senders]
    kinds = ("separating", "pooling") if _MIX not in pair else ("hybrid", "mixed")
    return pair, kinds[pair[0] == pair[1]], *sources


# The selection layers, in order: passive off-path beliefs; both types mixing;
# pooling on other off-path beliefs; the receiver mixing near a tie.
_PASSIVE, _BOTH_MIXING, _SUPPORTED, _TIED = range(4)
_PAIRS = [*product(range(2), repeat=2), (_MIX, 0), (_MIX, 1), (0, _MIX), (1, _MIX)]
# each layer's support pairs, whose numbers key the plans
_LAYER_PAIRS = (_PAIRS, [(_MIX, _MIX)], [(0, 0), (1, 1)], _PAIRS)
_SLOTS = {slot: k for k, slot in enumerate(
    (layer, pair) for layer, pairs in enumerate(_LAYER_PAIRS) for pair in pairs
)}
_LAYERS = [[_entry(pair) for pair in pairs] for pairs in _LAYER_PAIRS]


class _Candidate(NamedTuple):
    """A :class:`SignalingOutcome` on nested float tuples, its selection (layer,
    support pair, kind, plan; see build()), and whether the memo may hold it."""

    sender_strategy: tuple
    receiver_strategy: tuple
    beliefs: tuple
    sender_values: tuple[float, float]
    receiver_value: float
    kind: str
    selection: tuple
    held: bool = False

    def rank(self) -> tuple:
        s, r = self.sender_strategy, self.receiver_strategy
        profile = (s[ATTACKER][0], s[DEFENDER][0], r[0][TRUST], r[1][TRUST])
        return _KIND_RANK[self.kind], -self.receiver_value, profile

    def outcome(self) -> SignalingOutcome:
        return SignalingOutcome(*(np.array(x) for x in self[:3]), *self[3:6])


def _posterior(prior: float, sigma_s: tuple, floor: float = 1e-15) -> tuple:
    """Beliefs per message; the prior where its mass is ``floor`` or less."""
    pi = (prior, 1.0 - prior)
    beliefs = []
    for m in range(2):
        mass = (pi[0] * sigma_s[0][m], pi[1] * sigma_s[1][m])
        total = mass[0] + mass[1]
        beliefs.append((mass[0] / total, mass[1] / total) if total > floor else pi)
    return tuple(beliefs)


def _sender_values(u_s: list, pair: tuple, sigma_r: tuple) -> tuple[float, float]:
    """Each type's payoff at the message it sends; a type that mixes is
    indifferent, so at one the receiver answers with a pure action if there
    is one (a table entry), else at message 0.  No value depends on p."""
    m_mix = 1 if sigma_r[0] not in _ONE_HOT and sigma_r[1] in _ONE_HOT else 0
    # folds from 0.0 in numpy's order; sum() of floats is compensated from
    # Python 3.12 on and would change the last bits
    vals = []
    for t in range(2):
        sigma_t = _ONE_HOT[m_mix if pair[t] == _MIX else pair[t]]
        v = 0.0
        for m in range(2):
            for a in range(2):
                v += sigma_t[m] * sigma_r[m][a] * u_s[t][m][a]
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

    One enumeration builds every candidate.  Each sender type sends message
    0, message 1, or mixes: 9 support pairs.  At each message the receiver's
    response is an interval of trust probabilities, [0, 1] where it is
    indifferent: near a tie of :meth:`_br` (a tied row under a one-hot
    posterior, or a pooled message at its indifference prior), at a
    posterior a mixing type pins, and off path.  Each type's optimality is
    then a half-plane in the trust probabilities (q0, q1), a line if it
    mixes.  :meth:`plan` builds the receiver's strategy and the sender
    values once; :meth:`build` weighs the messages at a prior.  The first
    three layers keep a numpy solve's closed forms and floats, ties
    trusting; the last mixes at ties.
    """

    def __init__(self, sender_utils, receiver_utils) -> None:
        s, r = (np.array(t, dtype=float) for t in (sender_utils, receiver_utils))  # copies
        _check_table("sender_utils", s)
        _check_table("receiver_utils", r)
        self.sender_utils, self.receiver_utils = s, r
        self.u_s, self.u_r = s.tolist(), r.tolist()
        self.top = float(np.max(np.abs(s)))  # max |sender_utils|
        # [type][message]: the receiver's gain from trusting that type, and
        # [message]: the trust probabilities some belief rationalizes there
        self.gaps = [[row[TRUST] - row[REJECT] for row in self.u_r[t]] for t in range(2)]
        self.trustable = [
            (1.0 if min(g) >= 0.0 else 0.0, 0.0 if max(g) < 0.0 else 1.0) for g in zip(*self.gaps)
        ]
        # [type][message]: the response where that type alone sends the message
        self.alone = tuple(tuple(self._br(_ONE_HOT[t], m) for m in range(2)) for t in range(2))
        self.picked = [(r0 & 1, r1 & 1) for r0, r1 in self.alone]
        self.plans: dict[tuple, tuple | None] = {}  # see plan()
        # the merged exclusion bands' [lo, hi) ends (see bands()), and the
        # selection memo that every solve on these tables shares (see lookup())
        self.edges: list[float] | None = None
        self.memo: dict[int, tuple] = {}
        self.candidates: dict[bool, list[tuple[float, float]]] = {}  # see values()

    def _band_edges(self) -> list[float]:
        """The ends of the bands around every prior where a decision of
        :meth:`solve` that a pure or pooling selection rests on can flip."""
        u_r, plan, lone = self.u_r, self.plan, self.picked
        bands = [*_EDGE_BANDS]
        # the passive responses: the sign of each message's trust gap
        for m in range(2):
            t0, t1 = u_r[0][m][TRUST], u_r[1][m][TRUST]
            r0, r1 = u_r[0][m][REJECT], u_r[1][m][REJECT]
            bands.append(_line_band(t0 - r0, t1 - r1, abs(t0) + abs(t1) + abs(r0) + abs(r1)))
        # the receiver values of the two separating profiles; inside the
        # edge bands a type's lone response is always self.alone's
        a01, a10 = (lone[0][0], lone[1][1]), (lone[1][0], lone[0][1])
        if plan(_PASSIVE, (0, 1), *a01) and plan(_PASSIVE, (1, 0), *a10):
            bands.append(_crossing(
                (u_r[0][0][a01[0]], u_r[1][1][a01[1]]), (u_r[0][1][a10[1]], u_r[1][0][a10[0]])
            ))
        # those of the two pooled messages, passive or supported, at each pair
        # of passive responses.  Which supported poolings exist does not depend
        # on p: the rationalizable interval makes _off_path's rule hold at
        # every prior for a pure off-path action, and ignore p for a mixed one.
        for a0, a1 in product(range(2), repeat=2):
            if (plan(0, (0, 0), a0, a1) and plan(0, (1, 1), a0, a1)) or (
                plan(_SUPPORTED, (0, 0), a0, a1) and plan(_SUPPORTED, (1, 1), a0, a1)
            ):
                bands.append(_crossing(
                    (u_r[0][0][a0], u_r[1][0][a0]), (u_r[0][1][a1], u_r[1][1][a1])
                ))
        # each hybrid's share, mu pi[other] / ((1 - mu) pi[tau]), at 1e-12
        # and at 1: it is monotone in p and a few roundings from exact, so
        # the prior where it meets each bound is known to a few ulps
        sources = (*lone, None, (TRUST, TRUST))
        for pair, kind, w0, w1 in _LAYERS[_PASSIVE]:
            hybrid = kind == "hybrid" and plan(_PASSIVE, pair, sources[w0][0], sources[w1][1])
            if hybrid:
                mu, c = hybrid[2], 1.0 - hybrid[2]
                for theta in (1e-12, 1.0):
                    r = mu / (mu + theta * c) if pair[0] == _MIX else theta * c / (mu + theta * c)
                    bands.append(_band(r, r))
        # both types' weights x and y at 1e-12 and 1 - 1e-12, through the
        # odds o = (1 - p) / p: x = (o - c1) / (c0 - c1) and y = c0 x / o.
        # The widths bound the rounding of x and y (with the cancellation in
        # o - c1) over their slopes in p.
        mixed = plan(_BOTH_MIXING, (_MIX, _MIX), TRUST, TRUST)
        if mixed is not None:
            c0, c1 = mixed[2]
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

    def bands(self) -> list[float]:
        """The merged exclusion bands' [lo, hi) ends, set up on first use."""
        if self.edges is None:
            self.edges = self._band_edges()
        return self.edges

    def lookup(self, p: float) -> tuple[tuple[float, float], tuple]:
        """``solve(p).sender_values`` for p in [0, 1] and the selection they
        come from, through the memo; ``build(p, *selection)`` is ``solve(p)``
        but for ``held``.

        Between two exclusion bands no decision of the first three layers
        that a selection rests on changes: which candidates exist, the
        passive responses, and the order of the receiver values of two
        candidates of one kind, but for two hybrids.  So one plan is selected
        across an interval of :meth:`bands`, which keeps a selection that
        :meth:`solve` marks ``held`` under its index: a separating, pooling
        or mixed one, or a lone hybrid.  Priors 0 and 1, in the edge bands,
        keep theirs under -1 and -2.  Every solve on these tables shares the
        memo, at most one entry per interval and end; a write races only
        with one of the same plan.
        """
        i = bisect.bisect_right(self.bands(), p)
        key = -1 if p == 0.0 else -2 if p == 1.0 else i
        selection = self.memo.get(key)
        if selection is None:
            sig = self.solve(p)
            selection = sig.selection
            if key < 0 or (sig.held and not i & 1):
                self.memo[key] = selection
        return selection[3][1], selection

    def values(self, tied: bool) -> list[tuple[float, float]]:
        """The distinct sender values of the plans of the last layer if
        ``tied``, else of the first three, enumerated on first use.  They
        cover every response key :meth:`solve` meets: {0, 1} in the first
        three layers, and up to _NEAR + 1 in the last."""
        if tied not in self.candidates:
            layers, n = ([_TIED], 4) if tied else ([_PASSIVE, _BOTH_MIXING, _SUPPORTED], 2)
            pairs = [(k, pair) for k in layers for pair in _LAYER_PAIRS[k]]
            plans = [self.plan(*key, *r) for key in pairs for r in product(range(n), repeat=2)]
            self.candidates[tied] = list(dict.fromkeys(plan[1] for plan in plans if plan))
        return self.candidates[tied]

    def _br(self, belief: tuple, m: int) -> int:
        """The receiver's response at message m under ``belief``; ties trust.

        The float gap decides unless it is within rounding of a tie.  There
        the decision is numpy's own length-2 dot on the table, so that a
        platform's rounding of it, fused or not, is kept.  Near a tie it is
        marked _NEAR."""
        u_r = self.u_r
        b0, b1 = belief
        t0, t1 = b0 * u_r[0][m][TRUST], b1 * u_r[1][m][TRUST]
        r0, r1 = b0 * u_r[0][m][REJECT], b1 * u_r[1][m][REJECT]
        gap = (t0 + t1) - (r0 + r1)
        scale = abs(t0) + abs(t1) + abs(r0) + abs(r1)
        if abs(gap) > _TIE_REL * scale + _TIE_ABS:
            response = TRUST if gap > 0.0 else REJECT
            return response if abs(gap) > _NEAR_REL * scale else _NEAR + response
        beliefs_m = np.array(belief)
        eu_trust = float(beliefs_m @ self.receiver_utils[:, m, TRUST])
        eu_reject = float(beliefs_m @ self.receiver_utils[:, m, REJECT])
        return _NEAR + (TRUST if eu_trust >= eu_reject else REJECT)

    def _indifferent(self, tau: int, m: int, tiny: float) -> float | None:
        """The posterior on type tau at message m that leaves the receiver
        indifferent, or None unless the types' trust gaps differ by tiny."""
        d_tau, d_oth = self.gaps[tau][m], self.gaps[1 - tau][m]
        if abs(d_oth - d_tau) < tiny or d_oth == d_tau:
            return None
        return d_oth / (d_oth - d_tau)

    def _pinned(self, tau: int, m: int, margin: float, tiny: float = 1e-15) -> float | None:
        """:meth:`_indifferent`'s posterior, if inside (margin, 1 - margin)."""
        mu = self._indifferent(tau, m, tiny)
        return mu if mu is not None and margin < mu < 1.0 - margin else None

    def _off_path(self, m: int, q: float, tiny: float) -> tuple | None:
        """A rule for a belief at message m under which trust probability q
        is a best response, or None: (a belief, the sign of the trust gap at
        which the prior replaces it, the gaps).  Trust needs a gap >= 0,
        rejection one < 0, a mixture indifference (gaps that differ by tiny)."""
        g_att, g_def = self.gaps[ATTACKER][m], self.gaps[DEFENDER][m]
        if q >= 1.0 - 1e-12:
            return 0.0 if g_def >= 0.0 else 1.0, True, g_att, g_def
        if q <= 1e-12:
            return 1.0 if g_att < 0.0 else 0.0, False, g_att, g_def
        mu = self._indifferent(ATTACKER, m, tiny)
        return (mu, None, g_att, g_def) if mu is not None and -1e-9 <= mu <= 1.0 + 1e-9 else None

    def _stays(self, pair: tuple, sigma_r: list, tol: float) -> bool:
        """Whether no type that sends one message gains over tol by the other."""
        for row, m in zip(self.u_s, pair):
            if m != _MIX:
                (q, r), (q_x, r_x) = sigma_r[m], sigma_r[1 - m]
                if q_x * row[1 - m][0] + r_x * row[1 - m][1] > q * row[m][0] + r * row[m][1] + tol:
                    return False
        return True

    def plan(self, layer: int, pair: tuple, r0: int, r1: int) -> tuple | None:
        """:meth:`_plan`, built on first use; the both-mixing one under one key."""
        r0, r1 = (TRUST, TRUST) if layer == _BOTH_MIXING else (r0, r1)
        key = (_SLOTS[layer, pair], r0, r1)
        plan = self.plans.get(key, self)
        if plan is self:
            plan = self.plans[key] = self._plan(layer, pair, r0, r1)
        return plan

    def _plan(self, layer: int, pair: tuple, r0: int, r1: int) -> tuple | None:
        """The prior-free part of the candidate of ``layer`` with sender
        supports ``pair`` and receiver responses (r0, r1), or None: the
        receiver's strategy, sender values, weights, and off-path rule."""
        if pair == (_MIX, _MIX):
            # the receiver's indifference pins both posteriors, and the types'
            # its trust probabilities; not where the posteriors coincide
            targets = [self._pinned(ATTACKER, m, 1e-9) for m in range(2)]
            if None in targets:
                return None
            c0, c1 = ((1.0 - mu) / mu for mu in targets)
            if abs(c0 - c1) < 1e-15:
                return None
            table = self.sender_utils
            delta = table[:, :, TRUST] - table[:, :, REJECT]
            rhs = table[:, 1, REJECT] - table[:, 0, REJECT]
            mat = np.column_stack((delta[:, 0], -delta[:, 1]))
            if abs(np.linalg.det(mat)) < 1e-15:
                return None
            q = np.linalg.solve(mat, rhs)
            if not np.all((q > -1e-12) & (q < 1.0 + 1e-12)):
                return None
            q0, q1 = np.clip(q, 0.0, 1.0).tolist()
            sigma_r = ((q0, 1.0 - q0), (q1, 1.0 - q1))
            return sigma_r, _sender_values(self.u_s, pair, sigma_r), (c0, c1), None
        u_s, responses, rule = self.u_s, (r0, r1), None
        # a pinned posterior's margin and least trust-gap difference; no floors last
        tolerances = (0.0, 0.0) if layer == _TIED else (1e-12, 1e-15)
        # the pure profile, or the posterior on the mixing type where both send
        tau = pair.index(_MIX) if _MIX in pair else None
        if tau is None:
            weights = (_ONE_HOT[pair[0]], _ONE_HOT[pair[1]])
        elif (weights := self._pinned(tau, pair[1 - tau], *tolerances)) is None:
            return None
        if layer == _PASSIVE:
            sigma_r = [_ONE_HOT[r0], _ONE_HOT[r1]]
            if tau is not None:
                # the mixing type's indifference pins trust at the shared message
                m_s = pair[1 - tau]
                denom = u_s[tau][m_s][TRUST] - u_s[tau][m_s][REJECT]
                if abs(denom) < 1e-15:
                    return None
                q = (u_s[tau][1 - m_s][responses[1 - m_s]] - u_s[tau][m_s][REJECT]) / denom
                if not -1e-12 <= q <= 1.0 + 1e-12:
                    return None
                q = min(max(q, 0.0), 1.0)
                sigma_r[m_s] = (q, 1.0 - q)
            if not self._stays(pair, sigma_r, 1e-9):
                return None
        elif layer == _SUPPORTED:
            # the off-path trust probability nearest the passive one, among
            # those that deter both types and that some belief rationalizes
            m, m_off = pair[0], 1 - pair[0]
            lo, hi = 0.0, 1.0
            for t in range(2):
                slope = u_s[t][m_off][TRUST] - u_s[t][m_off][REJECT]
                level = u_s[t][m][responses[m]] - u_s[t][m_off][REJECT]
                # need slope*q <= level for q in the deterrence interval
                if slope > 1e-15:
                    hi = min(hi, level / slope)
                elif slope < -1e-15:
                    lo = max(lo, level / slope)
                elif level < -1e-12:
                    return None
            lo, hi = max(lo, self.trustable[m_off][0]), min(hi, self.trustable[m_off][1])
            if lo > hi + 1e-12:
                return None
            q_off = min(max(1.0 if responses[m_off] == TRUST else 0.0, lo), hi)
            sigma_r = [_ONE_HOT[responses[m]]] * 2
            sigma_r[m_off] = (q_off, 1.0 - q_off)
        elif (sigma_r := self._tied(pair, responses, tau)) is None:
            return None
        if layer != _PASSIVE and pair[0] == pair[1]:
            rule = self._off_path(1 - pair[0], sigma_r[1 - pair[0]][TRUST], tolerances[1])
            if rule is None:
                return None
        return tuple(sigma_r), _sender_values(u_s, pair, sigma_r), weights, rule

    def _tied(self, pair: tuple, responses: tuple, tau: int | None) -> list | None:
        """Trust probabilities in the responses' intervals that keep each
        type on its support, or None: a vertex of that polygon, where two edge
        lines a q0 + b q1 + c = 0 (a payoff gap, a side) meet."""
        (lo0, hi0), (lo1, hi1) = (
            self.trustable[m] if pair == (1 - m, 1 - m) else _TRUST_RANGE[responses[m]]
            for m in range(2)
        )
        gaps = [(t0 - r0, r1 - t1, r0 - r1) for (t0, r0), (t1, r1) in self.u_s]
        edges = [(1.0, 0.0, -lo0), (1.0, 0.0, -hi0), (0.0, 1.0, -lo1), (0.0, 1.0, -hi1), *gaps]
        tol = 1e-12 * (1.0 + self.top)
        for (a1, b1, c1), (a2, b2, c2) in product([gaps[tau]] if tau is not None else edges, edges):
            det = a1 * b2 - a2 * b1
            if det:
                x, y = (b1 * c2 - b2 * c1) / det, (a2 * c1 - a1 * c2) / det
                if lo0 - 1e-12 <= x <= hi0 + 1e-12 and lo1 - 1e-12 <= y <= hi1 + 1e-12:
                    q0, q1 = min(max(x, lo0), hi0), min(max(y, lo1), hi1)
                    sigma_r = [(q0, 1.0 - q0), (q1, 1.0 - q1)]
                    if self._stays(pair, sigma_r, tol):
                        return sigma_r
        return None

    @staticmethod
    def _senders(pair: tuple, weights, p: float, pi: tuple, layer: int) -> tuple | None:
        """The strategy of senders that mix at prior p, or None below the
        floors; ``weights`` is a pinned posterior mu, or two pinned odds."""
        floor = 1e-300 if layer == _TIED else 1e-12  # the last layer's: clear of underflow
        if pair == (_MIX, _MIX):
            if not 1e-12 < p < 1.0 - 1e-12:
                return None
            c0, c1 = weights
            x = ((1.0 - p) / p - c1) / (c0 - c1)  # attacker's weight on message 0
            if not 1e-12 < x < 1.0 - 1e-12:
                return None
            y = p * x * c0 / (1.0 - p)
            return ((x, 1.0 - x), (y, 1.0 - y)) if 1e-12 < y < 1.0 - 1e-12 else None
        if pi[0] < floor or pi[1] < floor:
            return None  # a missing type cannot mix on path
        tau = pair.index(_MIX)
        m_s = pair[1 - tau]
        share = weights * pi[1 - tau] / ((1.0 - weights) * pi[tau])
        # no margin below 1: a share under 1 puts the prior past the pooling
        # threshold, so a margin there left priors with no equilibrium at all
        if not floor < share < 1.0:
            return None
        mixing = (share, 1.0 - share) if m_s == 0 else (1.0 - share, share)
        return (mixing, _ONE_HOT[m_s]) if tau == ATTACKER else (_ONE_HOT[m_s], mixing)

    def build(self, p: float, layer: int, pair: tuple, kind: str, plan) -> _Candidate | None:
        """The candidate of ``plan``, of ``pair`` and ``kind`` in ``layer``,
        at prior p, or None where its senders cannot mix there: the one way
        a candidate is made.  Only its weights, beliefs and receiver value,
        and whether it exists, depend on p."""
        pi = (p, 1.0 - p)
        sigma_r, values, sigma_s, rule = plan
        mixing = _MIX in pair
        if mixing:  # its weights depend on p
            sigma_s = self._senders(pair, sigma_s, p, pi, layer)
            if sigma_s is None:
                return None
        # Bayes at any mass where a type mixes, or in the last layer
        beliefs = _posterior(p, sigma_s, 0.0 if mixing or layer == _TIED else 1e-15)
        if rule is not None:  # a pooling's off-path belief
            belief, want, g_att, g_def = rule
            if want is not None and (p * g_att + (1.0 - p) * g_def >= 0.0) == want:
                belief = p  # the prior's own trust gap has the sign wanted
            off_b = (belief, 1.0 - belief)
            beliefs = (beliefs[0], off_b) if pair[0] == 0 else (off_b, beliefs[1])
        rv = 0.0  # the receiver's value, in numpy's order
        for t, m, a in product(range(2), repeat=3):
            rv += pi[t] * sigma_s[t][m] * sigma_r[m][a] * self.u_r[t][m][a]
        return _Candidate(sigma_s, sigma_r, beliefs, values, rv, kind, (layer, pair, kind, plan))

    def solve(self, p: float) -> _Candidate:
        """The equilibrium :func:`signaling_equilibrium` selects at prior p: the
        best candidate :meth:`build` makes in the first layer that has one."""
        pi = (p, 1.0 - p)
        passive = (self._br(pi, 0), self._br(pi, 1))
        # the responses at _entry's sources: a message one type sends alone
        # has its one-hot posterior while its mass exceeds 1e-15, and a pooled
        # one the prior, since p + (1 - p) rounds to 1 for every p in [0, 1]
        picked, lone = (passive[0] & 1, passive[1] & 1), self.picked
        sources = (lone[0] if p > 1e-15 else picked, lone[1] if pi[1] > 1e-15 else picked)
        sources += (picked, (TRUST, TRUST))
        for layer, entries in enumerate(_LAYERS):
            if layer == _TIED:
                # Bayes wherever a message has mass
                sources = [self.alone[t] if pi[t] > 0.0 else passive for t in range(2)]
                sources += (passive, (_NEAR, _NEAR))
            found = []
            for pair, kind, w0, w1 in entries:
                plan = self.plan(layer, pair, sources[w0][0], sources[w1][1])
                if plan is not None and (candidate := self.build(p, layer, pair, kind, plan)):
                    found.append(candidate)
            if found:
                best = min(found, key=_Candidate.rank)
                # the bands miss the last layer's ties and two hybrids' crossing
                hybrids = sum(c.kind == "hybrid" for c in found)
                held = layer != _TIED and (best.kind != "hybrid" or hybrids == 1)
                return best._replace(held=held)
        raise RuntimeError("no equilibrium found")


def _trust_game(sender_utils, receiver_utils) -> _TrustGame:
    """The game on these tables, kept for the last 8 pairs by shape and float64 bytes."""
    tables = [np.asarray(t, dtype=float) for t in (sender_utils, receiver_utils)]
    return _prepared_game(*((t.shape, t.tobytes()) for t in tables))


@functools.lru_cache(maxsize=8)
def _prepared_game(sender: tuple, receiver: tuple) -> _TrustGame:
    return _TrustGame(*(np.frombuffer(data).reshape(shape) for shape, data in (sender, receiver)))


def signaling_equilibrium(prm: SignalingParams) -> SignalingOutcome:
    """Find a perfect Bayesian equilibrium of the 2x2x2 trust game.

    Each sender type sends message 0, message 1, or mixes, and the receiver
    answers each message with a trust probability its beliefs allow.  The
    support pairs are enumerated in layers, and the first layer with a
    candidate is selected from: prior beliefs off path with receiver ties
    resolved toward trust; both types mixing; pooling supported by other
    off-path beliefs; the receiver mixing near a tie.  So every prior in
    [0, 1] has an equilibrium.  Within a layer the kinds rank separating,
    hybrid, pooling, mixed; then higher receiver value, then the
    lexicographically smallest strategy profile, decide.

    A mixing type's value is its payoff at one message of its support, by
    its indifference, and its messages' beliefs follow Bayes' rule at any
    mass.  Candidates are built on Python floats with numpy's operation
    order, and near a tie the receiver compares numpy's own dot products, so
    every result has the bits a numpy evaluation gives.  This is one solve
    of the game that :func:`gne_solve` prepares, without its memo's bands.
    """
    return _trust_game(prm.sender_utils, prm.receiver_utils).solve(prm.prior).outcome()


# ---------------------------------------------------------------------------
# physical-layer utilities
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class PlantSpec:
    """Scalar plant x' = a x + b u with stage cost q x'^2 + r u^2, rolled
    out from x = 1."""

    a: float
    b: float
    q: float
    r: float
    horizon: int
    attack_input: float
    fallback_input: float = 0.0

    def __post_init__(self) -> None:
        if self.q < 0 or self.r < 0:
            raise ValueError("cost weights must be >= 0")
        if self.horizon < 1:
            raise ValueError("horizon must be >= 1")
        for name in ("a", "b", "attack_input", "fallback_input"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite")


def _rollout_cost(plant: PlantSpec, policy) -> float:
    x = 1.0
    cost = 0.0
    for _ in range(plant.horizon):
        u = policy(x)
        x = plant.a * x + plant.b * u
        cost += plant.q * x * x + plant.r * u * u
    return cost


def physical_utilities(plant: PlantSpec) -> np.ndarray:
    """Receiver utility table ``u[type, message, action]`` from the plant model.

    Each rollout starts at x = 1.  Trusting an attacker applies the
    constant attack input; rejecting falls back to the (safe) fallback
    input; trusting the defender applies the one-step-optimal feedback
    u = -(a b q x) / (q b^2 + r) at every step.
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
    """Fixed point of the composed timing + signaling system (see gne_solve)."""

    control_fraction: float
    attacker_value: float
    defender_value: float
    flipit: FlipItOutcome
    signaling: SignalingOutcome
    residual: float
    iterations: int
    converged: bool
    verified: bool


def _cost_errors(costs: GNECosts, top: float) -> list[tuple[str, str]]:
    """Each move cost under ``top`` (max |sender_utils|) / _MAX_VALUE_PER_COST,
    past the timing game's bound on value per cost, with the document field
    that sets it; the document validator reports them all, the solver the first."""
    return [
        (f"costs.{key}", error)
        for key, cost in (("attack", costs.attack_cost), ("defense", costs.defense_cost))
        if cost > 0
        and (error := _ratio_error("max |sender_utils| / cost", top / cost, _MAX_VALUE_PER_COST))
    ]


def gne_solve(
    costs: GNECosts,
    sender_utils,
    receiver_utils,
    damping: float = 0.5,
    tol: float = 1e-8,
    max_iters: int = 200,
    p0: float = 0.5,
) -> GNEState:
    """Find the composed equilibrium by a finite, exact fixed-point check.

    Let V(p) be the sender values of the trust game's selection at prior p,
    and h(v) the timing game's control fraction at values v, clamped at 0.
    Every trust-game plan has fixed sender values, so a fixed point, a
    prior with h(V(p)) == p, is h(v) at some plan's values v.  Those
    candidates are checked nearest ``p0`` first, the smaller on a tie; the
    last layer's plans add candidates only where the first three layers'
    give no fixed point.  V is read through :meth:`_TrustGame.lookup`, and
    the reported trust-game equilibrium is built from the selection it
    returns, so the result has the bits of solving both games afresh.
    A move cost under max |sender_utils| / _MAX_VALUE_PER_COST, past the
    timing game's bound on value per cost, raises ValueError.

    Args:
        costs: timing-game move costs.
        sender_utils, receiver_utils: (2, 2, 2) trust-game tables.
        damping: in (0, 1]; the residual is damping |h(V(p)) - p|, the step
            that a damped update p <- (1 - d) p + d h(V(p)) would take.
        tol, max_iters: checked (> 0, >= 1) and otherwise unused.
        p0: the prior in [0, 1] that candidates are ranked by nearness to.

    Returns:
        :class:`GNEState` with both games solved at the first fixed point,
        or with ``converged`` False at the checked candidate nearest ``p0``.
        ``residual`` is 0.0 at a fixed point, ``iterations`` counts the
        candidates checked, and ``verified`` is a fixed point whose
        timing-game pair is a certified equilibrium.
    """
    if not 0 < damping <= 1:
        raise ValueError("damping must be in (0, 1]")
    if not (tol > 0 and max_iters >= 1):
        raise ValueError("tol must be > 0 and max_iters >= 1")
    if not 0 <= p0 <= 1:
        raise ValueError("p0 must be in [0, 1]")
    game = _trust_game(sender_utils, receiver_utils)
    errors = _cost_errors(costs, game.top)
    if errors:
        raise ValueError(errors[0][1])
    FlipItParams(costs.attack_cost, costs.defense_cost, 0.0, 0.0)  # raises on a bad move cost
    selections: dict[float, tuple] = {}  # each checked candidate's selection

    def hat(values: tuple[float, float]) -> float:
        # flipit_equilibrium's control fraction at the values clamped at 0,
        # as the closed form takes a value <= 0 for 0
        return flipit_control_fraction(*_equilibrium_candidate(costs, *values))

    def near(q: float) -> tuple[float, float]:
        return abs(q - p0), q

    def state(p: float, converged: bool) -> GNEState:
        sig = game.build(p, *selections[p])
        v_a, v_d = (max(0.0, v) for v in sig.sender_values)
        flip = flipit_equilibrium(FlipItParams(costs.attack_cost, costs.defense_cost, v_a, v_d))
        residual = damping * abs(flip.control_fraction - p)
        verified = converged and flip.is_equilibrium
        return GNEState(
            p, v_a, v_d, flip, sig.outcome(), residual, len(selections), converged, verified
        )

    for tied in (False, True):
        for q in sorted({hat(v) for v in game.values(tied)}.difference(selections), key=near):
            values, selections[q] = game.lookup(q)
            if hat(values) == q:
                return state(q, True)
    return state(min(selections, key=near), False)
