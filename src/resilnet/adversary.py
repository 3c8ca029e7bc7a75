"""Adversary model: worst-case link jamming.

The jammer removes up to ``m`` links so as to minimize the network's
algebraic connectivity.  Small instances are solved exactly by subset
enumeration; larger ones fall back to a greedy heuristic driven by Fiedler
edge impact scores.  Position spoofing is a scenario event, applied by the
simulator (:class:`resilnet.simulator.SpoofEvent`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .graph_core import (
    _NEGATIVE_TOL,
    SpectralResult,
    WeightedGraph,
    _eigensolve,
    _spectral_result,
    algebraic_connectivity,
    remove_links,
)

__all__ = [
    "RemovalBudget",
    "WorstCaseResult",
    "SUBSET_CAP",
    "worst_case_removal",
    "edge_impact_scores",
]

# Exhaustive search is used while C(edge_count, m) stays below this.
SUBSET_CAP = 50_000

# New candidates must undercut the incumbent by more than this, so exact ties
# resolve to the earliest subset in enumeration order (smallest, then
# lexicographic).
_TIE_TOL = 1e-12

# The exhaustive search screens subsets through the secular equation (Golub
# 1973; Bunch, Nielsen and Sorensen 1978).  With the deflated Laplacian
# A = Q diag(lam) Q^T and rows z_e = sqrt(w_e) Q^T (e_a - e_b), lambda2 after
# removing S is at most x < lam[0] exactly when the largest eigenvalue of the
# block P_SS of P = Z (diag(lam) - x)^-1 Z^T reaches 1.  Screen and reference
# eigensolve differ by roundoff, about n * eps * shift, where shift bounds the
# spectrum; both margins sit orders of magnitude outside it.  _SCREEN_MARGIN
# sets the window of candidates, _GUARD_MARGIN which subsets could make the
# reference path raise SpectralError.
_SCREEN_MARGIN = 1e-8
_GUARD_MARGIN = 1e-12


@dataclass(frozen=True)
class RemovalBudget:
    """Maximum number of links the jammer may remove in one step."""

    m: int

    def __post_init__(self) -> None:
        if self.m < 0:
            raise ValueError(f"budget must be >= 0, got {self.m}")


@dataclass(frozen=True)
class WorstCaseResult:
    """Most damaging removal found, and lambda2 after applying it.

    ``exact`` is True when every subset within budget was enumerated.
    ``start`` and ``attacked`` are the spectra of the graph before and after
    the removal, from the search's own eigensolves; they take no part in
    comparison or repr.
    """

    removal: tuple[int, ...]
    lambda2_after: float
    exact: bool
    start: SpectralResult = field(repr=False, compare=False)
    attacked: SpectralResult = field(repr=False, compare=False)


def worst_case_removal(
    g: WeightedGraph,
    budget: RemovalBudget,
    mode: str = "auto",
) -> WorstCaseResult:
    """Find the link removal within budget that minimizes lambda2.

    Args:
        g: the graph under attack.
        budget: at most ``budget.m`` edges removed; must not exceed the edge
            count.
        mode: ``"exhaustive"``, ``"greedy"``, or ``"auto"`` (exhaustive while
            the count of subsets of 1..m edges stays within ``SUBSET_CAP``).

    Returns:
        :class:`WorstCaseResult`.  Ties in the exhaustive search are broken
        toward smaller lambda2, then fewer removed edges, then the
        lexicographically first index set.
    """
    m = budget.m
    n_edges = len(g.edges)
    if m > n_edges:
        raise ValueError(f"budget {m} exceeds edge count {n_edges}")
    if mode not in ("auto", "exhaustive", "greedy"):
        raise ValueError(f"unknown mode {mode!r}")
    if m == 0:
        start = algebraic_connectivity(g)
        return WorstCaseResult((), start.lambda2, True, start, start)
    if mode == "auto":
        scanned = sum(math.comb(n_edges, s) for s in range(1, m + 1))
        mode = "exhaustive" if scanned <= SUBSET_CAP else "greedy"
    if mode == "exhaustive":
        return _exhaustive(g, m)
    return _greedy(g, m)


def _exhaustive(g: WeightedGraph, m: int) -> WorstCaseResult:
    """Scan every subset in enumeration order; a candidate replaces the
    incumbent only when its lambda2 is lower by more than ``_TIE_TOL``.

    Only a window takes the reference eigensolve: every subset the screen
    puts within ``margin`` of the top of a ``margin / 4`` bisection bracket
    on the smallest lambda2 over all subsets, mu.  A mask at ``guard`` marks
    the subsets whose eigensolve could raise; once the incumbent is within
    ``_TIE_TOL`` of 0 nothing can undercut it, and only those still run.

    Skipping a subset outside the window is exact.  Take a level L in (mu,
    mu + margin), clear of it by more than roundoff, with no window value,
    nor the start value, in [L - _TIE_TOL, L); one exists while the window
    holds fewer than ``margin / (2 _TIE_TOL)`` subsets, and past that every
    subset is replayed.  Every subset outside lies above L.  While the
    incumbent is >= L, the first subset below L undercuts it by more than
    ``_TIE_TOL``, so both scans take it at the same point; after it, no
    subset outside the window can undercut the incumbent.  A skipped subset
    could only have been an incumbent that a window subset later replaces.

    The bisection stops early once a lone candidate remains under a top
    above ``_TIE_TOL + margin``.  That row is the screen's unique minimum, so
    mu is its screen value, and its reference lambda2 lies within roundoff
    of mu; that lambda2 becomes the top, and the argument above holds with
    the window every subset within ``margin`` of it.  The replay reads the
    value instead of solving the row again, so the same subsets are solved
    and every bit is kept.  The stop leaves the zero-incumbent rule as it
    was: a subset, or the start graph, with lambda2 <= ``_TIE_TOL`` would
    screen below the top and still be a candidate, so the incumbent stays
    above ``_TIE_TOL`` until the replay reaches the lone row, which it would
    have solved anyway.  Tied minima never leave a lone candidate, so they
    keep the full bisection.

    One eigendecomposition of the start graph serves both the screen and the
    start spectrum, whose checks run before any screen.
    """
    lam, vecs, shift = _eigensolve(g)
    start = attacked = _spectral_result(lam, vecs)
    best_lam, best = start.lambda2, ()
    margin = _SCREEN_MARGIN * (1.0 + shift)
    guard = _NEGATIVE_TOL + _GUARD_MARGIN * (1.0 + shift)
    a, b = np.append(g.edges, [[0, 0]], axis=0).T  # padding edge: a loop, so z = 0
    z = np.sqrt(np.append(g.weights, 0.0))[:, None] * (vecs[a] - vecs[b])
    subsets = _subsets(g.edge_count, m)

    def combo(row: np.ndarray) -> tuple[int, ...]:
        return tuple(e for e in row.tolist() if e < g.edge_count)

    # a subset not below some x is not below any lower x either
    lo, hi, candidates = -margin, float(lam[0]), subsets
    solved: dict[tuple[int, ...], SpectralResult] = {}
    while hi - lo >= 0.25 * margin:
        if len(candidates) == 1 and hi > _TIE_TOL + margin:
            lone = combo(candidates[0])
            solved[lone] = algebraic_connectivity(remove_links(g, lone))
            hi = solved[lone].lambda2
            break
        mid = 0.5 * (lo + hi)
        inside = _below(z, lam, mid, candidates)
        if inside.any():
            hi, candidates = mid, candidates[inside]
        else:
            lo = mid
    guarded = _below(z, lam, guard, subsets)
    window = guarded | _below(z, lam, hi + margin, subsets)
    if np.count_nonzero(window) * _TIE_TOL >= 0.5 * margin:
        window[:] = True
    for k in np.flatnonzero(window).tolist():
        if best_lam > _TIE_TOL or guarded[k]:
            removal = combo(subsets[k])
            spectral = solved.get(removal)
            if spectral is None:
                spectral = algebraic_connectivity(remove_links(g, removal))
            if spectral.lambda2 < best_lam - _TIE_TOL:
                best_lam, best, attacked = spectral.lambda2, removal, spectral
    return WorstCaseResult(best, best_lam, True, start, attacked)


def _subsets(n_edges: int, m: int) -> np.ndarray:
    """Every subset of 1..m edges in enumeration order, one per row, padded
    to at least two columns with the edge ``n_edges``, which weighs nothing.

    Each size's block extends every row of the block before it, in order,
    by each edge after its last one, so the rows stay lexicographic.
    """
    sizes = [math.comb(n_edges, s) for s in range(1, m + 1)]
    table = np.full((sum(sizes), max(m, 2)), n_edges, dtype=np.intp)
    table[:n_edges, 0] = np.arange(n_edges)
    top = 0
    for s in range(1, m):
        prev = table[top : top + sizes[s - 1], :s]
        top += sizes[s - 1]
        block = table[top : top + sizes[s]]
        last = prev[:, -1]
        counts = n_edges - 1 - last
        block[:, :s] = np.repeat(prev, counts, axis=0)
        # within each row's run the new edge counts up from last + 1
        offset = np.cumsum(counts) - counts - last - 1
        block[:, s] = np.arange(sizes[s]) - np.repeat(offset, counts)
    return table


def _below(z: np.ndarray, lam: np.ndarray, x: float, rows: np.ndarray) -> np.ndarray:
    """Whether lambda2 after removing each row's edges is at most x."""
    if x >= lam[0]:
        return np.ones(len(rows), dtype=bool)
    p = (z / (lam - x)) @ z.T
    if rows.shape[1] == 2:
        i, j = rows.T
        a, c = p[i, i], p[j, j]
        return 0.5 * (a + c) + np.hypot(0.5 * (a - c), p[i, j]) >= 1.0
    return np.linalg.eigvalsh(p[rows[:, :, None], rows[:, None, :]])[:, -1] >= 1.0


def _greedy(g: WeightedGraph, m: int) -> WorstCaseResult:
    current = g
    original = list(range(len(g.edges)))
    removed: list[int] = []
    start = spectral = algebraic_connectivity(g)
    for _ in range(m):
        if spectral.lambda2 <= 0.0:
            break  # already disconnected; extra removals gain nothing
        # argmax takes the first index on a tie
        k = int(np.argmax(edge_impact_scores(current, spectral)))
        removed.append(original.pop(k))
        current = remove_links(current, (k,))
        spectral = algebraic_connectivity(current)
    return WorstCaseResult(tuple(sorted(removed)), spectral.lambda2, False, start, spectral)


def edge_impact_scores(g: WeightedGraph, spectral: SpectralResult) -> np.ndarray:
    """Per-edge contribution w_ij * (v_i - v_j)^2 to lambda2, in edge order.

    With a unit Fiedler vector the scores sum to lambda2 (Rayleigh quotient),
    so a high score marks a link whose loss hurts connectivity most, to first
    order.  Invariant under the sign flip of the eigenvector.
    """
    dv = spectral.fiedler[g.edges[:, 0]] - spectral.fiedler[g.edges[:, 1]]
    return g.weights * (dv * dv)

