"""Adversary model: worst-case link jamming.

The jammer removes up to ``m`` links so as to minimize the network's
algebraic connectivity.  Small instances are solved exactly by subset
enumeration; larger ones fall back to a greedy heuristic driven by Fiedler
edge impact scores.  Position spoofing is a scenario event, applied by the
simulator (:class:`resilnet.simulator.SpoofEvent`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import combinations, islice

import numpy as np

from .graph_core import (
    _NEGATIVE_TOL,
    SpectralResult,
    WeightedGraph,
    _deflate,
    algebraic_connectivity,
    laplacian,
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

# The exhaustive search screens subsets with a batched eigvalsh, then runs the
# reference eigensolve only on subsets the screen cannot rule out.  The two
# differ by roundoff, on the order of n * eps * shift (about 1e-14 * shift at
# n = 16), where shift bounds the spectrum; both margins below sit orders of
# magnitude outside it.  _SCREEN_MARGIN decides candidacy, _GUARD_MARGIN
# which subsets could make the reference path raise SpectralError.
_SCREEN_MARGIN = 1e-8
_GUARD_MARGIN = 1e-12

# Bytes of stacked matrices per batched eigvalsh call: 256 16x16 Laplacians.
# A 1 MB budget ran no faster on grid16-jam and raised peak RSS by about 1 MB.
_CHUNK_BYTES = 1 << 18


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
    """

    removal: tuple[int, ...]
    lambda2_after: float
    exact: bool


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
            the subset count C(edge_count, m) stays within ``SUBSET_CAP``).

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
        return WorstCaseResult((), algebraic_connectivity(g).lambda2, True)
    if mode == "auto":
        mode = "exhaustive" if math.comb(n_edges, m) <= SUBSET_CAP else "greedy"
    if mode == "exhaustive":
        return _exhaustive(g, m)
    return _greedy(g, m)


def _exhaustive(g: WeightedGraph, m: int) -> WorstCaseResult:
    """Scan every subset in enumeration order; a candidate replaces the
    incumbent only when its lambda2 is lower by more than ``_TIE_TOL``.

    Each chunk of subsets is screened first: one stacked ``eigvalsh`` of the
    deflated full Laplacian minus each removed edge's rank-one term.  The
    scan then replays the chunk and takes the reference eigensolve only of
    subsets whose screened value could undercut the incumbent or could be
    negative enough to raise, so the result keeps the bits of a scan that
    solves every subset exactly.
    """
    best_lam = algebraic_connectivity(g).lambda2
    best: tuple[int, ...] = ()
    deflated, shift = _deflate(laplacian(g))
    margin = _SCREEN_MARGIN * (1.0 + shift)
    guard = _NEGATIVE_TOL + _GUARD_MARGIN * (1.0 + shift)
    chunk = max(1, _CHUNK_BYTES // deflated.nbytes)
    for size in range(1, m + 1):
        subsets = combinations(range(g.edge_count), size)
        while combos := list(islice(subsets, chunk)):
            screened = _screen(g, deflated, np.array(combos, dtype=np.intp))
            for k in np.flatnonzero(screened < _cutoff(best_lam, margin, guard)).tolist():
                if screened[k] >= _cutoff(best_lam, margin, guard):
                    continue  # the incumbent fell since the chunk began
                lam = algebraic_connectivity(remove_links(g, combos[k])).lambda2
                if lam < best_lam - _TIE_TOL:
                    best_lam, best = lam, combos[k]
    return WorstCaseResult(best, best_lam, True)


def _cutoff(best_lam: float, margin: float, guard: float) -> float:
    """Screened values below this take the reference eigensolve: they could
    undercut the incumbent, or be negative enough to raise.  lambda2 is
    clamped at 0, so an incumbent within ``_TIE_TOL`` of 0 is final."""
    could_win = best_lam - _TIE_TOL + margin if best_lam > _TIE_TOL else -math.inf
    return max(could_win, guard)


def _screen(g: WeightedGraph, deflated: np.ndarray, combos: np.ndarray) -> np.ndarray:
    """Smallest eigenvalue of ``deflated`` with each row of edge indices
    removed: lambda2 of each subgraph, up to roundoff."""
    stack = np.repeat(deflated[None], len(combos), axis=0)
    rows = np.arange(len(combos))
    for e in combos.T:
        a, b, w = g.edges[e, 0], g.edges[e, 1], g.weights[e]
        stack[rows, a, a] -= w
        stack[rows, b, b] -= w
        stack[rows, a, b] += w
        stack[rows, b, a] += w
    return np.linalg.eigvalsh(stack)[:, 0]


def _greedy(g: WeightedGraph, m: int) -> WorstCaseResult:
    current = g
    original = list(range(len(g.edges)))
    removed: list[int] = []
    for _ in range(m):
        spectral = algebraic_connectivity(current)
        if spectral.lambda2 <= 0.0:
            break  # already disconnected; extra removals gain nothing
        # argmax takes the first index on a tie
        k = int(np.argmax(edge_impact_scores(current, spectral)))
        removed.append(original.pop(k))
        current = remove_links(current, (k,))
    lam = algebraic_connectivity(current).lambda2
    return WorstCaseResult(tuple(sorted(removed)), lam, False)


def edge_impact_scores(g: WeightedGraph, spectral: SpectralResult) -> np.ndarray:
    """Per-edge contribution w_ij * (v_i - v_j)^2 to lambda2, in edge order.

    With a unit Fiedler vector the scores sum to lambda2 (Rayleigh quotient),
    so a high score marks a link whose loss hurts connectivity most, to first
    order.  Invariant under the sign flip of the eigenvector.
    """
    dv = spectral.fiedler[g.edges[:, 0]] - spectral.fiedler[g.edges[:, 1]]
    return g.weights * (dv * dv)

