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
from itertools import combinations

import numpy as np

from .graph_core import (
    SpectralResult,
    WeightedGraph,
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
    subset_cap: int = SUBSET_CAP,
) -> WorstCaseResult:
    """Find the link removal within budget that minimizes lambda2.

    Args:
        g: the graph under attack.
        budget: at most ``budget.m`` edges removed; must not exceed the edge
            count.
        mode: ``"exhaustive"``, ``"greedy"``, or ``"auto"`` (exhaustive while
            the subset count C(edge_count, m) stays within ``subset_cap``).

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
        mode = "exhaustive" if math.comb(n_edges, m) <= subset_cap else "greedy"
    if mode == "exhaustive":
        return _exhaustive(g, m)
    return _greedy(g, m)


def _exhaustive(g: WeightedGraph, m: int) -> WorstCaseResult:
    best_lam = algebraic_connectivity(g).lambda2
    best: tuple[int, ...] = ()
    for size in range(1, m + 1):
        for combo in combinations(range(len(g.edges)), size):
            lam = algebraic_connectivity(remove_links(g, combo)).lambda2
            if lam < best_lam - _TIE_TOL:
                best_lam, best = lam, combo
    return WorstCaseResult(best, best_lam, True)


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

