"""Adversary model: worst-case link jamming.

The jammer removes up to ``m`` links so as to minimize the network's
algebraic connectivity.  Small instances are solved exactly by subset
enumeration; larger ones fall back to a greedy heuristic that cuts the link
of largest Fiedler impact, one at a time.  Position spoofing is a scenario
event, applied by the simulator (:class:`resilnet.simulator.SpoofEvent`).
"""

from __future__ import annotations

import functools
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

# numpy is called at its C entry points on the per-step path; see graph_core.

__all__ = [
    "RemovalBudget",
    "WorstCaseResult",
    "SUBSET_CAP",
    "worst_case_removal",
]

# ``auto`` searches exhaustively while the subsets it scans number at most this.
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
        mode: ``"exhaustive"``, ``"greedy"``, or ``"auto"``: exhaustive
            while the subsets it scans (below) number at most
            ``SUBSET_CAP``, greedy beyond.

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
    # No subset larger than the minimum degree delta is scanned.  Removing
    # all delta links of an agent of least degree isolates it, so a subset
    # of at most max(delta, 1) edges has lambda2 = 0, and its eigensolve
    # gives roundoff r >= 0 (clamped).  Sizes are scanned in ascending order,
    # so after them the incumbent is at most r + _TIE_TOL; once it is at
    # most _TIE_TOL no lambda2 >= 0 undercuts it and no larger subset can
    # win.  Where roundoff leaves it above, the search runs again at the full
    # budget.  A guarded subset larger than delta, whose eigensolve would
    # only have checked for a negative lambda2, is then never solved.
    cut = min(m, max(int(np.minimum.reduce(np.bincount(g.edges.ravel(), minlength=g.n))), 1))
    if mode == "greedy" or (mode == "auto" and not _within_cap(n_edges, cut)):
        return _greedy(g, m)
    result = _exhaustive(g, cut)
    if result.lambda2_after > _TIE_TOL and cut < m:
        if mode == "auto" and not _within_cap(n_edges, m):
            return _greedy(g, m)
        result = _exhaustive(g, m)
    return result


def _within_cap(n_edges: int, m: int) -> bool:
    """Whether the subsets of 1..m edges number at most ``SUBSET_CAP``."""
    return sum(math.comb(n_edges, s) for s in range(1, m + 1)) <= SUBSET_CAP


def _certified_below(
    g: WeightedGraph, m: int, vectors: np.ndarray, norms: np.ndarray, level: float
) -> bool:
    """Whether a Rayleigh quotient proves that the worst case of g at budget
    b = min(m, E) lies below ``level``, with no search.

    Each row u of ``vectors`` is a test vector, ``norms`` holds ||u||^2 -
    (sum u)^2 / n for each, the squared norm of u projected off the all-ones
    vector.  With t_e = w_e (u_i - u_j)^2 for each edge e = (i, j), and S the
    b edges of largest t_e, Courant-Fischer gives lambda2(G - S) <= R = (sum
    of t_e over the edges outside S) / norm, as the numerator does not see
    the all-ones part of u (Fiedler 1973).  The test is true when some row
    has R + 2 ``_TIE_TOL`` + ``_SCREEN_MARGIN`` (1 + shift) < level, shift
    being ``_deflate``'s 2 (max weighted degree) + 1.  Then the value that
    ``worst_case_removal(g, RemovalBudget(b))`` returns lies below level by
    more than ``_TIE_TOL``:

    - It holds only where ``auto`` searches exhaustively; a greedy result is
      not bounded by any one subset's lambda2.  Within the cap at b,
      ``auto`` scans the cut and any rerun at b, so it is exhaustive there;
      past it, only where the cut reaches 0, which the guard leaves alone.
    - The exhaustive search keeps a candidate only when it undercuts the
      incumbent by more than ``_TIE_TOL``, so its result is at most
      lambda2_ref(S) + ``_TIE_TOL`` for every subset S it scans.  Where the
      minimum-degree cut stops it before size b, its result is at most
      ``_TIE_TOL``, below R + ``_TIE_TOL``.  At b = 0 the result is
      lambda2_ref of g itself.
    - The reference eigensolve of G - S exceeds the exact lambda2 by at most
      roundoff of order n eps shift, and R carries relative error O(E eps),
      with R <= shift; both lie far inside the margin, which scales with
      shift, as the roundoff does with heavy link weights.

    The planner's snap sends a value below 1e-12 to 0, which is below level
    too, as level exceeds the margin.  An incumbent at 0 never certifies.
    One pass over the (k, E) table of t_e, partitioned in place for the b
    largest, tests every row.
    """
    b = min(m, g.edge_count)
    if not len(norms) or not _within_cap(g.edge_count, b):
        return False
    i, j = g.edges.T
    t = g.weights * (vectors[:, i] - vectors[:, j]) ** 2
    keep = g.edge_count - b
    if keep:
        t.partition(keep - 1, axis=1)
    outside = np.add.reduce(t[:, :keep], axis=1)
    degree = np.bincount(g.edges.ravel(), g.weights.repeat(2), minlength=g.n)
    shift = 2.0 * float(np.maximum.reduce(degree)) + 1.0
    bound = float(np.minimum.reduce(outside / norms))
    return bound + 2.0 * _TIE_TOL + _SCREEN_MARGIN * (1.0 + shift) < level


def _exhaustive(g: WeightedGraph, m: int) -> WorstCaseResult:
    """Scan every subset in enumeration order; a candidate replaces the
    incumbent only when its lambda2 is lower by more than ``_TIE_TOL``.

    Only a window takes the reference eigensolve: every subset the screen
    puts within ``margin`` of the top of a ``margin / 4`` bisection bracket
    on the smallest lambda2 over all subsets, mu.  A mask at ``guard`` marks
    the subsets whose eigensolve could raise; once the incumbent is within
    ``_TIE_TOL`` of 0 nothing can undercut it, and only those still run.
    The mask is made then, over the window, which holds every guarded
    subset (below).

    Skipping a subset outside the window is exact.  Take a level L in (mu,
    mu + margin), clear of it by more than roundoff, with no window value,
    nor the start value, in [L - _TIE_TOL, L); one exists while the window
    holds fewer than ``margin / (2 _TIE_TOL)`` subsets, and past that every
    subset is replayed.  Every subset outside lies above L.  While the
    incumbent is >= L, the first subset below L undercuts it by more than
    ``_TIE_TOL``, so both scans take it at the same point; after it, no
    subset outside the window can undercut the incumbent.  A skipped subset
    could only have been an incumbent that a window subset later replaces.

    The window pass screens only the survivors of the bisection's first
    shrink, at x1, when x1 clears the window's edge, top, by at least
    ``margin``; otherwise it screens every subset.  That keeps every
    decision.  f(x) = lambda_max(P_SS(x)) grows with x, with f'(x) >= f(x) /
    (lam[-1] - x) (P' = Z (diag(lam) - x)^-2 Z^T, and lam[-1] is the shift,
    which bounds the spectrum), so from any x where a row screens in, f
    gains a factor of at least 1 + gap / (shift + margin) by x + gap: about
    1 + 1e-8 for a gap of ``margin``.  Near f = 1 a row's trace is at most
    3, so that is far more than the screen's roundoff, O(k eps) (see
    ``_below``), and the row screens in at x1 too.  The same holds from
    ``guard`` to top.  The bracket top is lam[0] >= ``_NEGATIVE_TOL``, a
    lone row's lambda2 >= 0, or an x where some row screened in, whose
    lambda2 >= 0 puts x above -O(k eps shift); and ``guard`` lies
    ``_GUARD_MARGIN / _SCREEN_MARGIN`` = 1e-4 of a margin above
    ``_NEGATIVE_TOL``.  So top clears ``guard`` by nearly a margin, and
    every guarded subset is in the window.

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
    i, j = g.edges.T
    z = np.zeros((g.edge_count + 1, g.n))  # the padding edge's row stays 0
    z[:-1] = np.sqrt(g.weights)[:, None] * (vecs[i] - vecs[j])
    subsets = _subsets(g.edge_count, m)

    def combo(row: np.ndarray) -> tuple[int, ...]:
        return tuple(e for e in row.tolist() if e < g.edge_count)

    # a subset not below some x is not below any lower x either
    lo, hi, candidates = -margin, float(lam[0]), subsets
    pool, x1 = None, -math.inf  # the first shrink's survivors, and its x
    solved: dict[tuple[int, ...], SpectralResult] = {}
    while hi - lo >= 0.25 * margin:
        if len(candidates) == 1 and hi > _TIE_TOL + margin:
            lone = combo(candidates[0])
            solved[lone] = algebraic_connectivity(remove_links(g, lone))
            hi = solved[lone].lambda2
            break
        mid = 0.5 * (lo + hi)
        inside = _below(z, lam, mid, candidates)
        if np.logical_or.reduce(inside):
            if pool is None:
                pool, x1 = inside.nonzero()[0], mid
            hi, candidates = mid, candidates[inside]
        else:
            lo = mid
    top = hi + margin
    rows = pool if x1 >= top + margin else slice(None)
    window = np.zeros(len(subsets), dtype=bool)
    window[rows] = _below(z, lam, top, subsets[rows])
    if np.count_nonzero(window) * _TIE_TOL >= 0.5 * margin:
        window[:] = True
    guarded = None
    for k in window.nonzero()[0].tolist():
        if best_lam <= _TIE_TOL:
            if guarded is None:
                guarded = np.zeros_like(window)
                guarded[window] = _below(z, lam, guard, subsets[window])
            if not guarded[k]:
                continue
        removal = combo(subsets[k])
        spectral = solved.get(removal)
        if spectral is None:
            spectral = algebraic_connectivity(remove_links(g, removal))
        if spectral.lambda2 < best_lam - _TIE_TOL:
            best_lam, best, attacked = spectral.lambda2, removal, spectral
    return WorstCaseResult(best, best_lam, True, start, attacked)


@functools.lru_cache(maxsize=8)
def _subsets(n_edges: int, m: int) -> np.ndarray:
    """Every subset of 1..m edges in enumeration order, one per row, padded
    to at least two columns with the edge ``n_edges``, which weighs nothing.

    Each size's block extends every row of the block before it, in order,
    by each edge after its last one, so the rows stay lexicographic.  One
    read-only table is made per (edge count, budget) and shared by every
    search.  Where ``auto`` picks the exhaustive search, an entry holds at
    most ``SUBSET_CAP`` rows of ``max(m, 2)`` columns, and m <= 15, since
    2^16 - 1 subsets exceed the cap: at most 6 MB per entry, 48 MB for the
    8 entries.  A search forced to ``"exhaustive"`` caches whatever table
    it builds.
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
        block[:, :s] = prev.repeat(counts, axis=0)
        # within each row's run the new edge counts up from last + 1
        offset = counts.cumsum() - counts - last - 1
        block[:, s] = np.arange(sizes[s]) - offset.repeat(counts)
    table.flags.writeable = False
    return table


def _below(z: np.ndarray, lam: np.ndarray, x: float, rows: np.ndarray) -> np.ndarray:
    """Whether lambda2 after removing each row's edges is at most x.

    Below lam[0], P(x) is positive semidefinite, so a row's block has its
    largest eigenvalue at most its trace, the sum of its entries of
    ``p.diagonal()``, and a row whose trace falls short of 1 by more than
    roundoff is not below x.  Only the rest take the exact test, with the
    same expressions on the same ``p``, so each decision keeps its bits.
    The margin covers roundoff: each entry of p sums k = len(lam) products
    z_ik z_jk / (lam_k - x) with positive denominators, so the computed
    diagonal entries a, c carry relative error O(k eps), and by Cauchy-
    Schwarz the computed off-diagonal entry b has |b| <= sqrt(ac) (1 + O(k
    eps)).  The computed largest eigenvalue, of the 2 x 2 formula or of
    ``eigvalsh``, is then at most (a + c)(1 + O(k eps)), and k eps stays
    far inside the margin 1e-9 for any team of fewer than 10^5 agents.
    """
    if x >= lam[0]:
        return np.ones(len(rows), dtype=bool)
    p = (z / (lam - x)) @ z.T
    d = p.diagonal()
    if rows.shape[1] == 2:
        i, j = rows.T
        a, c = d[i], d[j]
        inside = a + c >= 1.0 - 1e-9
        k = inside.nonzero()[0]
        if len(k):
            a, c, i, j = a[k], c[k], i[k], j[k]
            inside[k] = 0.5 * (a + c) + np.hypot(0.5 * (a - c), p[i, j]) >= 1.0
        return inside
    inside = np.add.reduce(d[rows], axis=1) >= 1.0 - 1e-9
    k = inside.nonzero()[0]
    if len(k):
        r = rows[k]
        inside[k] = np.linalg.eigvalsh(p[r[:, :, None], r[:, None, :]])[:, -1] >= 1.0
    return inside


def _greedy(g: WeightedGraph, m: int) -> WorstCaseResult:
    """Remove, one at a time, the link of largest impact w_ij (v_i - v_j)^2 on
    the Fiedler vector v, whose loss lowers lambda2 most to first order."""
    current = g
    original = list(range(len(g.edges)))
    removed: list[int] = []
    start = spectral = algebraic_connectivity(g)
    for _ in range(m):
        if spectral.lambda2 <= 0.0:
            break  # already disconnected; extra removals gain nothing
        dv = spectral.fiedler[current.edges[:, 0]] - spectral.fiedler[current.edges[:, 1]]
        # argmax takes the first index on a tie
        k = int((current.weights * (dv * dv)).argmax())
        removed.append(original.pop(k))
        current = remove_links(current, (k,))
        spectral = algebraic_connectivity(current)
    return WorstCaseResult(tuple(sorted(removed)), spectral.lambda2, False, start, spectral)
