"""Proximity graphs of mobile agents and their algebraic connectivity.

Agents at positions in R^2 or R^3 are linked whenever they are within
communication range.  Network health is measured by the second-smallest
Laplacian eigenvalue (algebraic connectivity): it is positive exactly when
the graph is connected, and it grows as the graph gets better knit.

Two weight profiles are supported.  The ``binary`` profile gives every link
weight 1 and models the ground-truth radio network.  The ``smooth`` profile
decays as exp(-decay * d^2) inside the same cutoff and exists so that the
connectivity objective has a usable gradient for motion planning.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

__all__ = [
    "BINARY",
    "SMOOTH",
    "WeightProfile",
    "LayerProfiles",
    "WeightedGraph",
    "SpectralResult",
    "GradientResult",
    "SpectralError",
    "build_proximity_graph",
    "laplacian",
    "algebraic_connectivity",
    "connectivity_gradient",
    "remove_links",
]

BINARY = "binary"
SMOOTH = "smooth"

# Multiplicity threshold: lambda2 counts as simple when lambda3 - lambda2
# exceeds this gap.  Below it the Fiedler vector is not unique and gradients
# degrade to subgradients.
_SIMPLE_GAP = 1e-8

# Eigenvalues of a Laplacian are >= 0 in exact arithmetic; anything below
# this is an eigensolver failure rather than roundoff.
_NEGATIVE_TOL = -1e-10


class SpectralError(RuntimeError):
    """Raised when the eigensolver returns something unusable."""


@dataclass(frozen=True)
class WeightProfile:
    """Distance-to-weight rule for proximity links.

    Args:
        kind: ``"binary"`` or ``"smooth"``.
        comm_range: communication cutoff; pairs farther apart get no link.
        decay: quadratic decay rate for the smooth profile (1/m^2).  Defaults
            so the weight at the cutoff is 1e-3; must be omitted for binary.
    """

    kind: str
    comm_range: float
    decay: float | None = None

    def __post_init__(self) -> None:
        if self.kind not in (BINARY, SMOOTH):
            raise ValueError(f"unknown profile kind {self.kind!r}")
        if not (math.isfinite(self.comm_range) and self.comm_range > 0):
            raise ValueError(f"comm_range must be positive, got {self.comm_range}")
        if self.kind == BINARY:
            if self.decay is not None:
                raise ValueError("binary profile takes no decay")
        else:
            if self.decay is None:
                # weight at the cutoff distance is exactly 1e-3 by default
                object.__setattr__(
                    self, "decay", math.log(1e3) / self.comm_range**2
                )
            if not (math.isfinite(self.decay) and self.decay > 0):
                raise ValueError(f"decay must be positive, got {self.decay}")

    def pair(self, i: int, j: int) -> "WeightProfile":
        """Profile governing the link between agents ``i`` and ``j``."""
        return self

    def weight(self, dist: float) -> float:
        """Link weight at distance ``dist``; 0 beyond the cutoff."""
        if dist > self.comm_range:
            return 0.0
        if self.kind == BINARY:
            return 1.0
        return math.exp(-self.decay * dist * dist)

    def min_range(self) -> float:
        return self.comm_range

    def smooth_surrogate(self) -> "WeightProfile":
        """Smooth profile the planner differentiates; the cutoff is unchanged."""
        if self.kind == SMOOTH:
            return self
        return WeightProfile(SMOOTH, self.comm_range)


@dataclass(frozen=True)
class LayerProfiles:
    """Per-layer weight profiles for multi-layer teams (e.g. UAV + UGV).

    A cross-layer pair is governed by the more restrictive profile, i.e. the
    one with the smaller communication range (layer name breaks ties), so a
    link exists only when both endpoints can hear each other.
    """

    layers: tuple[str, ...]
    profiles: Mapping[str, WeightProfile]

    def __post_init__(self) -> None:
        missing = sorted(set(self.layers) - set(self.profiles))
        if missing:
            raise ValueError(f"no profile for layers {missing}")
        kinds = {p.kind for p in self.profiles.values()}
        if len(kinds) > 1:
            raise ValueError("all layer profiles must share one kind")

    def pair(self, i: int, j: int) -> WeightProfile:
        la, lb = self.layers[i], self.layers[j]
        pa, pb = self.profiles[la], self.profiles[lb]
        return pa if (pa.comm_range, la) <= (pb.comm_range, lb) else pb

    def min_range(self) -> float:
        return min(p.comm_range for p in self.profiles.values())

    def smooth_surrogate(self) -> "LayerProfiles":
        return LayerProfiles(
            self.layers,
            {name: p.smooth_surrogate() for name, p in self.profiles.items()},
        )


@dataclass(frozen=True)
class WeightedGraph:
    """Undirected weighted graph on agents 0..n-1.

    Edges are (i, j, w) with i < j, sorted lexicographically, so edge indices
    are stable and runs replay identically.
    """

    n: int
    edges: tuple[tuple[int, int, float], ...]

    @property
    def edge_count(self) -> int:
        return len(self.edges)

    def neighbors(self) -> list[set[int]]:
        adj: list[set[int]] = [set() for _ in range(self.n)]
        for i, j, _ in self.edges:
            adj[i].add(j)
            adj[j].add(i)
        return adj


@dataclass(frozen=True, eq=False)
class SpectralResult:
    """Second-smallest Laplacian eigenvalue and its eigenvector."""

    lambda2: float
    fiedler: np.ndarray
    is_simple: bool


@dataclass(frozen=True, eq=False)
class GradientResult:
    """Per-agent gradient of lambda2 with respect to positions.

    ``exact`` is False when the eigenvalue was not simple, in which case the
    vectors form a valid subgradient for the eigenvector that was returned.
    """

    per_agent: np.ndarray
    exact: bool = True


def as_positions(positions, dimension: int | None = None) -> np.ndarray:
    """Validate and convert to an (n, d) float array, d in {2, 3}."""
    pos = np.asarray(positions, dtype=float)
    if pos.ndim != 2:
        raise ValueError(f"positions must be 2-d (n, d), got shape {pos.shape}")
    n, d = pos.shape
    if d not in (2, 3):
        raise ValueError(f"positions must live in 2 or 3 dimensions, got {d}")
    if dimension is not None and d != dimension:
        raise ValueError(f"expected dimension {dimension}, got {d}")
    if not np.all(np.isfinite(pos)):
        raise ValueError("positions must be finite")
    return pos


def build_proximity_graph(
    positions, profile: WeightProfile | LayerProfiles
) -> WeightedGraph:
    """Link every pair of agents within communication range.

    Args:
        positions: (n, d) array-like of agent positions, n >= 2.
        profile: a single :class:`WeightProfile`, or :class:`LayerProfiles`
            when ranges differ per layer.

    Returns:
        The proximity graph with weights taken from the profile.
    """
    pos = as_positions(positions)
    n = len(pos)
    if n < 2:
        raise ValueError("need at least 2 agents")
    if isinstance(profile, LayerProfiles) and len(profile.layers) != n:
        raise ValueError("layer count does not match agent count")
    edges = []
    for i in range(n - 1):
        for j in range(i + 1, n):
            p = profile.pair(i, j)
            d = float(np.linalg.norm(pos[i] - pos[j]))
            if d <= p.comm_range:
                edges.append((i, j, p.weight(d)))
    return WeightedGraph(n, tuple(edges))


def laplacian(g: WeightedGraph) -> np.ndarray:
    """Weighted graph Laplacian L = D - W."""
    lap = np.zeros((g.n, g.n))
    for i, j, w in g.edges:
        lap[i, i] += w
        lap[j, j] += w
        lap[i, j] -= w
        lap[j, i] -= w
    return lap


def algebraic_connectivity(g: WeightedGraph) -> SpectralResult:
    """Compute lambda2 and a unit Fiedler vector orthogonal to all-ones.

    The all-ones kernel direction is deflated by a rank-one shift before the
    dense symmetric eigendecomposition, so the returned eigenvector is
    orthogonal to all-ones even when the graph is disconnected and the zero
    eigenvalue is repeated.
    """
    if g.n < 2:
        raise ValueError("need at least 2 agents")
    lap = laplacian(g)
    n = g.n
    # shift strictly above lambda_max (Gershgorin bound: 2 * max degree)
    shift = 2.0 * float(np.max(np.diag(lap))) + 1.0
    deflated = lap + (shift / n) * np.ones((n, n))
    evals, evecs = np.linalg.eigh(deflated)
    lam2 = float(evals[0])
    if lam2 < _NEGATIVE_TOL:
        raise SpectralError(f"negative lambda2 from eigensolver: {lam2}")
    lam2 = max(lam2, 0.0)
    lam3 = float(evals[1]) if n >= 3 else math.inf
    vec = evecs[:, 0]
    # sweep out any residual all-ones component and fix a deterministic sign
    vec = vec - vec.mean()
    norm = float(np.linalg.norm(vec))
    if norm < 1e-12:
        raise SpectralError("Fiedler vector collapsed onto the kernel")
    vec = vec / norm
    for x in vec:
        if abs(x) > 1e-12:
            if x < 0:
                vec = -vec
            break
    return SpectralResult(lam2, vec, bool(lam3 - lam2 > _SIMPLE_GAP))


def connectivity_gradient(
    positions,
    profile: WeightProfile | LayerProfiles,
    spectral: SpectralResult,
    g: WeightedGraph,
) -> GradientResult:
    """Gradient of lambda2 with respect to agent positions.

    For a simple eigenvalue with unit Fiedler vector v,
    d(lambda2)/d(w_ij) = (v_i - v_j)^2, and for the smooth profile
    d(w)/d(x_i) = -2 * decay * w * (x_i - x_j), so each edge contributes
    -2 * decay * w * (v_i - v_j)^2 * (x_i - x_j) to agent i.  Coincident
    endpoints contribute zero.  Requires a smooth profile.

    Returns:
        :class:`GradientResult`; ``exact`` mirrors ``spectral.is_simple``.
    """
    pos = as_positions(positions)
    if g.n != len(pos):
        raise ValueError("graph and positions disagree on agent count")
    v = spectral.fiedler
    grad = np.zeros_like(pos)
    for i, j, w in g.edges:
        p = profile.pair(i, j)
        if p.kind != SMOOTH:
            raise ValueError("gradient needs a smooth profile")
        coef = -2.0 * p.decay * w * (v[i] - v[j]) ** 2
        diff = pos[i] - pos[j]
        grad[i] += coef * diff
        grad[j] -= coef * diff
    return GradientResult(grad, spectral.is_simple)


def remove_links(g: WeightedGraph, removal: Sequence[int]) -> WeightedGraph:
    """New graph with the edges at the given indices removed."""
    drop = set(removal)
    for k in drop:
        if not 0 <= k < len(g.edges):
            raise ValueError(f"edge index {k} out of range")
    kept = tuple(e for k, e in enumerate(g.edges) if k not in drop)
    return WeightedGraph(g.n, kept)
