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

import functools
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

    def min_range(self) -> float:
        """Shortest range among the layers in use; an unused profile links no one."""
        return min(self.profiles[name].comm_range for name in set(self.layers))

    def smooth_surrogate(self) -> "LayerProfiles":
        return LayerProfiles(
            self.layers,
            {name: p.smooth_surrogate() for name, p in self.profiles.items()},
        )


@dataclass(frozen=True, eq=False)
class WeightedGraph:
    """Undirected weighted graph on agents 0..n-1.

    ``edges`` is an (E, 2) integer array of pairs i < j, sorted
    lexicographically, and ``weights`` the (E,) link weights, so edge
    indices are stable and runs replay identically.
    """

    n: int
    edges: np.ndarray
    weights: np.ndarray

    def __post_init__(self) -> None:
        edges = np.asarray(self.edges, dtype=np.intp).reshape(-1, 2)
        weights = np.asarray(self.weights, dtype=float)
        if weights.shape != (len(edges),):
            raise ValueError("need one weight per edge")
        object.__setattr__(self, "edges", edges)
        object.__setattr__(self, "weights", weights)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, WeightedGraph):
            return NotImplemented
        return (
            self.n == other.n
            and np.array_equal(self.edges, other.edges)
            and np.array_equal(self.weights, other.weights)
        )

    @property
    def edge_count(self) -> int:
        return len(self.weights)


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


def as_positions(positions) -> np.ndarray:
    """Validate and convert to an (n, d) float array, d in {2, 3}."""
    pos = np.asarray(positions, dtype=float)
    if pos.ndim != 2:
        raise ValueError(f"positions must be 2-d (n, d), got shape {pos.shape}")
    n, d = pos.shape
    if d not in (2, 3):
        raise ValueError(f"positions must live in 2 or 3 dimensions, got {d}")
    if not np.all(np.isfinite(pos)):
        raise ValueError("positions must be finite")
    return pos


@functools.lru_cache(maxsize=16)
def _upper_pairs(n: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``np.triu_indices(n, 1)`` and the same pairs as the rows of one
    array, made once per team size and read-only."""
    i, j = np.triu_indices(n, 1)
    pairs = np.stack([i, j], axis=1)
    i.flags.writeable = j.flags.writeable = pairs.flags.writeable = False
    return i, j, pairs


def _pair_distances(pos: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Every pair i < j in lexicographic order, and its Euclidean distance.

    The stacked row dot is the same BLAS dot ``np.linalg.norm`` takes for
    one vector, so each distance keeps the bits of the per-pair norm.
    """
    i, j, _ = _upper_pairs(len(pos))
    diff = pos[i] - pos[j]
    return i, j, np.sqrt((diff[:, None, :] @ diff[:, :, None])[:, 0, 0])


def _link_rule(
    profile: WeightProfile | LayerProfiles, i: np.ndarray, j: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Range and decay (NaN for binary) governing each pair (i[k], j[k]).

    A cross-layer pair uses the profile with the smaller (range, layer
    name), so a link exists only when both endpoints can hear each other.
    """
    if isinstance(profile, WeightProfile):
        rules, pick = [profile], np.zeros(len(i), dtype=np.intp)
    else:
        order = sorted(profile.profiles.items(), key=lambda kv: (kv[1].comm_range, kv[0]))
        rank = {name: r for r, (name, _) in enumerate(order)}
        agent = np.array([rank[name] for name in profile.layers])
        rules, pick = [p for _, p in order], np.minimum(agent[i], agent[j])
    ranges = np.array([p.comm_range for p in rules])
    decays = np.array([math.nan if p.decay is None else p.decay for p in rules])
    return ranges[pick], decays[pick]


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
    return _graph_from_distances(n, _pair_distances(pos)[2], profile)


def _graph_from_distances(
    n: int, dist: np.ndarray, profile: WeightProfile | LayerProfiles
) -> WeightedGraph:
    """The proximity graph of n agents whose pair distances, in
    ``_pair_distances`` order, are ``dist``; the inputs are not checked."""
    i, j, pairs = _upper_pairs(n)
    ranges, decays = _link_rule(profile, i, j)
    kept = dist <= ranges
    d = dist[kept]
    if np.isnan(decays).any():  # binary
        weights = np.ones(len(d))
    else:
        # math.exp, not np.exp: the two differ in the last bit on some inputs
        exponent = -decays[kept] * d * d
        weights = np.array([math.exp(x) for x in exponent.tolist()], dtype=float)
    return WeightedGraph(n, pairs[kept], weights)


def laplacian(g: WeightedGraph) -> np.ndarray:
    """Weighted graph Laplacian L = D - W."""
    lap = np.zeros((g.n, g.n))
    i, j = g.edges.T
    lap[i, j] -= g.weights
    lap[j, i] -= g.weights
    # bincount adds each agent's link weights in edge order
    np.fill_diagonal(lap, np.bincount(g.edges.ravel(), np.repeat(g.weights, 2), minlength=g.n))
    return lap


def _deflate(lap: np.ndarray) -> tuple[np.ndarray, float]:
    """``lap + (shift / n) * ones`` and its shift.

    The shift lies strictly above lambda_max (Gershgorin bound: 2 * max
    degree, plus 1), so the all-ones eigenvalue moves to the top of the
    spectrum and the smallest eigenvalue is lambda2.  Adding the scalar
    gives the bits of adding the ones matrix, since times 1.0 is exact.
    """
    shift = 2.0 * float(lap.diagonal().max()) + 1.0
    return lap + shift / len(lap), shift


def _eigensolve(g: WeightedGraph) -> tuple[np.ndarray, np.ndarray, float]:
    """Eigenvalues, eigenvectors and shift of the deflated Laplacian of g."""
    if g.n < 2:
        raise ValueError("need at least 2 agents")
    deflated, shift = _deflate(laplacian(g))
    evals, evecs = np.linalg.eigh(deflated)
    return evals, evecs, shift


def _spectral_result(evals: np.ndarray, evecs: np.ndarray) -> SpectralResult:
    """lambda2, unit Fiedler vector and simplicity from :func:`_eigensolve`."""
    lam2 = float(evals[0])
    if lam2 < _NEGATIVE_TOL:
        raise SpectralError(f"negative lambda2 from eigensolver: {lam2}")
    lam2 = max(lam2, 0.0)
    lam3 = float(evals[1]) if len(evals) >= 3 else math.inf
    vec = evecs[:, 0]
    # sweep out any residual all-ones component and fix a deterministic sign:
    # the first entry clear of roundoff is positive (a unit vector has one)
    vec = vec - vec.mean()
    norm = float(np.linalg.norm(vec))
    if norm < 1e-12:
        raise SpectralError("Fiedler vector collapsed onto the kernel")
    vec = vec / norm
    if vec[np.argmax(np.abs(vec) > 1e-12)] < 0:
        vec = -vec
    return SpectralResult(lam2, vec, bool(lam3 - lam2 > _SIMPLE_GAP))


def algebraic_connectivity(g: WeightedGraph) -> SpectralResult:
    """Compute lambda2 and a unit Fiedler vector orthogonal to all-ones.

    The all-ones kernel direction is deflated by a rank-one shift before the
    dense symmetric eigendecomposition, so the returned eigenvector is
    orthogonal to all-ones even when the graph is disconnected and the zero
    eigenvalue is repeated.
    """
    evals, evecs, _ = _eigensolve(g)
    return _spectral_result(evals, evecs)


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
    i, j = g.edges.T
    _, decays = _link_rule(profile, i, j)
    if np.isnan(decays).any():
        raise ValueError("gradient needs a smooth profile")
    dv = spectral.fiedler[i] - spectral.fiedler[j]
    step = (-2.0 * decays * g.weights * (dv * dv))[:, None] * (pos[i] - pos[j])
    grad = np.zeros_like(pos)
    # +step to i and -step to j, interleaved so each row sums in edge order
    np.add.at(grad, g.edges.ravel(), np.stack([step, -step], 1).reshape(-1, pos.shape[1]))
    return GradientResult(grad, spectral.is_simple)


def remove_links(g: WeightedGraph, removal: Sequence[int]) -> WeightedGraph:
    """New graph with the edges at the given indices removed."""
    drop = np.asarray(removal, dtype=np.intp)
    bad = drop[(drop < 0) | (drop >= g.edge_count)]
    if bad.size:
        raise ValueError(f"edge index {bad[0]} out of range")
    keep = np.ones(g.edge_count, dtype=bool)
    keep[drop] = False
    return WeightedGraph(g.n, g.edges[keep], g.weights[keep])
