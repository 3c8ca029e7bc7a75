"""Spectral machinery against dense linear-algebra oracles."""

import math

import numpy as np
import pytest

from resilnet import (
    BINARY,
    SMOOTH,
    LayerProfiles,
    WeightProfile,
    WeightedGraph,
    algebraic_connectivity,
    build_proximity_graph,
    connectivity_gradient,
    laplacian,
    remove_links,
)


def random_graph(rng, n=None):
    """Random weighted graph; edge presence 60%, weights in [0.1, 2]."""
    n = n if n is not None else int(rng.integers(2, 9))
    edges, weights = [], []
    for i in range(n - 1):
        for j in range(i + 1, n):
            if rng.random() < 0.6:
                edges.append((i, j))
                weights.append(float(rng.uniform(0.1, 2.0)))
    return WeightedGraph(n, edges, weights)


def is_connected(g):
    """Union-find reachability, independent of any spectral code."""
    parent = list(range(g.n))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for i, j in g.edges.tolist():
        parent[find(i)] = find(j)
    return len({find(i) for i in range(g.n)}) == 1


def reference_graph(pos, profile):
    """Per-pair loop: a cross-layer pair uses the profile with the smaller
    (range, layer name)."""
    edges, weights = [], []
    for i in range(len(pos) - 1):
        for j in range(i + 1, len(pos)):
            p = profile
            if isinstance(profile, LayerProfiles):
                key = min((profile.profiles[name].comm_range, name)
                          for name in (profile.layers[i], profile.layers[j]))
                p = profile.profiles[key[1]]
            d = float(np.linalg.norm(pos[i] - pos[j]))
            if d <= p.comm_range:
                edges.append((i, j))
                weights.append(p.weight(d))
    return np.array(edges, dtype=int).reshape(-1, 2), np.array(weights, dtype=float)


def reference_laplacian(g):
    """Per-edge loop."""
    lap = np.zeros((g.n, g.n))
    for (i, j), w in zip(g.edges.tolist(), g.weights.tolist()):
        lap[i, i] += w
        lap[j, j] += w
        lap[i, j] -= w
        lap[j, i] -= w
    return lap


def random_profile(rng, kind, n):
    """Binary, smooth or three-layer profile; layer ranges may tie."""
    def one(sub):
        rng_ = float(rng.choice([1.0, 1.5, rng.uniform(0.8, 2.2)]))
        if sub == BINARY:
            return WeightProfile(BINARY, rng_)
        return WeightProfile(SMOOTH, rng_, float(rng.uniform(0.3, 3.0)))

    if kind != "layered":
        return one(kind)
    sub = BINARY if rng.random() < 0.5 else SMOOTH
    names = ("ground", "air", "sea")
    layers = tuple(names[k] for k in rng.integers(0, 3, size=n))
    return LayerProfiles(layers, {name: one(sub) for name in names})


@pytest.mark.parametrize("dim", [2, 3])
@pytest.mark.parametrize("kind", [BINARY, SMOOTH, "layered"])
def test_fast_paths_match_loop_references(kind, dim):
    rng = np.random.default_rng(100 + dim)
    for case in range(60):
        n = int(rng.integers(2, 10))
        if case % 5 == 0:
            # integer lattice: distances land exactly on the ranges 1.0 and 1.5
            pos = rng.integers(0, 3, size=(n, dim)).astype(float)
        else:
            pos = rng.uniform(0.0, 2.5, size=(n, dim))
        profile = random_profile(rng, kind, n)
        g = build_proximity_graph(pos, profile)
        edges, weights = reference_graph(pos, profile)
        assert np.array_equal(g.edges, edges)
        assert np.array_equal(g.weights, weights)
        assert np.array_equal(laplacian(g), reference_laplacian(g))


def test_layered_tie_uses_first_layer_name():
    # equal ranges: the cross-layer link takes the decay of layer "a"
    profiles = {"b": WeightProfile(SMOOTH, 2.0, 0.5), "a": WeightProfile(SMOOTH, 2.0, 2.0)}
    layered = LayerProfiles(("b", "a"), profiles)
    pos = np.array([[0.0, 0.0], [1.0, 0.0]])
    g = build_proximity_graph(pos, layered)
    assert g.weights.tolist() == [math.exp(-2.0)]
    grad = connectivity_gradient(pos, layered, algebraic_connectivity(g), g).per_agent
    # two agents: (v0 - v1)^2 = 2, so agent 0 gets -2 * decay * w * 2 * (x0 - x1)
    expected = 8.0 * math.exp(-2.0)
    np.testing.assert_allclose(grad, [[expected, 0.0], [-expected, 0.0]], rtol=1e-12)


def test_path3_laplacian():
    pos = [(0.0, 0.0), (1.0, 0.0), (2.0, 0.0)]
    g = build_proximity_graph(pos, WeightProfile(BINARY, 1.2))
    expected = np.array([[1.0, -1.0, 0.0], [-1.0, 2.0, -1.0], [0.0, -1.0, 1.0]])
    np.testing.assert_allclose(laplacian(g), expected)


def test_path3_lambda2():
    g = WeightedGraph(3, [(0, 1), (1, 2)], [1.0, 1.0])
    res = algebraic_connectivity(g)
    assert res.lambda2 == pytest.approx(1.0, abs=1e-12)
    assert res.is_simple


def test_triangle_lambda2_repeated():
    # complete graph K3: spectrum {0, 3, 3}, so lambda2 is not simple
    g = WeightedGraph(3, [(0, 1), (0, 2), (1, 2)], [1.0, 1.0, 1.0])
    res = algebraic_connectivity(g)
    assert res.lambda2 == pytest.approx(3.0, abs=1e-12)
    assert not res.is_simple


def test_lambda2_matches_dense_eig():
    rng = np.random.default_rng(42)
    for _ in range(400):
        g = random_graph(rng)
        res = algebraic_connectivity(g)
        lap = laplacian(g)
        dense = np.linalg.eigvalsh(lap)
        assert abs(res.lambda2 - dense[1]) <= 1e-8
        # eigenpair residual, unit norm, orthogonal to the kernel direction
        v = res.fiedler
        assert np.linalg.norm(lap @ v - res.lambda2 * v) <= 1e-7
        assert abs(np.linalg.norm(v) - 1.0) <= 1e-12
        assert abs(v.sum()) <= 1e-9


def test_positive_lambda2_iff_connected():
    rng = np.random.default_rng(3)
    seen_disconnected = 0
    for _ in range(300):
        g = random_graph(rng)
        lam = algebraic_connectivity(g).lambda2
        if is_connected(g):
            assert lam > 1e-9
        else:
            assert lam <= 1e-9
            seen_disconnected += 1
    assert seen_disconnected > 10  # the sample actually exercises both sides


def test_edge_removal_never_raises_lambda2():
    rng = np.random.default_rng(11)
    for _ in range(100):
        g = random_graph(rng)
        if not g.edge_count:
            continue
        lam = algebraic_connectivity(g).lambda2
        k = int(rng.integers(g.edge_count))
        lam_after = algebraic_connectivity(remove_links(g, (k,))).lambda2
        assert lam_after <= lam + 1e-10


def test_remove_links_validates_indices():
    g = WeightedGraph(3, [(0, 1), (1, 2)], [1.0, 1.0])
    with pytest.raises(ValueError):
        remove_links(g, (5,))
    same = remove_links(g, ())
    assert np.array_equal(same.edges, g.edges) and np.array_equal(same.weights, g.weights)


def _fd_gradient(pos, profile, h):
    """Central finite differences of lambda2 over every coordinate."""
    grad = np.zeros_like(pos)
    for i in range(pos.shape[0]):
        for d in range(pos.shape[1]):
            for sign in (+1.0, -1.0):
                shifted = pos.copy()
                shifted[i, d] += sign * h
                g = build_proximity_graph(shifted, profile)
                grad[i, d] += sign * algebraic_connectivity(g).lambda2
    return grad / (2.0 * h)


def test_gradient_matches_finite_differences():
    rng = np.random.default_rng(7)
    profile = WeightProfile(SMOOTH, 2.0)
    checked = 0
    while checked < 40:
        pos = rng.uniform(0.0, 2.5, size=(5, 2))
        g = build_proximity_graph(pos, profile)
        spec = algebraic_connectivity(g)
        if not spec.is_simple or spec.lambda2 < 1e-6:
            continue
        # links at the cutoff make lambda2 non-differentiable; skip those
        dists = [np.linalg.norm(pos[i] - pos[j]) for i in range(5) for j in range(i + 1, 5)]
        if any(abs(d - profile.comm_range) < 1e-3 for d in dists):
            continue
        grad = connectivity_gradient(pos, profile, spec, g).per_agent
        fd = _fd_gradient(pos, profile, h=1e-5 * profile.comm_range)
        scale = max(np.linalg.norm(fd), 1e-12)
        assert np.linalg.norm(grad - fd) / scale <= 1e-4
        checked += 1


def test_gradient_permutation_equivariant():
    rng = np.random.default_rng(19)
    profile = WeightProfile(SMOOTH, 2.0)
    pos = rng.uniform(0.0, 2.0, size=(5, 2))
    perm = rng.permutation(5)
    g = build_proximity_graph(pos, profile)
    grad = connectivity_gradient(pos, profile, algebraic_connectivity(g), g).per_agent
    gp = build_proximity_graph(pos[perm], profile)
    grad_p = connectivity_gradient(
        pos[perm], profile, algebraic_connectivity(gp), gp
    ).per_agent
    np.testing.assert_allclose(grad_p, grad[perm], atol=1e-9)


def test_gradient_requires_smooth_profile():
    pos = np.array([[0.0, 0.0], [1.0, 0.0]])
    profile = WeightProfile(BINARY, 2.0)
    g = build_proximity_graph(pos, profile)
    with pytest.raises(ValueError, match="smooth"):
        connectivity_gradient(pos, profile, algebraic_connectivity(g), g)


def test_binary_profile_rejects_decay():
    with pytest.raises(ValueError):
        WeightProfile(BINARY, 1.0, decay=1.0)


def test_smooth_default_decay_hits_1e3_at_cutoff():
    p = WeightProfile(SMOOTH, 3.0)
    assert p.weight(3.0) == pytest.approx(1e-3, rel=1e-12)
    assert p.weight(3.0001) == 0.0
    assert p.weight(0.0) == 1.0


def test_binary_weights_are_unit_inside_cutoff():
    p = WeightProfile(BINARY, 1.5)
    assert p.weight(1.5) == 1.0
    assert p.weight(1.50001) == 0.0


def test_layered_cross_link_uses_smaller_range():
    profiles = {
        "air": WeightProfile(BINARY, 3.0),
        "ground": WeightProfile(BINARY, 1.5),
    }
    layered = LayerProfiles(("air", "ground", "ground"), profiles)
    # air-ground pair at distance 2: inside air range, outside ground range
    pos = [(0.0, 0.0), (2.0, 0.0), (2.0, 1.0)]
    g = build_proximity_graph(pos, layered)
    assert [0, 1] not in g.edges.tolist()
    assert [1, 2] in g.edges.tolist()


def test_layered_profiles_must_share_kind():
    with pytest.raises(ValueError, match="kind"):
        LayerProfiles(
            ("a", "b"),
            {"a": WeightProfile(BINARY, 1.0), "b": WeightProfile(SMOOTH, 1.0)},
        )


def test_position_validation():
    profile = WeightProfile(BINARY, 1.0)
    with pytest.raises(ValueError):
        build_proximity_graph(np.zeros((1, 2)), profile)  # one agent
    with pytest.raises(ValueError):
        build_proximity_graph(np.zeros((3, 4)), profile)  # 4-d space
    with pytest.raises(ValueError):
        build_proximity_graph([[0.0, np.nan], [1.0, 0.0]], profile)
