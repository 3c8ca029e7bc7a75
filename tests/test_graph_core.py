"""Spectral machinery against dense linear-algebra oracles."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from resilnet import (
    BINARY,
    SMOOTH,
    LayerProfiles,
    WeightProfile,
    WeightedGraph,
    algebraic_connectivity,
    build_proximity_graph,
    connectivity_gradient,
    graph_core,
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


def reference_weight(p, dist):
    """Link weight of profile ``p`` at distance ``dist``; 0 beyond the cutoff."""
    if dist > p.comm_range:
        return 0.0
    if p.kind == BINARY:
        return 1.0
    return math.exp(-p.decay * dist * dist)


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
                weights.append(reference_weight(p, d))
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


def pair_weight(profile, dist):
    """Weight of the link between two agents ``dist`` apart; 0 for none."""
    g = build_proximity_graph([[0.0, 0.0], [dist, 0.0]], profile)
    return float(g.weights[0]) if g.edge_count else 0.0


def test_smooth_default_decay_hits_1e3_at_cutoff():
    p = WeightProfile(SMOOTH, 3.0)
    assert pair_weight(p, 3.0) == pytest.approx(1e-3, rel=1e-12)
    assert pair_weight(p, 3.0001) == 0.0
    assert pair_weight(p, 0.0) == 1.0


def test_binary_weights_are_unit_inside_cutoff():
    p = WeightProfile(BINARY, 1.5)
    assert pair_weight(p, 1.5) == 1.0
    assert pair_weight(p, 1.50001) == 0.0


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


def test_pair_distances_share_read_only_index_pairs():
    pos = np.random.default_rng(5).uniform(0.0, 3.0, size=(7, 2))
    i, j, dist = graph_core._pair_distances(pos)
    want_i, want_j = np.triu_indices(7, 1)
    assert np.array_equal(i, want_i) and np.array_equal(j, want_j)
    for k, (a, b) in enumerate(zip(want_i, want_j)):
        assert dist[k] == float(np.linalg.norm(pos[a] - pos[b]))
    # the cache hands the same arrays to every team of this size
    again = graph_core._pair_distances(pos + 1.0)
    assert again[0] is i and again[1] is j
    for index in (i, j):
        with pytest.raises(ValueError, match="read-only"):
            index[0] = 1


# The graph kernels as they were before a single profile's link rule became
# two scalars, the gradient summed by bincount, the Laplacian assigned its
# off-diagonal and the spectrum skipped np.mean and np.linalg.norm: verbatim,
# as frozen references the live code must match bit for bit.


def head_link_rule(profile, i, j):
    """Range and decay (NaN for binary) governing each pair (i[k], j[k])."""
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


def head_graph_from_distances(n, dist, profile):
    i, j, pairs = graph_core._upper_pairs(n)
    ranges, decays = head_link_rule(profile, i, j)
    kept = dist <= ranges
    d = dist[kept]
    if np.isnan(decays).any():  # binary
        weights = np.ones(len(d))
    else:
        # math.exp, not np.exp: the two differ in the last bit on some inputs
        exponent = -decays[kept] * d * d
        weights = np.array([math.exp(x) for x in exponent.tolist()], dtype=float)
    return WeightedGraph(n, pairs[kept], weights)


def head_laplacian(g):
    lap = np.zeros((g.n, g.n))
    i, j = g.edges.T
    lap[i, j] -= g.weights
    lap[j, i] -= g.weights
    # bincount adds each agent's link weights in edge order
    np.fill_diagonal(lap, np.bincount(g.edges.ravel(), np.repeat(g.weights, 2), minlength=g.n))
    return lap


def head_deflate(lap):
    shift = 2.0 * float(lap.diagonal().max()) + 1.0
    return lap + shift / len(lap), shift


def head_spectral_result(evals, evecs):
    lam2 = float(evals[0])
    if lam2 < graph_core._NEGATIVE_TOL:
        raise graph_core.SpectralError(f"negative lambda2 from eigensolver: {lam2}")
    lam2 = max(lam2, 0.0)
    lam3 = float(evals[1]) if len(evals) >= 3 else math.inf
    vec = evecs[:, 0]
    vec = vec - vec.mean()
    norm = float(np.linalg.norm(vec))
    if norm < 1e-12:
        raise graph_core.SpectralError("Fiedler vector collapsed onto the kernel")
    vec = vec / norm
    if vec[np.argmax(np.abs(vec) > 1e-12)] < 0:
        vec = -vec
    return graph_core.SpectralResult(lam2, vec, bool(lam3 - lam2 > graph_core._SIMPLE_GAP))


def head_connectivity_gradient(positions, profile, spectral, g):
    pos = np.asarray(positions, dtype=float)
    i, j = g.edges.T
    _, decays = head_link_rule(profile, i, j)
    if np.isnan(decays).any():
        raise ValueError("gradient needs a smooth profile")
    dv = spectral.fiedler[i] - spectral.fiedler[j]
    step = (-2.0 * decays * g.weights * (dv * dv))[:, None] * (pos[i] - pos[j])
    grad = np.zeros_like(pos)
    # +step to i and -step to j, interleaved so each row sums in edge order
    np.add.at(grad, g.edges.ravel(), np.stack([step, -step], 1).reshape(-1, pos.shape[1]))
    return grad


def spectrum_or_error(solve, evals, evecs):
    try:
        res = solve(evals, evecs)
    except graph_core.SpectralError as exc:
        return str(exc)
    return res.lambda2.hex(), res.fiedler.tobytes(), res.is_simple


def assert_kernels_keep_their_bits(pos, profile, g, spectral_vectors=()):
    """Graph, Laplacian, spectrum and gradient of ``g`` on ``pos`` against
    the frozen kernels; ``spectral_vectors`` adds gradients along other
    unit vectors."""
    lap = graph_core.laplacian(g)
    assert lap.tobytes() == head_laplacian(g).tobytes()
    deflated, shift = graph_core._deflate(lap)
    want, want_shift = head_deflate(head_laplacian(g))
    assert (deflated.tobytes(), shift) == (want.tobytes(), want_shift)
    evals, evecs = np.linalg.eigh(deflated)
    live = spectrum_or_error(graph_core._spectral_result, evals, evecs)
    assert live == spectrum_or_error(head_spectral_result, evals, evecs)
    kinds = {p.kind for p in getattr(profile, "profiles", {None: profile}).values()}
    if kinds != {SMOOTH}:
        return
    vectors = list(spectral_vectors)
    if not isinstance(live, str):
        vectors.append(graph_core._spectral_result(evals, evecs))
    for spectral in vectors:
        got = connectivity_gradient(pos, profile, spectral, g).per_agent
        assert got.tobytes() == head_connectivity_gradient(pos, profile, spectral, g).tobytes()


def drawn_team(seed, n, dim, kind, spread, decay_scale):
    rng = np.random.default_rng(seed)
    pos = rng.uniform(0.0, spread, size=(n, dim))
    if seed % 4 == 0:
        # integer lattice: distances land exactly on the ranges 1.0 and 1.5
        pos = np.round(pos)
    profile = random_profile(rng, kind, n)
    if decay_scale != 1.0:
        # heavy decays drive the far links' weights to 0.0 and subnormals
        def scaled(p):
            return p if p.kind == BINARY else WeightProfile(SMOOTH, p.comm_range, p.decay * decay_scale)
        if isinstance(profile, LayerProfiles):
            profile = LayerProfiles(
                profile.layers, {k: scaled(p) for k, p in profile.profiles.items()}
            )
        else:
            profile = scaled(profile)
    return rng, pos, profile


TEAMS = dict(
    seed=st.integers(0, 2**32 - 1),
    n=st.integers(2, 12),
    dim=st.sampled_from([2, 3]),
    kind=st.sampled_from([BINARY, SMOOTH, "layered"]),
    spread=st.sampled_from([0.5, 2.5, 6.0]),
    decay_scale=st.sampled_from([1.0, 1.0, 300.0, 1e3]),
)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(**TEAMS)
def test_kernels_keep_the_bits_of_their_frozen_references(
    seed, n, dim, kind, spread, decay_scale
):
    rng, pos, profile = drawn_team(seed, n, dim, kind, spread, decay_scale)
    dist = graph_core._pair_distances(pos)[2]
    g = build_proximity_graph(pos, profile)
    want = head_graph_from_distances(n, dist, profile)
    assert (g.edges.tobytes(), g.weights.tobytes()) == (want.edges.tobytes(), want.weights.tobytes())
    # any unit vector off the all-ones one serves the gradient, as the
    # planner's attacked vectors do
    u = rng.normal(size=n)
    u -= u.mean()
    other = graph_core.SpectralResult(0.0, u / np.linalg.norm(u), False)
    assert_kernels_keep_their_bits(pos, profile, g, [other])
    if g.edge_count:
        drop = rng.choice(g.edge_count, size=min(2, g.edge_count), replace=False)
        assert_kernels_keep_their_bits(pos, profile, remove_links(g, drop.tolist()))


def test_kernel_property_reaches_its_cases():
    # random graphs, a layered smooth team, and links of weight 0.0 and
    # subnormal weight, whose Laplacian entries are +0.0 (0 - 0.0; a negated
    # weight would be -0.0) and -5e-324
    rng = np.random.default_rng(23)
    for _ in range(60):
        g = random_graph(rng)
        pos = rng.uniform(0.0, 2.0, size=(g.n, 2))
        assert_kernels_keep_their_bits(pos, WeightProfile(SMOOTH, 3.0), g)
    pos = np.array([[0.0, 0.0], [1.0, 0.0], [2.0, 0.5], [0.5, 1.5]])
    layered = LayerProfiles(
        ("a", "b", "a", "b"), {"a": WeightProfile(SMOOTH, 1.8), "b": WeightProfile(SMOOTH, 2.5, 0.7)}
    )
    g = build_proximity_graph(pos, layered)
    assert g.edge_count >= 4
    assert_kernels_keep_their_bits(pos, layered, g)
    tiny = WeightedGraph(3, [(0, 1), (0, 2), (1, 2)], [1.0, 0.0, 5e-324])
    lap = graph_core.laplacian(tiny)
    assert math.copysign(1.0, lap[0, 2]) == 1.0 and lap[1, 2] == -5e-324
    assert_kernels_keep_their_bits(pos[:3], WeightProfile(SMOOTH, 3.0), tiny)
