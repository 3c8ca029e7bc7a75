"""Worst-case link removal against independent enumeration."""

import math
from itertools import chain, combinations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from resilnet import (
    BINARY,
    SMOOTH,
    ControlOptions,
    RemovalBudget,
    SpectralError,
    WeightedGraph,
    WeightProfile,
    adversary,
    algebraic_connectivity,
    build_proximity_graph,
    edge_impact_scores,
    plan_step,
    remove_links,
    worst_case_removal,
)
from resilnet.graph_core import _deflate, laplacian
from test_graph_core import random_graph, random_profile, reference_laplacian


def brute_force_lambda2(g, m):
    """Minimum lambda2 over all removals of at most m edges, via eigvalsh."""
    best = np.linalg.eigvalsh(reference_laplacian(g))[1]
    for size in range(1, m + 1):
        for combo in combinations(range(g.edge_count), size):
            lap = reference_laplacian(remove_links(g, combo))
            best = min(best, np.linalg.eigvalsh(lap)[1])
    return float(best)


TRIANGLE = WeightedGraph(3, [(0, 1), (0, 2), (1, 2)], [1.0, 1.0, 1.0])


def test_zero_budget_removes_nothing():
    res = worst_case_removal(TRIANGLE, RemovalBudget(0))
    assert res.removal == ()
    assert res.lambda2_after == pytest.approx(3.0, abs=1e-12)
    assert res.exact


def test_triangle_single_removal():
    # all three removals tie (path of 3, lambda2 = 1); earliest subset wins
    res = worst_case_removal(TRIANGLE, RemovalBudget(1))
    assert res.removal == (0,)
    assert res.lambda2_after == pytest.approx(1.0, abs=1e-12)
    assert res.exact


def test_exhaustive_matches_independent_enumeration():
    rng = np.random.default_rng(23)
    for _ in range(60):
        g = random_graph(rng, n=int(rng.integers(3, 7)))
        m = min(int(rng.integers(1, 3)), g.edge_count)
        res = worst_case_removal(g, RemovalBudget(m), mode="exhaustive")
        assert res.exact
        assert res.lambda2_after == pytest.approx(
            brute_force_lambda2(g, m), abs=1e-10
        )


def test_greedy_never_beats_exhaustive():
    rng = np.random.default_rng(29)
    for _ in range(40):
        g = random_graph(rng, n=int(rng.integers(4, 7)))
        m = min(2, g.edge_count)
        if m == 0:
            continue
        exh = worst_case_removal(g, RemovalBudget(m), mode="exhaustive")
        grd = worst_case_removal(g, RemovalBudget(m), mode="greedy")
        assert grd.lambda2_after >= exh.lambda2_after - 1e-10
        assert not grd.exact
        assert len(grd.removal) <= m


def test_auto_mode_falls_back_to_greedy(monkeypatch):
    rng = np.random.default_rng(31)
    pos = rng.uniform(0.0, 1.0, size=(10, 2))
    from resilnet import BINARY, WeightProfile, adversary, build_proximity_graph

    g = build_proximity_graph(pos, WeightProfile(BINARY, 2.0))
    monkeypatch.setattr(adversary, "SUBSET_CAP", 10)
    res = worst_case_removal(g, RemovalBudget(3))
    assert not res.exact
    monkeypatch.setattr(adversary, "SUBSET_CAP", 10_000)
    res = worst_case_removal(g, RemovalBudget(1))
    assert res.exact


def test_auto_mode_counts_the_subsets_of_every_size(monkeypatch):
    # removing every link of a 4-cycle is one subset of its own size,
    # C(4, 4) = 1, but the exhaustive search scans all 15 subsets of 1..4
    square = [[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]]
    g = build_proximity_graph(square, WeightProfile(BINARY, 1.2))
    assert g.edge_count == 4
    monkeypatch.setattr(adversary, "SUBSET_CAP", 14)
    assert not worst_case_removal(g, RemovalBudget(4)).exact
    monkeypatch.setattr(adversary, "SUBSET_CAP", 15)
    assert worst_case_removal(g, RemovalBudget(4)).exact


def test_budget_beyond_edges_rejected():
    with pytest.raises(ValueError, match="exceeds"):
        worst_case_removal(TRIANGLE, RemovalBudget(4))
    with pytest.raises(ValueError):
        RemovalBudget(-1)


def test_impact_scores_sum_to_lambda2():
    rng = np.random.default_rng(37)
    for _ in range(50):
        g = random_graph(rng)
        if not g.edge_count:
            continue
        spec = algebraic_connectivity(g)
        scores = edge_impact_scores(g, spec)
        assert sum(scores) == pytest.approx(spec.lambda2, abs=1e-9)
        assert all(s >= 0 for s in scores)


def test_impact_scores_sign_flip_invariant():
    g = WeightedGraph(4, [(0, 1), (1, 2), (2, 3), (0, 3)], [1.0, 0.5, 1.5, 0.7])
    spec = algebraic_connectivity(g)
    flipped = type(spec)(spec.lambda2, -spec.fiedler, spec.is_simple)
    a = edge_impact_scores(g, spec)
    b = edge_impact_scores(g, flipped)
    np.testing.assert_allclose(a, b)


def reference_exhaustive(g, m):
    """Per-subset loop: one reference eigensolve per subset, and a subset
    replaces the incumbent only when lower by more than the tie tolerance."""
    best_lam = algebraic_connectivity(g).lambda2
    best = ()
    for size in range(1, m + 1):
        for combo in combinations(range(g.edge_count), size):
            lam = algebraic_connectivity(remove_links(g, combo)).lambda2
            if lam < best_lam - adversary._TIE_TOL:
                best_lam, best = lam, combo
    return best, best_lam


def assert_matches_reference(g, m):
    res = worst_case_removal(g, RemovalBudget(m), mode="exhaustive")
    best, best_lam = reference_exhaustive(g, m)
    assert res.exact
    assert res.removal == best
    assert res.lambda2_after.hex() == best_lam.hex()


def king_grid(side=4):
    """Unit lattice; at range 1.6 each agent links to its king's-move
    neighbours, so many removals tie exactly."""
    return [(float(k % side), float(k // side)) for k in range(side * side)]


@settings(max_examples=120, deadline=None, derandomize=True)
@given(
    seed=st.integers(0, 2**32 - 1),
    kind=st.sampled_from([BINARY, SMOOTH, "layered"]),
    dim=st.sampled_from([2, 3]),
    lattice=st.booleans(),
    m=st.integers(1, 3),
)
def test_batched_search_matches_per_subset_loop(seed, kind, dim, lattice, m):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(3, 9))
    if lattice:
        # integer lattice: distances land exactly on the ranges 1.0 and 1.5
        pos = rng.integers(0, 3, size=(n, dim)).astype(float)
    else:
        pos = rng.uniform(0.0, 2.5, size=(n, dim))
    g = build_proximity_graph(pos, random_profile(rng, kind, n))
    m = min(m, g.edge_count)
    if m == 0 or sum(math.comb(g.edge_count, s) for s in range(1, m + 1)) > 3000:
        return
    assert_matches_reference(g, m)


@pytest.mark.parametrize("m, first", [(1, (2,)), (2, (0, 2))])
def test_symmetric_lattice_ties_keep_first_subset(m, first):
    # the lattice's symmetries tie four single cuts (edges 2, 11, 30, 36)
    g = build_proximity_graph(king_grid(), WeightProfile(BINARY, 1.6))
    assert g.edge_count == 42
    assert_matches_reference(g, m)
    assert worst_case_removal(g, RemovalBudget(m), mode="exhaustive").removal == first


@pytest.mark.parametrize(
    "tie_tol, screen_margin",
    [
        (adversary._TIE_TOL, adversary._SCREEN_MARGIN),
        # a wide window: its edge falls inside each subset size, among the
        # reference scan's passing incumbents
        (adversary._TIE_TOL, 1e-2),
        # ties wider than the window could change the path, so every subset
        # is replayed
        (0.3, 3e-3),
    ],
    ids=["shipped", "wide-window", "ties-wider-than-window"],
)
def test_window_edges_keep_reference_bits(monkeypatch, tie_tol, screen_margin):
    monkeypatch.setattr(adversary, "_TIE_TOL", tie_tol)
    monkeypatch.setattr(adversary, "_SCREEN_MARGIN", screen_margin)
    assert_matches_reference(build_proximity_graph(king_grid(), WeightProfile(BINARY, 1.6)), 2)
    rng = np.random.default_rng(53)
    for _ in range(10):
        g = random_graph(rng, n=int(rng.integers(4, 8)))
        if g.edge_count >= 3:
            assert_matches_reference(g, 3)


def structured_graph(family, n):
    pairs = list(combinations(range(n), 2))
    if family == "star":
        pairs = [(0, j) for j in range(1, n)]
    elif family == "path":
        pairs = [(i, i + 1) for i in range(n - 1)]
    elif family == "cycle":
        pairs = sorted({(i, i + 1) for i in range(n - 1)} | {(0, n - 1)})
    if family == "weighted":
        return WeightedGraph(n, pairs, np.geomspace(1e-6, 1e3, len(pairs)))
    return WeightedGraph(n, pairs, np.ones(len(pairs)))


@pytest.mark.parametrize("family", ["complete", "star", "path", "cycle", "weighted"])
def test_structured_graphs_match_reference(family):
    # complete graphs repeat lambda2 n - 1 times, and their removals tie
    for n in range(2, 9):
        g = structured_graph(family, n)
        for m in range(1, min(3, g.edge_count) + 1):
            assert_matches_reference(g, m)


def jittered_lattice():
    """The 4x4 lattice of the grid16-jam benchmark, before its rigid motion."""
    rng = np.random.default_rng([20010712, 4])
    return np.array(king_grid()) + rng.uniform(-0.05, 0.05, size=(16, 2))


@pytest.mark.parametrize("kind, solves", [(SMOOTH, 2), (BINARY, 9)])
def test_reference_eigensolves_per_search(monkeypatch, kind, solves):
    # the start graph, then the window: the smooth weights single out one
    # worst pair, while the binary lattice ties eight pairs by its symmetry.
    # One dense eigensolve of the start graph serves the screen and the
    # start spectrum, so only the window goes through algebraic_connectivity
    g = build_proximity_graph(jittered_lattice(), WeightProfile(kind, 1.6))
    calls, eighs = [], []
    eigh = np.linalg.eigh
    monkeypatch.setattr(
        adversary, "algebraic_connectivity",
        lambda h: calls.append(h) or algebraic_connectivity(h),
    )
    monkeypatch.setattr(np.linalg, "eigh", lambda a: eighs.append(a) or eigh(a))
    worst_case_removal(g, RemovalBudget(2), mode="exhaustive")
    assert len(eighs) == solves
    assert len(calls) == solves - 1


def test_disconnecting_removal_drives_incumbent_to_zero(monkeypatch):
    # a pendant agent hangs off the lattice by its last edge, so the
    # incumbent reaches 0 only late in the single-edge subsets
    pos = king_grid() + [(4.5, 3.0)]
    g = build_proximity_graph(pos, WeightProfile(BINARY, 1.6))
    assert g.edges[-1].tolist() == [15, 16]
    assert_matches_reference(g, 2)
    calls = []
    monkeypatch.setattr(
        adversary, "algebraic_connectivity",
        lambda h: calls.append(h) or algebraic_connectivity(h),
    )
    res = worst_case_removal(g, RemovalBudget(2), mode="exhaustive")
    assert res.removal == (g.edge_count - 1,)
    assert res.lambda2_after == 0.0
    # only subsets that could win take the reference eigensolve
    assert len(calls) < g.edge_count


def traced_search(monkeypatch, g, m):
    """The exhaustive search, with its steps in call order: ("below", x,
    rows, found) per screen and ("solve", removal) per reference eigensolve
    of an attacked graph."""
    events = []
    below, remove = adversary._below, adversary.remove_links

    def spy_below(z, lam, x, rows):
        inside = below(z, lam, x, rows)
        events.append(("below", x, len(rows), int(np.count_nonzero(inside))))
        return inside

    def spy_remove(h, removal):
        events.append(("solve", tuple(removal)))
        return remove(h, removal)

    monkeypatch.setattr(adversary, "_below", spy_below)
    monkeypatch.setattr(adversary, "remove_links", spy_remove)
    res = worst_case_removal(g, RemovalBudget(m), mode="exhaustive")
    monkeypatch.undo()
    return res, events


def lone_stop(g, events):
    """Whether the bisection stopped early, whether it ended with a lone
    candidate, and the top of its bracket then.

    The last two screens cover every subset (guard and window); a solve
    before them is the lone candidate's.  Checks that no subset is solved
    twice and that a stop leaves exactly one candidate.
    """
    solves = [e[1] for e in events if e[0] == "solve"]
    assert len(solves) == len(set(solves))
    guard_at = [k for k, e in enumerate(events) if e[0] == "below"][-2]
    bisection = [e for e in events[:guard_at] if e[0] == "below"]
    early = [e for e in events[:guard_at] if e[0] == "solve"]
    shrinking = [e for e in bisection if e[3]]
    if shrinking:
        hi, lone = shrinking[-1][1], shrinking[-1][3] == 1
    else:
        deflated, _ = _deflate(laplacian(g))
        hi, lone = float(np.linalg.eigvalsh(deflated)[0]), events[guard_at][2] == 1
    assert len(early) <= 1 and (not early or lone)
    return bool(early), lone, hi


def margin_of(g):
    return adversary._SCREEN_MARGIN * (1.0 + _deflate(laplacian(g))[1])


def near_zero_graphs():
    """Graphs whose worst case lies at or near 0: a pendant agent, a bridge
    or chord scaled toward 0 across the tie and screen tolerances, and
    starts that are already disconnected."""
    graphs = [
        build_proximity_graph(king_grid() + [(4.5, 3.0)], WeightProfile(BINARY, 1.6)),
        WeightedGraph(4, [(0, 1), (2, 3)], [1.0, 0.5]),
        WeightedGraph(3, [(0, 1), (1, 2)], [1.0, 1e-13]),
    ]
    # one subset, so a lone candidate from the start, under a top near 0
    graphs += [WeightedGraph(n, [(0, n - 1)], [w]) for n in (3, 4, 5) for w in (0.3, 1.0)]
    graphs += [WeightedGraph(2, [(0, 1)], [w]) for w in (1e-13, 1e-9, 4e-9)]
    for scale in (1e-14, 1e-12, 3e-12, 1e-10, 1e-8, 5e-8, 1e-7, 1e-6):
        for n in (4, 6):
            w = np.linspace(1.0, 2.0, n)
            w[n // 2] *= scale
            graphs.append(WeightedGraph(n, [(k, (k + 1) % n) for k in range(n)], w))
        rng = np.random.default_rng(int(-np.log10(scale) * 10))
        g = random_graph(rng, n=6)
        w = g.weights.copy()
        w[rng.integers(0, len(w), 2)] *= scale
        graphs.append(WeightedGraph(6, g.edges, w))
    return graphs


def test_lone_candidate_stop_matches_reference_near_zero(monkeypatch):
    fired = held = 0
    for g in near_zero_graphs():
        for m in range(1, min(3, g.edge_count) + 1):
            res, events = traced_search(monkeypatch, g, m)
            best, best_lam = reference_exhaustive(g, m)
            assert res.removal == best
            assert res.lambda2_after.hex() == best_lam.hex()
            stopped, lone, hi = lone_stop(g, events)
            low = hi <= adversary._TIE_TOL + margin_of(g)
            assert not (stopped and low)
            fired += stopped
            held += lone and low
    assert fired >= 10 and held >= 9


def test_lone_candidate_with_a_low_top_keeps_bisecting(monkeypatch):
    # the start is disconnected, so the incumbent is 0 at once and only
    # guarded subsets are replayed; the lone subset is not guarded, and a
    # stop would solve it for nothing
    g = WeightedGraph(3, [(0, 1)], [1.0])
    res, events = traced_search(monkeypatch, g, 1)
    stopped, lone, hi = lone_stop(g, events)
    assert lone and not stopped and hi <= adversary._TIE_TOL + margin_of(g)
    assert [e for e in events if e[0] == "solve"] == []
    assert res.removal == () and res.lambda2_after == algebraic_connectivity(g).lambda2


@pytest.mark.parametrize("kind, stops, screens", [(SMOOTH, True, 6), (BINARY, False, 27)])
def test_lone_candidate_stop_on_the_jittered_lattice(monkeypatch, kind, stops, screens):
    # the smooth weights single out one worst pair, so the bisection ends
    # once it is alone, where the full bracket takes 23 screens; the binary
    # lattice's eight tied pairs keep the full bisection
    g = build_proximity_graph(jittered_lattice(), WeightProfile(kind, 1.6))
    res, events = traced_search(monkeypatch, g, 2)
    assert lone_stop(g, events)[0] is stops
    assert sum(e[0] == "below" for e in events) == screens
    best, best_lam = reference_exhaustive(g, 2)
    assert res.removal == best and res.lambda2_after.hex() == best_lam.hex()


@settings(max_examples=60, deadline=None, derandomize=True)
@given(seed=st.integers(0, 2**32 - 1), m=st.integers(1, 3), scale=st.sampled_from([1.0, 1e-3, 1e-9, 1e-12]))
def test_lone_candidate_stop_matches_reference_on_random_graphs(seed, m, scale):
    rng = np.random.default_rng(seed)
    g = random_graph(rng, n=int(rng.integers(3, 8)))
    if g.edge_count < m:
        return
    w = g.weights.copy()
    w[int(rng.integers(0, len(w)))] *= scale
    assert_matches_reference(WeightedGraph(g.n, g.edges, w), m)


def reference_subsets(n_edges, m):
    """The itertools builder that the numpy table replaced, verbatim."""
    width, blocks = max(m, 2), []
    for s in range(1, m + 1):
        flat = np.fromiter(chain.from_iterable(combinations(range(n_edges), s)), np.intp)
        pad = ((0, 0), (0, width - s))
        blocks.append(np.pad(flat.reshape(-1, s), pad, constant_values=n_edges))
    return np.concatenate(blocks)


def test_subset_table_matches_itertools_builder():
    cases = [(e, m) for e in range(1, 31) for m in range(1, min(e, 5) + 1)]
    for n_edges, m in cases + [(110, 2), (16, 4)]:
        got, want = adversary._subsets(n_edges, m), reference_subsets(n_edges, m)
        assert got.dtype == want.dtype and got.shape == want.shape
        assert np.array_equal(got, want), (n_edges, m)


def assert_same_spectrum(got, want):
    assert got.lambda2.hex() == want.lambda2.hex()
    assert got.fiedler.tobytes() == want.fiedler.tobytes()
    assert got.is_simple is want.is_simple


def assert_spectra_are_fresh(g, m, mode):
    """The search's start and attacked spectra are, bit for bit, what fresh
    eigensolves of the start and attacked graphs give."""
    res = worst_case_removal(g, RemovalBudget(m), mode=mode)
    assert_same_spectrum(res.start, algebraic_connectivity(g))
    assert_same_spectrum(res.attacked, algebraic_connectivity(remove_links(g, res.removal)))
    assert res.attacked.lambda2.hex() == res.lambda2_after.hex()
    if m == 0:
        assert res.attacked is res.start
    return res


def test_spectra_leave_equality_and_repr_alone():
    one = algebraic_connectivity(TRIANGLE)
    other = algebraic_connectivity(structured_graph("path", 3))
    a = adversary.WorstCaseResult((1,), 0.5, True, one, one)
    b = adversary.WorstCaseResult((1,), 0.5, True, other, one)
    assert a == b and repr(a) == repr(b)
    assert "start" not in repr(a) and "attacked" not in repr(a)


@settings(max_examples=80, deadline=None, derandomize=True)
@given(
    seed=st.integers(0, 2**32 - 1),
    m=st.integers(0, 3),
    mode=st.sampled_from(["exhaustive", "greedy"]),
    scale=st.sampled_from([1.0, 1e-9, 0.0]),
)
def test_start_and_attacked_spectra_match_fresh_eigensolves(seed, m, mode, scale):
    rng = np.random.default_rng(seed)
    g = random_graph(rng, n=int(rng.integers(2, 8)))
    if g.edge_count < m:
        return
    w = g.weights.copy()
    if len(w):
        # a zero weight leaves an edge that carries nothing
        w[int(rng.integers(0, len(w)))] *= scale
    assert_spectra_are_fresh(WeightedGraph(g.n, g.edges, w), m, mode)


@pytest.mark.parametrize(
    "case",
    ["lone-candidate", "tied-window", "zero-incumbent", "disconnected-greedy", "greedy-lattice"],
)
def test_start_and_attacked_spectra_on_fixed_cases(monkeypatch, case):
    if case == "lone-candidate":
        # the bisection stops at the winner and the replay reuses its spectrum
        g = build_proximity_graph(jittered_lattice(), WeightProfile(SMOOTH, 1.6))
        assert lone_stop(g, traced_search(monkeypatch, g, 2)[1])[0]
        assert_spectra_are_fresh(g, 2, "exhaustive")
    elif case == "tied-window":
        g = build_proximity_graph(jittered_lattice(), WeightProfile(BINARY, 1.6))
        assert not lone_stop(g, traced_search(monkeypatch, g, 2)[1])[0]
        for m in (0, 1, 2):
            assert_spectra_are_fresh(g, m, "exhaustive")
    elif case == "zero-incumbent":
        g = build_proximity_graph(king_grid() + [(4.5, 3.0)], WeightProfile(BINARY, 1.6))
        res = assert_spectra_are_fresh(g, 2, "exhaustive")
        assert res.lambda2_after == 0.0 and res.start.lambda2 > 0.0
    elif case == "disconnected-greedy":
        # a triangle and an isolated agent: lambda2 is exactly 0
        g = WeightedGraph(4, [(0, 1), (0, 2), (1, 2)], [1.0, 1.0, 1.0])
        res = assert_spectra_are_fresh(g, 2, "greedy")
        assert res.removal == () and res.attacked is res.start
    else:
        g = build_proximity_graph(jittered_lattice(), WeightProfile(SMOOTH, 1.6))
        res = assert_spectra_are_fresh(g, 3, "greedy")
        assert len(res.removal) == 3


def lying_eigensolver(monkeypatch):
    """np.linalg.eigh that reports lambda2 = -1e-6 for every matrix."""
    eigh = np.linalg.eigh

    def lie(a):
        w, v = eigh(a)
        w = w.copy()
        w[0] = -1e-6
        return w, v

    monkeypatch.setattr(np.linalg, "eigh", lie)


@pytest.mark.parametrize("m, mode", [(0, "auto"), (2, "exhaustive"), (2, "greedy")])
def test_negative_start_lambda2_raises_before_any_screen(monkeypatch, m, mode):
    g = build_proximity_graph(jittered_lattice(), WeightProfile(SMOOTH, 1.6))
    screens = []
    below = adversary._below
    monkeypatch.setattr(adversary, "_below", lambda *a: screens.append(a) or below(*a))
    lying_eigensolver(monkeypatch)
    with pytest.raises(SpectralError, match=r"^negative lambda2 from eigensolver: -1e-06$"):
        worst_case_removal(g, RemovalBudget(m), mode=mode)
    assert screens == []


def test_negative_start_lambda2_stops_the_planner(monkeypatch):
    lying_eigensolver(monkeypatch)
    opts = ControlOptions(RemovalBudget(2), 0.3)
    with pytest.raises(SpectralError, match=r"^negative lambda2 from eigensolver: -1e-06$"):
        plan_step(jittered_lattice(), WeightProfile(SMOOTH, 1.6), opts)
