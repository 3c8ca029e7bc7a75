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
    controller,
    plan_step,
    remove_links,
    run_scenario,
    scenario_from_dict,
    worst_case_removal,
)
from resilnet.graph_core import _eigensolve
from test_controller import perf_workloads
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


def auto_is_exhaustive(g, m, cap):
    """auto's rule, by counting: the subsets of the cut within the cap, and
    those of 1..m too where the cut leaves the incumbent above 0."""

    def within(b):
        return sum(math.comb(g.edge_count, s) for s in range(1, b + 1)) <= cap

    cut = min(m, max(min_degree(g), 1))
    return within(cut) and (
        cut == m or within(m) or adversary._exhaustive(g, cut).lambda2_after <= adversary._TIE_TOL
    )


def test_auto_mode_counts_the_subsets_of_every_size(monkeypatch):
    # removing both links of a 4-cycle's agent isolates it, so auto decides
    # on the cut budget 2: it scans the 4 + 6 = 10 subsets of 1..2 edges,
    # not the 15 of 1..4
    square = [[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]]
    g = build_proximity_graph(square, WeightProfile(BINARY, 1.2))
    assert g.edge_count == 4
    monkeypatch.setattr(adversary, "SUBSET_CAP", 9)
    assert not worst_case_removal(g, RemovalBudget(4)).exact
    monkeypatch.setattr(adversary, "SUBSET_CAP", 10)
    assert worst_case_removal(g, RemovalBudget(4)).exact
    # where roundoff keeps the cut's incumbent up, its rerun at the full
    # budget counts too: 4 + 6 = 10 subsets of 1..2 edges, not the cut's 4
    g = pendant_on_heavy_clique(6.5e-13)
    monkeypatch.setattr(adversary, "SUBSET_CAP", 9)
    res = worst_case_removal(g, RemovalBudget(2))
    assert not res.exact
    assert res == worst_case_removal(g, RemovalBudget(2), mode="greedy")
    monkeypatch.setattr(adversary, "SUBSET_CAP", 10)
    assert worst_case_removal(g, RemovalBudget(2)).exact


@pytest.mark.parametrize(
    "kind, m, greedy",
    [
        (SMOOTH, 4, 0.008494807885466645),
        (SMOOTH, 5, 0.006643894807378724),
        (BINARY, 4, 0.7224811496719293),
    ],
)
def test_auto_is_exact_past_the_cap_where_the_cut_is_within_it(kind, m, greedy):
    # the 4x4 lattice's corner agent 0 has delta = 3 links, edges 0, 1 and 2;
    # the 12,383 subsets of 1..3 edges are within the cap, those of 1..m not
    g = build_proximity_graph(jittered_lattice(), WeightProfile(kind, 1.6))
    assert g.edge_count == 42 and min_degree(g) == 3
    assert sum(math.comb(42, s) for s in range(1, m + 1)) > adversary.SUBSET_CAP
    assert worst_case_removal(g, RemovalBudget(m), mode="greedy").lambda2_after == greedy
    res = worst_case_removal(g, RemovalBudget(m))
    want = worst_case_removal(g, RemovalBudget(m), mode="exhaustive")
    assert res.exact and res.removal == want.removal == (0, 1, 2)
    assert res.lambda2_after.hex() == want.lambda2_after.hex()
    assert res.lambda2_after <= adversary._TIE_TOL


def test_auto_stays_greedy_where_the_cut_is_past_the_cap():
    # the 6x6 lattice's cut is m = 3 itself: 221,925 subsets of 1..3 edges
    g = build_proximity_graph(jittered_lattice(6), WeightProfile(SMOOTH, 1.6))
    assert g.edge_count == 110 and min_degree(g) == 3
    res = worst_case_removal(g, RemovalBudget(3))
    assert not res.exact
    assert res == worst_case_removal(g, RemovalBudget(3), mode="greedy")
    assert res.removal == (70, 91, 107)
    assert res.lambda2_after.hex() == "0x1.468ad7aa444d8p-7"


def test_the_6x6_plan_at_budget_3_covers_its_jam():
    # grid16-jam's document on the 6x6 lattice, anticipating 3 links.  When
    # auto decided on m rather than on the cut, every search of this run but
    # one went greedy, the plan predicted 0.0174, and the budget-2 jam at
    # step 1 disconnected the team (lambda2 1.1e-15)
    workloads = perf_workloads()
    [doc] = workloads.grid16_jam(11)
    doc["agents"] = workloads._agents(workloads._lattice(6, 0.05))
    doc["control"]["anticipated_budget"] = 3
    jammed = run_scenario(scenario_from_dict(doc))[1]
    assert jammed.active_events == (0,) and jammed.anticipated == (True,)
    assert jammed.lambda2_worst_anticipated > 0.0
    assert jammed.lambda2_realized > 1e-9


@settings(max_examples=80, deadline=None, derandomize=True)
@given(
    seed=st.integers(0, 2**32 - 1),
    family=st.sampled_from(["random", "lattice", "near-zero"]),
    # heavy weights leave roundoff above the tie tolerance, so the cut reruns
    scale=st.sampled_from([1.0, 1e-3, 1e4]),
    m=st.integers(1, 4),
    cap=st.sampled_from([3, 10, 40, 200]),
)
def test_auto_matches_exhaustive_wherever_its_rule_searches(seed, family, scale, m, cap):
    rng = np.random.default_rng(seed)
    base = drawn_graph(rng, family)
    g = WeightedGraph(base.n, base.edges, base.weights * scale)
    m = min(m, g.edge_count)
    if m == 0 or sum(math.comb(g.edge_count, s) for s in range(1, m + 1)) > 3000:
        return
    exhaustive = auto_is_exhaustive(g, m, cap)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(adversary, "SUBSET_CAP", cap)
        res = worst_case_removal(g, RemovalBudget(m))
    assert res.exact == exhaustive
    want = worst_case_removal(g, RemovalBudget(m), mode="exhaustive" if exhaustive else "greedy")
    assert res.removal == want.removal
    assert res.lambda2_after.hex() == want.lambda2_after.hex()
    assert_same_spectrum(res.attacked, want.attacked)


def test_budget_beyond_edges_rejected():
    with pytest.raises(ValueError, match="exceeds"):
        worst_case_removal(TRIANGLE, RemovalBudget(4))
    with pytest.raises(ValueError):
        RemovalBudget(-1)


def impacts(g, v):
    """Per-edge impact w (v_i - v_j)^2 on the vector v, by a Python loop."""
    v = v.tolist()
    return [w * (v[i] - v[j]) ** 2 for (i, j), w in zip(g.edges.tolist(), g.weights.tolist())]


def assert_greedy_first_removal_is_the_largest(g, impact, lambda2):
    res = worst_case_removal(g, RemovalBudget(1), mode="greedy")
    if lambda2 <= 0.0:
        assert res.removal == ()
    else:  # the first of the largest
        assert res.removal == (max(range(g.edge_count), key=impact.__getitem__),)


def test_impact_scores_sum_to_lambda2():
    # greedy cuts the link of largest impact w (v_i - v_j)^2 on the Fiedler
    # vector v; unit v's impacts sum to lambda2
    rng = np.random.default_rng(37)
    for _ in range(50):
        g = random_graph(rng)
        if not g.edge_count:
            continue
        spec = algebraic_connectivity(g)
        impact = impacts(g, spec.fiedler)
        assert sum(impact) == pytest.approx(spec.lambda2, abs=1e-9)
        assert all(s >= 0 for s in impact)
        assert_greedy_first_removal_is_the_largest(g, impact, spec.lambda2)


def test_impact_scores_sign_flip_invariant():
    g = WeightedGraph(4, [(0, 1), (1, 2), (2, 3), (0, 3)], [1.0, 0.5, 1.5, 0.7])
    spec = algebraic_connectivity(g)
    a = impacts(g, spec.fiedler)
    b = impacts(g, -spec.fiedler)
    np.testing.assert_allclose(a, b)
    assert_greedy_first_removal_is_the_largest(g, a, spec.lambda2)
    assert_greedy_first_removal_is_the_largest(g, b, spec.lambda2)


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


def jittered_lattice(side=4):
    """The lattice of the benchmark workloads (grid16-jam's at side 4),
    before its rigid motion."""
    rng = np.random.default_rng([20010712, side])
    return np.array(king_grid(side)) + rng.uniform(-0.05, 0.05, size=(side * side, 2))


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

    The bisection's screens are those at the middle of the bracket the
    screens before them left; the screens after them are the guard and
    window passes, told apart by their x.  A solve between the two is the
    lone candidate's.  Checks that no subset is solved twice, that a stop
    leaves exactly one candidate, and that every later screen is at the
    guard or at the top of the bracket plus the margin.
    """
    solves = [e[1] for e in events if e[0] == "solve"]
    assert len(solves) == len(set(solves))
    _, lam, margin, guard = screen_inputs(g)
    lo, hi = -margin, float(lam[0])
    bisection = []
    for e in events:
        if e[0] != "below" or e[1] != 0.5 * (lo + hi):
            break
        bisection.append(e)
        hi, lo = (e[1], lo) if e[3] else (hi, e[1])
    rest = events[len(bisection):]
    early = rest[:1] if rest and rest[0][0] == "solve" else []
    passes = [e for e in rest if e[0] == "below"]
    shrinking = [e for e in bisection if e[3]]
    if shrinking:
        lone = shrinking[-1][3] == 1
    else:
        lone = (bisection or passes)[0][2] == 1
    assert len(early) <= 1 and (not early or lone)
    top = (algebraic_connectivity(remove_links(g, early[0][1])).lambda2 if early else hi) + margin
    assert passes and all(e[1] in (guard, top) for e in passes)
    return bool(early), lone, hi


def screen_inputs(g):
    """The screen's z and lam, and the margin and guard, as the search
    makes them."""
    lam, vecs, shift = _eigensolve(g)
    a, b = np.append(g.edges, [[0, 0]], axis=0).T
    z = np.sqrt(np.append(g.weights, 0.0))[:, None] * (vecs[a] - vecs[b])
    margin = adversary._SCREEN_MARGIN * (1.0 + shift)
    guard = adversary._NEGATIVE_TOL + adversary._GUARD_MARGIN * (1.0 + shift)
    return z, lam, margin, guard


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
            low = hi <= adversary._TIE_TOL + screen_inputs(g)[2]
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
    assert lone and not stopped and hi <= adversary._TIE_TOL + screen_inputs(g)[2]
    assert [e for e in events if e[0] == "solve"] == []
    assert res.removal == () and res.lambda2_after == algebraic_connectivity(g).lambda2


@pytest.mark.parametrize(
    "kind, stops, screens, window",
    [(SMOOTH, True, 5, (17, 1)), (BINARY, False, 26, (28, 8))],
    ids=["smooth-True-5", "binary-False-26"],
)
def test_lone_candidate_stop_on_the_jittered_lattice(monkeypatch, kind, stops, screens, window):
    # the smooth weights single out one worst pair, so the bisection ends
    # once it is alone, where the full bracket takes 23 screens; the binary
    # lattice's eight tied pairs keep the full bisection.  The guard lies
    # below both tops and no incumbent reaches 0, so the one pass after the
    # bisection is the window's, over the first shrink's survivors of the
    # 903 subsets
    g = build_proximity_graph(jittered_lattice(), WeightProfile(kind, 1.6))
    res, events = traced_search(monkeypatch, g, 2)
    assert lone_stop(g, events)[0] is stops
    guard = screen_inputs(g)[3]
    below = [e for e in events if e[0] == "below"]
    assert len(below) == screens
    assert [e[2:] for e in below if e[1] == guard] == []
    first_shrink = next(e for e in below if e[3])
    assert first_shrink[2:] == (903, window[0]) and below[-1][2:] == window
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


def test_subset_table_is_made_once_and_read_only():
    table = adversary._subsets(42, 2)
    assert adversary._subsets(42, 2) is table
    with pytest.raises(ValueError, match="read-only"):
        table[0, 0] = 1
    assert table[0, 0] == 0


def reference_below(z, lam, x, rows):
    """The screen before its trace bound, verbatim: the exact test on every
    row."""
    if x >= lam[0]:
        return np.ones(len(rows), dtype=bool)
    p = (z / (lam - x)) @ z.T
    if rows.shape[1] == 2:
        i, j = rows.T
        a, c = p[i, i], p[j, j]
        return 0.5 * (a + c) + np.hypot(0.5 * (a - c), p[i, j]) >= 1.0
    return np.linalg.eigvalsh(p[rows[:, :, None], rows[:, None, :]])[:, -1] >= 1.0


def reference_passes(g, m):
    """The bisection, then the guard and window passes over the whole
    subset table, as the search made them before it screened only the
    bisection's survivors: the top of the bracket, the guard mask and the
    mask of the window pass at the top plus the margin."""
    z, lam, margin, guard = screen_inputs(g)
    subsets = reference_subsets(g.edge_count, m)
    lo, hi, candidates = -margin, float(lam[0]), subsets
    while hi - lo >= 0.25 * margin:
        if len(candidates) == 1 and hi > adversary._TIE_TOL + margin:
            lone = tuple(e for e in candidates[0].tolist() if e < g.edge_count)
            hi = algebraic_connectivity(remove_links(g, lone)).lambda2
            break
        mid = 0.5 * (lo + hi)
        inside = reference_below(z, lam, mid, candidates)
        if inside.any():
            hi, candidates = mid, candidates[inside]
        else:
            lo = mid
    return hi, reference_below(z, lam, guard, subsets), reference_below(z, lam, hi + margin, subsets)


def min_degree(g):
    return int(np.bincount(g.edges.ravel(), minlength=g.n).min())


def drawn_graph(rng, family):
    """A graph of one family: random weights, an integer lattice whose
    distances tie the ranges, a near-zero case, or the jittered lattice."""
    if family == "random":
        return random_graph(rng, n=int(rng.integers(3, 8)))
    if family == "lattice":
        pos = rng.integers(0, 3, size=(int(rng.integers(3, 9)), 2)).astype(float)
        return build_proximity_graph(pos, WeightProfile(BINARY, float(rng.choice([1.0, 1.5]))))
    if family == "near-zero":
        graphs = near_zero_graphs()
        return graphs[int(rng.integers(0, len(graphs)))]
    kind = BINARY if rng.random() < 0.5 else SMOOTH
    return build_proximity_graph(jittered_lattice(), WeightProfile(kind, 1.6))


def flip_point(z, lam, row, lo, hi):
    """Adjacent x below and above which the exact screen of one row flips
    from outside to inside, by bisection from an outside lo and an inside hi."""
    while (mid := 0.5 * (lo + hi)) not in (lo, hi):
        lo, hi = (lo, mid) if reference_below(z, lam, mid, row[None])[0] else (mid, hi)
    return lo, hi


@settings(max_examples=60, deadline=None, derandomize=True)
@given(
    seed=st.integers(0, 2**32 - 1),
    family=st.sampled_from(["random", "lattice", "near-zero", "jittered"]),
    m=st.integers(1, 3),
)
def test_trace_bound_keeps_every_decision_at_each_crossing(seed, family, m):
    # a few ulps either side of where each sampled row's exact test flips,
    # the bounded screen gives every row the exact test's decision
    rng = np.random.default_rng(seed)
    g = drawn_graph(rng, family)
    m = min(m, g.edge_count, 2 if g.edge_count > 30 else 3)
    if m == 0:
        return
    z, lam, margin, _ = screen_inputs(g)
    table = reference_subsets(g.edge_count, m)
    lo, hi = -margin, float(lam[0])
    flips = 0
    for k in rng.choice(len(table), size=min(6, len(table)), replace=False):
        row = table[k]
        if reference_below(z, lam, lo, row[None])[0] or not reference_below(
            z, lam, np.nextafter(hi, -np.inf), row[None]
        )[0]:
            continue
        below, above = flip_point(z, lam, row, lo, np.nextafter(hi, -np.inf))
        flips += 1
        for x in (below, above):
            for step in range(-3, 4):
                at = x
                for _ in range(abs(step)):
                    at = np.nextafter(at, np.sign(step) * np.inf)
                got = adversary._below(z, lam, at, table)
                assert np.array_equal(got, reference_below(z, lam, at, table)), (k, at)
    if family == "jittered":
        assert flips


def screened(g, m):
    """The exhaustive search, with each screen's x, row count and the set
    of rows it put below x."""
    found = []
    below = adversary._below

    def spy(z, lam, x, rows):
        inside = below(z, lam, x, rows)
        found.append((x, len(rows), {tuple(r) for r in rows[inside].tolist()}))
        return inside

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(adversary, "_below", spy)
        res = worst_case_removal(g, RemovalBudget(m), mode="exhaustive")
    return res, found


def assert_passes_match_full_table(g, m):
    """The window and guard screens find, over the rows they screen, the
    same subsets as the full-table passes.  Returns whether the window
    screened only the bisection's survivors, and how many subsets the guard
    found, or None where the incumbent never reached 0 and the guard never
    ran.  ``m`` must not exceed the minimum degree."""
    res, found = screened(g, m)
    hi, guarded, at_top = reference_passes(g, m)
    _, _, margin, guard = screen_inputs(g)
    table = reference_subsets(g.edge_count, m)
    tops = [f for f in found if f[0] == hi + margin]
    guards = [f for f in found if f[0] == guard]
    assert len(tops) == 1 and tops[0][2] == {tuple(r) for r in table[at_top].tolist()}
    assert len(guards) <= 1
    if guards:
        assert guards[0][2] == {tuple(r) for r in table[guarded].tolist()}
    return tops[0][1] < len(table), len(guards[0][2]) if guards else None


@settings(max_examples=120, deadline=None, derandomize=True)
@given(
    seed=st.integers(0, 2**32 - 1),
    family=st.sampled_from(["random", "lattice", "near-zero", "jittered"]),
    m=st.integers(1, 3),
    screen_margin=st.sampled_from([adversary._SCREEN_MARGIN, 1e-2, 1e-1]),
)
def test_survivor_passes_match_full_table_passes(seed, family, m, screen_margin):
    # a wide margin often leaves the first shrink within a margin of the
    # window's edge, where the window must screen every subset
    g = drawn_graph(np.random.default_rng(seed), family)
    m = min(m, min_degree(g), 2 if g.edge_count > 30 else 3)
    if m >= 1:
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(adversary, "_SCREEN_MARGIN", screen_margin)
            assert_passes_match_full_table(g, m)


def test_survivor_passes_on_fixed_cases():
    # the near-zero cases reach a zero incumbent, where the guard runs late
    # over the window; with weights 1e3 the guard lies above 0 and marks
    # the subsets that disconnect the team; the lattices keep their windows
    # to the survivors
    restricted = lazy = marked = 0
    graphs = near_zero_graphs() + [
        build_proximity_graph(jittered_lattice(), WeightProfile(kind, 1.6))
        for kind in (BINARY, SMOOTH)
    ]
    graphs += [WeightedGraph(g.n, g.edges, 1e3 * g.weights) for g in near_zero_graphs()]
    for g in graphs:
        for m in range(1, min(3, min_degree(g)) + 1):
            survivors, found = assert_passes_match_full_table(g, m)
            restricted += survivors
            lazy += found is not None
            marked += bool(found)
    assert (restricted, lazy, marked) == (110, 53, 24)


def reference_rayleigh_bound(g, b, vectors):
    """The least Rayleigh quotient of any vector on g less any b edges, by
    enumerating the removals, with per-edge loops."""
    best = math.inf
    for v in vectors:
        u = v - v.mean()
        norm = float(u @ u) - float(u.sum()) ** 2 / g.n
        t = [w * (u[i] - u[j]) ** 2 for (i, j), w in zip(g.edges.tolist(), g.weights.tolist())]
        for removal in combinations(range(g.edge_count), b):
            kept = sum(t[e] for e in range(g.edge_count) if e not in removal)
            best = min(best, kept / norm)
    return best


def perturbed(rng, g):
    """g with its link weights scaled by up to about 2x and some links cut,
    as a nearby planner trial would have them."""
    keep = rng.random(g.edge_count) >= 0.15
    w = g.weights * np.exp(rng.normal(0.0, 0.4, g.edge_count))
    return WeightedGraph(g.n, g.edges[keep], w[keep])


@settings(max_examples=150, deadline=None, derandomize=True)
@given(
    seed=st.integers(0, 2**32 - 1),
    family=st.sampled_from(["random", "lattice", "near-zero"]),
    scale=st.sampled_from([1.0, 1e-3, 1e3]),
    m=st.integers(0, 3),
    cap=st.sampled_from([adversary.SUBSET_CAP, 5]),
    offset=st.sampled_from([-2.0, -0.5, 0.5, 2.0, None]),
)
def test_certificate_bounds_the_worst_case(seed, family, scale, m, cap, offset):
    rng = np.random.default_rng(seed)
    base = drawn_graph(rng, family)
    g = WeightedGraph(base.n, base.edges, base.weights * scale)
    b = min(m, g.edge_count)
    # the stored vectors: attacked Fiedler vectors of nearby trials, and of g
    rejected = controller._Rejected(g.n)
    for h in [perturbed(rng, g) for _ in range(int(rng.integers(0, 3)))] + [g]:
        rejected.add(worst_case_removal(h, RemovalBudget(min(m, h.edge_count))).attacked.fiedler)
    shift = 2.0 * float(reference_laplacian(g).diagonal().max()) + 1.0
    margin = adversary._SCREEN_MARGIN * (1.0 + shift)
    edge = reference_rayleigh_bound(g, b, rejected.vectors) + 2.0 * adversary._TIE_TOL + margin
    if offset is None:  # a level anywhere from 0 to twice the edge
        level = float(rng.choice([0.0, rng.uniform(0.0, 2.0 * edge)]))
    else:  # a level within a few margins of the edge
        level = edge + offset * margin
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(adversary, "SUBSET_CAP", cap)
        certified = adversary._certified_below(g, m, rejected.vectors, rejected.norms, level)
        worst = worst_case_removal(g, RemovalBudget(b))
    assert worst.exact == auto_is_exhaustive(g, b, cap)
    # the certificate asks for the cap at b itself
    guard = sum(math.comb(g.edge_count, s) for s in range(1, b + 1)) <= cap
    assert certified == (guard and (edge < level if offset is None else offset > 0))
    if certified:
        assert worst.lambda2_after < level - adversary._TIE_TOL
    if not worst.exact:  # greedy
        assert not certified


def benchmark_searches(monkeypatch, seed):
    """Every exhaustive search of a grid16-jam run, as (graph, budget), and
    the search of each planner trial that a certificate rejected, in order."""
    searches = []
    exhaustive, certify = adversary._exhaustive, controller._certified_below

    def spy(g, m):
        searches.append((g, m))
        return exhaustive(g, m)

    def spy_certify(g, m, vectors, norms, level):
        verdict = certify(g, m, vectors, norms, level)
        if verdict:
            searches.append((g, min(m, g.edge_count)))
        return verdict

    monkeypatch.setattr(adversary, "_exhaustive", spy)
    monkeypatch.setattr(controller, "_certified_below", spy_certify)
    [doc] = perf_workloads().grid16_jam(seed)
    run_scenario(scenario_from_dict(doc))
    monkeypatch.undo()
    return searches


@pytest.mark.parametrize("seed", [1, 5])
def test_benchmark_searches_match_reference(monkeypatch, seed):
    searches = benchmark_searches(monkeypatch, seed)
    assert len(searches) >= 40
    restricted = 0
    for g, m in searches[::8]:
        assert m == 2 and min_degree(g) >= m
        res = assert_spectra_are_fresh(g, m, "exhaustive")
        best, best_lam = reference_exhaustive(g, m)
        assert res.removal == best and res.lambda2_after.hex() == best_lam.hex()
        restricted += assert_passes_match_full_table(g, m)[0]
    assert restricted >= 3


@settings(max_examples=60, deadline=None, derandomize=True)
@given(
    seed=st.integers(0, 2**32 - 1),
    extra=st.integers(1, 4),
    scale=st.sampled_from([1.0, 1e-3, 1e-12, 1e3]),
)
def test_search_past_the_minimum_degree_matches_reference(seed, extra, scale):
    rng = np.random.default_rng(seed)
    g = random_graph(rng, n=int(rng.integers(3, 8)))
    m = max(min_degree(g), 1) + extra
    if m > g.edge_count or sum(math.comb(g.edge_count, s) for s in range(1, m + 1)) > 2000:
        return
    w = g.weights.copy()
    w[int(rng.integers(0, len(w)))] *= scale
    assert_matches_reference(WeightedGraph(g.n, g.edges, w), m)


def pendant_on_heavy_clique(w):
    """Agent 0 hangs by a link of weight w off a triangle of links of
    weight 1e3; without that link, the eigensolve gives lambda2 = 1.1e-13
    in place of 0."""
    return WeightedGraph(4, [(0, 1), (1, 2), (1, 3), (2, 3)], [w, 1e3, 1e3, 1e3])


def test_minimum_degree_cut_reruns_when_roundoff_keeps_the_incumbent_up(monkeypatch):
    # the start's lambda2 is 1.02e-12, above the tie tolerance, and the
    # isolating removal's roundoff 1.1e-13 does not undercut it by the
    # tolerance; a pair then reaches 0.0, so the cut at delta = 1 alone
    # would keep the start, and the search runs again at the full budget
    g = pendant_on_heavy_clique(6.5e-13)
    cut = adversary._exhaustive(g, 1)
    assert cut.removal == () and cut.lambda2_after > adversary._TIE_TOL
    budgets = []
    exhaustive = adversary._exhaustive
    monkeypatch.setattr(adversary, "_exhaustive", lambda h, m: budgets.append(m) or exhaustive(h, m))
    res = assert_spectra_are_fresh(g, 2, "exhaustive")
    assert budgets == [1, 2]
    assert res.removal == (1, 2) and res.lambda2_after == 0.0
    assert_matches_reference(g, 2)
    budgets.clear()
    # a heavier pendant link puts the start far above; the cut holds
    assert_matches_reference(pendant_on_heavy_clique(1.0), 3)
    assert budgets == [1]
    budgets.clear()
    # on a cycle every pair of links isolates an agent or splits the ring
    assert_matches_reference(structured_graph("cycle", 5), 4)
    assert budgets == [2]


def test_guarded_subsets_past_the_minimum_degree_solve_without_raising():
    # the cut never solves them.  With a shift above 99 the guard lies above
    # 0, so the full-table guard marks subsets that disconnect the team;
    # every one of them larger than delta solves without a SpectralError,
    # so skipping them drops no error on these graphs
    graphs = [structured_graph("weighted", n) for n in (4, 5, 6)]
    graphs += [pendant_on_heavy_clique(w) for w in (6.5e-13, 1.0)]
    graphs += [WeightedGraph(n, [(k, (k + 1) % n) for k in range(n)], np.full(n, 60.0)) for n in (4, 5)]
    past = 0
    for g in graphs:
        delta = min_degree(g)
        for m in range(delta + 1, min(delta + 2, g.edge_count) + 1):
            _, guarded, _ = reference_passes(g, m)
            for row in reference_subsets(g.edge_count, m)[guarded].tolist():
                removal = tuple(e for e in row if e < g.edge_count)
                if len(removal) > delta:
                    past += 1
                    algebraic_connectivity(remove_links(g, removal))
    assert past == 637


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
