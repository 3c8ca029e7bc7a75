"""Worst-case link removal against independent enumeration."""

from itertools import combinations

import numpy as np
import pytest

from resilnet import (
    RemovalBudget,
    WeightedGraph,
    algebraic_connectivity,
    edge_impact_scores,
    remove_links,
    worst_case_removal,
)
from test_graph_core import random_graph, reference_laplacian


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


def test_auto_mode_falls_back_to_greedy():
    rng = np.random.default_rng(31)
    pos = rng.uniform(0.0, 1.0, size=(10, 2))
    from resilnet import BINARY, WeightProfile, build_proximity_graph

    g = build_proximity_graph(pos, WeightProfile(BINARY, 2.0))
    res = worst_case_removal(g, RemovalBudget(3), subset_cap=10)
    assert not res.exact
    res = worst_case_removal(g, RemovalBudget(1), subset_cap=10_000)
    assert res.exact


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

