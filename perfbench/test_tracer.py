"""The tracer sees every call site, and tracing leaves results unchanged.

Run from the repository root::

    python3 -m pytest perfbench/test_tracer.py

The ROADMAP W1 rerun makes 283,346 eigensolves and takes most of a minute.
"""

import math
import sys
from pathlib import Path

import numpy as np
import pytest
import yaml

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import resilnet  # noqa: E402
from resilnet import cli  # noqa: E402
from tracer import Probe, Tracer, namespaces  # noqa: E402


@pytest.fixture
def tracer():
    t = Tracer()
    t.install()
    yield t
    t.uninstall()


def test_exhaustive_search_records_every_eigensolve(tracer):
    rng = np.random.default_rng(5)
    g = resilnet.build_proximity_graph(
        rng.uniform(0.0, 2.0, size=(9, 2)), resilnet.WeightProfile("binary", 1.2)
    )
    e = g.edge_count
    assert e >= 10
    res = resilnet.adversary.worst_case_removal(g, resilnet.RemovalBudget(2), "exhaustive")
    assert res.exact
    m = tracer.metrics()
    assert m["graph_core.algebraic_connectivity.calls"] == 1 + e + math.comb(e, 2)
    assert m["graph_core.laplacian.calls"] == 1 + e + math.comb(e, 2)
    assert m["adversary.worst_case_removal.calls"] == 1
    assert m["adversary.subsets_scanned"] == e + math.comb(e, 2)
    assert m["graph_core.eig_work"] == 9**3 * (1 + e + math.comb(e, 2))


def test_uninstall_restores_every_namespace():
    before = {ns.__name__: dict(ns.__dict__) for ns in namespaces()}
    t = Tracer()
    t.install()
    assert resilnet.controller.worst_case_removal is not before["resilnet.controller"]["worst_case_removal"]
    t.uninstall()
    for ns in namespaces():
        for name, value in before[ns.__name__].items():
            assert ns.__dict__[name] is value, f"{ns.__name__}.{name}"


def _simulate(doc: dict, tmp: Path, traced: bool):
    tmp.mkdir()
    path = tmp / "scenario.yaml"
    path.write_text(yaml.safe_dump(doc))
    tracer = Tracer() if traced else None
    if tracer:
        tracer.install()
    probe = Probe()
    probe.install()
    try:
        assert cli.main(["simulate", str(path), "--out", str(tmp)]) == 0
    finally:
        probe.uninstall()
        if tracer:
            tracer.uninstall()
    return (tmp / "trace.jsonl").read_bytes(), probe, tracer


def _line(seed: int) -> dict:
    rng = np.random.default_rng(seed)
    return {
        "dimension": 2,
        "steps": 3,
        "rng_seed": seed,
        "profile": {"kind": "binary", "range": 1.3},
        "agents": [
            {"id": f"a{k}", "position": [float(k + rng.uniform(-0.1, 0.1)), 0.0]}
            for k in range(5)
        ],
        "control": {"anticipated_budget": 1, "motion_bound": 0.5},
        "events": [{"type": "jam", "budget": 1, "start": 1, "end": 2}],
    }


@pytest.mark.parametrize("seed", [1, 2])
def test_tracing_does_not_change_results(tmp_path, seed):
    plain, p0, _ = _simulate(_line(seed), tmp_path / "plain", traced=False)
    traced, p1, tracer = _simulate(_line(seed), tmp_path / "traced", traced=True)
    assert plain == traced
    assert p0.digest() == p1.digest()
    assert len(p0.step_starts) == 3
    m = tracer.metrics()
    assert m["controller.plan.calls"] == 3
    assert m["adversary.worst_case_removal.calls"] == len(p1.removals)
    assert m["controller.plan.evals"] + 1 == m["adversary.worst_case_removal.calls"]
    assert m["scenario_io.bytes_written"] > len(traced)


def roadmap_w1() -> dict:
    """W1 of the ROADMAP: the exact 4x4 lattice, without jitter."""
    grid = [[float(k % 4), float(k // 4)] for k in range(16)]
    return {
        "dimension": 2,
        "steps": 10,
        "rng_seed": 0,
        "profile": {"kind": "binary", "range": 1.6},
        "agents": [{"id": f"a{k}", "position": p} for k, p in enumerate(grid)],
        "control": {
            "anticipated_budget": 2,
            "motion_bound": 0.3,
            "min_separation": 0.5,
            "outer_iters": 8,
        },
        "events": [{"type": "jam", "budget": 2, "start": 4, "end": 8}],
    }


def test_roadmap_w1_rerun_counts(tmp_path):
    _, probe, tracer = _simulate(roadmap_w1(), tmp_path / "w1", traced=True)
    m = tracer.metrics()
    assert m["adversary.worst_case_removal.calls"] == 314
    assert m["graph_core.algebraic_connectivity.calls"] == 283_346
    assert m["controller.plan.accepted"] == 0
    assert len(probe.removals) == 314
