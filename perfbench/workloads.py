"""Seeded inputs for the benchmark workloads.

Each workload turns a seed into a list of input documents: scenario
documents for ``resilnet simulate``, game documents for the composed game
solver.  Inputs are written as YAML files.

Planning work depends strongly on the exact geometry: over fresh ±0.05
jitter draws of the 4x4 lattice, the first planning step ranged from 13k to
37k eigensolves.  A run seeded that way measures its seed more than the
code.  So each lattice carries one fixed jitter pattern, which breaks the
lattice's symmetry and makes the planner move, and the seed places the
whole formation by a rigid motion (rotation and translation).  Distances are
unchanged, so every seed asks for the same planning work, while the
positions, traces and digests differ from seed to seed.
"""

from __future__ import annotations

import math
from pathlib import Path

import numpy as np
import yaml

# fixed generator seed of the lattices' jitter pattern
JITTER_SEED = 20010712


def _lattice(side: int, jitter: float) -> np.ndarray:
    rng = np.random.default_rng([JITTER_SEED, side])
    grid = np.array([[k % side, k // side] for k in range(side * side)], dtype=float)
    return grid + rng.uniform(-jitter, jitter, size=grid.shape)


def _rigid_motion(seed: int, tag: int):
    """Seeded rotation matrix and translation."""
    rng = np.random.default_rng([seed, tag])
    theta = float(rng.uniform(0.0, 2.0 * math.pi))
    rot = np.array([[math.cos(theta), -math.sin(theta)], [math.sin(theta), math.cos(theta)]])
    return rot, rng.uniform(-10.0, 10.0, size=2)


def _agents(points: np.ndarray) -> list[dict]:
    return [{"id": f"a{k}", "position": [float(x) for x in p]} for k, p in enumerate(points)]


def grid16_jam(seed: int) -> list[dict]:
    """Centralized planning at budget 2 with an exhaustive search; one jam."""
    rot, shift = _rigid_motion(seed, 16)
    points = (_lattice(4, 0.05) - 1.5) @ rot.T + shift
    return [{
        "dimension": 2,
        "steps": 3,
        "rng_seed": seed,
        "profile": {"kind": "binary", "range": 1.6},
        "agents": _agents(points),
        "control": {
            "anticipated_budget": 2,
            "motion_bound": 0.3,
            "min_separation": 0.5,
            "outer_iters": 8,
        },
        "events": [{"type": "jam", "budget": 2, "start": 1, "end": 2}],
    }]


# the trust game of the package's README: commands are valuable to fake and
# the receiver loses 5x more trusting an attacker than rejecting
DEMO_SENDER = [[[1.0, 0.0], [0.2, -0.8]], [[0.4, -0.6], [0.9, -0.1]]]
DEMO_RECEIVER = [[[-5.0, -1.0], [-5.0, -1.0]], [[-0.5, -1.0], [-0.5, -1.0]]]
SWEEP_SIDE = 12


def gne_sweep(seed: int) -> list[dict]:
    """A 12x12 grid of (attack, defense) move costs, jittered by the seed.

    Cells cover defense costs up to the attack cost.  With the demo tables
    the composed solver does not converge within 200 iterations once defense
    is costlier than attack, so those cells would make every solve there a
    failure; they are left out of the timed sweep.
    """
    rng = np.random.default_rng([seed, 64])
    games = []
    for i in range(SWEEP_SIDE):
        for j in range(SWEEP_SIDE):
            attack = 0.1 + 0.8 * (i + rng.uniform()) / SWEEP_SIDE
            defense = attack * (0.1 + 0.9 * (j + rng.uniform()) / SWEEP_SIDE)
            games.append({
                "costs": {"attack": float(attack), "defense": float(defense)},
                "sender_utils": {"attacker": DEMO_SENDER[0], "defender": DEMO_SENDER[1]},
                "receiver_utils": {"attacker": DEMO_RECEIVER[0], "defender": DEMO_RECEIVER[1]},
                "solver": {"damping": 0.5, "tol": 1e-8, "max_iters": 200, "p0": 0.5},
            })
    return games


# name -> (entry point, input generator, timed runs per minute).  The run
# counts fill about three quarters of a minute on a fast phase of a 2-vCPU
# host, with the set-up probes, which leaves room for slow phases.
WORKLOADS = {
    "grid16-jam": ("simulate", grid16_jam, 7),
    "gne-sweep": ("gne", gne_sweep, 14),
}


def write_inputs(name: str, seed: int, directory: Path) -> tuple[str, list[dict], list[Path]]:
    """Generate a workload's inputs into ``directory``; return kind, docs, paths."""
    kind, make, _ = WORKLOADS[name]
    docs = make(seed)
    directory.mkdir(parents=True, exist_ok=True)
    paths = []
    for k, doc in enumerate(docs):
        path = directory / f"input-{k:03d}.yaml"
        path.write_text(yaml.safe_dump(doc, sort_keys=False))
        paths.append(path)
    return kind, docs, paths
