"""Per-operation correctness checks, independent of the package's code.

A simulate operation is one step of ``trace.jsonl``; a game operation is
one composed solve.  Each check returns a list of problems, empty when the
operation is correct.
"""

from __future__ import annotations

import json

import numpy as np

LAMBDA_TOL = 1e-9  # absolute, plus the same relative to the spectrum scale
ZERO = 1e-12  # the package snaps lambda2 below this to 0
PBE_TOL = 1e-9


def lambda2(n: int, edges) -> float:
    """Second-smallest eigenvalue of the graph Laplacian, clamped at 0."""
    lap = np.zeros((n, n))
    if edges:
        e = np.asarray(edges, dtype=float)
        i, j, w = e[:, 0].astype(int), e[:, 1].astype(int), e[:, 2]
        np.add.at(lap, (i, j), -w)
        np.add.at(lap, (j, i), -w)
        np.add.at(lap, (i, i), w)
        np.add.at(lap, (j, j), w)
    return max(float(np.linalg.eigvalsh(lap)[1]), 0.0)


def check_steps(trace_path, scenario: dict) -> list[list[str]]:
    """Problems per step: recorded lambda2 and the anticipated-jam guarantee."""
    worst_case_jams = {
        k for k, ev in enumerate(scenario.get("events", []))
        if ev["type"] == "jam" and ev.get("edges") is None
    }
    out = []
    with open(trace_path) as fh:
        records = [json.loads(line) for line in fh if line.strip()]
    if len(records) != scenario["steps"]:
        return [[f"trace has {len(records)} steps, expected {scenario['steps']}"]]
    for rec in records:
        problems = []
        g = rec["graph"]
        lam = lambda2(g["n"], g["edges"])
        scale = 1.0 + max((w for _, _, w in g["edges"]), default=0.0) * g["n"]
        if abs(lam - rec["lambda2"]) > LAMBDA_TOL * scale:
            problems.append(f"step {rec['step']}: lambda2 {rec['lambda2']!r} != {lam!r}")
        for ev, anticipated in zip(rec["active_events"], rec["anticipated"]):
            if (ev in worst_case_jams and anticipated and rec["lambda2_worst"] > ZERO
                    and rec["lambda2"] <= ZERO):
                problems.append(
                    f"step {rec['step']}: anticipated jam disconnected the network "
                    f"although the plan predicted {rec['lambda2_worst']!r}"
                )
        out.append(problems)
    return out


def _tables(doc: dict, key: str) -> np.ndarray:
    return np.array([doc[key]["attacker"], doc[key]["defender"]], dtype=float)


def check_solve(record: dict, game: dict) -> list[str]:
    """Problems of one composed solve: flags, then a perfect Bayesian
    equilibrium check of the trust game at the solved prior."""
    problems = []
    if not record["converged"]:
        problems.append(f"not converged after {record['iterations']} iterations")
    if not record["verified"]:
        problems.append("not verified")
    u_s, u_r = _tables(game, "sender_utils"), _tables(game, "receiver_utils")
    sig = record["signaling"]
    s = np.asarray(sig["sender_strategy"])
    r = np.asarray(sig["receiver_strategy"])
    mu = np.asarray(sig["beliefs"])
    p = record["control_fraction"]
    prior = np.array([p, 1.0 - p])
    for name, probs in (("sender", s), ("receiver", r), ("belief", mu)):
        if np.any(probs < -PBE_TOL) or np.any(np.abs(probs.sum(axis=1) - 1.0) > PBE_TOL):
            problems.append(f"{name} rows are not distributions")
    for m in range(2):
        mass = prior * s[:, m]
        if mass.sum() > 1e-12 and np.any(np.abs(mu[m] - mass / mass.sum()) > PBE_TOL):
            problems.append(f"beliefs after message {m} break Bayes' rule")
        eu = u_r[:, m, :].T @ mu[m]  # receiver payoff per action
        if r[m] @ eu < eu.max() - PBE_TOL:
            problems.append(f"receiver does not best-respond to message {m}")
    for t in range(2):
        eu = np.array([r[m] @ u_s[t, m] for m in range(2)])  # payoff per message
        value = s[t] @ eu
        if value < eu.max() - PBE_TOL:
            problems.append(f"sender type {t} gains by switching message")
        if abs(value - sig["sender_values"][t]) > PBE_TOL:
            problems.append(f"sender type {t} value {sig['sender_values'][t]!r} != {value!r}")
    return problems
