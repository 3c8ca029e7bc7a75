"""One workload run in a fresh process.

Usage (normally started by ``run.py``)::

    python3 perfbench/worker.py KIND RESULT_JSON T0 K0 INPUT... [--trace] [--setup-only]

KIND is ``simulate`` or ``gne``.  T0 is the parent's ``time.monotonic()``
just before it started this process, and K0 the parent's kernel time just
before that (``speed.py``); the system-wide monotonic clock makes
``setup_s`` span interpreter start, package import and input parsing.
Simulate inputs run through ``resilnet.cli.main``; game inputs through
``resilnet.gne.gne_solve``.  The result, with speed-normalized
per-operation latencies and output digests, is written to RESULT_JSON.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import resource
import sys
import time
from pathlib import Path


def _parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("kind", choices=("simulate", "gne"))
    p.add_argument("result", type=Path)
    p.add_argument("t0", type=float)
    p.add_argument("k0", type=float)
    p.add_argument("inputs", nargs="+", type=Path)
    p.add_argument("--trace", action="store_true", help="install the layer tracer")
    p.add_argument("--setup-only", action="store_true", help="stop after setup")
    return p.parse_args(argv)


def main(argv=None) -> int:
    args = _parse_args(argv)
    import resilnet
    from resilnet import cli, gne, scenario_io

    from speed import REF_KERNEL_S, SpeedClock, kernel_time
    from tracer import Probe, Tracer

    tracer = Tracer() if args.trace else None
    if tracer:
        tracer.install()
    if args.kind == "simulate":
        problems = [scenario_io.parse_scenario(p) for p in args.inputs]
    else:
        problems = [scenario_io.parse_gne(p) for p in args.inputs]
    setup_raw_s = time.monotonic() - args.t0
    setup_s = setup_raw_s * REF_KERNEL_S / ((args.k0 + kernel_time()) / 2)
    result = {"package": resilnet.__file__, "setup_s": setup_s, "setup_raw_s": setup_raw_s}
    if not args.setup_only:
        clock = SpeedClock()
        # the speed clock's kernel runs inside steps; keep it out of the layers
        probe = Probe(tracer.excluded(clock.tick) if tracer else clock.tick)
        probe.install()
        if args.kind == "simulate":
            result.update(_simulate(cli, args.inputs, problems, args.result.parent, clock, probe))
        else:
            result.update(_solve(gne, scenario_io, problems, clock))
        result["adversary_digest"] = probe.digest()
        result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        if tracer:
            tracer.write_spans(args.result.with_suffix(".spans.jsonl"))
            result["layers"] = tracer.metrics()
    args.result.write_text(json.dumps(result))
    return 0


def _simulate(cli, inputs, problems, workdir: Path, clock, probe) -> dict:
    """Run every scenario through the command line; one op per step."""
    stamps = probe.step_starts
    ends, traces = [], []
    start = clock.tick()
    for k, path in enumerate(inputs):
        out = workdir / f"out-{k:03d}"
        code = cli.main(["simulate", str(path), "--out", str(out)])
        ends.append(clock.tick())
        if code != 0:
            raise SystemExit(f"resilnet simulate {path} exited {code}")
        traces.append(out / "trace.jsonl")
    wall, cpu = clock.between(start, ends[-1])
    ops_ms, offset = [], 0
    for cfg, end in zip(problems, ends):
        starts = stamps[offset:offset + cfg.steps] + [end]
        if len(starts) != cfg.steps + 1:
            raise SystemExit("planner stamps do not match the step count")
        ops_ms += [1e3 * clock.between(a, b)[0] for a, b in zip(starts, starts[1:])]
        offset += cfg.steps
    digest = hashlib.sha256()
    for t in traces:
        digest.update(t.read_bytes())
    return {
        "wall_s": wall,
        "cpu_s": cpu,
        "raw_wall_s": clock.raw_between(start, ends[-1]),
        "ops_ms": ops_ms,
        "traces": [str(t) for t in traces],
        "output_digest": digest.hexdigest(),
    }


def _solve(gne, scenario_io, problems, clock) -> dict:
    """Solve every game with gne_solve; one op per solve."""
    states, ticks = [], [clock.tick()]
    for prob in problems:
        states.append(gne.gne_solve(
            prob.costs, prob.sender_utils, prob.receiver_utils,
            damping=prob.damping, tol=prob.tol, max_iters=prob.max_iters, p0=prob.p0,
        ))
        ticks.append(clock.tick())
    ops_ms = [1e3 * clock.between(a, b)[0] for a, b in zip(ticks, ticks[1:])]
    wall, cpu = clock.between(ticks[0], ticks[-1])
    records = [scenario_io.gne_record(s) for s in states]
    digest = hashlib.sha256()
    for rec in records:
        digest.update(scenario_io.dumps_canonical(rec).encode())
    return {
        "wall_s": wall,
        "cpu_s": cpu,
        "raw_wall_s": clock.raw_between(ticks[0], ticks[-1]),
        "ops_ms": ops_ms,
        "records": records,
        "output_digest": digest.hexdigest(),
    }


if __name__ == "__main__":
    sys.exit(main())
