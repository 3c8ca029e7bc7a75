"""resilnet benchmark: step latency and solve time on seeded workloads.

Usage, from the root of a source checkout::

    python3 perfbench/run.py --workload grid16-jam --seed 1 --seconds 45 --trace 0

Workloads (see ``workloads.py``):

- ``grid16-jam``: centralized planning of 16 agents with an exhaustive
  budget-2 attack search in every line-search trial, and one jam;
- ``gne-sweep``: the composed game solver over a grid of move costs.

Every workload run is a fresh process (``worker.py``) that imports the
package from ``src/`` with BLAS pinned to one thread.  Every time the
benchmark reports is normalized to a fixed processor speed (``speed.py``).
With ``--trace 0`` a fixed number of runs per minute of ``--seconds`` is
made, interleaved with processes that only set up, and the end-to-end
metrics are printed: medians over runs and set-ups, and percentiles of the
latencies of all operations (simulated steps or game solves) pooled over
the runs.  With ``--trace 1`` untraced and traced runs alternate until
``--seconds`` are used, and the per-layer metrics of ``tracer.py`` are
printed with the tracing overhead.  Every operation's output is checked
(``checks.py``); the last line of standard output is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench"  # working files; traced runs keep their spans here

sys.path.insert(0, str(HERE))
from checks import check_solve, check_steps  # noqa: E402
from speed import kernel_time  # noqa: E402
from workloads import WORKLOADS, write_inputs  # noqa: E402

SETUP_PROBES = 10  # processes that only set up, for setup_s
MIN_REPEATS = 2  # runs, or traced pairs, so that digests and counts are compared across repeats
# No timed run starts that could end after this multiple of --seconds, so a
# run stays near its length when the host or the code is much slower.
OVERRUN = 1.1
WORKER_TIMEOUT_S = 150

END_TO_END_UNITS = {
    "setup_s": "s",
    "wall_s": "s",
    "cpu_s": "s",
    "op_ms.p50": "ms",
    "op_ms.p90": "ms",
    "ops_per_s": "1/s",
    "peak_rss_mb": "MB",
}


def layer_unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith(("_share", "_ratio", "per_subset")):
        return "ratio"
    if name == "graph_core.eig_work":
        return "computed_n3"
    if name == "scenario_io.bytes_written":
        return "bytes"
    return "count"


class WorkerError(RuntimeError):
    pass


def environment() -> dict:
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "nproc": len(os.sched_getaffinity(0)),
        "loadavg": list(os.getloadavg()),
        "platform": platform.platform(),
    }


def spawn(kind: str, inputs, result: Path, *flags: str) -> dict:
    """Run one worker process to completion and return its result."""
    env = dict(
        os.environ,
        PYTHONPATH=str(SRC),
        OPENBLAS_NUM_THREADS="1",
        OMP_NUM_THREADS="1",
        MKL_NUM_THREADS="1",
    )
    k0 = kernel_time()
    t0 = time.monotonic()
    cmd = [sys.executable, str(HERE / "worker.py"), kind, str(result), repr(t0), repr(k0),
           *map(str, inputs), *flags]
    proc = subprocess.run(cmd, env=env, capture_output=True, text=True,
                          timeout=WORKER_TIMEOUT_S)
    if proc.returncode != 0:
        raise WorkerError(f"worker exited {proc.returncode}:\n{proc.stderr[-2000:]}")
    out = json.loads(result.read_text())
    if Path(out["package"]).resolve().parent.parent != SRC.resolve():
        raise WorkerError(f"imported resilnet from {out['package']}, not from {SRC}")
    return out


class Ledger:
    """Operations attempted and failed, with the first problems seen."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def op(self, problems) -> None:
        self.attempted += 1
        if problems:
            self.failed += 1
            self.problems += problems[:2]

    def fault(self, problem: str) -> None:
        self.problems.append(problem)

    @property
    def correct(self) -> bool:
        return not self.problems


def check_run(res: dict, kind: str, docs, ledger: Ledger, reference: dict | None) -> None:
    """Check every operation of one run; a run whose digests differ from the
    reference run of the same inputs fails all its operations."""
    same = reference is None or all(
        res[k] == reference[k] for k in ("output_digest", "adversary_digest")
    )
    if not same:
        ledger.fault("output or worst-case digests differ between runs of one seed")
    if kind == "simulate":
        for trace, doc in zip(res["traces"], docs):
            for problems in check_steps(trace, doc):
                ledger.op(problems if same else problems + ["digest mismatch"])
    else:
        for record, doc in zip(res["records"], docs):
            problems = check_solve(record, doc)
            ledger.op(problems if same else problems + ["digest mismatch"])


def percentile(values, q: int) -> float:
    """The q-th percentile, inclusive interpolation."""
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def timed(kind, docs, inputs, work: Path, repeats: int, seconds: float,
          ledger: Ledger) -> tuple[dict, dict]:
    """End-to-end metrics over a fixed number of runs.

    Each timing is a median or percentile over a fixed set of samples: the
    ``repeats`` runs, all operations of those runs pooled, or the
    ``repeats + SETUP_PROBES`` set-ups.  The counts do not depend on how
    fast the code runs, unless runs are so slow that ``OVERRUN`` cuts them
    short.
    """
    start = time.monotonic()
    setups, runs, spans = [], [], []
    for k in range(repeats):
        t = time.monotonic()
        res = spawn(kind, inputs, work / f"run-{k}.json")
        check_run(res, kind, docs, ledger, runs[0] if runs else None)
        runs.append(res)
        setups.append(res["setup_s"])
        # processes that only set up, spread evenly between the runs
        for _ in range(SETUP_PROBES * (k + 1) // repeats - SETUP_PROBES * k // repeats):
            setups.append(spawn(kind, inputs, work / "setup.json", "--setup-only")["setup_s"])
        spans.append(time.monotonic() - t)
        if len(runs) >= MIN_REPEATS and time.monotonic() - start + max(spans) > OVERRUN * seconds:
            break
    ops = [lat for r in runs for lat in r["ops_ms"]]
    wall = statistics.median(r["wall_s"] for r in runs)
    metrics = {
        "setup_s": statistics.median(setups),
        "wall_s": wall,
        "cpu_s": statistics.median(r["cpu_s"] for r in runs),
        "op_ms.p50": percentile(ops, 50),
        "op_ms.p90": percentile(ops, 90),
        "ops_per_s": len(runs[0]["ops_ms"]) / wall,
        "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in runs),
    }
    info = {
        "runs": len(runs),
        "raw_run_walls_s": [round(r["raw_wall_s"], 3) for r in runs],
        "setup_samples": len(setups),
        "ops_per_run": len(runs[0]["ops_ms"]),
        "output_digest": runs[0]["output_digest"],
        "adversary.result_digest": runs[0]["adversary_digest"],
    }
    return ({k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in metrics.items()}, info)


def traced(kind, docs, inputs, work: Path, seconds: float, ledger: Ledger) -> tuple[dict, dict]:
    start = time.monotonic()
    plain, probed, spans = [], [], []
    while True:
        t = time.monotonic()
        k = len(plain)
        res = spawn(kind, inputs, work / f"plain-{k}.json")
        check_run(res, kind, docs, ledger, plain[0] if plain else None)
        plain.append(res)
        res = spawn(kind, inputs, work / f"traced-{k}.json", "--trace")
        check_run(res, kind, docs, ledger, plain[0])
        probed.append(res)
        spans.append(time.monotonic() - t)
        if len(plain) >= MIN_REPEATS and time.monotonic() - start + max(spans) > seconds:
            break
    first = probed[0]["layers"]
    layers = {}
    for name, value in first.items():
        if layer_unit(name) == "s":
            layers[name] = statistics.median(r["layers"][name] for r in probed)
        else:
            layers[name] = value
            if any(r["layers"][name] != value for r in probed):
                ledger.fault(f"{name} differs between traced runs of one seed")
    layers["trace.overhead_s"] = (statistics.median(r["wall_s"] for r in probed)
                                  - statistics.median(r["wall_s"] for r in plain))
    info = {
        "pairs": len(plain),
        "output_digest": plain[0]["output_digest"],
        "adversary.result_digest": plain[0]["adversary_digest"],
        "traced_matches_untraced": all(
            r["output_digest"] == plain[0]["output_digest"]
            and r["adversary_digest"] == plain[0]["adversary_digest"] for r in probed
        ),
    }
    return ({k: {"value": v, "unit": layer_unit(k)} for k, v in layers.items()}, info)


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description="resilnet benchmark")
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if not (SRC / "resilnet" / "__init__.py").is_file():
        print(f"error: no resilnet package under {SRC}", file=sys.stderr)
        return 2
    env = environment()
    work = WORK / f"{args.workload}-seed{args.seed}-trace{args.trace}-{os.getpid()}"
    ledger = Ledger()
    try:
        kind, docs, inputs = write_inputs(args.workload, args.seed, work / "inputs")
        if args.trace:
            metrics, info = traced(kind, docs, inputs, work, args.seconds, ledger)
            spans = WORK / "spans" / f"{args.workload}-seed{args.seed}.jsonl"
            spans.parent.mkdir(exist_ok=True)
            shutil.copyfile(work / "traced-0.spans.jsonl", spans)
            info["spans"] = str(spans.relative_to(ROOT))
        else:
            repeats = max(MIN_REPEATS, round(WORKLOADS[args.workload][2] * args.seconds / 60))
            metrics, info = timed(kind, docs, inputs, work, repeats, args.seconds, ledger)
    except (WorkerError, subprocess.TimeoutExpired) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print(json.dumps({"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
                      "environment": env}, sort_keys=True))
    info["fail_ratio"] = ledger.failed / ledger.attempted if ledger.attempted else 0.0
    print(json.dumps(info, sort_keys=True))
    for name, m in metrics.items():
        print(f"  {name:48s} {m['value']:>16.6g} {m['unit']}")
    for problem in ledger.problems[:20]:
        print(f"  problem: {problem}")
    print(json.dumps({
        "correct": ledger.correct,
        "attempted": ledger.attempted,
        "failed": ledger.failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
