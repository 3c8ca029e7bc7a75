"""Command-line surface: simulate, plan, gne, metrics, validate.

Exit codes: 0 success, 1 invalid input (bad flags, unreadable or invalid
files), 2 runtime failure (a game with no fixed point, unexpected error).
Outputs are deterministic: a fixed config and seed give byte-identical
files on every rerun, the manifest included.
"""

from __future__ import annotations

import argparse
import os
import sys
from dataclasses import asdict
from pathlib import Path
from typing import TYPE_CHECKING

from . import __version__
from .scenario_io import (
    ConfigError,
    RunManifest,
    config_hash,
    dumps_canonical,
    emit_manifest,
    emit_report,
    emit_trace,
    gne_from_dict,
    gne_record,
    parse_scenario,
    parse_trace,
    plan_record,
    scenario_from_dict,
    _GNE_FIELDS,
    _SCENARIO_FIELDS,
    _load_yaml,
    _write,
)

# The handlers import the game and network modules they use, so that a game
# command loads no network module and a scenario command no game module.
if TYPE_CHECKING:
    from .simulator import BaselineSpec, ScenarioConfig

_OUT_ENV = "RESILNET_OUT"
_RECOVERY_FRACTION = 0.9  # BaselineSpec's default; a test holds the two equal


def _out_dir(arg: str | None) -> Path:
    out = Path(arg or os.environ.get(_OUT_ENV) or ".")
    out.mkdir(parents=True, exist_ok=True)
    return out


def _simulation(raw) -> tuple[ScenarioConfig, int | None]:
    """A scenario ``simulate`` can run, and the onset its report starts at
    (None without events)."""
    cfg = scenario_from_dict(raw)
    onset = min((ev.start for ev in cfg.events), default=None)
    if onset == 0 and cfg.baseline.policy == "pre_event":
        raise ConfigError(
            ["baseline.policy: pre_event needs a step before the first event, at step 0"]
        )
    return cfg, onset


def _cmd_simulate(args: argparse.Namespace) -> int:
    from .simulator import compute_resilience_metrics, run_scenario

    raw = _load_yaml(args.scenario)
    cfg, onset = _simulation(raw)
    digest = config_hash(raw)  # before the run, so that a failure writes nothing
    out = _out_dir(args.out)
    trace = run_scenario(cfg)
    trace_path = out / "trace.jsonl"
    emit_trace(trace, trace_path)
    outputs = {"trace": str(trace_path)}
    if onset is not None:
        report = compute_resilience_metrics(trace, cfg.baseline, onset)
        report_path = out / "resilience.json"
        emit_report(report, report_path)
        outputs["report"] = str(report_path)
    manifest = RunManifest(
        version=__version__,
        config_hash=digest,
        seed=cfg.rng_seed,
        outputs=outputs,
    )
    emit_manifest(manifest, out / "manifest.json")
    return 0


def _cmd_plan(args: argparse.Namespace) -> int:
    from .controller import _planning_scope
    from .graph_core import build_proximity_graph
    from .simulator import _plan, _step_options, initial_positions, planning_profile

    cfg = parse_scenario(args.scenario)
    profile = planning_profile(cfg)
    pos = initial_positions(cfg)
    with _planning_scope():  # the steps share one scope, as in a run
        for step in range(args.steps):
            plan = _plan(pos, profile, _step_options(cfg, step))
            graph = build_proximity_graph(plan.targets, profile)
            print(dumps_canonical(plan_record(plan, cfg.agent_ids, graph)))
            pos = plan.targets
    return 0


def _cmd_gne(args: argparse.Namespace) -> int:
    from .gne import gne_solve

    raw = _load_yaml(args.params)
    prob = gne_from_dict(raw)
    digest = config_hash(raw)
    out = _out_dir(args.out)
    state = gne_solve(**vars(prob))
    result_path = out / "gne.json"
    _write("result", result_path, dumps_canonical(gne_record(state)) + "\n")
    manifest = RunManifest(
        version=__version__,
        config_hash=digest,
        seed=0,  # solver is deterministic; no randomness to seed
        outputs={"result": str(result_path)},
    )
    emit_manifest(manifest, out / "manifest.json")
    if not state.converged:
        print(
            f"no fixed point among {state.iterations} candidate priors; nearest "
            f"{state.control_fraction!r} (residual {state.residual:.3e})",
            file=sys.stderr,
        )
        return 2
    return 0


def _step_count(text: str) -> int:
    try:
        if (steps := int(text)) >= 1:
            return steps
    except ValueError:
        pass
    raise argparse.ArgumentTypeError(f"must be an integer >= 1, got {text!r}")


def _parse_baseline_flags(text: str, recovery_fraction: float) -> BaselineSpec:
    from .simulator import BaselineSpec

    if text == "pre_event":
        return BaselineSpec(recovery_fraction=recovery_fraction)
    if text.startswith("fixed:"):
        try:
            value = float(text.split(":", 1)[1])
        except ValueError as exc:
            raise ConfigError([f"baseline: bad fixed value in {text!r}"]) from exc
        return BaselineSpec("fixed", value, recovery_fraction=recovery_fraction)
    raise ConfigError([f"baseline: expected 'pre_event' or 'fixed:<value>', got {text!r}"])


def _cmd_metrics(args: argparse.Namespace) -> int:
    from .simulator import compute_resilience_metrics

    trace = parse_trace(args.trace)
    baseline = _parse_baseline_flags(args.baseline, args.recovery_fraction)
    report = compute_resilience_metrics(trace, baseline, args.t2)
    print(dumps_canonical(asdict(report)))
    return 0


def _cmd_validate(args: argparse.Namespace) -> int:
    raw = _load_yaml(args.file)
    keys = raw.keys() if isinstance(raw, dict) else set()
    # the schema that names more of the document's fields; ties go to scenarios
    if len(keys & _GNE_FIELDS.keys()) > len(keys & _SCENARIO_FIELDS.keys()):
        gne_from_dict(raw)
    else:
        _simulation(raw)
    return 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="resilnet",
        description="Resilient multi-agent network control and game solvers.",
    )
    parser.add_argument("--version", action="version", version=f"resilnet {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("simulate", help="run a scenario and write trace, report, manifest")
    p.add_argument("scenario", help="scenario YAML file")
    p.add_argument("--out", help=f"output directory (default ${_OUT_ENV} or .)")
    p.set_defaults(func=_cmd_simulate)

    p = sub.add_parser("plan", help="plan steps without attacks and print each plan")
    p.add_argument("scenario", help="scenario YAML file")
    p.add_argument("--steps", type=_step_count, default=1, help="number of planning steps (>= 1)")
    p.set_defaults(func=_cmd_plan)

    p = sub.add_parser("gne", help="solve a coupled timing + trust game instance")
    p.add_argument("params", help="game parameter YAML file")
    p.add_argument("--out", help=f"output directory (default ${_OUT_ENV} or .)")
    p.set_defaults(func=_cmd_gne)

    p = sub.add_parser("metrics", help="recompute the resilience report from a trace")
    p.add_argument("trace", help="trace file (one JSON record per line)")
    p.add_argument("--t2", type=int, required=True, help="disturbance onset step")
    p.add_argument(
        "--recovery-fraction",
        type=float,
        default=_RECOVERY_FRACTION,
        help="fraction of baseline counting as recovered (default %(default)s)",
    )
    p.add_argument(
        "--baseline",
        default="pre_event",
        help="'pre_event' (mean before onset) or 'fixed:<value>'",
    )
    p.set_defaults(func=_cmd_metrics)

    p = sub.add_parser("validate", help="parse and validate a config file")
    p.add_argument("file", help="scenario or game parameter YAML file")
    p.set_defaults(func=_cmd_validate)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on bad flags and 0 on --help / --version
        return 0 if exc.code == 0 else 1
    try:
        return args.func(args)
    except ConfigError as exc:
        for line in exc.errors:
            print(f"error: {line}", file=sys.stderr)
        return 1
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except Exception as exc:  # solver failures and genuine bugs
        print(f"failure: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
