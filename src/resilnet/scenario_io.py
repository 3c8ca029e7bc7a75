"""Scenario files, canonical serialization, and run manifests.

Scenarios are YAML documents; validation collects every problem found, each
tagged with its field path, instead of stopping at the first.  Traces are
line-delimited JSON records and reports are single JSON documents; all
numbers are written with 17 significant digits so that parse(emit(x)) == x
bit for bit and reruns are byte-identical.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import Any, Mapping, Sequence

import numpy as np
import yaml

from .adversary import RemovalBudget
from .controller import CENTRALIZED, DECENTRALIZED, ControlOptions, PlanResult
from .gne import GNECosts, GNEState, PlantSpec, physical_utilities
from .graph_core import BINARY, SMOOTH, WeightProfile, WeightedGraph
from .simulator import (
    BaselineSpec,
    JamEvent,
    RandomLayout,
    ResilienceReport,
    ScenarioConfig,
    SpoofEvent,
    StepTrace,
)

__all__ = [
    "ConfigError",
    "GNEProblem",
    "RunManifest",
    "parse_scenario",
    "scenario_from_dict",
    "parse_gne",
    "gne_from_dict",
    "dumps_canonical",
    "config_hash",
    "trace_record",
    "emit_trace",
    "parse_trace",
    "emit_report",
    "gne_record",
    "plan_record",
    "emit_manifest",
]


class ConfigError(ValueError):
    """Invalid configuration; ``errors`` lists every problem with its path."""

    def __init__(self, errors: Sequence[str]):
        self.errors = tuple(errors)
        super().__init__("\n".join(self.errors))


class _Walk:
    """Error collector for a validation pass over a config tree."""

    def __init__(self) -> None:
        self.errors: list[str] = []

    def err(self, path: str, message: str) -> None:
        self.errors.append(f"{path}: {message}")

    def mapping(self, node: Any, path: str) -> dict | None:
        if isinstance(node, Mapping):
            return dict(node)
        self.err(path, f"expected a mapping, got {type(node).__name__}")
        return None

    def reject_unknown(self, node: Mapping, allowed: Sequence[str], path: str) -> None:
        for key in node:
            if key not in allowed:
                self.err(f"{path}.{key}" if path else str(key), "unknown field")

    def number(
        self,
        node: Mapping,
        key: str,
        path: str,
        *,
        required: bool = False,
        default: float | None = None,
        integer: bool = False,
        minimum: float | None = None,
        exclusive_min: float | None = None,
        maximum: float | None = None,
        allow_inf: bool = False,
    ):
        label = f"{path}.{key}" if path else key
        if key not in node:
            if required:
                self.err(label, "required field missing")
            return default
        value = node[key]
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            self.err(label, f"expected a number, got {type(value).__name__}")
            return default
        if isinstance(value, float) and not (
            math.isfinite(value) or (allow_inf and value == math.inf)
        ):
            self.err(label, f"must be finite, got {value}")
            return default
        if integer and not isinstance(value, int):
            self.err(label, f"expected an integer, got {value!r}")
            return default
        if minimum is not None and value < minimum:
            self.err(label, f"must be >= {minimum}, got {value}")
            return default
        if exclusive_min is not None and value <= exclusive_min:
            self.err(label, f"must be > {exclusive_min}, got {value}")
            return default
        if maximum is not None and value > maximum:
            self.err(label, f"must be <= {maximum}, got {value}")
            return default
        return int(value) if integer else float(value)

    def string(
        self,
        node: Mapping,
        key: str,
        path: str,
        *,
        required: bool = False,
        default: str | None = None,
        choices: Sequence[str] | None = None,
    ) -> str | None:
        label = f"{path}.{key}" if path else key
        if key not in node:
            if required:
                self.err(label, "required field missing")
            return default
        value = node[key]
        if not isinstance(value, str):
            self.err(label, f"expected a string, got {type(value).__name__}")
            return default
        if choices is not None and value not in choices:
            self.err(label, f"must be one of {list(choices)}, got {value!r}")
            return default
        return value

    def optional(self, node: Mapping, path: str, rules: Mapping[str, dict]) -> dict:
        """Validated values of the optional fields present in ``node``.

        ``rules`` maps each field to the keyword arguments of :meth:`string`
        (when they name ``choices``) or of :meth:`number`.  Absent fields are
        left out, so the target dataclass supplies its own defaults; a field
        that fails validation maps to None.
        """
        out = {}
        for key, rule in rules.items():
            if key in node:
                check = self.string if "choices" in rule else self.number
                out[key] = check(node, key, path, **rule)
        return out

    def vector(self, node: Any, dim: int, path: str) -> tuple[float, ...] | None:
        if not isinstance(node, Sequence) or isinstance(node, (str, bytes)):
            self.err(path, f"expected a list of {dim} numbers")
            return None
        if len(node) != dim:
            self.err(path, f"expected {dim} numbers, got {len(node)}")
            return None
        vals = []
        for k, v in enumerate(node):
            if isinstance(v, bool) or not isinstance(v, (int, float)):
                self.err(f"{path}[{k}]", "expected a number")
                return None
            if isinstance(v, float) and not math.isfinite(v):
                self.err(f"{path}[{k}]", f"must be finite, got {v}")
                return None
            vals.append(float(v))
        return tuple(vals)


# ---------------------------------------------------------------------------
# scenario parsing
# ---------------------------------------------------------------------------

_PROFILE_KEYS = ("kind", "range", "decay")
_TOP_KEYS = (
    "dimension",
    "steps",
    "rng_seed",
    "profile",
    "profiles",
    "agents",
    "layout",
    "control",
    "events",
    "baseline",
    "budget_schedule",
)
# optional control fields; the defaults are those of ControlOptions
_CONTROL_FIELDS = {
    "min_separation": dict(minimum=0.0),
    "outer_iters": dict(integer=True, minimum=1),
    "step_size": dict(exclusive_min=0.0),
    "backtrack": dict(exclusive_min=0.0, maximum=1.0),
    "tol": dict(exclusive_min=0.0),
    "mode": dict(choices=(CENTRALIZED, DECENTRALIZED)),
    "attack_mode": dict(choices=("auto", "exhaustive", "greedy")),
    "subset_cap": dict(integer=True, minimum=1),
    "max_backtracks": dict(integer=True, minimum=1),
}
_CONTROL_KEYS = ("anticipated_budget", "motion_bound", *_CONTROL_FIELDS)

_DEFAULT_LAYER = "default"


def _parse_profile(w: _Walk, node: Any, path: str) -> WeightProfile | None:
    data = w.mapping(node, path)
    if data is None:
        return None
    w.reject_unknown(data, _PROFILE_KEYS, path)
    kind = w.string(data, "kind", path, required=True, choices=(BINARY, SMOOTH))
    rng = w.number(data, "range", path, required=True, exclusive_min=0.0)
    decay = w.number(data, "decay", path, exclusive_min=0.0)
    if kind == BINARY and decay is not None:
        w.err(f"{path}.decay", "binary profile takes no decay")
        return None
    if kind is None or rng is None:
        return None
    try:
        return WeightProfile(kind, rng, decay)
    except ValueError as exc:
        w.err(path, str(exc))
        return None


def _parse_agents(
    w: _Walk, node: Any, dim: int, layers: Sequence[str]
) -> tuple[list[str], list[str], list[tuple[float, ...]] | None]:
    ids: list[str] = []
    agent_layers: list[str] = []
    positions: list[tuple[float, ...] | None] = []
    if not isinstance(node, Sequence) or isinstance(node, (str, bytes)):
        w.err("agents", "expected a list of agents")
        return ids, agent_layers, None
    for k, entry in enumerate(node):
        path = f"agents[{k}]"
        data = w.mapping(entry, path)
        if data is None:
            continue
        w.reject_unknown(data, ("id", "layer", "position"), path)
        aid = w.string(data, "id", path, required=True)
        if aid is not None:
            if aid in ids:
                w.err(f"{path}.id", f"duplicate id {aid!r}")
            ids.append(aid)
        layer = w.string(data, "layer", path, default=_DEFAULT_LAYER)
        if layer not in layers:
            w.err(f"{path}.layer", f"unknown layer {layer!r}")
        agent_layers.append(layer if layer in layers else layers[0])
        if "position" in data:
            positions.append(w.vector(data["position"], dim, f"{path}.position"))
        else:
            positions.append(None)
    if len(ids) < 2:
        w.err("agents", "need at least 2 agents")
    given = [p is not None for p in positions]
    if any(given) and not all(given):
        w.err("agents", "either every agent has a position or none has")
        return ids, agent_layers, None
    if not any(given):
        return ids, agent_layers, None
    return ids, agent_layers, [p for p in positions if p is not None]


def _parse_control(w: _Walk, node: Any) -> ControlOptions | None:
    data = w.mapping(node, "control")
    if data is None:
        return None
    w.reject_unknown(data, _CONTROL_KEYS, "control")
    budget = w.number(data, "anticipated_budget", "control", required=True, integer=True, minimum=0)
    # .inf is the documented "no bound"
    motion = w.number(data, "motion_bound", "control", required=True, minimum=0.0, allow_inf=True)
    kwargs = w.optional(data, "control", _CONTROL_FIELDS)
    if budget is None or motion is None or None in kwargs.values():
        return None
    try:
        return ControlOptions(RemovalBudget(budget), motion, **kwargs)
    except ValueError as exc:
        w.err("control", str(exc))
        return None


def _parse_events(
    w: _Walk, node: Any, dim: int, steps: int, ids: Sequence[str]
) -> tuple:
    if node is None:
        return ()
    if not isinstance(node, Sequence) or isinstance(node, (str, bytes)):
        w.err("events", "expected a list of events")
        return ()
    events = []
    for k, entry in enumerate(node):
        path = f"events[{k}]"
        data = w.mapping(entry, path)
        if data is None:
            continue
        etype = w.string(data, "type", path, required=True, choices=("jam", "spoof"))
        if etype == "jam":
            w.reject_unknown(data, ("type", "budget", "start", "end", "edges"), path)
            budget = w.number(data, "budget", path, required=True, integer=True, minimum=0)
            start = w.number(data, "start", path, required=True, integer=True, minimum=0)
            end = w.number(data, "end", path, required=True, integer=True, minimum=1)
            edges = None
            if "edges" in data:
                edges = _parse_edge_list(w, data["edges"], f"{path}.edges", ids)
            if None in (budget, start, end):
                continue
            if end <= start:
                w.err(path, f"end ({end}) must exceed start ({start})")
                continue
            if end > steps:
                w.err(path, f"window [{start}, {end}) extends beyond steps={steps}")
                continue
            events.append(JamEvent(budget, start, end, edges))
        elif etype == "spoof":
            w.reject_unknown(data, ("type", "targets", "offset", "start", "duration"), path)
            targets = _parse_targets(w, data.get("targets"), f"{path}.targets", ids)
            offset = None
            if "offset" in data:
                offset = w.vector(data["offset"], dim, f"{path}.offset")
            else:
                w.err(f"{path}.offset", "required field missing")
            start = w.number(data, "start", path, required=True, integer=True, minimum=0)
            duration = w.number(data, "duration", path, required=True, integer=True, minimum=1)
            if targets is None or offset is None or None in (start, duration):
                continue
            if start + duration > steps:
                w.err(path, f"window [{start}, {start + duration}) extends beyond steps={steps}")
                continue
            events.append(SpoofEvent(targets, offset, start, duration))
    return tuple(events)


def _parse_targets(
    w: _Walk, node: Any, path: str, ids: Sequence[str]
) -> tuple[str, ...] | None:
    if node is None:
        w.err(path, "required field missing")
        return None
    if not isinstance(node, Sequence) or isinstance(node, (str, bytes)):
        w.err(path, "expected a list of agent ids")
        return None
    if not node:
        w.err(path, "must not be empty")
        return None
    out = []
    for k, aid in enumerate(node):
        if not isinstance(aid, str) or aid not in ids:
            w.err(f"{path}[{k}]", f"unknown agent id {aid!r}")
            return None
        out.append(aid)
    return tuple(out)


def _parse_edge_list(
    w: _Walk, node: Any, path: str, ids: Sequence[str]
) -> tuple[tuple[str, str], ...] | None:
    if not isinstance(node, Sequence) or isinstance(node, (str, bytes)):
        w.err(path, "expected a list of [id, id] pairs")
        return None
    pairs = []
    for k, pair in enumerate(node):
        if (
            not isinstance(pair, Sequence)
            or isinstance(pair, (str, bytes))
            or len(pair) != 2
            or not all(isinstance(x, str) for x in pair)
        ):
            w.err(f"{path}[{k}]", "expected an [id, id] pair")
            return None
        for x in pair:
            if x not in ids:
                w.err(f"{path}[{k}]", f"unknown agent id {x!r}")
                return None
        pairs.append((pair[0], pair[1]))
    return tuple(pairs)


def _parse_layout(w: _Walk, node: Any, dim: int) -> RandomLayout | None:
    data = w.mapping(node, "layout")
    if data is None:
        return None
    w.reject_unknown(data, ("low", "high"), "layout")
    low = high = None
    if "low" in data:
        low = w.vector(data["low"], dim, "layout.low")
    else:
        w.err("layout.low", "required field missing")
    if "high" in data:
        high = w.vector(data["high"], dim, "layout.high")
    else:
        w.err("layout.high", "required field missing")
    if low is None or high is None:
        return None
    if any(lo >= hi for lo, hi in zip(low, high)):
        w.err("layout", "low must be elementwise below high")
        return None
    return RandomLayout(low, high)


# the defaults are those of BaselineSpec
_BASELINE_FIELDS = {
    "policy": dict(choices=("pre_event", "fixed")),
    "value": dict(exclusive_min=0.0),
    "recovery_fraction": dict(exclusive_min=0.0, maximum=1.0),
}


def _parse_baseline(w: _Walk, node: Any) -> BaselineSpec:
    if node is None:
        return BaselineSpec()
    data = w.mapping(node, "baseline")
    if data is None:
        return BaselineSpec()
    w.reject_unknown(data, _BASELINE_FIELDS, "baseline")
    kwargs = w.optional(data, "baseline", _BASELINE_FIELDS)
    if kwargs.get("policy") == "fixed" and kwargs.get("value") is None:
        w.err("baseline.value", "required when policy is fixed")
        return BaselineSpec()
    if None in kwargs.values():
        return BaselineSpec()
    try:
        return BaselineSpec(**kwargs)
    except ValueError as exc:
        w.err("baseline", str(exc))
        return BaselineSpec()


def _parse_schedule(w: _Walk, node: Any, steps: int) -> tuple[tuple[int, int], ...]:
    if node is None:
        return ()
    if not isinstance(node, Sequence) or isinstance(node, (str, bytes)):
        w.err("budget_schedule", "expected a list of entries")
        return ()
    entries = []
    prev = -1
    for k, entry in enumerate(node):
        path = f"budget_schedule[{k}]"
        data = w.mapping(entry, path)
        if data is None:
            continue
        w.reject_unknown(data, ("from_step", "budget"), path)
        frm = w.number(data, "from_step", path, required=True, integer=True, minimum=0)
        budget = w.number(data, "budget", path, required=True, integer=True, minimum=0)
        if frm is None or budget is None:
            continue
        if frm <= prev:
            w.err(f"{path}.from_step", "must increase along the schedule")
            continue
        if frm >= steps:
            w.err(f"{path}.from_step", f"must be below steps={steps}")
            continue
        prev = frm
        entries.append((frm, budget))
    return tuple(entries)


def scenario_from_dict(data: Any) -> ScenarioConfig:
    """Validate a deserialized scenario document into a ScenarioConfig.

    Raises:
        ConfigError: with every validation error found, not just the first.
    """
    w = _Walk()
    top = w.mapping(data, "")
    if top is None:
        raise ConfigError(w.errors)
    w.reject_unknown(top, _TOP_KEYS, "")

    dim = w.number(top, "dimension", "", required=True, integer=True, minimum=2, maximum=3) or 2
    steps = w.number(top, "steps", "", required=True, integer=True, minimum=1) or 1
    seed = w.number(top, "rng_seed", "", default=0, integer=True, minimum=0)

    profiles: dict[str, WeightProfile] = {}
    if ("profile" in top) == ("profiles" in top):
        w.err("profile", "exactly one of 'profile' or 'profiles' is required")
    elif "profile" in top:
        prof = _parse_profile(w, top["profile"], "profile")
        if prof is not None:
            profiles[_DEFAULT_LAYER] = prof
    else:
        layered = w.mapping(top["profiles"], "profiles")
        if layered is not None:
            if not layered:
                w.err("profiles", "must not be empty")
            for name, node in layered.items():
                prof = _parse_profile(w, node, f"profiles.{name}")
                if prof is not None:
                    profiles[str(name)] = prof

    layer_names = tuple(profiles) if profiles else (_DEFAULT_LAYER,)
    ids, agent_layers, positions = _parse_agents(w, top.get("agents"), dim, layer_names)
    opts = _parse_control(w, top.get("control")) if "control" in top else None
    if "control" not in top:
        w.err("control", "required field missing")

    layout = _parse_layout(w, top["layout"], dim) if "layout" in top else None
    if positions is None and layout is None:
        w.err("agents", "agents need positions unless a layout is given")
    if positions is not None and layout is not None:
        w.err("layout", "layout conflicts with explicit agent positions")

    events = _parse_events(w, top.get("events"), dim, steps, ids)
    baseline = _parse_baseline(w, top.get("baseline"))
    schedule = _parse_schedule(w, top.get("budget_schedule"), steps)

    if w.errors:
        raise ConfigError(w.errors)
    try:
        return ScenarioConfig(
            dimension=dim,
            agent_ids=tuple(ids),
            agent_layers=tuple(agent_layers),
            initial_positions=tuple(positions) if positions is not None else None,
            profiles=profiles,
            opts=opts,
            steps=steps,
            events=events,
            rng_seed=seed,
            baseline=baseline,
            layout=layout,
            budget_schedule=schedule,
        )
    except ValueError as exc:
        raise ConfigError([str(exc)]) from exc


def parse_scenario(path: str | Path) -> ScenarioConfig:
    """Parse and validate a YAML scenario file."""
    return scenario_from_dict(_load_yaml(path))


def _load_yaml(path: str | Path) -> Any:
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise ConfigError([f"cannot read {path}: {exc}"]) from exc
    try:
        return yaml.safe_load(text)
    except yaml.YAMLError as exc:
        # the yaml error message carries the line and column
        raise ConfigError([f"syntax error: {exc}"]) from exc


# ---------------------------------------------------------------------------
# coupled-game problem files
# ---------------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class GNEProblem:
    """A parsed coupled-game instance plus solver settings."""

    costs: GNECosts
    sender_utils: np.ndarray
    receiver_utils: np.ndarray
    damping: float = 0.5
    tol: float = 1e-8
    max_iters: int = 200
    p0: float = 0.5


def _parse_table(w: _Walk, node: Any, path: str) -> np.ndarray | None:
    """A 2x2 [message][trust, reject] utility table for one sender type."""
    if not isinstance(node, Sequence) or isinstance(node, (str, bytes)):
        w.err(path, "expected a 2x2 table [[trust, reject], [trust, reject]]")
        return None
    if len(node) != 2:
        w.err(path, f"expected 2 message rows, got {len(node)}")
        return None
    rows = []
    for m, row in enumerate(node):
        vec = w.vector(row, 2, f"{path}[{m}]")
        if vec is None:
            return None
        rows.append(vec)
    return np.asarray(rows, dtype=float)


def _parse_typed_tables(w: _Walk, node: Any, path: str) -> np.ndarray | None:
    data = w.mapping(node, path)
    if data is None:
        return None
    w.reject_unknown(data, ("attacker", "defender"), path)
    tables = []
    for key in ("attacker", "defender"):
        if key not in data:
            w.err(f"{path}.{key}", "required field missing")
            return None
        tbl = _parse_table(w, data[key], f"{path}.{key}")
        if tbl is None:
            return None
        tables.append(tbl)
    return np.stack(tables)


_PLANT_REQUIRED = {
    "a": {},
    "b": {},
    "q": dict(minimum=0.0),
    "r": dict(minimum=0.0),
    "horizon": dict(integer=True, minimum=1),
    "attack_input": {},
}
# the defaults are those of PlantSpec and GNEProblem
_PLANT_OPTIONAL = {"fallback_input": {}}
_SOLVER_FIELDS = {
    "damping": dict(exclusive_min=0.0, maximum=1.0),
    "tol": dict(exclusive_min=0.0),
    "max_iters": dict(integer=True, minimum=1),
    "p0": dict(minimum=0.0, maximum=1.0),
}


def gne_from_dict(data: Any) -> GNEProblem:
    """Validate a deserialized coupled-game document."""
    w = _Walk()
    top = w.mapping(data, "")
    if top is None:
        raise ConfigError(w.errors)
    w.reject_unknown(top, ("costs", "sender_utils", "receiver_utils", "plant", "solver"), "")

    costs = None
    if "costs" not in top:
        w.err("costs", "required field missing")
    else:
        cdata = w.mapping(top["costs"], "costs")
        if cdata is not None:
            w.reject_unknown(cdata, ("attack", "defense"), "costs")
            ca = w.number(cdata, "attack", "costs", required=True, exclusive_min=0.0)
            cd = w.number(cdata, "defense", "costs", required=True, exclusive_min=0.0)
            if ca is not None and cd is not None:
                costs = GNECosts(ca, cd)

    sender = None
    if "sender_utils" not in top:
        w.err("sender_utils", "required field missing")
    else:
        sender = _parse_typed_tables(w, top["sender_utils"], "sender_utils")

    receiver = None
    if ("receiver_utils" in top) == ("plant" in top):
        w.err("receiver_utils", "exactly one of 'receiver_utils' or 'plant' is required")
    elif "receiver_utils" in top:
        receiver = _parse_typed_tables(w, top["receiver_utils"], "receiver_utils")
    else:
        pdata = w.mapping(top["plant"], "plant")
        if pdata is not None:
            w.reject_unknown(pdata, (*_PLANT_REQUIRED, *_PLANT_OPTIONAL), "plant")
            kwargs = {
                key: w.number(pdata, key, "plant", required=True, **rule)
                for key, rule in _PLANT_REQUIRED.items()
            }
            kwargs.update(w.optional(pdata, "plant", _PLANT_OPTIONAL))
            if None not in kwargs.values():
                try:
                    receiver = physical_utilities(PlantSpec(**kwargs))
                except ValueError as exc:
                    w.err("plant", str(exc))

    solver = {}
    if "solver" in top:
        sdata = w.mapping(top["solver"], "solver")
        if sdata is not None:
            w.reject_unknown(sdata, _SOLVER_FIELDS, "solver")
            solver = w.optional(sdata, "solver", _SOLVER_FIELDS)
            if None in solver.values():
                solver = {}

    if w.errors:
        raise ConfigError(w.errors)
    return GNEProblem(costs, sender, receiver, **solver)


def parse_gne(path: str | Path) -> GNEProblem:
    """Parse and validate a YAML coupled-game file."""
    return gne_from_dict(_load_yaml(path))


# ---------------------------------------------------------------------------
# canonical serialization
# ---------------------------------------------------------------------------


def _float_repr(x: float) -> str:
    if math.isnan(x) or math.isinf(x):
        raise ValueError("non-finite number in canonical output")
    text = format(x, ".17g")
    if "." not in text and "e" not in text and "E" not in text:
        text += ".0"  # keep the JSON type float on re-parse
    return text


def _write_canonical(obj: Any, parts: list[str], sort_keys: bool) -> None:
    if obj is None:
        parts.append("null")
    elif isinstance(obj, (bool, np.bool_)):
        parts.append("true" if obj else "false")
    elif isinstance(obj, (int, np.integer)):
        parts.append(str(int(obj)))
    elif isinstance(obj, (float, np.floating)):
        parts.append(_float_repr(float(obj)))
    elif isinstance(obj, str):
        parts.append(json.dumps(obj))
    elif isinstance(obj, np.ndarray):
        _write_canonical(obj.tolist(), parts, sort_keys)
    elif isinstance(obj, Mapping):
        parts.append("{")
        keys = sorted(obj) if sort_keys else list(obj)
        for k, key in enumerate(keys):
            if not isinstance(key, str):
                raise TypeError(f"non-string key {key!r}")
            if k:
                parts.append(",")
            parts.append(json.dumps(key))
            parts.append(":")
            _write_canonical(obj[key], parts, sort_keys)
        parts.append("}")
    elif isinstance(obj, Sequence) and not isinstance(obj, (str, bytes)):
        parts.append("[")
        for k, item in enumerate(obj):
            if k:
                parts.append(",")
            _write_canonical(item, parts, sort_keys)
        parts.append("]")
    else:
        raise TypeError(f"cannot canonicalize {type(obj).__name__}")


def dumps_canonical(obj: Any, sort_keys: bool = False) -> str:
    """Deterministic compact JSON with floats at 17 significant digits."""
    parts: list[str] = []
    _write_canonical(obj, parts, sort_keys)
    return "".join(parts)


def config_hash(data: Any) -> str:
    """Platform-stable digest of a deserialized config document."""
    return hashlib.sha256(dumps_canonical(data, sort_keys=True).encode()).hexdigest()


# ---------------------------------------------------------------------------
# traces, reports, manifests
# ---------------------------------------------------------------------------


def trace_record(t: StepTrace) -> dict:
    g = t.realized_graph
    return {
        "step": t.step,
        "true": t.true_positions.tolist(),
        "reported": t.reported_positions.tolist(),
        "graph": {
            "n": g.n,
            "edges": [[i, j, w] for (i, j), w in zip(g.edges.tolist(), g.weights.tolist())],
        },
        "lambda2": t.lambda2_realized,
        "lambda2_worst": t.lambda2_worst_anticipated,
        "active_events": list(t.active_events),
        "anticipated": list(t.anticipated),
    }


def emit_trace(trace: Sequence[StepTrace], path: str | Path) -> None:
    """Write one JSON record per step; an empty trace gives an empty file."""
    try:
        with open(path, "w") as fh:
            for t in trace:
                fh.write(dumps_canonical(trace_record(t)))
                fh.write("\n")
    except OSError as exc:
        raise OSError(f"cannot write trace {path}: {exc}") from exc


def parse_trace(path: str | Path) -> list[StepTrace]:
    out: list[StepTrace] = []
    try:
        lines = Path(path).read_text().splitlines()
    except OSError as exc:
        raise OSError(f"cannot read trace {path}: {exc}") from exc
    for lineno, line in enumerate(lines, start=1):
        if not line.strip():
            continue
        try:
            rec = json.loads(line)
            edges = rec["graph"]["edges"]
            graph = WeightedGraph(
                int(rec["graph"]["n"]),
                [(int(i), int(j)) for i, j, _ in edges],
                [float(w) for _, _, w in edges],
            )
            out.append(
                StepTrace(
                    step=int(rec["step"]),
                    true_positions=np.asarray(rec["true"], dtype=float),
                    reported_positions=np.asarray(rec["reported"], dtype=float),
                    realized_graph=graph,
                    lambda2_realized=float(rec["lambda2"]),
                    lambda2_worst_anticipated=float(rec["lambda2_worst"]),
                    active_events=tuple(int(k) for k in rec["active_events"]),
                    anticipated=tuple(bool(b) for b in rec["anticipated"]),
                )
            )
        except (json.JSONDecodeError, KeyError, TypeError, ValueError) as exc:
            raise ValueError(f"{path}:{lineno}: bad trace record: {exc}") from exc
    return out


def emit_report(report: ResilienceReport, path: str | Path) -> None:
    try:
        Path(path).write_text(dumps_canonical(asdict(report)) + "\n")
    except OSError as exc:
        raise OSError(f"cannot write report {path}: {exc}") from exc


def gne_record(state: GNEState) -> dict:
    flip = state.flipit
    sig = state.signaling
    return {
        "control_fraction": state.control_fraction,
        "attacker_value": state.attacker_value,
        "defender_value": state.defender_value,
        "residual": state.residual,
        "iterations": state.iterations,
        "converged": state.converged,
        "verified": state.verified,
        "flipit": {
            "attacker_rate": flip.attacker_rate,
            "defender_rate": flip.defender_rate,
            "control_fraction": flip.control_fraction,
            "attacker_payoff": flip.attacker_payoff,
            "defender_payoff": flip.defender_payoff,
            "is_equilibrium": flip.is_equilibrium,
            "dropped_out": flip.dropped_out,
            "iterations": flip.iterations,
        },
        "signaling": {
            "kind": sig.kind,
            "sender_strategy": sig.sender_strategy.tolist(),
            "receiver_strategy": sig.receiver_strategy.tolist(),
            "beliefs": sig.beliefs.tolist(),
            "sender_values": list(sig.sender_values),
            "receiver_value": sig.receiver_value,
        },
    }


def plan_record(plan: PlanResult, agent_ids: Sequence[str], graph: WeightedGraph) -> dict:
    """One planning step as a record; removal edges named by agent id."""
    removal = [
        [agent_ids[i], agent_ids[j]]
        for i, j in graph.edges[list(plan.worst_removal.removal)].tolist()
    ]
    return {
        "targets": plan.targets.tolist(),
        "predicted_worst_lambda2": plan.predicted_worst_lambda2,
        "worst_removal": removal,
        "exact": plan.worst_removal.exact,
        "iterations_used": plan.iterations_used,
    }


@dataclass(frozen=True)
class RunManifest:
    """Provenance for one run: tool version, config digest, seed, outputs."""

    version: str
    config_hash: str
    seed: int
    outputs: Mapping[str, str]


def emit_manifest(manifest: RunManifest, path: str | Path) -> None:
    try:
        Path(path).write_text(dumps_canonical(asdict(manifest)) + "\n")
    except OSError as exc:
        raise OSError(f"cannot write manifest {path}: {exc}") from exc
