"""Scenario files, canonical serialization, and run manifests.

Scenarios and game files are YAML documents; one walk (:class:`_Walk`)
validates both, collecting every problem found, each tagged with its field
path, instead of stopping at the first.  Traces are line-delimited JSON
records and reports are single JSON documents, all written by one writer
that names the output it could not write; numbers are written with 17
significant digits so that parse(emit(x)) == x bit for bit and reruns are
byte-identical.  Each parser imports the modules its document needs: a game
file :mod:`resilnet.gne`, a scenario or a trace the network modules.
"""

from __future__ import annotations

import hashlib
import json
import math
import sys
from collections.abc import Mapping, Sequence
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import TYPE_CHECKING, Any

import numpy as np
import yaml

if TYPE_CHECKING:
    from .controller import ControlOptions, PlanResult
    from .gne import GNECosts, GNEState
    from .graph_core import WeightedGraph, WeightProfile
    from .simulator import BaselineSpec, RandomLayout, ResilienceReport, ScenarioConfig, StepTrace

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
    """Error collector for a validation pass over a config tree.

    Each check reports what it finds at its path and returns the checked
    value, or None: ``block`` a mapping by its field table, ``items`` a
    list's shape, ``table`` a 2x2 utility table, and ``make`` the dataclass
    that checked values become.  ``dim`` and ``ids`` are the scenario's
    dimension and agent ids, set once parsed; the vector and id-list rules
    of the field tables read them.
    """

    def __init__(self) -> None:
        self.errors: list[str] = []
        self.dim = 0
        self.ids: Sequence[str] = ()

    def err(self, path: str, message: str) -> None:
        self.errors.append(f"{path}: {message}")

    def mapping(self, node: Any, path: str) -> dict | None:
        if isinstance(node, Mapping):
            return dict(node)
        self.err(path or "document", f"expected a mapping, got {type(node).__name__}")
        return None

    def items(self, node: Any, path: str, expected: str) -> Sequence | None:
        """``node`` if it is a list; else None, reporting ``expected``."""
        if isinstance(node, Sequence) and not isinstance(node, (str, bytes)):
            return node
        self.err(path, f"expected {expected}")
        return None

    def make(self, path: str, build, *args, **kwargs):
        """``build(*args, **kwargs)``, or None after reporting its ValueError at ``path``."""
        try:
            return build(*args, **kwargs)
        except ValueError as exc:
            self.err(path, str(exc))
            return None

    def block(
        self, node: Any, path: str, table: Mapping[str, dict], *, closed: bool = True, after=None
    ) -> dict | None:
        """Check a mapping against its field table; None if it is not one.

        Reports the fields the table does not name (unless ``closed`` is
        false), then visits the table's fields in order: a missing required
        field is reported, a present one is checked by its rule, and
        ``after(path, key, value)`` runs, for cross-field rules that report in
        field order.  A rule's ``check`` names the method that checks the
        value (``number`` if absent); its keys other than ``_RULE_KEYS`` are
        that method's parameters.  Returns the present, required and
        defaulted fields; a field that fails takes its default, or None.
        Other absent fields are left out, so the target dataclass supplies
        its own defaults.
        """
        data = self.mapping(node, path)
        if data is None:
            return None
        if closed:
            for key in data:
                if key not in table:
                    self.err(f"{path}.{key}" if path else str(key), "unknown field")
        out = {}
        for key, rule in table.items():
            label = f"{path}.{key}" if path else key
            if key in data:
                params = {k: v for k, v in rule.items() if k not in _RULE_KEYS}
                value = getattr(self, rule.get("check", "number"))(data[key], label, **params)
                out[key] = rule.get("default") if value is None else value
            elif rule.get("required"):
                self.err(label, "required field missing")
                out[key] = None
            elif "default" in rule:
                out[key] = rule["default"]
            if after is not None:
                after(label, key, out.get(key))
        return out

    def node(self, value: Any, path: str) -> Any:
        """A block or list that its own code checks."""
        return value

    def number(
        self,
        value: Any,
        path: str,
        *,
        integer: bool = False,
        minimum: float | None = None,
        exclusive_min: float | None = None,
        maximum: float | None = None,
        allow_inf: bool = False,
    ):
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            self.err(path, f"expected a number, got {type(value).__name__}")
            return None
        if isinstance(value, float) and not (
            math.isfinite(value) or (allow_inf and value == math.inf)
        ):
            self.err(path, f"must be finite, got {value}")
            return None
        if integer and not isinstance(value, int):
            self.err(path, f"expected an integer, got {value!r}")
            return None
        if minimum is not None and value < minimum:
            self.err(path, f"must be >= {minimum}, got {value}")
            return None
        if exclusive_min is not None and value <= exclusive_min:
            self.err(path, f"must be > {exclusive_min}, got {value}")
            return None
        if maximum is not None and value > maximum:
            self.err(path, f"must be <= {maximum}, got {value}")
            return None
        return int(value) if integer else float(value)

    def string(self, value: Any, path: str, *, choices: Sequence[str] | None = None) -> str | None:
        if not isinstance(value, str):
            self.err(path, f"expected a string, got {type(value).__name__}")
            return None
        if choices is not None and value not in choices:
            self.err(path, f"must be one of {list(choices)}, got {value!r}")
            return None
        return value

    def vector(self, node: Any, path: str, dim: int | None = None) -> tuple[float, ...] | None:
        """``dim`` numbers; the scenario's dimension by default."""
        dim = self.dim if dim is None else dim
        if (node := self.items(node, path, f"a list of {dim} numbers")) is None:
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

    def agent_ids(self, node: Any, path: str) -> tuple[str, ...] | None:
        if node is None:  # an empty value reads as a missing list
            self.err(path, "required field missing")
            return None
        if (node := self.items(node, path, "a list of agent ids")) is None:
            return None
        if not node:
            self.err(path, "must not be empty")
            return None
        out = []
        for k, aid in enumerate(node):
            if not isinstance(aid, str) or aid not in self.ids:
                self.err(f"{path}[{k}]", f"unknown agent id {aid!r}")
                return None
            out.append(aid)
        return tuple(out)

    def id_pairs(self, node: Any, path: str) -> tuple[tuple[str, str], ...] | None:
        if (node := self.items(node, path, "a list of [id, id] pairs")) is None:
            return None
        pairs = []
        for k, pair in enumerate(node):
            if (
                not isinstance(pair, Sequence)
                or isinstance(pair, (str, bytes))
                or len(pair) != 2
                or not all(isinstance(x, str) for x in pair)
            ):
                self.err(f"{path}[{k}]", "expected an [id, id] pair")
                return None
            for x in pair:
                if x not in self.ids:
                    self.err(f"{path}[{k}]", f"unknown agent id {x!r}")
                    return None
            pairs.append((pair[0], pair[1]))
        return tuple(pairs)

    def table(self, node: Any, path: str) -> np.ndarray | None:
        """A 2x2 [message][trust, reject] utility table for one sender type."""
        node = self.items(node, path, "a 2x2 table [[trust, reject], [trust, reject]]")
        if node is None:
            return None
        if len(node) != 2:
            self.err(path, f"expected 2 message rows, got {len(node)}")
            return None
        rows = [self.vector(row, f"{path}[{m}]", 2) for m, row in enumerate(node)]
        return None if None in rows else np.asarray(rows, dtype=float)


# ---------------------------------------------------------------------------
# scenario parsing
# ---------------------------------------------------------------------------

# One field table per block, in the order its fields are checked; _Walk.block
# describes the rules.  Absent optional fields take the defaults of the
# dataclass the block becomes.  The network modules load only when a scenario
# or trace is parsed, so the tables spell out the values of their constants:
# graph_core's BINARY and SMOOTH, controller's CENTRALIZED and DECENTRALIZED.
_RULE_KEYS = ("check", "required", "default")
_DEFAULT_LAYER = "default"
_NODE = dict(check="node")  # a block or list that its own parser checks
_SCENARIO_FIELDS = {
    "dimension": dict(required=True, integer=True, minimum=2, maximum=3),
    "steps": dict(required=True, integer=True, minimum=1),
    "rng_seed": dict(default=0, integer=True, minimum=0),
    **dict.fromkeys(
        ("profile", "profiles", "agents", "layout", "control", "events", "baseline",
         "budget_schedule"),
        _NODE,
    ),
}
_PROFILE_FIELDS = {
    "kind": dict(required=True, check="string", choices=("binary", "smooth")),
    # the planner's smooth profile squares the range, which must stay finite
    "range": dict(required=True, exclusive_min=0.0, maximum=math.sqrt(sys.float_info.max)),
    "decay": dict(exclusive_min=0.0),
}
_AGENT_FIELDS = {
    "id": dict(required=True, check="string"),
    "layer": dict(default=_DEFAULT_LAYER, check="string"),
    "position": dict(check="vector"),
}
_CONTROL_FIELDS = {
    "anticipated_budget": dict(required=True, integer=True, minimum=0),
    # .inf is the documented "no bound"
    "motion_bound": dict(required=True, minimum=0.0, allow_inf=True),
    "min_separation": dict(minimum=0.0),
    "outer_iters": dict(integer=True, minimum=1),
    "mode": dict(check="string", choices=("centralized", "decentralized")),
}
_EVENT_TYPE = {"type": dict(required=True, check="string", choices=("jam", "spoof"))}
_JAM_FIELDS = {
    **_EVENT_TYPE,
    "budget": dict(required=True, integer=True, minimum=0),
    "start": dict(required=True, integer=True, minimum=0),
    "end": dict(required=True, integer=True, minimum=1),
    "edges": dict(check="id_pairs"),
}
_SPOOF_FIELDS = {
    **_EVENT_TYPE,
    "targets": dict(required=True, check="agent_ids"),
    "offset": dict(required=True, check="vector"),
    "start": dict(required=True, integer=True, minimum=0),
    "duration": dict(required=True, integer=True, minimum=1),
}
_LAYOUT_FIELDS = {
    "low": dict(required=True, check="vector"),
    "high": dict(required=True, check="vector"),
}
_BASELINE_FIELDS = {
    "policy": dict(check="string", choices=("pre_event", "fixed")),
    "value": dict(exclusive_min=0.0),
    "recovery_fraction": dict(exclusive_min=0.0, maximum=1.0),
}
_SCHEDULE_FIELDS = {
    "from_step": dict(required=True, integer=True, minimum=0),
    "budget": dict(required=True, integer=True, minimum=0),
}


def _parse_profile(w: _Walk, node: Any, path: str) -> WeightProfile | None:
    from .graph_core import BINARY, WeightProfile

    got = w.block(node, path, _PROFILE_FIELDS)
    if got is None:
        return None
    kind, rng, decay = got["kind"], got["range"], got.get("decay")
    if kind == BINARY and decay is not None:
        w.err(f"{path}.decay", "binary profile takes no decay")
        return None
    if kind is None or rng is None:
        return None
    return w.make(path, WeightProfile, kind, rng, decay)


def _parse_agents(
    w: _Walk, node: Any, layers: Sequence[str]
) -> tuple[list[str], list[str], list[tuple[float, ...]] | None]:
    ids: list[str] = []
    agent_layers: list[str] = []
    positions: list[tuple[float, ...] | None] = []
    if (node := w.items(node, "agents", "a list of agents")) is None:
        return ids, agent_layers, None

    def after(path: str, key: str, value: Any) -> None:
        # runs between the fields, so these errors precede the position's
        if key == "id" and value is not None:
            if value in ids:
                w.err(path, f"duplicate id {value!r}")
            ids.append(value)
        elif key == "layer":
            if value not in layers:
                w.err(path, f"unknown layer {value!r}")
            agent_layers.append(value if value in layers else layers[0])

    for k, entry in enumerate(node):
        got = w.block(entry, f"agents[{k}]", _AGENT_FIELDS, after=after)
        if got is not None:
            positions.append(got.get("position"))
    if len(ids) < 2:
        w.err("agents", "need at least 2 agents")
    given = [p for p in positions if p is not None]
    if given and len(given) < len(positions):
        w.err("agents", "either every agent has a position or none has")
    return ids, agent_layers, given if given and len(given) == len(positions) else None


def _parse_control(w: _Walk, node: Any) -> ControlOptions | None:
    from .adversary import RemovalBudget
    from .controller import ControlOptions

    got = w.block(node, "control", _CONTROL_FIELDS)
    if got is None or None in got.values():
        return None
    return w.make("control", ControlOptions, RemovalBudget(got.pop("anticipated_budget")), **got)


def _parse_events(w: _Walk, node: Any, steps: int) -> tuple:
    from .simulator import JamEvent, SpoofEvent

    if node is None or (node := w.items(node, "events", "a list of events")) is None:
        return ()
    events = []
    for k, entry in enumerate(node):
        path = f"events[{k}]"
        # the type picks the table; a bad type is reported alone
        head = w.block(entry, path, _EVENT_TYPE, closed=False)
        if head is None or head["type"] is None:
            continue
        if head["type"] == "jam":
            got = w.block(entry, path, _JAM_FIELDS)
            budget, start, end = got["budget"], got["start"], got["end"]
            if None in (budget, start, end):
                continue
            if end <= start:
                w.err(path, f"end ({end}) must exceed start ({start})")
                continue
            if end > steps:
                w.err(path, f"window [{start}, {end}) extends beyond steps={steps}")
                continue
            events.append(JamEvent(budget, start, end, got.get("edges")))
        else:
            got = w.block(entry, path, _SPOOF_FIELDS)
            if None in got.values():
                continue
            start, duration = got["start"], got["duration"]
            if start + duration > steps:
                w.err(path, f"window [{start}, {start + duration}) extends beyond steps={steps}")
                continue
            events.append(SpoofEvent(got["targets"], got["offset"], start, duration))
    return tuple(events)


def _parse_layout(w: _Walk, node: Any) -> RandomLayout | None:
    from .simulator import RandomLayout

    got = w.block(node, "layout", _LAYOUT_FIELDS)
    if got is None or None in got.values():
        return None
    if any(lo >= hi for lo, hi in zip(got["low"], got["high"])):
        w.err("layout", "low must be elementwise below high")
        return None
    return RandomLayout(**got)


def _parse_baseline(w: _Walk, node: Any) -> BaselineSpec:
    from .simulator import BaselineSpec

    if node is None or (kwargs := w.block(node, "baseline", _BASELINE_FIELDS)) is None:
        return BaselineSpec()
    if kwargs.get("policy") == "fixed" and kwargs.get("value") is None:
        w.err("baseline.value", "required when policy is fixed")
    elif None not in kwargs.values():
        return w.make("baseline", BaselineSpec, **kwargs) or BaselineSpec()
    return BaselineSpec()


def _parse_schedule(w: _Walk, node: Any, steps: int) -> tuple[tuple[int, int], ...]:
    if node is None or (node := w.items(node, "budget_schedule", "a list of entries")) is None:
        return ()
    entries = []
    prev = -1
    for k, entry in enumerate(node):
        path = f"budget_schedule[{k}]"
        got = w.block(entry, path, _SCHEDULE_FIELDS)
        if got is None or None in got.values():
            continue
        frm, budget = got["from_step"], got["budget"]
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
    # before any check, so that every network module loads with the document
    from .controller import _coincident, _plan_input_errors
    from .simulator import ScenarioConfig, initial_positions, planning_profile

    w = _Walk()
    top = w.block(data, "", _SCENARIO_FIELDS)
    if top is None:
        raise ConfigError(w.errors)
    w.dim = dim = top["dimension"] or 2
    steps = top["steps"] or 1

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
                if not isinstance(name, str):
                    w.err(f"profiles.{name}", f"expected a string name, got {type(name).__name__}")
                prof = _parse_profile(w, node, f"profiles.{name}")
                if prof is not None:
                    profiles[str(name)] = prof
            if len({prof.kind for prof in profiles.values()}) > 1:
                w.err("profiles", "all layer profiles must share one kind")

    layer_names = tuple(profiles) if profiles else (_DEFAULT_LAYER,)
    ids, agent_layers, positions = _parse_agents(w, top.get("agents"), layer_names)
    w.ids = ids
    opts = _parse_control(w, top["control"]) if "control" in top else None
    if "control" not in top:
        w.err("control", "required field missing")

    layout = _parse_layout(w, top["layout"]) if "layout" in top else None
    if positions is None and layout is None:
        w.err("agents", "agents need positions unless a layout is given")
    if positions is not None and layout is not None:
        w.err("layout", "layout conflicts with explicit agent positions")

    events = _parse_events(w, top.get("events"), steps)
    baseline = _parse_baseline(w, top.get("baseline"))
    schedule = _parse_schedule(w, top.get("budget_schedule"), steps)

    if w.errors:
        raise ConfigError(w.errors)
    try:
        cfg = ScenarioConfig(
            dimension=dim,
            agent_ids=tuple(ids),
            agent_layers=tuple(agent_layers),
            initial_positions=tuple(positions) if positions is not None else None,
            profiles=profiles,
            opts=opts,
            steps=steps,
            events=events,
            rng_seed=top["rng_seed"],
            baseline=baseline,
            layout=layout,
            budget_schedule=schedule,
        )
    except ValueError as exc:
        raise ConfigError([str(exc)]) from exc
    # the planner's own checks, on the profile and start it plans from
    start = initial_positions(cfg)
    errors = _plan_input_errors(start, planning_profile(cfg), opts)
    if _coincident(start):
        # the planners hold such a team in place at every step
        errors.append(("agents", "degenerate start: all agents coincident"))
    if errors:
        raise ConfigError([f"{path}: {message}" for path, message in errors])
    return cfg


def parse_scenario(path: str | Path) -> ScenarioConfig:
    """Parse and validate a YAML scenario file."""
    return scenario_from_dict(_load_yaml(path))


def _load_yaml(path: str | Path) -> Any:
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise ConfigError([f"cannot read {path}: {exc}"]) from exc
    try:
        # the C parser, where built, feeds the same resolver and constructor
        return yaml.load(text, Loader=getattr(yaml, "CSafeLoader", yaml.SafeLoader))
    except yaml.YAMLError as exc:
        # the yaml error message carries the line and column
        raise ConfigError([f"syntax error: {exc}"]) from exc


# ---------------------------------------------------------------------------
# coupled-game problem files
# ---------------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class GNEProblem:
    """A parsed coupled-game instance plus solver settings: the arguments of
    :func:`~resilnet.gne.gne_solve`, which checks every candidate fixed point
    exactly.  ``damping`` scales the residual and ``p0`` ranks the candidates;
    ``tol`` and ``max_iters`` are validated and otherwise unused."""

    costs: GNECosts
    sender_utils: np.ndarray
    receiver_utils: np.ndarray
    damping: float = 0.5
    tol: float = 1e-8
    max_iters: int = 200
    p0: float = 0.5


def _parse_typed_tables(w: _Walk, node: Any, path: str) -> np.ndarray | None:
    """The (type, message, action) array of both sender types' tables."""
    got = w.block(node, path, _TYPED_TABLES)
    if got is None or any(t is None for t in got.values()):
        return None
    return np.stack(list(got.values()))


_GNE_FIELDS = dict.fromkeys(("costs", "sender_utils", "receiver_utils", "plant", "solver"), _NODE)
_TYPED_TABLES = dict.fromkeys(("attacker", "defender"), dict(required=True, check="table"))
_COSTS_FIELDS = {
    "attack": dict(required=True, exclusive_min=0.0),
    "defense": dict(required=True, exclusive_min=0.0),
}
_PLANT_FIELDS = {
    "a": dict(required=True),
    "b": dict(required=True),
    "q": dict(required=True, minimum=0.0),
    "r": dict(required=True, minimum=0.0),
    "horizon": dict(required=True, integer=True, minimum=1),
    "attack_input": dict(required=True),
    "fallback_input": {},
}
# gne_solve's four keywords; tol and max_iters are checked and change no result
_SOLVER_FIELDS = {
    "damping": dict(exclusive_min=0.0, maximum=1.0),
    "tol": dict(exclusive_min=0.0),
    "max_iters": dict(integer=True, minimum=1),
    "p0": dict(minimum=0.0, maximum=1.0),
}


def gne_from_dict(data: Any) -> GNEProblem:
    """Validate a deserialized coupled-game document."""
    from .gne import GNECosts, PlantSpec, _cost_errors, physical_utilities

    w = _Walk()
    top = w.block(data, "", _GNE_FIELDS)
    if top is None:
        raise ConfigError(w.errors)

    costs = None
    if "costs" not in top:
        w.err("costs", "required field missing")
    else:
        got = w.block(top["costs"], "costs", _COSTS_FIELDS)
        if got is not None and None not in got.values():
            costs = GNECosts(got["attack"], got["defense"])

    sender = None
    if "sender_utils" not in top:
        w.err("sender_utils", "required field missing")
    else:
        sender = _parse_typed_tables(w, top["sender_utils"], "sender_utils")
    if costs is not None and sender is not None:
        for path, message in _cost_errors(costs, float(np.max(np.abs(sender)))):
            w.err(path, message)

    receiver = None
    if ("receiver_utils" in top) == ("plant" in top):
        w.err("receiver_utils", "exactly one of 'receiver_utils' or 'plant' is required")
    elif "receiver_utils" in top:
        receiver = _parse_typed_tables(w, top["receiver_utils"], "receiver_utils")
    else:
        got = w.block(top["plant"], "plant", _PLANT_FIELDS)
        if got is not None and None not in got.values():
            receiver = w.make("plant", lambda: physical_utilities(PlantSpec(**got)))

    solver = w.block(top["solver"], "solver", _SOLVER_FIELDS) if "solver" in top else {}

    if w.errors:
        raise ConfigError(w.errors)
    return GNEProblem(costs, sender, receiver, **solver)


def parse_gne(path: str | Path) -> GNEProblem:
    """Parse and validate a YAML coupled-game file."""
    return gne_from_dict(_load_yaml(path))


# ---------------------------------------------------------------------------
# canonical serialization
# ---------------------------------------------------------------------------


def _float_repr(x: float, allow_inf: bool) -> str:
    if allow_inf and math.isinf(x):
        return "Infinity" if x > 0 else "-Infinity"
    if math.isnan(x) or math.isinf(x):
        raise ValueError("non-finite number in canonical output")
    text = format(x, ".17g")
    if "." not in text and "e" not in text and "E" not in text:
        text += ".0"  # keep the JSON type float on re-parse
    return text


def _write_canonical(obj: Any, parts: list[str], sort_keys: bool, allow_inf: bool) -> None:
    if obj is None:
        parts.append("null")
    elif isinstance(obj, (bool, np.bool_)):
        parts.append("true" if obj else "false")
    elif isinstance(obj, (int, np.integer)):
        parts.append(str(int(obj)))
    elif isinstance(obj, (float, np.floating)):
        parts.append(_float_repr(float(obj), allow_inf))
    elif isinstance(obj, str):
        parts.append(json.dumps(obj))
    elif isinstance(obj, np.ndarray):
        _write_canonical(obj.tolist(), parts, sort_keys, allow_inf)
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
            _write_canonical(obj[key], parts, sort_keys, allow_inf)
        parts.append("}")
    elif isinstance(obj, Sequence) and not isinstance(obj, (str, bytes)):
        parts.append("[")
        for k, item in enumerate(obj):
            if k:
                parts.append(",")
            _write_canonical(item, parts, sort_keys, allow_inf)
        parts.append("]")
    else:
        raise TypeError(f"cannot canonicalize {type(obj).__name__}")


def dumps_canonical(obj: Any, sort_keys: bool = False) -> str:
    """Deterministic compact JSON with floats at 17 significant digits."""
    parts: list[str] = []
    _write_canonical(obj, parts, sort_keys, allow_inf=False)
    return "".join(parts)


def config_hash(data: Any) -> str:
    """Platform-stable digest of a deserialized config document.

    The document is written as by :func:`dumps_canonical` with sorted keys,
    except that +-inf (``motion_bound: .inf``) is written ``Infinity`` or
    ``-Infinity``: no finite document holds those bare words, so its digest
    is unchanged.
    """
    parts: list[str] = []
    _write_canonical(data, parts, sort_keys=True, allow_inf=True)
    return hashlib.sha256("".join(parts).encode()).hexdigest()


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


def _write(what: str, path: str | Path, text: str) -> None:
    """Write ``text`` to ``path``; a failure names ``what`` and the path."""
    try:
        Path(path).write_text(text)
    except OSError as exc:
        raise OSError(f"cannot write {what} {path}: {exc}") from exc


def emit_trace(trace: Sequence[StepTrace], path: str | Path) -> None:
    """Write one JSON record per step; an empty trace gives an empty file."""
    _write("trace", path, "".join(dumps_canonical(trace_record(t)) + "\n" for t in trace))


def parse_trace(path: str | Path) -> list[StepTrace]:
    from .graph_core import WeightedGraph
    from .simulator import StepTrace

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
    _write("report", path, dumps_canonical(asdict(report)) + "\n")


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
        "flipit": asdict(flip),
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
    _write("manifest", path, dumps_canonical(asdict(manifest)) + "\n")
