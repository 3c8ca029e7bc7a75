"""Config validation, canonical serialization, and file round-trips."""

import dataclasses
import hashlib
import json
import math
import struct
import sys
from itertools import combinations

import re
from pathlib import Path

import numpy as np
import pytest
import yaml
from conftest import assert_loaders_agree
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from resilnet import (
    BINARY,
    CENTRALIZED,
    DECENTRALIZED,
    SMOOTH,
    BaselineSpec,
    ConfigError,
    ControlOptions,
    GNECosts,
    GNEProblem,
    JamEvent,
    PlantSpec,
    RandomLayout,
    RemovalBudget,
    ResilienceReport,
    RunManifest,
    SpoofEvent,
    StepTrace,
    WeightedGraph,
    WeightProfile,
    config_hash,
    dumps_canonical,
    emit_manifest,
    emit_report,
    emit_trace,
    gne_from_dict,
    parse_trace,
    run_scenario,
    scenario_from_dict,
    trace_record,
)
from resilnet.scenario_io import (
    _AGENT_FIELDS,
    _BASELINE_FIELDS,
    _CONTROL_FIELDS,
    _COSTS_FIELDS,
    _GNE_FIELDS,
    _JAM_FIELDS,
    _LAYOUT_FIELDS,
    _PLANT_FIELDS,
    _PROFILE_FIELDS,
    _SCENARIO_FIELDS,
    _SCHEDULE_FIELDS,
    _SOLVER_FIELDS,
    _SPOOF_FIELDS,
    _load_yaml,
)
from test_controller import perf_workloads

MINIMAL = {
    "dimension": 2,
    "steps": 3,
    "profile": {"kind": "binary", "range": 1.5},
    "agents": [
        {"id": "a", "position": [0.0, 0.0]},
        {"id": "b", "position": [1.0, 0.0]},
    ],
    "control": {"anticipated_budget": 1, "motion_bound": 0.5, "min_separation": 0.25},
}


def deep(d, **overrides):
    out = json.loads(json.dumps(d))
    out.update(overrides)
    return out


def errors_of(data):
    with pytest.raises(ConfigError) as exc:
        scenario_from_dict(data)
    return exc.value.errors


def test_minimal_config_fills_defaults():
    cfg = scenario_from_dict(MINIMAL)
    assert cfg.baseline.policy == "pre_event"
    assert cfg.baseline.recovery_fraction == 0.9
    assert cfg.baseline == BaselineSpec()
    assert cfg.opts.mode == CENTRALIZED
    assert cfg.opts == ControlOptions(RemovalBudget(1), 0.5, min_separation=0.25)
    assert cfg.rng_seed == 0
    assert cfg.agent_layers == ("default", "default")
    assert cfg.events == ()


def test_duplicate_agent_id_error_names_the_id():
    data = deep(MINIMAL)
    data["agents"][1]["id"] = "a"
    errs = errors_of(data)
    assert any("duplicate id 'a'" in e for e in errs)


def test_event_window_error_names_the_index():
    data = deep(
        MINIMAL,
        events=[
            {"type": "jam", "budget": 1, "start": 0, "end": 2},
            {"type": "jam", "budget": 1, "start": 1, "end": 9},
        ],
    )
    errs = errors_of(data)
    assert any(e.startswith("events[1]") and "steps=3" in e for e in errs)


REMOVED_CONTROL_KEYS = (
    "step_size", "backtrack", "tol", "attack_mode", "subset_cap", "max_backtracks"
)


def test_unknown_fields_rejected_with_paths():
    data = deep(MINIMAL, typo_field=1)
    data["control"]["wrong"] = 2
    for key in REMOVED_CONTROL_KEYS:
        data["control"][key] = 1
    errs = errors_of(data)
    assert "typo_field: unknown field" in errs
    assert "control.wrong: unknown field" in errs
    for key in REMOVED_CONTROL_KEYS:
        assert f"control.{key}: unknown field" in errs


def test_parser_fields_match_the_dataclasses():
    def fields(cls):
        return {f.name for f in dataclasses.fields(cls)}

    def names(table, **renamed):
        return {renamed.get(key, key) for key in table}

    assert names(_PROFILE_FIELDS, range="comm_range") == fields(WeightProfile)
    assert names(_CONTROL_FIELDS) == fields(ControlOptions)
    assert names(_JAM_FIELDS) - {"type"} == fields(JamEvent)
    assert names(_SPOOF_FIELDS) - {"type"} == fields(SpoofEvent)
    assert names(_LAYOUT_FIELDS) == fields(RandomLayout)
    assert names(_BASELINE_FIELDS) == fields(BaselineSpec)
    assert names(_COSTS_FIELDS, attack="attack_cost", defense="defense_cost") == fields(GNECosts)
    assert names(_PLANT_FIELDS) == fields(PlantSpec) - {"x0"}
    assert names(_SOLVER_FIELDS) == fields(GNEProblem) - {
        "costs", "sender_utils", "receiver_utils"
    }


def test_parser_choices_are_the_network_constants():
    assert _PROFILE_FIELDS["kind"]["choices"] == (BINARY, SMOOTH)
    assert _CONTROL_FIELDS["mode"]["choices"] == (CENTRALIZED, DECENTRALIZED)


def test_all_errors_reported_not_just_first():
    data = deep(MINIMAL, dimension=7, steps=0)
    errs = errors_of(data)
    assert len(errs) >= 2


def test_yaml_syntax_error_carries_line(tmp_path):
    from resilnet import parse_scenario

    bad = tmp_path / "bad.yaml"
    bad.write_text("steps: 1\nagents: [\n")
    with pytest.raises(ConfigError, match="line"):
        parse_scenario(bad)


def test_layout_and_positions_are_mutually_exclusive():
    data = deep(MINIMAL, layout={"low": [0.0, 0.0], "high": [2.0, 2.0]})
    errs = errors_of(data)
    assert any("conflicts" in e for e in errs)

    data = deep(MINIMAL)
    for agent in data["agents"]:
        del agent["position"]
    errs = errors_of(data)
    assert any("layout" in e for e in errs)

    data["layout"] = {"low": [0.0, 0.0], "high": [2.0, 2.0]}
    cfg = scenario_from_dict(data)
    assert cfg.initial_positions is None
    assert cfg.layout is not None


def test_layered_profiles_need_known_layers():
    data = deep(
        MINIMAL,
        profiles={
            "air": {"kind": "binary", "range": 3.0},
            "ground": {"kind": "binary", "range": 1.5},
        },
    )
    del data["profile"]
    data["agents"][0]["layer"] = "air"
    data["agents"][1]["layer"] = "sea"
    errs = errors_of(data)
    assert any("unknown layer 'sea'" in e for e in errs)
    data["agents"][1]["layer"] = "ground"
    cfg = scenario_from_dict(data)
    assert cfg.agent_layers == ("air", "ground")


@pytest.mark.parametrize("kind", ["binary", "smooth"])
def test_a_range_whose_square_overflows_is_rejected_with_its_path(kind):
    # the planner's smooth profile squares the range
    data = deep(MINIMAL, profile={"kind": kind, "range": 1.0e300})
    assert errors_of(data) == ("profile.range: must be <= 1.3407807929942596e+154, got 1e+300",)
    layered = deep(MINIMAL, profiles={
        "default": {"kind": kind, "range": 1.5},
        "far": {"kind": kind, "range": 1.0e300},
    })
    del layered["profile"]
    assert errors_of(layered)[:1] == (
        "profiles.far.range: must be <= 1.3407807929942596e+154, got 1e+300",
    )
    # the largest range whose square is finite is accepted
    data["profile"]["range"] = math.sqrt(sys.float_info.max)
    assert scenario_from_dict(data).profiles["default"].comm_range == 1.3407807929942596e154


def test_layered_profiles_of_mixed_kinds_are_rejected_with_their_path():
    data = deep(MINIMAL, profiles={
        "default": {"kind": "smooth", "range": 1.5},
        "far": {"kind": "binary", "range": 3.0},
    })
    del data["profile"]
    assert errors_of(data) == ("profiles: all layer profiles must share one kind",)
    data["profiles"]["far"]["kind"] = "smooth"
    assert scenario_from_dict(data).profiles["far"].kind == "smooth"


def test_errors_keep_the_order_of_the_fields():
    data = deep(MINIMAL, profiles={
        "air": {"kind": "binary", "range": 3.0},
        "ground": {"kind": "binary", "range": 1.5},
    })
    del data["profile"]
    data["agents"] = [
        {"id": "a", "layer": "air", "position": [0.0, 0.0]},
        {"id": "a", "layer": 7, "position": [math.nan, 0.0]},
    ]
    data["events"] = [{"type": "jam", "budget": 1, "start": 2, "end": 1, "edges": [["a", "z"]]}]
    # an agent's id and layer rules report before its position's; a layer
    # that fails falls back to "default", which no profile names
    assert errors_of(data) == (
        "agents[1].id: duplicate id 'a'",
        "agents[1].layer: expected a string, got int",
        "agents[1].layer: unknown layer 'default'",
        "agents[1].position[0]: must be finite, got nan",
        "agents: either every agent has a position or none has",
        "agents: agents need positions unless a layout is given",
        "events[0].edges[0]: unknown agent id 'z'",
        "events[0]: end (1) must exceed start (2)",
    )


def test_profile_xor_profiles_enforced():
    data = deep(MINIMAL, profiles={"default": {"kind": "binary", "range": 1.0}})
    errs = errors_of(data)
    assert any("exactly one" in e for e in errs)


def test_spoof_event_parses_with_id_targets():
    data = deep(
        MINIMAL,
        events=[
            {"type": "spoof", "targets": ["b"], "offset": [1.0, -1.0], "start": 0, "duration": 2}
        ],
    )
    cfg = scenario_from_dict(data)
    assert isinstance(cfg.events[0], SpoofEvent)
    assert cfg.events[0].targets == ("b",)
    data["events"][0]["targets"] = ["nope"]
    errs = errors_of(data)
    assert any("unknown agent id 'nope'" in e for e in errs)


def test_scripted_jam_edges_parse():
    data = deep(
        MINIMAL,
        events=[{"type": "jam", "budget": 1, "start": 0, "end": 1, "edges": [["a", "b"]]}],
    )
    cfg = scenario_from_dict(data)
    assert isinstance(cfg.events[0], JamEvent)
    assert cfg.events[0].edges == (("a", "b"),)


def test_budget_schedule_must_increase():
    data = deep(MINIMAL, budget_schedule=[{"from_step": 1, "budget": 2}, {"from_step": 1, "budget": 0}])
    errs = errors_of(data)
    assert any("must increase" in e for e in errs)


def has_error(errs, prefix):
    return any(e.startswith(prefix) for e in errs)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_non_finite_position_rejected_with_path(bad):
    data = deep(MINIMAL)
    data["agents"][1]["position"] = [0.0, bad]
    assert has_error(errors_of(data), "agents[1].position[1]: must be finite")


def test_non_finite_spoof_offset_rejected_with_path():
    data = deep(
        MINIMAL,
        events=[
            {"type": "spoof", "targets": ["b"], "offset": [math.nan, 0.0], "start": 0, "duration": 1}
        ],
    )
    assert has_error(errors_of(data), "events[0].offset[0]: must be finite")


@pytest.mark.parametrize(
    "key, bad",
    [
        ("motion_bound", math.nan),
        ("motion_bound", -math.inf),
        ("min_separation", math.inf),
        ("min_separation", math.nan),
        ("outer_iters", math.inf),
    ],
)
def test_non_finite_control_number_rejected_with_path(key, bad):
    data = deep(MINIMAL)
    data["control"][key] = bad
    assert has_error(errors_of(data), f"control.{key}: must")


def test_min_separation_checked_against_the_shortest_layer_range():
    data = deep(
        MINIMAL,
        profiles={
            "air": {"kind": "binary", "range": 3.0},
            "ground": {"kind": "binary", "range": 1.0},
        },
    )
    del data["profile"]
    data["agents"][0]["layer"] = "air"
    data["agents"][1]["layer"] = "ground"
    data["control"]["min_separation"] = 1.2
    assert has_error(errors_of(data), "control.min_separation: ")
    data["control"]["min_separation"] = 0.9
    assert scenario_from_dict(data).opts.min_separation == 0.9
    # a profile no agent uses links no one, so it caps nothing
    data["profiles"] = {
        "air": {"kind": "binary", "range": 3.0},
        "ground": {"kind": "binary", "range": 2.0},
        "water": {"kind": "binary", "range": 0.5},
    }
    data["control"]["min_separation"] = 0.8
    cfg = scenario_from_dict(data)
    assert cfg.opts.min_separation == 0.8
    assert len(run_scenario(cfg)) == data["steps"]


def test_infinite_motion_bound_means_no_bound():
    data = deep(MINIMAL)
    data["control"]["motion_bound"] = math.inf
    assert scenario_from_dict(data).opts.motion_bound == math.inf


def test_invalid_optional_fields_keep_their_paths():
    data = deep(MINIMAL, baseline={"recovery_fraction": 1.5})
    data["control"].update(outer_iters=0, mode="swarm")
    errs = errors_of(data)
    assert has_error(errs, "control.outer_iters: must be >= 1")
    assert has_error(errs, "control.mode: must be one of")
    assert has_error(errs, "baseline.recovery_fraction: must be <= 1")
    with pytest.raises(ConfigError, match=r"solver\.max_iters: must be >= 1"):
        gne_from_dict(deep(GNE_MINIMAL, solver={"max_iters": 0}))


# ---------------------------------------------------------------------------
# canonical serialization
# ---------------------------------------------------------------------------


def test_canonical_floats_survive_round_trip():
    values = [0.1, 1.0 / 3.0, 1e-17, 2.0**53, -0.0, 123456.789, 5e-324]
    text = dumps_canonical(values)
    assert json.loads(text) == values


def test_canonical_integral_floats_stay_floats():
    assert dumps_canonical(1.0) == "1.0"
    assert dumps_canonical([1, 1.0]) == "[1,1.0]"
    assert isinstance(json.loads(dumps_canonical(4.0)), float)


def test_canonical_rejects_non_finite():
    with pytest.raises(ValueError):
        dumps_canonical(math.nan)
    with pytest.raises(ValueError):
        dumps_canonical([math.inf])


def test_canonical_handles_numpy_scalars_and_arrays():
    assert dumps_canonical(np.float64(0.5)) == "0.5"
    assert dumps_canonical(np.int64(3)) == "3"
    assert dumps_canonical(np.bool_(True)) == "true"
    assert dumps_canonical(np.array([[1.0, 2.0]])) == "[[1.0,2.0]]"


def test_canonical_sorted_keys_for_hashing():
    a = {"b": 1, "a": 2}
    b = {"a": 2, "b": 1}
    assert dumps_canonical(a, sort_keys=True) == dumps_canonical(b, sort_keys=True)
    assert config_hash(a) == config_hash(b)
    assert config_hash(a) != config_hash({"a": 2, "b": 99})


def test_config_hash_admits_infinities_and_keeps_finite_digests():
    doc = {"control": {"motion_bound": 0.25, "outer_iters": 8}, "ids": ["a", "Infinity"]}
    plain = hashlib.sha256(dumps_canonical(doc, sort_keys=True).encode()).hexdigest()
    assert config_hash(doc) == plain
    digests = {
        config_hash({"control": {"motion_bound": bound}})
        for bound in (math.inf, -math.inf, "Infinity", 1e308)
    }
    assert len(digests) == 4
    with pytest.raises(ValueError, match="non-finite"):
        config_hash({"x": math.nan})
    with pytest.raises(ValueError, match="non-finite"):
        dumps_canonical({"x": math.inf}, sort_keys=True)


def test_canonical_rejects_non_string_keys():
    with pytest.raises(TypeError):
        dumps_canonical({1: "x"})


FINITE = st.floats(allow_nan=False, allow_infinity=False)
JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | FINITE | st.text(),
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(), inner, max_size=4),
    max_leaves=20,
)


def float_bits(x: float) -> bytes:
    return struct.pack("<d", x)


def same_bits(a, b) -> bool:
    """Equal values of equal JSON types, floats bit for bit, keys in order."""
    if isinstance(a, float):
        return isinstance(b, float) and float_bits(a) == float_bits(b)
    if isinstance(a, dict):
        return (
            isinstance(b, dict)
            and list(a) == list(b)
            and all(same_bits(a[k], b[k]) for k in a)
        )
    if isinstance(a, list):
        return isinstance(b, list) and len(a) == len(b) and all(map(same_bits, a, b))
    return type(a) is type(b) and a == b


@settings(max_examples=300, deadline=None, derandomize=True)
@given(value=JSON_VALUES)
def test_canonical_json_round_trip_keeps_float_bits(value):
    assert same_bits(json.loads(dumps_canonical(value)), value)


# ---------------------------------------------------------------------------
# trace, report, manifest files
# ---------------------------------------------------------------------------


def scenario_trace():
    cfg = scenario_from_dict(
        deep(MINIMAL, events=[{"type": "jam", "budget": 1, "start": 1, "end": 2}])
    )
    return run_scenario(cfg)


def test_trace_round_trip_field_by_field(tmp_path):
    trace = scenario_trace()
    path = tmp_path / "trace.jsonl"
    emit_trace(trace, path)
    lines = path.read_text().splitlines()
    assert len(lines) == 3
    back = parse_trace(path)
    assert [t.step for t in back] == [0, 1, 2]
    for orig, echo in zip(trace, back):
        np.testing.assert_array_equal(orig.true_positions, echo.true_positions)
        np.testing.assert_array_equal(orig.reported_positions, echo.reported_positions)
        assert orig.realized_graph == echo.realized_graph
        assert orig.lambda2_realized == echo.lambda2_realized
        assert orig.lambda2_worst_anticipated == echo.lambda2_worst_anticipated
        assert orig.active_events == echo.active_events
        assert orig.anticipated == echo.anticipated
    # and the re-emitted bytes are identical
    again = tmp_path / "again.jsonl"
    emit_trace(back, again)
    assert again.read_bytes() == path.read_bytes()


def fixed_lists(elements, size):
    return st.lists(elements, min_size=size, max_size=size)


@st.composite
def step_traces(draw):
    """Short traces of arbitrary finite numbers on small graphs."""
    n = draw(st.integers(1, 5))
    dim = draw(st.sampled_from([2, 3]))
    all_pairs = list(combinations(range(n), 2))
    trace = []
    for step in range(draw(st.integers(0, 3))):
        keep = draw(fixed_lists(st.booleans(), len(all_pairs)))
        pairs = [pair for pair, kept in zip(all_pairs, keep) if kept]
        events = draw(st.lists(st.integers(0, 9), max_size=3))
        trace.append(
            StepTrace(
                step=step,
                true_positions=np.reshape(draw(fixed_lists(FINITE, n * dim)), (n, dim)),
                reported_positions=np.reshape(draw(fixed_lists(FINITE, n * dim)), (n, dim)),
                realized_graph=WeightedGraph(n, pairs, draw(fixed_lists(FINITE, len(pairs)))),
                lambda2_realized=draw(FINITE),
                lambda2_worst_anticipated=draw(FINITE),
                active_events=tuple(events),
                anticipated=tuple(draw(fixed_lists(st.booleans(), len(events)))),
            )
        )
    return trace


@settings(
    max_examples=100,
    deadline=None,
    derandomize=True,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(trace=step_traces())
def test_trace_emit_parse_round_trip_keeps_float_bits(trace, tmp_path):
    path = tmp_path / "trace.jsonl"
    emit_trace(trace, path)
    back = parse_trace(path)
    assert len(back) == len(trace)
    for orig, echo in zip(trace, back):
        assert echo.step == orig.step
        assert echo.true_positions.shape == orig.true_positions.shape
        assert echo.true_positions.tobytes() == orig.true_positions.tobytes()
        assert echo.reported_positions.tobytes() == orig.reported_positions.tobytes()
        assert echo.realized_graph.n == orig.realized_graph.n
        assert np.array_equal(echo.realized_graph.edges, orig.realized_graph.edges)
        assert echo.realized_graph.weights.tobytes() == orig.realized_graph.weights.tobytes()
        assert float_bits(echo.lambda2_realized) == float_bits(orig.lambda2_realized)
        assert float_bits(echo.lambda2_worst_anticipated) == float_bits(
            orig.lambda2_worst_anticipated
        )
        assert echo.active_events == orig.active_events
        assert echo.anticipated == orig.anticipated
    again = path.with_name("again.jsonl")
    emit_trace(back, again)
    assert again.read_bytes() == path.read_bytes()


def test_empty_trace_gives_empty_file(tmp_path):
    path = tmp_path / "empty.jsonl"
    emit_trace([], path)
    assert path.read_bytes() == b""
    assert parse_trace(path) == []


def test_trace_records_are_one_line_json(tmp_path):
    trace = scenario_trace()
    rec = trace_record(trace[0])
    text = dumps_canonical(rec)
    assert "\n" not in text
    parsed = json.loads(text)
    assert parsed["step"] == 0
    assert set(parsed) == {
        "step", "true", "reported", "graph", "lambda2",
        "lambda2_worst", "active_events", "anticipated",
    }


def test_report_round_trip(tmp_path):
    report = ResilienceReport(
        baseline=1.0, onset=2, max_degradation=0.5, recovery_level=0.9,
        recovery_step=4, recovered=True, total_loss=1.25, recovery_fraction=0.9,
    )
    path = tmp_path / "report.json"
    emit_report(report, path)
    assert ResilienceReport(**json.loads(path.read_text())) == report


def test_manifest_round_trip(tmp_path):
    manifest = RunManifest(
        version="0.1.0", config_hash="ab" * 32, seed=7,
        outputs={"trace": "x/trace.jsonl"},
    )
    path = tmp_path / "manifest.json"
    emit_manifest(manifest, path)
    back = RunManifest(**json.loads(path.read_text()))
    assert back == manifest


def test_broken_trace_line_reports_line_number(tmp_path):
    trace = scenario_trace()
    good = dumps_canonical(trace_record(trace[0]))
    path = tmp_path / "broken.jsonl"
    path.write_text(good + "\nnot json\n")
    with pytest.raises(ValueError, match=":2:"):
        parse_trace(path)
    path.write_text('{"step": 0}\n')  # structurally incomplete record
    with pytest.raises(ValueError, match=":1:"):
        parse_trace(path)


# ---------------------------------------------------------------------------
# coupled-game problem files
# ---------------------------------------------------------------------------

GNE_MINIMAL = {
    "costs": {"attack": 0.3, "defense": 0.2},
    "sender_utils": {
        "attacker": [[1.0, 0.0], [0.2, -0.8]],
        "defender": [[0.4, -0.6], [0.9, -0.1]],
    },
    "receiver_utils": {
        "attacker": [[-5.0, -1.0], [-5.0, -1.0]],
        "defender": [[-0.5, -1.0], [-0.5, -1.0]],
    },
}


def test_gne_problem_parses_tables():
    prob = gne_from_dict(GNE_MINIMAL)
    assert prob.costs.attack_cost == 0.3
    assert prob.sender_utils.shape == (2, 2, 2)
    assert prob.damping == 0.5
    assert prob.sender_utils[0, 0, 0] == 1.0
    for f in dataclasses.fields(GNEProblem):
        if f.default is not dataclasses.MISSING:
            assert getattr(prob, f.name) == f.default


def test_gne_problem_accepts_plant_instead_of_tables():
    data = deep(GNE_MINIMAL)
    del data["receiver_utils"]
    data["plant"] = {
        "a": 1.0, "b": 1.0, "q": 1.0, "r": 1.0, "horizon": 1, "attack_input": 1.0,
    }
    prob = gne_from_dict(data)
    assert prob.receiver_utils[0, 0, 0] == pytest.approx(-5.0)
    assert prob.receiver_utils[1, 1, 0] == pytest.approx(-0.5)


@pytest.mark.parametrize(
    "plant",
    [
        {"a": 10, "b": 1, "q": 1, "r": 1, "horizon": 400, "attack_input": 1},
        {"a": 1, "b": 1e200, "q": 1, "r": 1, "horizon": 4, "attack_input": 1},
    ],
    ids=["rollout", "b_squared"],
)
def test_gne_problem_rejects_a_plant_whose_costs_overflow(plant):
    data = deep(GNE_MINIMAL)
    del data["receiver_utils"]
    data["plant"] = plant
    with pytest.raises(ConfigError) as exc:
        gne_from_dict(data)
    assert exc.value.errors == (
        "plant: rollout costs overflow a float; shorten the horizon or scale the plant",
    )


def test_gne_problem_table_xor_plant():
    data = deep(GNE_MINIMAL)
    data["plant"] = {"a": 1.0, "b": 1.0, "q": 1.0, "r": 1.0, "horizon": 1, "attack_input": 1.0}
    with pytest.raises(ConfigError, match="exactly one"):
        gne_from_dict(data)


@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_gne_problem_rejects_non_finite_numbers(bad):
    data = deep(GNE_MINIMAL)
    data["costs"]["attack"] = bad
    data["receiver_utils"]["defender"][1][0] = bad
    with pytest.raises(ConfigError) as exc:
        gne_from_dict(data)
    errs = exc.value.errors
    assert has_error(errs, "costs.attack: must be finite")
    assert has_error(errs, "receiver_utils.defender[1][0]: must be finite")


def test_gne_problem_validates_shapes_and_costs():
    data = deep(GNE_MINIMAL)
    data["sender_utils"]["attacker"] = [[1.0, 0.0]]
    data["costs"]["attack"] = -1
    with pytest.raises(ConfigError) as exc:
        gne_from_dict(data)
    errs = exc.value.errors
    assert any("sender_utils.attacker" in e for e in errs)
    assert any("costs.attack" in e for e in errs)


# every block of both schemas: its table, a valid document holding it, and
# the block's place in that document
FULL_SCENARIO = deep(
    MINIMAL,
    rng_seed=1,
    profile={"kind": "smooth", "range": 1.5, "decay": 2.0},
    events=[
        {"type": "jam", "budget": 1, "start": 0, "end": 2, "edges": [["a", "b"]]},
        {"type": "spoof", "targets": ["b"], "offset": [0.5, 0.0], "start": 1, "duration": 1},
    ],
    baseline={"policy": "fixed", "value": 0.5, "recovery_fraction": 0.8},
    budget_schedule=[{"from_step": 1, "budget": 0}],
)
FULL_SCENARIO["agents"][0]["layer"] = "default"
FULL_SCENARIO["control"].update(outer_iters=3, mode=CENTRALIZED)
LAYOUT_SCENARIO = deep(
    MINIMAL,
    agents=[{"id": "a"}, {"id": "b"}],
    layout={"low": [0.0, 0.0], "high": [1.0, 1.0]},
)
FULL_GAME = deep(GNE_MINIMAL, solver={"damping": 0.4, "tol": 1e-9, "max_iters": 50, "p0": 0.3})
PLANT_GAME = deep(GNE_MINIMAL, plant={
    "a": 1.0, "b": 1.0, "q": 1.0, "r": 1.0, "horizon": 2, "attack_input": 1.0,
    "fallback_input": 0.5,
})
del PLANT_GAME["receiver_utils"]
BLOCKS = [
    (_SCENARIO_FIELDS, FULL_SCENARIO, ()),
    (_PROFILE_FIELDS, FULL_SCENARIO, ("profile",)),
    (_AGENT_FIELDS, FULL_SCENARIO, ("agents", 0)),
    (_CONTROL_FIELDS, FULL_SCENARIO, ("control",)),
    (_JAM_FIELDS, FULL_SCENARIO, ("events", 0)),
    (_SPOOF_FIELDS, FULL_SCENARIO, ("events", 1)),
    (_LAYOUT_FIELDS, LAYOUT_SCENARIO, ("layout",)),
    (_BASELINE_FIELDS, FULL_SCENARIO, ("baseline",)),
    (_SCHEDULE_FIELDS, FULL_SCENARIO, ("budget_schedule", 0)),
    (_GNE_FIELDS, FULL_GAME, ()),
    (_COSTS_FIELDS, FULL_GAME, ("costs",)),
    (_PLANT_FIELDS, PLANT_GAME, ("plant",)),
    (_SOLVER_FIELDS, FULL_GAME, ("solver",)),
]
# a value of the wrong type for each scalar check, and the error it gives
WRONG_TYPE = {
    "number": ("x", "expected a number, got str"),
    "string": (1, "expected a string, got int"),
}


def parse_document(data):
    return gne_from_dict(data) if "costs" in data else scenario_from_dict(data)


def field_path(place, key):
    path = "".join(f"[{p}]" if isinstance(p, int) else f".{p}" for p in (*place, key))
    return path.lstrip(".")


def test_every_block_document_parses_and_holds_every_field():
    for table, doc, place in BLOCKS:
        parse_document(doc)
        block = doc
        for p in place:
            block = block[p]
        assert set(block) <= set(table)
        # every field the table checks itself is present in the document
        assert {k for k, rule in table.items() if rule.get("check") != "node"} <= set(block)


# the scalar fields, and the required ones
FIELDS = [
    (table, doc, place, key)
    for table, doc, place in BLOCKS
    for key, rule in table.items()
    if rule.get("check", "number") in WRONG_TYPE or rule.get("required")
]


@pytest.mark.parametrize(
    "table, doc, place, key", FIELDS, ids=[field_path(p, k) for _, _, p, k in FIELDS]
)
def test_each_field_reports_its_own_error(table, doc, place, key):
    path = field_path(place, key)
    rule = table[key]

    def errors_at(change):
        data = deep(doc)
        block = data
        for p in place:
            block = block[p]
        change(block)
        with pytest.raises(ConfigError) as exc:
            parse_document(data)
        return [e for e in exc.value.errors if e.startswith(f"{path}: ")]

    # the field's first error is its rule's; a cross-field rule may add one
    # (a fixed baseline's value that fails is also missing)
    if rule.get("check", "number") in WRONG_TYPE:
        value, message = WRONG_TYPE[rule.get("check", "number")]
        assert errors_at(lambda block: block.update({key: value}))[:1] == [f"{path}: {message}"]
    if rule.get("required"):
        assert errors_at(lambda block: block.pop(key)) == [f"{path}: required field missing"]


# scalars whose type hangs on the resolver: YAML 1.1 booleans, nulls,
# sexagesimal, octal and hex ints, dotless exponents (strings to PyYAML),
# timestamps, special floats and quoted numbers
RESOLVER_CASES = """\
flags: [yes, No, on, OFF, true, ~, null, '']
numbers: [1e-8, 1.0e-8, 1_000, 0o17, 017, 0x1F, 190:20:30, -.inf, .NaN, +12, 3.]
when: [2026-10-18, 2026-10-18 22:53:54.5 +02:00]
quoted: ['1.5', "2", !!float 3, !!str 4]
"""


@pytest.mark.skipif(not yaml.__with_libyaml__, reason="PyYAML built without libyaml")
def test_c_and_python_yaml_loaders_read_alike(tmp_path):
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    blocks = re.findall(r"```yaml\n(.*?)```", readme, re.DOTALL)
    assert len(blocks) == 2
    for k, block in enumerate(blocks):
        assert_loaders_agree(block)
        path = tmp_path / f"readme{k}.yaml"
        path.write_text(block)
        assert repr(_load_yaml(path)) == repr(yaml.safe_load(block))
    workloads = perf_workloads()
    for name in workloads.WORKLOADS:
        for seed in (1, 11, 2026):
            _, _, paths = workloads.write_inputs(name, seed, tmp_path / f"{name}-{seed}")
            for path in paths:
                assert_loaders_agree(path.read_text())
    assert_loaders_agree(RESOLVER_CASES)
    assert_loaders_agree("steps: 1\nagents: [\n")  # both fail at line 3
    # every other document the tests write is checked by the autouse fixture
    # in conftest.py when the test that wrote it ends


def test_yaml_syntax_error_keeps_line_and_column(tmp_path):
    bad = tmp_path / "bad.yaml"
    bad.write_text("steps: 1\nagents: [\n  {id: a, position: [0, 0]}\n  oops: 1\n")
    with pytest.raises(ConfigError, match=r"line 4, column 3"):
        scenario_from_dict(_load_yaml(bad))
