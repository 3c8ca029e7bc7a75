"""End-to-end command-line behavior and exit codes."""

import json
import math
import tempfile
from pathlib import Path

import pytest
import yaml
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from resilnet import CENTRALIZED, DECENTRALIZED, build_proximity_graph, controller, gne
from resilnet.cli import main
from resilnet.gne import _MAX_VALUE_PER_COST
from resilnet.scenario_io import (
    dumps_canonical,
    parse_scenario,
    plan_record,
    _AGENT_FIELDS,
    _BASELINE_FIELDS,
    _CONTROL_FIELDS,
    _COSTS_FIELDS,
    _JAM_FIELDS,
    _LAYOUT_FIELDS,
    _PLANT_FIELDS,
    _PROFILE_FIELDS,
    _SCENARIO_FIELDS,
    _SCHEDULE_FIELDS,
    _SOLVER_FIELDS,
    _SPOOF_FIELDS,
)

SCENARIO = {
    "dimension": 2,
    "steps": 5,
    "rng_seed": 3,
    "profile": {"kind": "binary", "range": 1.6},
    "agents": [
        {"id": f"a{i}", "position": [1.2 * (i % 3), 1.2 * (i // 3)]} for i in range(6)
    ],
    "control": {"anticipated_budget": 1, "motion_bound": 0.25, "outer_iters": 8},
    "events": [{"type": "jam", "budget": 1, "start": 2, "end": 4}],
}

GNE_PARAMS = {
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


@pytest.fixture()
def scenario_file(tmp_path):
    path = tmp_path / "scenario.yaml"
    path.write_text(yaml.safe_dump(SCENARIO))
    return path


@pytest.fixture()
def gne_file(tmp_path):
    path = tmp_path / "gne.yaml"
    path.write_text(yaml.safe_dump(GNE_PARAMS))
    return path


def test_validate_ok_is_silent(scenario_file, capsys):
    assert main(["validate", str(scenario_file)]) == 0
    out = capsys.readouterr()
    assert out.out == "" and out.err == ""


def test_validate_reports_every_error(tmp_path, capsys):
    bad = dict(SCENARIO, steps=0, dimension=9)
    path = tmp_path / "bad.yaml"
    path.write_text(yaml.safe_dump(bad))
    assert main(["validate", str(path)]) == 1
    err = capsys.readouterr().err
    assert "steps" in err and "dimension" in err


JAM_AT_0 = [{"type": "jam", "budget": 1, "start": 0, "end": 2}]


@pytest.mark.parametrize(
    "data, error",
    [
        (
            dict(SCENARIO, control=dict(SCENARIO["control"], min_separation=1.6)),
            "control.min_separation: min_separation must be below the communication range",
        ),
        (
            dict(SCENARIO, agents=[{"id": f"a{i}", "position": [0.5, 0.5]} for i in range(6)]),
            "agents: degenerate start: all agents coincident",
        ),
        (
            dict(SCENARIO, events=JAM_AT_0),
            "baseline.policy: pre_event needs a step before the first event",
        ),
        (
            # the planner's smooth profile squares the range; this once
            # failed with an OverflowError and exit 2
            dict(SCENARIO, profile={"kind": "binary", "range": 1.0e300}),
            "profile.range: must be <= 1.3407807929942596e+154, got 1e+300",
        ),
        (
            {
                **{k: v for k, v in SCENARIO.items() if k != "profile"},
                "profiles": {
                    "default": {"kind": "smooth", "range": 1.6},
                    "far": {"kind": "binary", "range": 1.6},
                },
            },
            "profiles: all layer profiles must share one kind",
        ),
        (
            # the agents' layer "1" names it; once accepted, then simulate
            # failed with exit 2 on the config digest's non-string key
            {
                **{k: v for k, v in SCENARIO.items() if k not in ("profile", "agents")},
                "profiles": {1: {"kind": "binary", "range": 1.6}},
                "agents": [dict(agent, layer="1") for agent in SCENARIO["agents"]],
            },
            "profiles.1: expected a string name, got int",
        ),
    ],
    ids=[
        "min_separation", "coincident", "pre_event_onset_0", "range_overflow", "mixed_kinds",
        "layer_name_not_a_string",
    ],
)
def test_validate_rejects_what_simulate_rejects(data, error, tmp_path, capsys):
    path = tmp_path / "bad.yaml"
    path.write_text(yaml.safe_dump(data))
    assert main(["validate", str(path)]) == 1
    assert capsys.readouterr().err.startswith(f"error: {error}")
    out = tmp_path / "out"
    assert main(["simulate", str(path), "--out", str(out)]) == 1
    assert capsys.readouterr().err.startswith(f"error: {error}")
    assert not out.exists()


def test_fixed_baseline_allows_an_event_at_step_0(tmp_path):
    data = dict(SCENARIO, events=JAM_AT_0, baseline={"policy": "fixed", "value": 0.5})
    path = tmp_path / "ok.yaml"
    path.write_text(yaml.safe_dump(data))
    assert main(["validate", str(path)]) == 0
    assert main(["simulate", str(path), "--out", str(tmp_path / "out")]) == 0
    assert json.loads((tmp_path / "out" / "resilience.json").read_text())["onset"] == 0


def test_unbounded_motion_runs_to_all_outputs(tmp_path):
    data = dict(SCENARIO, control=dict(SCENARIO["control"], motion_bound=float("inf")))
    path = tmp_path / "inf.yaml"
    path.write_text(yaml.safe_dump(data))
    assert "motion_bound: .inf" in path.read_text()
    out = tmp_path / "out"
    assert main(["validate", str(path)]) == 0
    assert main(["simulate", str(path), "--out", str(out)]) == 0
    assert sorted(p.name for p in out.iterdir()) == [
        "manifest.json", "resilience.json", "trace.jsonl",
    ]
    assert len(json.loads((out / "manifest.json").read_text())["config_hash"]) == 64


def test_overflowing_plant_is_rejected_by_validate_and_gne(tmp_path, capsys):
    data = {k: v for k, v in GNE_PARAMS.items() if k != "receiver_utils"}
    data["plant"] = {"a": 10, "b": 1, "q": 1, "r": 1, "horizon": 400, "attack_input": 1}
    path = tmp_path / "plant.yaml"
    path.write_text(yaml.safe_dump(data))
    error = "error: plant: rollout costs overflow a float"
    assert main(["validate", str(path)]) == 1
    assert capsys.readouterr().err.startswith(error)
    out = tmp_path / "out"
    assert main(["gne", str(path), "--out", str(out)]) == 1
    assert capsys.readouterr().err.startswith(error)
    assert not out.exists()


@pytest.mark.parametrize("key", ["attack", "defense"])
def test_a_move_cost_at_the_value_per_cost_bound_runs_and_a_smaller_one_is_rejected(
    key, tmp_path, capsys
):
    # max |sender_utils| is 1.0 in these tables; 1e-310 once passed validate
    # and made gne exit 1 on a rate grid that overflowed
    at_bound = 1.0 / _MAX_VALUE_PER_COST  # the least cost c with 1 / c in bound
    while 1.0 / at_bound > _MAX_VALUE_PER_COST:
        at_bound = math.nextafter(at_bound, math.inf)
    while 1.0 / math.nextafter(at_bound, 0.0) <= _MAX_VALUE_PER_COST:
        at_bound = math.nextafter(at_bound, 0.0)
    # at that attack cost the hybrid's attacker, whose value is exactly 0,
    # never attacks, and no prior is a fixed point: a solver failure, with
    # every output written
    solved = 2 if key == "attack" else 0
    for cost, code in ((at_bound, solved), (math.nextafter(at_bound, 0.0), 1), (1e-310, 1)):
        params = json.loads(json.dumps(GNE_PARAMS))
        params["costs"][key] = cost
        path = tmp_path / "tiny.yaml"
        path.write_text(yaml.safe_dump(params))
        out = tmp_path / f"out{cost!r}"
        assert main(["validate", str(path)]) == (code == 1)
        assert main(["gne", str(path), "--out", str(out)]) == code
        err = capsys.readouterr().err
        if code == 1:
            error = f"error: costs.{key}: max |sender_utils| / cost must be <= "
            assert err.startswith(error) and err.count(error) == 2, err
            continue
        assert "failure:" not in err and ("no fixed point among" in err) == (code == 2), err
        outputs = sorted(p.name for p in out.iterdir())
        assert outputs == ["gne.json", "manifest.json"]
        assert json.loads((out / "gne.json").read_text())["verified"] == (code == 0)


def test_validate_detects_game_files(gne_file):
    assert main(["validate", str(gne_file)]) == 0


def test_validate_picks_the_schema_that_shares_more_fields(tmp_path, capsys):
    game = {("cost" if k == "costs" else k): v for k, v in GNE_PARAMS.items()}
    scenario = dict(SCENARIO, solver={"max_iters": 5})
    for data, errors in (
        (game, ["cost: unknown field", "costs: required field missing"]),
        (scenario, ["solver: unknown field"]),
    ):
        path = tmp_path / "doc.yaml"
        path.write_text(yaml.safe_dump(data))
        assert main(["validate", str(path)]) == 1
        assert capsys.readouterr().err.splitlines() == [f"error: {e}" for e in errors]


@pytest.mark.parametrize("text, kind", [("", "NoneType"), ("- 1\n", "list")])
def test_a_document_that_is_not_a_mapping_is_named(text, kind, tmp_path, capsys):
    path = tmp_path / "doc.yaml"
    path.write_text(text)
    for command in ("validate", "simulate", "gne"):
        assert main([command, str(path)]) == 1
        assert capsys.readouterr().err == f"error: document: expected a mapping, got {kind}\n"


def test_missing_file_exits_1(capsys):
    assert main(["validate", "no/such/file.yaml"]) == 1
    assert "cannot read" in capsys.readouterr().err


def test_unknown_flag_exits_1(capsys):
    assert main(["simulate", "--frobnicate"]) == 1
    assert "usage" in capsys.readouterr().err


def test_help_exits_0(capsys):
    assert main(["--help"]) == 0
    assert "usage" in capsys.readouterr().out


def test_simulate_writes_all_outputs(scenario_file, tmp_path):
    out = tmp_path / "run"
    assert main(["simulate", str(scenario_file), "--out", str(out)]) == 0
    trace = (out / "trace.jsonl").read_text().splitlines()
    assert len(trace) == 5
    report = json.loads((out / "resilience.json").read_text())
    assert report["onset"] == 2
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["seed"] == 3
    assert set(manifest["outputs"]) == {"trace", "report"}
    assert len(manifest["config_hash"]) == 64


@pytest.fixture(params=[CENTRALIZED, DECENTRALIZED])
def mode_file(request, tmp_path):
    """The scenario file, planned by each planner in turn."""
    path = tmp_path / "scenario.yaml"
    control = dict(SCENARIO["control"], mode=request.param)
    path.write_text(yaml.safe_dump(dict(SCENARIO, control=control)))
    return path


def test_simulate_rerun_is_byte_identical(mode_file, tmp_path):
    out1, out2 = tmp_path / "r1", tmp_path / "r2"
    assert main(["simulate", str(mode_file), "--out", str(out1)]) == 0
    assert main(["simulate", str(mode_file), "--out", str(out2)]) == 0
    assert (out1 / "trace.jsonl").read_bytes() == (out2 / "trace.jsonl").read_bytes()
    assert (out1 / "resilience.json").read_bytes() == (out2 / "resilience.json").read_bytes()
    m1 = json.loads((out1 / "manifest.json").read_text())
    m2 = json.loads((out2 / "manifest.json").read_text())
    assert m1["config_hash"] == m2["config_hash"]  # outputs name different dirs


# the spoof reports a0 at a1's position, so step 0 plans from a team on one
# point
COINCIDENT_SPOOF = {
    "dimension": 2,
    "steps": 2,
    "profile": {"kind": "binary", "range": 1.6},
    "agents": [{"id": "a0", "position": [0.0, 0.0]}, {"id": "a1", "position": [1.0, 1.0]}],
    "control": {"anticipated_budget": 1, "motion_bound": 0.25},
    "events": [
        {"type": "spoof", "targets": ["a0"], "offset": [1.0, 1.0], "start": 0, "duration": 1}
    ],
    "baseline": {"policy": "fixed", "value": 0.5},
}


@pytest.mark.parametrize("mode", [CENTRALIZED, DECENTRALIZED])
def test_spoof_onto_one_point_holds_the_team(mode, tmp_path):
    path = tmp_path / "spoof.yaml"
    control = dict(COINCIDENT_SPOOF["control"], mode=mode)
    path.write_text(yaml.safe_dump(dict(COINCIDENT_SPOOF, control=control)))
    assert main(["validate", str(path)]) == 0
    out = tmp_path / "run"
    snapshots = []
    for _ in range(2):
        assert main(["simulate", str(path), "--out", str(out)]) == 0
        snapshots.append({p.name: p.read_bytes() for p in sorted(out.iterdir())})
    assert snapshots[0] == snapshots[1]
    assert list(snapshots[0]) == ["manifest.json", "resilience.json", "trace.jsonl"]
    step0 = json.loads(snapshots[0]["trace.jsonl"].splitlines()[0])
    assert step0["reported"] == [[1.0, 1.0], [1.0, 1.0]]
    assert step0["true"] == [[0.0, 0.0], [1.0, 1.0]]


def test_reruns_into_one_dir_rewrite_every_file_byte_for_byte(
    scenario_file, gne_file, tmp_path
):
    gne._prepared_game.cache_clear()  # so the first gne run is cold, the second warm
    out = tmp_path / "run"
    for command, config in (("simulate", scenario_file), ("gne", gne_file)):
        snapshots = []
        for _ in range(2):
            assert main([command, str(config), "--out", str(out)]) == 0
            snapshots.append({p.name: p.read_bytes() for p in sorted(out.iterdir())})
        assert snapshots[0] == snapshots[1]


def test_simulate_honors_out_env(scenario_file, tmp_path, monkeypatch):
    env_dir = tmp_path / "from-env"
    monkeypatch.setenv("RESILNET_OUT", str(env_dir))
    assert main(["simulate", str(scenario_file)]) == 0
    assert (env_dir / "trace.jsonl").exists()


def test_metrics_reproduces_simulate_report(scenario_file, tmp_path, capsys):
    out = tmp_path / "run"
    main(["simulate", str(scenario_file), "--out", str(out)])
    capsys.readouterr()
    assert main(["metrics", str(out / "trace.jsonl"), "--t2", "2"]) == 0
    printed = capsys.readouterr().out
    assert printed == (out / "resilience.json").read_text()


def test_metrics_flags(scenario_file, tmp_path, capsys):
    out = tmp_path / "run"
    main(["simulate", str(scenario_file), "--out", str(out)])
    capsys.readouterr()
    assert (
        main(
            [
                "metrics", str(out / "trace.jsonl"),
                "--t2", "2", "--baseline", "fixed:1.0", "--recovery-fraction", "0.5",
            ]
        )
        == 0
    )
    report = json.loads(capsys.readouterr().out)
    assert report["baseline"] == 1.0
    assert report["recovery_fraction"] == 0.5
    assert main(["metrics", str(out / "trace.jsonl"), "--t2", "2", "--baseline", "huh"]) == 1
    bad_fraction = ["--recovery-fraction", "1.5"]
    assert main(["metrics", str(out / "trace.jsonl"), "--t2", "2", *bad_fraction]) == 1


def test_metrics_bad_onset_exits_1(scenario_file, tmp_path, capsys):
    out = tmp_path / "run"
    main(["simulate", str(scenario_file), "--out", str(out)])
    assert main(["metrics", str(out / "trace.jsonl"), "--t2", "99"]) == 1
    assert "onset" in capsys.readouterr().err


def test_plan_prints_one_record_per_step(mode_file, capsys):
    assert main(["plan", str(mode_file), "--steps", "2"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 2
    rec = json.loads(lines[0])
    assert set(rec) == {
        "targets", "predicted_worst_lambda2", "worst_removal", "exact", "iterations_used"
    }
    assert all(len(pair) == 2 for pair in rec["worst_removal"])


def test_plan_steps_share_one_scope(mode_file, capsys, monkeypatch):
    # the steps of `plan` share one planning scope, as a run's do; they
    # print what steps planned each in a scope of their own print, with
    # fewer searches
    from resilnet.simulator import _plan, _step_options, initial_positions, planning_profile

    searches = []
    search = controller.worst_case_removal
    monkeypatch.setattr(
        controller, "worst_case_removal", lambda g, b: searches.append(b) or search(g, b)
    )
    assert main(["plan", str(mode_file), "--steps", "3"]) == 0
    shared, together = capsys.readouterr().out.splitlines(), len(searches)
    cfg = parse_scenario(mode_file)
    profile, pos, alone = planning_profile(cfg), initial_positions(cfg), []
    for step in range(3):
        plan = _plan(pos, profile, _step_options(cfg, step))
        graph = build_proximity_graph(plan.targets, profile)
        alone.append(dumps_canonical(plan_record(plan, cfg.agent_ids, graph)))
        pos = plan.targets
    assert shared == alone
    assert together < len(searches) - together


def test_plan_follows_budget_schedule(tmp_path, capsys):
    line5 = {
        "dimension": 2,
        "steps": 2,
        "profile": {"kind": "smooth", "range": 1.3},
        "agents": [{"id": f"a{i}", "position": [float(i), 0.0]} for i in range(5)],
        "control": {"anticipated_budget": 1, "motion_bound": 1.0},
        "budget_schedule": [{"from_step": 1, "budget": 0}],
    }
    path = tmp_path / "line5.yaml"
    path.write_text(yaml.safe_dump(line5))
    assert main(["plan", str(path), "--steps", "2"]) == 0
    first, second = (json.loads(line) for line in capsys.readouterr().out.splitlines())
    assert len(first["worst_removal"]) == 1
    assert second["worst_removal"] == []  # step 1 plans for budget 0


@pytest.mark.parametrize("steps", ["0", "-2"])
def test_plan_rejects_fewer_than_one_step(scenario_file, steps, capsys):
    assert main(["plan", str(scenario_file), "--steps", steps]) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert f"argument --steps: must be an integer >= 1, got '{steps}'" in err


@pytest.mark.parametrize(
    "command, name, what",
    [
        ("simulate", "trace.jsonl", "trace"),
        ("simulate", "resilience.json", "report"),
        ("simulate", "manifest.json", "manifest"),
        ("gne", "gne.json", "result"),
        ("gne", "manifest.json", "manifest"),
    ],
)
def test_an_output_that_cannot_be_written_exits_1_naming_it(
    command, name, what, scenario_file, gne_file, tmp_path, capsys
):
    out = tmp_path / "out"
    (out / name).mkdir(parents=True)  # a directory stands where the file goes
    doc = scenario_file if command == "simulate" else gne_file
    assert main([command, str(doc), "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: cannot write {what} {out / name}: "), err
    assert err.count("\n") == 1


def test_gne_solves_and_writes_outputs(gne_file, tmp_path):
    out = tmp_path / "g"
    assert main(["gne", str(gne_file), "--out", str(out)]) == 0
    state = json.loads((out / "gne.json").read_text())
    assert state["converged"] and state["verified"]
    assert state["control_fraction"] == pytest.approx(2.0 / 27.0, abs=1e-6)
    # three candidate priors checked, nearest 0.5 first, and an exact fixed point
    assert (state["iterations"], state["residual"]) == (3, 0.0)
    assert list(state["flipit"]) == [
        "attacker_rate", "defender_rate", "control_fraction", "attacker_payoff",
        "defender_payoff", "is_equilibrium", "dropped_out", "iterations",
    ]
    assert {p.name for p in out.iterdir()} == {"gne.json", "manifest.json"}
    manifest = json.loads((out / "manifest.json").read_text())
    assert list(manifest["outputs"]) == ["result"]


def test_gne_dropout_params_give_zero_control(tmp_path):
    params = json.loads(json.dumps(GNE_PARAMS))
    params["sender_utils"]["attacker"] = [[-1.0, -1.0], [-1.0, -1.0]]
    path = tmp_path / "drop.yaml"
    path.write_text(yaml.safe_dump(params))
    out = tmp_path / "g"
    assert main(["gne", str(path), "--out", str(out)]) == 0
    state = json.loads((out / "gne.json").read_text())
    assert state["control_fraction"] < 1e-6
    assert state["flipit"]["dropped_out"]


def test_gne_through_the_prior_window_exits_2_as_nonconvergence(tmp_path, capsys):
    # defense dearer than attack: none of the 5 candidate priors is a fixed
    # point.  A damped iteration once landed just above the receiver's
    # indifference prior 1/9 here, where the signaling game had no equilibrium
    params = json.loads(json.dumps(GNE_PARAMS))
    params["costs"] = {"attack": 0.2, "defense": 0.3}
    path = tmp_path / "window.yaml"
    path.write_text(yaml.safe_dump(params))
    out = tmp_path / "g"
    assert main(["gne", str(path), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert "no fixed point among 5 candidate priors" in err
    assert "RuntimeError" not in err and "failure" not in err
    assert (out / "gne.json").exists()


def test_a_game_whose_trust_game_had_no_equilibrium_runs(tmp_path, capsys):
    # the receiver's attacker row ties at message 1; the trust game found no
    # equilibrium at some priors of the iteration, and gne exited 2 with no
    # output
    params = {
        "costs": {"attack": 0.3, "defense": 0.2},
        "sender_utils": {"attacker": [[0, -1], [-0.2, 2]], "defender": [[0.5, 0.5], [4.8, 0.2]]},
        "receiver_utils": {"attacker": [[2, -5], [2, 2]], "defender": [[-1, 0], [-3, 0]]},
    }
    path = tmp_path / "tied.yaml"
    path.write_text(yaml.safe_dump(params))
    assert main(["validate", str(path)]) == 0
    out = tmp_path / "g"
    assert main(["gne", str(path), "--out", str(out)]) == 0, capsys.readouterr().err
    assert {p.name for p in out.iterdir()} == {"gne.json", "manifest.json"}


def test_gne_nonconvergence_exits_2(tmp_path, capsys):
    # equal costs where pooling's control fraction rounds to just above 1/9,
    # which selects the hybrid, whose attacker never attacks: no fixed point
    params = json.loads(json.dumps(GNE_PARAMS))
    params["costs"] = {"attack": 0.5571428571428572, "defense": 0.5571428571428572}
    params["solver"] = {"max_iters": 2, "damping": 0.5}  # checked, not read
    path = tmp_path / "none.yaml"
    path.write_text(yaml.safe_dump(params))
    out = tmp_path / "g"
    assert main(["gne", str(path), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err == "no fixed point among 5 candidate priors; nearest 0.55 (residual 2.750e-01)\n"
    # outputs are still written for diagnosis
    state = json.loads((out / "gne.json").read_text())
    assert not state["converged"] and not state["verified"] and state["iterations"] == 5
    assert {p.name for p in out.iterdir()} == {"gne.json", "manifest.json"}


def rule_drawn(table, required=False):
    """The fields that the document strategies draw from their rules: the
    numbers and choices, the optional ones only unless ``required``."""
    return [
        key for key, rule in table.items()
        if (required or not rule.get("required"))
        and ("choices" in rule or rule.get("check", "number") == "number")
    ]


# the fields that scenario_documents draws by hand, table by table
HAND_DRAWN = [
    (_SCENARIO_FIELDS, {
        "dimension", "steps", "profile", "profiles", "agents", "layout", "control", "events",
        "baseline", "budget_schedule",
    }),
    (_PROFILE_FIELDS, {"kind", "range"}),
    (_AGENT_FIELDS, {"id", "layer", "position"}),
    (_CONTROL_FIELDS, {"anticipated_budget", "motion_bound"}),
    (_JAM_FIELDS, {"type", "budget", "start", "end", "edges"}),
    (_SPOOF_FIELDS, {"type", "targets", "offset", "start", "duration"}),
    (_LAYOUT_FIELDS, {"low", "high"}),
    (_BASELINE_FIELDS, set()),
    (_SCHEDULE_FIELDS, {"from_step", "budget"}),
]


# the game tables, every field of which game_documents draws from its rule
GAME_TABLES = [_COSTS_FIELDS, _SOLVER_FIELDS, _PLANT_FIELDS]


def test_document_strategy_draws_every_field():
    for table, hand in HAND_DRAWN:
        by_rule = set(rule_drawn(table))
        assert by_rule | hand == set(table)
        assert not by_rule & hand
    for table in GAME_TABLES:
        assert set(rule_drawn(table, required=True)) == set(table)


def field_values(rule):
    """Values of a field that its rule accepts: any choice, the first few
    integers from the lower bound, or floats across the range and at its
    ends."""
    if "choices" in rule:
        return st.sampled_from(rule["choices"])
    low = rule.get("minimum", rule.get("exclusive_min", 0))
    open_low = "exclusive_min" in rule
    if rule.get("integer"):
        return st.integers(int(low) + open_low, int(low) + 3)
    high = rule.get("maximum", low + 2.0)
    return st.sampled_from([high] if open_low else [low, high]) | st.floats(
        low, high, exclude_min=open_low
    )


@st.composite
def scenario_documents(draw):
    """Scenario documents over the schema, valid or not: dimension 2 and 3,
    single and layered profiles, explicit and random layouts, both planner
    modes, motion bounds 0, finite and infinite, budgets above the edge
    count, and stacked jams and spoofs.  Every optional number or choice of
    every table comes from its rule, through drawn()."""
    dim = draw(st.sampled_from([2, 3]))
    steps = draw(st.integers(1, 4))
    ids = [f"a{k}" for k in range(draw(st.integers(2, 9)))]
    # 40 links exceed the 36 pairs of the largest team.  The planner searches
    # every subset of up to that many links in each line-search trial, so it
    # anticipates 40 only in teams of 4 (63 subsets at most)
    jam_budgets = st.sampled_from([0, 1, 2, 40])
    plan_budgets = st.sampled_from([0, 1, 2, 40] if len(ids) <= 4 else [0, 1, 2])
    coordinate = st.sampled_from([0.0, 1.0]) | st.floats(-1.0, 3.0)

    def drawn(table, always=()):
        """The table's rule-drawn fields, each present by a coin flip unless
        listed in ``always``."""
        return {
            key: draw(field_values(table[key]))
            for key in rule_drawn(table)
            if key in always or draw(st.booleans())
        }

    def vector():
        return draw(st.lists(coordinate, min_size=dim, max_size=dim))

    def profile():
        kind = draw(st.sampled_from(["binary", "smooth"]))
        prof = {"kind": kind, "range": draw(st.sampled_from([0.8, 1.5, 2.5]))}
        if kind == "smooth":  # a binary profile takes no decay
            prof.update(drawn(_PROFILE_FIELDS))
        return prof

    doc = {"dimension": dim, "steps": steps, **drawn(_SCENARIO_FIELDS)}
    layers = None
    if draw(st.booleans()):
        doc["profile"] = profile()
    else:
        layers = ["near", "far"][: draw(st.integers(1, 2))]
        doc["profiles"] = {name: profile() for name in layers}
    explicit = draw(st.booleans())
    doc["agents"] = []
    for aid in ids:
        agent = {"id": aid, **drawn(_AGENT_FIELDS)}
        if layers:
            agent["layer"] = draw(st.sampled_from(layers))
        if explicit:
            agent["position"] = vector()
        doc["agents"].append(agent)
    if not explicit:
        side = draw(st.sampled_from([0.5, 2.0, 4.0]))
        doc["layout"] = {"low": [0.0] * dim, "high": [side] * dim, **drawn(_LAYOUT_FIELDS)}
    doc["control"] = {
        "anticipated_budget": draw(plan_budgets),
        "motion_bound": draw(st.sampled_from([0.0, 0.3, 1.0, math.inf])),
        # every field is drawn: outer_iters from its rule stays far below the
        # default 40 iterations
        **drawn(_CONTROL_FIELDS, always=_CONTROL_FIELDS),
    }
    events = []
    for _ in range(draw(st.integers(0, 3))):
        start = draw(st.integers(0, steps - 1))
        if draw(st.booleans()):
            end = draw(st.integers(start + 1, steps))
            event = {"type": "jam", "budget": draw(jam_budgets), "start": start, "end": end}
            if draw(st.booleans()):
                event["edges"] = [draw(st.lists(st.sampled_from(ids), min_size=2, max_size=2))]
            event.update(drawn(_JAM_FIELDS))
        else:
            event = {
                "type": "spoof",
                "targets": draw(st.lists(st.sampled_from(ids), min_size=1, max_size=3)),
                "offset": vector(),
                "start": start,
                "duration": draw(st.integers(1, steps - start)),
                **drawn(_SPOOF_FIELDS),
            }
        events.append(event)
    if events:
        doc["events"] = events
    # a fixed baseline half the time, where a pre_event one would reject an
    # event at step 0
    doc["baseline"] = drawn(_BASELINE_FIELDS, always=_BASELINE_FIELDS)
    if steps > 1 and draw(st.booleans()):
        entry = {"from_step": draw(st.integers(1, steps - 1)), "budget": draw(plan_budgets)}
        doc["budget_schedule"] = [{**entry, **drawn(_SCHEDULE_FIELDS)}]
    return doc


@settings(
    max_examples=200,
    deadline=None,
    derandomize=True,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(doc=scenario_documents())
def test_every_document_validate_accepts_runs(doc, tmp_path, capsys):
    path = tmp_path / "doc.yaml"
    path.write_text(yaml.safe_dump(doc))
    code = main(["validate", str(path)])
    err = capsys.readouterr().err
    assert code in (0, 1), err
    if code == 1:
        return
    out = Path(tempfile.mkdtemp(dir=tmp_path))
    assert main(["simulate", str(path), "--out", str(out)]) == 0, capsys.readouterr().err
    written = {"trace.jsonl", "manifest.json"} | ({"resilience.json"} if "events" in doc else set())
    assert {p.name for p in out.iterdir()} == written
    assert len((out / "trace.jsonl").read_text().splitlines()) == doc["steps"]
    assert main(["plan", str(path), "--steps", "1"]) == 0, capsys.readouterr().err
    assert len(capsys.readouterr().out.splitlines()) == 1


# few and coarse utilities, so that receiver rows and sender payoffs tie
GAME_ENTRIES = [-5.0, -3.0, -1.0, -0.5, 0.0, 0.2, 0.5, 1.0, 2.0, 4.8]


@st.composite
def game_documents(draw):
    """Game documents over the schema, valid or not: every field of the
    costs, solver and plant tables from its rule, an optional one by a coin
    flip, and utility tables of GAME_ENTRIES; a plant stands in for the
    receiver's tables half the time."""

    def drawn(table):
        return {
            key: draw(field_values(table[key]))
            for key in rule_drawn(table, required=True)
            if table[key].get("required") or draw(st.booleans())
        }

    def tables():
        row = st.lists(st.sampled_from(GAME_ENTRIES), min_size=2, max_size=2)
        return {t: draw(st.lists(row, min_size=2, max_size=2)) for t in ("attacker", "defender")}

    doc = {"costs": drawn(_COSTS_FIELDS), "sender_utils": tables()}
    if draw(st.booleans()):
        doc["receiver_utils"] = tables()
    else:
        doc["plant"] = drawn(_PLANT_FIELDS)
    if draw(st.booleans()):
        doc["solver"] = drawn(_SOLVER_FIELDS)
    return doc


@settings(
    max_examples=200,
    deadline=None,
    derandomize=True,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(doc=game_documents())
def test_every_game_document_validate_accepts_runs(doc, tmp_path, capsys):
    path = tmp_path / "game.yaml"
    path.write_text(yaml.safe_dump(doc))
    code = main(["validate", str(path)])
    err = capsys.readouterr().err
    assert code in (0, 1), err
    if code == 1:
        return
    out = Path(tempfile.mkdtemp(dir=tmp_path))
    code = main(["gne", str(path), "--out", str(out)])
    err = capsys.readouterr().err
    assert "failure:" not in err
    assert code == 0 or (code == 2 and "no fixed point among" in err), err
    assert {p.name for p in out.iterdir()} == {"gne.json", "manifest.json"}
