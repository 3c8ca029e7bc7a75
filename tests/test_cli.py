"""End-to-end command-line behavior and exit codes."""

import json

import pytest
import yaml

from resilnet.cli import main

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


def test_validate_detects_game_files(gne_file):
    assert main(["validate", str(gne_file)]) == 0


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


def test_simulate_rerun_is_byte_identical(scenario_file, tmp_path):
    out1, out2 = tmp_path / "r1", tmp_path / "r2"
    assert main(["simulate", str(scenario_file), "--out", str(out1)]) == 0
    assert main(["simulate", str(scenario_file), "--out", str(out2)]) == 0
    assert (out1 / "trace.jsonl").read_bytes() == (out2 / "trace.jsonl").read_bytes()
    assert (out1 / "resilience.json").read_bytes() == (out2 / "resilience.json").read_bytes()
    m1 = json.loads((out1 / "manifest.json").read_text())
    m2 = json.loads((out2 / "manifest.json").read_text())
    assert m1["config_hash"] == m2["config_hash"]  # outputs name different dirs


def test_reruns_into_one_dir_rewrite_every_file_byte_for_byte(
    scenario_file, gne_file, tmp_path
):
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


def test_plan_prints_one_record_per_step(scenario_file, capsys):
    assert main(["plan", str(scenario_file), "--steps", "2"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 2
    rec = json.loads(lines[0])
    assert set(rec) == {
        "targets", "predicted_worst_lambda2", "worst_removal", "exact", "iterations_used"
    }
    assert all(len(pair) == 2 for pair in rec["worst_removal"])


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


def test_gne_solves_and_writes_outputs(gne_file, tmp_path):
    out = tmp_path / "g"
    assert main(["gne", str(gne_file), "--out", str(out)]) == 0
    state = json.loads((out / "gne.json").read_text())
    assert state["converged"] and state["verified"]
    assert state["control_fraction"] == pytest.approx(2.0 / 27.0, abs=1e-6)
    residuals = (out / "residuals.jsonl").read_text().splitlines()
    assert len(residuals) == state["iterations"]
    assert json.loads(residuals[0])["iteration"] == 1


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


def test_gne_nonconvergence_exits_2(tmp_path, capsys):
    params = json.loads(json.dumps(GNE_PARAMS))
    params["solver"] = {"max_iters": 2, "damping": 0.5}
    path = tmp_path / "slow.yaml"
    path.write_text(yaml.safe_dump(params))
    out = tmp_path / "g"
    assert main(["gne", str(path), "--out", str(out)]) == 2
    assert "did not converge" in capsys.readouterr().err
    # outputs are still written for diagnosis
    assert (out / "gne.json").exists()
