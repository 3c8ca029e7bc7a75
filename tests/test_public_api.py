"""The documented library surface: README example and package exports."""

import importlib
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import resilnet
from resilnet.cli import main
from resilnet.simulator import BaselineSpec

README = Path(__file__).resolve().parent.parent / "README.md"


def library_example() -> str:
    text = README.read_text()
    section = text.split("\n## Library\n", 1)[1]
    match = re.search(r"```python\n(.*?)```", section, re.DOTALL)
    assert match, "README 'Library' section has no python block"
    return match.group(1)


def test_readme_library_example_runs(capsys):
    exec(compile(library_example(), str(README), "exec"), {})
    lines = capsys.readouterr().out.split()
    # the example prints lambda2 before and after the worst single cut
    assert len(lines) == 2 and all(float(x) > 0 for x in lines)


def readme_yaml_files(tmp_path) -> list[Path]:
    blocks = re.findall(r"```yaml\n(.*?)```", README.read_text(), re.DOTALL)
    assert len(blocks) == 2  # the scenario and the game parameter file
    paths = [tmp_path / f"block{k}.yaml" for k in range(2)]
    for path, block in zip(paths, blocks):
        path.write_text(block)
    return paths


def test_readme_yaml_blocks_validate(tmp_path, capsys):
    for path in readme_yaml_files(tmp_path):
        assert main(["validate", str(path)]) == 0, capsys.readouterr().err


def test_readme_yaml_blocks_run(tmp_path, capsys):
    scenario, game = readme_yaml_files(tmp_path)
    assert main(["simulate", str(scenario), "--out", str(tmp_path / "sim")]) == 0, (
        capsys.readouterr().err
    )
    assert main(["gne", str(game), "--out", str(tmp_path / "gne")]) == 0, capsys.readouterr().err
    assert json.loads((tmp_path / "gne" / "gne.json").read_text())["verified"] is True


def test_every_exported_name_resolves():
    missing = [name for name in resilnet.__all__ if not hasattr(resilnet, name)]
    assert missing == []
    assert len(set(resilnet.__all__)) == len(resilnet.__all__)


@pytest.mark.parametrize(
    "module", ["graph_core", "adversary", "controller", "simulator", "gne", "scenario_io"]
)
def test_module_exports_resolve_and_reach_the_package(module):
    mod = importlib.import_module(f"resilnet.{module}")
    for name in mod.__all__:
        assert getattr(resilnet, name) is getattr(mod, name), name


MODULES = ["graph_core", "adversary", "controller", "simulator", "gne", "scenario_io"]
NETWORK = ["graph_core", "adversary", "controller", "simulator"]


def test_package_exports_are_the_module_exports_in_module_order():
    expected = ["__version__"]
    for module in MODULES:
        expected += importlib.import_module(f"resilnet.{module}").__all__
    assert resilnet.__all__ == expected


def test_star_import_binds_every_export_and_dir_lists_it():
    namespace = {}
    exec("from resilnet import *", namespace)
    for name in resilnet.__all__:
        assert namespace[name] is getattr(resilnet, name), name
    assert set(resilnet.__all__) | set(NETWORK) <= set(dir(resilnet))
    with pytest.raises(AttributeError):
        resilnet.cli_main  # every module is searched, and none exports it


def test_metrics_help_shows_the_baseline_default(capsys):
    assert main(["metrics", "--help"]) == 0
    help_text = " ".join(capsys.readouterr().out.split())
    assert BaselineSpec.recovery_fraction == 0.9
    assert "(default 0.9)" in help_text


def network_modules_loaded(script: str, *args, modules=NETWORK) -> list[str]:
    """Those of ``modules`` that a fresh interpreter holds after running
    ``script``."""
    script += (
        "\nimport json, sys"
        f"\nprint(json.dumps([m for m in {modules!r} if 'resilnet.' + m in sys.modules]))"
    )
    paths = [str(Path(resilnet.__file__).resolve().parents[1]), os.environ.get("PYTHONPATH")]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, paths))}
    proc = subprocess.run(
        [sys.executable, "-c", script, *map(str, args)],
        capture_output=True, text=True, env=env, check=True,
    )
    return json.loads(proc.stdout.splitlines()[-1])


def test_game_only_work_imports_no_network_module(tmp_path):
    _, game = readme_yaml_files(tmp_path)
    script = """
import sys
import resilnet
from resilnet import cli, gne, scenario_io
game, out = sys.argv[1:]
prob = scenario_io.parse_gne(game)
assert gne.gne_solve(**vars(prob)).verified
assert cli.main(["gne", game, "--out", out]) == 0
assert cli.main(["validate", game]) == 0
assert cli.main(["--version"]) == 0
"""
    assert network_modules_loaded(script, game, tmp_path / "gne") == []


def test_parsing_a_scenario_imports_every_network_module(tmp_path):
    # so that simulate's timed work imports nothing
    scenario, _ = readme_yaml_files(tmp_path)
    script = """
import sys
from resilnet import scenario_io
scenario_io.parse_scenario(sys.argv[1])
"""
    assert network_modules_loaded(script, scenario) == NETWORK


def test_importing_the_package_loads_no_module():
    assert network_modules_loaded("import resilnet", modules=[*MODULES, "cli"]) == []


def test_scenario_work_imports_no_game_module(tmp_path):
    scenario, _ = readme_yaml_files(tmp_path)
    script = """
import sys
from resilnet import cli, scenario_io
scenario, out = sys.argv[1:]
scenario_io.parse_scenario(scenario)
assert cli.main(["validate", scenario]) == 0
assert cli.main(["simulate", scenario, "--out", out]) == 0
assert cli.main(["plan", scenario, "--steps", "2"]) == 0
"""
    assert network_modules_loaded(script, scenario, tmp_path / "sim", modules=["gne"]) == []
