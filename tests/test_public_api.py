"""The documented library surface: README example and package exports."""

import importlib
import json
import re
from pathlib import Path

import pytest

import resilnet
from resilnet.cli import main

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
