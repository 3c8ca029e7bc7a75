"""Shared checks and inputs: the C and pure-Python YAML loaders read
alike, and the README's YAML blocks as documents."""

import re
from pathlib import Path

import pytest
import yaml

README = Path(__file__).resolve().parents[1] / "README.md"


def readme_blocks():
    """The README's scenario and game blocks, as text."""
    return re.findall(r"```yaml\n(.*?)```", README.read_text(), re.DOTALL)


def readme_documents():
    """The README's scenario and game blocks, as documents."""
    return [yaml.safe_load(block) for block in readme_blocks()]


def assert_loaders_agree(text):
    """Both safe loaders give the same document, or both reject the text,
    a str or the bytes of a file.

    ``repr`` shows every value with its type (1, 1.0, '1' and True differ)
    and keeps float bits and key order.  An integer too long for ``int()``
    makes both raise the same ValueError, which counts as one rejection."""
    docs = []
    for loader in (yaml.SafeLoader, yaml.CSafeLoader):
        try:
            docs.append(repr(yaml.load(text, Loader=loader)))
        except (yaml.YAMLError, ValueError) as exc:
            mark = getattr(exc, "problem_mark", None)
            docs.append((type(exc).__name__, mark and (mark.line, mark.column)))
    assert docs[0] == docs[1]


@pytest.fixture(autouse=True)
def yaml_loaders_agree_on_written_files(request):
    """After each test, every YAML file it wrote reads alike in both loaders,
    from its bytes, as ``scenario_io`` reads it."""
    if "tmp_path" not in request.fixturenames or not yaml.__with_libyaml__:
        yield
        return
    # taken before the test runs, so that it is torn down after this check
    tmp_path = request.getfixturevalue("tmp_path")
    yield
    for path in sorted(tmp_path.rglob("*.yaml")):
        assert_loaders_agree(path.read_bytes())
