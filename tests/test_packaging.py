"""Package metadata: ``repro.__version__`` is the only version number."""

import os
import re

import repro

PYPROJECT = os.path.join(os.path.dirname(__file__), os.pardir, "pyproject.toml")


def _table(text, name):
    """The body of one TOML table (read as text: Python 3.9 has no tomllib)."""
    match = re.search(
        r"^\[%s\]\n(.*?)(?=^\[|\Z)" % re.escape(name), text, re.MULTILINE | re.DOTALL
    )
    assert match, name
    return match.group(1)


def test_version_is_declared_once():
    with open(PYPROJECT) as handle:
        text = handle.read()
    project = _table(text, "project")
    assert not re.search(r"^version\s*=", project, re.MULTILINE)
    assert re.search(r'^dynamic\s*=\s*\[[^\]]*"version"', project, re.MULTILINE)
    dynamic = _table(text, "tool.setuptools.dynamic")
    assert re.search(
        r'^version\s*=\s*\{\s*attr\s*=\s*"repro\.__version__"\s*\}', dynamic, re.MULTILINE
    )
    assert re.fullmatch(r"\d+\.\d+\.\d+", repro.__version__)
