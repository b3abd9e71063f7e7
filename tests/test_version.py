"""The package has one version string.

``setup.py`` reads ``repro.__version__`` from the source by regex, and
every CHANGES.md entry that bumps the version ends with ``vX.Y.Z``; the
three must agree.
"""

from __future__ import annotations

import re
import runpy
import sys
import types
from pathlib import Path
from unittest import mock

import repro

ROOT = Path(__file__).resolve().parents[1]


def _setup_kwargs() -> dict:
    """The keyword arguments ``setup.py`` hands to ``setup()``.

    A stand-in ``setuptools`` captures them, so the check runs without
    setuptools installed and without building anything.
    """
    captured: dict = {}
    stub = types.ModuleType("setuptools")
    stub.setup = lambda **kwargs: captured.update(kwargs)
    stub.find_packages = lambda **kwargs: []
    with mock.patch.dict(sys.modules, {"setuptools": stub}):
        runpy.run_path(str(ROOT / "setup.py"))
    return captured


def _newest_changelog_version() -> str:
    text = (ROOT / "CHANGES.md").read_text(encoding="utf-8")
    versions = re.findall(r"\bv(\d+)\.(\d+)\.(\d+)\b", text)
    assert versions, "CHANGES.md names no vX.Y.Z version"
    newest = max(tuple(int(part) for part in v) for v in versions)
    return ".".join(str(part) for part in newest)


def test_setup_package_and_changelog_agree():
    assert _setup_kwargs()["version"] == repro.__version__
    assert _newest_changelog_version() == repro.__version__
