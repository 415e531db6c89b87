import os
from pathlib import Path

import pytest

from hawar2sorani import EngineConfig, default_rules

SRC = str(Path(__file__).resolve().parent.parent / "src")


@pytest.fixture(autouse=True)
def _children_import_this_checkout(monkeypatch):
    # pytest puts src/ on this process's path (pyproject.toml); a CLI the
    # tests start must import the same package without it being installed.
    pythonpath = os.environ.get("PYTHONPATH")
    monkeypatch.setenv("PYTHONPATH", SRC + (os.pathsep + pythonpath if pythonpath else ""))


@pytest.fixture(scope="session")
def rs():
    return default_rules()


@pytest.fixture(scope="session")
def cfg():
    return EngineConfig()
