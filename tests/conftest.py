from __future__ import annotations

import os
from pathlib import Path

import pytest

DATA_DIR = Path(__file__).parent / "data"
SRC_DIR = Path(__file__).parent.parent / "src"


@pytest.fixture(autouse=True, scope="session")
def _subprocess_import_path():
    """Let ``python -m cdfsat.cli`` subprocesses import the package from src/.

    The ``pythonpath`` setting in pyproject.toml reaches only the test
    process itself, not the CLI processes that tests start.
    """
    saved = os.environ.get("PYTHONPATH")
    os.environ["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC_DIR), saved) if p)
    yield
    if saved is None:
        del os.environ["PYTHONPATH"]
    else:
        os.environ["PYTHONPATH"] = saved


@pytest.fixture
def data_dir() -> Path:
    return DATA_DIR
