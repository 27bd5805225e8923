import os
from pathlib import Path

import pytest

from hostcap.netmodel import parse_case

FIXTURE_DIR = Path(__file__).resolve().parent.parent / "fixtures"

# pyproject.toml puts src/ on this process's path; the CLI tests' `python -m hostcap.cli`
# subprocesses see only the environment, so they get it from PYTHONPATH
os.environ["PYTHONPATH"] = os.pathsep.join(
    filter(None, [str(FIXTURE_DIR.parent / "src"), os.environ.get("PYTHONPATH")])
)


def fixture_text(name: str) -> str:
    return (FIXTURE_DIR / name).read_text()


def load_fixture(name: str):
    return parse_case(fixture_text(name))


@pytest.fixture
def net3():
    return load_fixture("3bus.case")


@pytest.fixture
def net4():
    return load_fixture("4bus.case")


@pytest.fixture
def net8():
    return load_fixture("8bus.case")


@pytest.fixture
def net123():
    return load_fixture("123bus.case")
