"""Package metadata."""

import pathlib

import pytest

import ksumlab

tomllib = pytest.importorskip("tomllib")


def test_version_matches_pyproject():
    pyproject = pathlib.Path(__file__).resolve().parents[1] / "pyproject.toml"
    with pyproject.open("rb") as handle:
        assert ksumlab.__version__ == tomllib.load(handle)["project"]["version"]
