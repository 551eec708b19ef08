"""Package metadata, what `import ksumlab` loads, and the record types."""

import ast
import copy
import dataclasses
import os
import pathlib
import pickle
import subprocess
import sys
from fractions import Fraction

import pytest

import ksumlab
from ksumlab import (
    CollisionRecord,
    EliminationTables,
    Poly,
    PowerSumVector,
    QuadraticInS6,
    SearchSpec,
    SumMultiset,
    Var,
)


def test_version_matches_pyproject():
    tomllib = pytest.importorskip("tomllib")  # Python 3.11+
    pyproject = pathlib.Path(__file__).resolve().parents[1] / "pyproject.toml"
    with pyproject.open("rb") as handle:
        assert ksumlab.__version__ == tomllib.load(handle)["project"]["version"]


def _run(*args):
    src = pathlib.Path(ksumlab.__file__).resolve().parents[1]
    path = os.pathsep.join(filter(None, [str(src), os.environ.get("PYTHONPATH")]))
    env = {**os.environ, "PYTHONPATH": path}
    return subprocess.run([sys.executable, *args], env=env, capture_output=True, text=True, check=True)


def test_import_loads_neither_search_nor_dataclasses():
    probe = "import sys; before = set(sys.modules); import ksumlab; print(sorted(set(sys.modules) - before))"
    added = set(ast.literal_eval(_run("-c", probe).stdout))
    assert "ksumlab.algebra" in added
    assert not added & {"ksumlab.search", "dataclasses", "inspect"}
    # the search names still resolve, loading search on first use
    probe = (
        "import sys, ksumlab; ksumlab.find_collisions; ksumlab.search;"
        " from ksumlab import *; print(SearchSpec.__module__, 'ksumlab.search' in sys.modules)"
    )
    assert _run("-c", probe).stdout.split() == ["ksumlab.search", "True"]
    # a subcommand other than search never loads it
    result = _run("-X", "importtime", "-m", "ksumlab", "eliminate", "--second-root", "0 0 1 -1 2 -2 4 -4 7 -7 7 -7")
    imported = [line.rsplit("|", 1)[-1].strip() for line in result.stderr.splitlines()]
    assert "ksumlab.elimination" in imported and "ksumlab.search" not in imported


RECORDS = [
    (Var, ("E", 12)),
    (SumMultiset, ((1, 2, 2, 5), 3, 4, 3)),
    (PowerSumVector, ((Fraction(0), Fraction(5, 2), Fraction(-1, 3)),)),
    (EliminationTables, ((Poly.zero(), Poly.parse("S2 - E2")), 6)),
    (QuadraticInS6, (Poly.parse("E2"), Poly.parse("2*E3"), Poly.zero(), 14)),
    (SearchSpec, (12, 4, 8, True)),
    (CollisionRecord, ((Fraction(-1), Fraction(1, 2)), (Fraction(0), Fraction(1)), 1)),
]


@pytest.mark.parametrize("cls, values", RECORDS, ids=[cls.__name__ for cls, _ in RECORDS])
def test_records_behave_as_frozen_dataclasses(cls, values):
    twin_cls = dataclasses.make_dataclass(cls.__name__, cls.__slots__, frozen=True)
    record, twin = cls(*values), twin_cls(*values)
    if cls is not Var:  # Var keeps its own short repr
        assert repr(record) == repr(twin) and repr([record, record]) == repr([twin, twin])
    try:
        expected = hash(twin)
    except TypeError:  # a Poly field is unhashable
        with pytest.raises(TypeError):
            hash(record)
    else:
        assert hash(record) == expected
    assert record == cls(*values) and not record != cls(*values)
    assert record != values and record != twin and twin != values
    for name in cls.__slots__:
        with pytest.raises(AttributeError):
            setattr(record, name, None)
        with pytest.raises(AttributeError):
            delattr(record, name)
    assert record._values() == values == dataclasses.astuple(twin)
    assert pickle.loads(pickle.dumps(record)) == record and copy.deepcopy(record) == record


def test_record_details_that_callers_read():
    assert repr(Var("S", 3)) == "Var(S3)" and sorted([Var("E", 1), Var("S", 2)]) == [Var("S", 2), Var("E", 1)]
    vector = PowerSumVector((Fraction(4), Fraction(7)))
    assert (vector[1], vector[2], vector.upto) == (4, 7, 2)
    with pytest.raises(IndexError):
        vector[0]
    # test_search.py names its cases by str(spec)
    assert str(SearchSpec(n=8, k=2, bound=8)) == "SearchSpec(n=8, k=2, bound=8, symmetric_only=False)"
    for args, message in [
        ((2, 3, 8), "need 1 <= k <= n, got k=3, n=2"),
        ((4, 0, 8), "need 1 <= k <= n, got k=0, n=4"),
        ((4, 2, -1), "bound must be nonnegative, got -1"),
        ((5, 2, 3, True), "symmetric mode needs an even n"),
    ]:
        with pytest.raises(ValueError) as raised:
            SearchSpec(*args)
        assert str(raised.value) == message
