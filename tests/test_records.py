"""The immutable records: equality, hashing, repr, frozenness and copying.

Each repr below is the one ``@dataclass(frozen=True)`` printed for the
same record, before the records had a base class of their own.
"""

import copy
import dataclasses
import pickle
import subprocess
import sys
from fractions import Fraction as F
from pathlib import Path

import pytest

import rootsums
from rootsums import (
    CrossCheckReport,
    DescendingSeries,
    ParseDiagnostic,
    Polynomial,
    SignedCoefficients,
    SubstitutionReport,
    TruncationCell,
    TruncationReport,
)

CELL = {"degree": 1, "index": 1, "truncated": F(1), "direct": F(1)}
CELL_REPR = "TruncationCell(degree=1, index=1, truncated=Fraction(1, 1), direct=Fraction(1, 1))"

# (class, keyword arguments, repr)
RECORDS = [
    (
        Polynomial,
        {"coefficients": [2, -3, 1]},
        "Polynomial(coefficients=(Fraction(2, 1), Fraction(-3, 1), Fraction(1, 1)))",
    ),
    (
        SignedCoefficients,
        {"degree": 2, "values": (3, 2)},
        "SignedCoefficients(degree=2, values=(Fraction(3, 1), Fraction(2, 1)))",
    ),
    (
        DescendingSeries,
        {"start_exponent": 1, "terms": (2, F(1, 2))},
        "DescendingSeries(start_exponent=1, terms=(Fraction(2, 1), Fraction(1, 2)))",
    ),
    (
        CrossCheckReport,
        {"residuals": ((1, F(0)), (0, F(-1, 3)))},
        "CrossCheckReport(residuals=((1, Fraction(0, 1)), (0, Fraction(-1, 3))))",
    ),
    (
        SubstitutionReport,
        {"root_residuals": ((F(1), F(0)),), "window_residuals": ((2, F(0)),)},
        "SubstitutionReport(root_residuals=((Fraction(1, 1), Fraction(0, 1)),),"
        " window_residuals=((2, Fraction(0, 1)),))",
    ),
    (TruncationCell, CELL, CELL_REPR),
    (TruncationReport, {"cells": (TruncationCell(**CELL),)}, f"TruncationReport(cells=({CELL_REPR},))"),
    (
        ParseDiagnostic,
        {"offset": 3, "message": "unexpected 'y'", "expected": ("a number", "x")},
        "ParseDiagnostic(offset=3, message=\"unexpected 'y'\", expected=('a number', 'x'))",
    ),
]
IDS = [cls.__name__ for cls, _, _ in RECORDS]


def fields(record) -> tuple:
    return tuple(getattr(record, name) for name in type(record).__match_args__)


@pytest.mark.parametrize("cls, kwargs, text", RECORDS, ids=IDS)
def test_repr_is_the_dataclass_repr(cls, kwargs, text):
    assert repr(cls(**kwargs)) == text


@pytest.mark.parametrize("cls, kwargs, text", RECORDS, ids=IDS)
def test_fields_cannot_be_set_or_deleted(cls, kwargs, text):
    record = cls(**kwargs)
    for name in cls.__match_args__:
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(record, name, None)
        with pytest.raises(dataclasses.FrozenInstanceError):
            delattr(record, name)
    with pytest.raises(dataclasses.FrozenInstanceError):
        record.unknown = None
    assert repr(record) == text


@pytest.mark.parametrize("cls, kwargs, text", RECORDS, ids=IDS)
def test_equal_fields_give_equal_records_and_hashes(cls, kwargs, text):
    first, second = cls(**kwargs), cls(**kwargs)
    assert first is not second
    assert first == second and not first != second
    assert hash(first) == hash(second)
    assert len({first, second}) == 1


@pytest.mark.parametrize("cls, kwargs, text", RECORDS, ids=IDS)
def test_a_record_equals_no_other_class_with_the_same_values(cls, kwargs, text):
    record = cls(**kwargs)
    twin = type(cls.__name__, (cls,), {})(**kwargs)
    assert repr(twin) == repr(record)
    assert record != twin and twin != record
    assert record != fields(record)
    assert fields(record) != record


@pytest.mark.parametrize("cls, kwargs, text", RECORDS, ids=IDS)
def test_pickle_and_copies_round_trip(cls, kwargs, text):
    record = cls(**kwargs)
    for clone in (
        pickle.loads(pickle.dumps(record)),
        copy.copy(record),
        copy.deepcopy(record),
    ):
        assert type(clone) is cls
        assert clone == record
        assert repr(clone) == text
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(clone, cls.__match_args__[0], None)


def test_positional_construction_and_defaults():
    assert ParseDiagnostic(0, "m").expected == ()
    assert ParseDiagnostic(0, "m") == ParseDiagnostic(offset=0, message="m", expected=())
    assert SignedCoefficients(2, (3, 2)) == SignedCoefficients(degree=2, values=(3, 2))
    assert TruncationCell(1, 1, F(1), F(1)) == TruncationCell(**CELL)


# Only what ``import rootsums.cli`` itself adds counts: ``site`` may
# already have imported modules before it.
_ADDED_BY_IMPORT = """\
import sys
sys.path.insert(0, sys.argv[1])
before = set(sys.modules)
import rootsums.cli
print(" ".join(sorted(set(sys.modules) - before)))
"""


def test_importing_the_cli_loads_neither_dataclasses_nor_inspect():
    src = Path(rootsums.__file__).resolve().parent.parent
    done = subprocess.run(
        [sys.executable, "-I", "-c", _ADDED_BY_IMPORT, str(src)],
        capture_output=True, text=True, check=True, timeout=60,
    )
    added = set(done.stdout.split())
    assert "rootsums.cli" in added
    assert not added & {"dataclasses", "inspect"}
