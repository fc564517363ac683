"""The package's frozen value records, one table row a class: construction by position and by keyword,
value equality and hash, no assignment or deletion, the Name(field=value!r, ...) repr, defaults, and each
class's own validation error."""

import importlib
from fractions import Fraction
from pathlib import Path

import pytest

import thetamod
from thetamod import IDENTITY, S_INVERSION, ValidationError
from thetamod.cli import Report
from thetamod.dedekind import MultiplierValue
from thetamod.modular import ModularMatrix, TransformParams
from thetamod.residues import (
    ClosureReport,
    EnclosedResidue,
    OriginReport,
    OriginResidue,
    ResidueReport,
    ResidueVerification,
    VerifierParams,
)
from thetamod.theta import SeriesEval, TruncationControl
from thetamod.transform import FastEval, ReductionTrace, SweepCase, SweepResult

TRACE = ReductionTrace(S_INVERSION, 1j, 0.1 + 0j, (0, 1), 0.5j)
ORIGIN = OriginResidue(1 + 1j, 0.5 + 1j, {"exp_terms": -0.5})
POLES = (EnclosedResidue("origin", 0, 0j, 0.1, 0.5 + 1j),)
CLOSURE = ClosureReport(1j, 0.5 + 1j, POLES)
CASE = SweepCase(IDENTITY, 0.1 + 0j, 1j, 1e-16)

# class, field names in order, two different field tuples (the first one repeats for equality)
RECORDS = [
    (ModularMatrix, "a b c d", (1, 2, 3, 7), (0, -1, 1, 0)),
    (TransformParams, "H h k v", (2, 1, 3, 1.5j), (0, 0, 1, 2.0)),
    (MultiplierValue, "phase", (Fraction(1, 4),), (Fraction(-1, 2),)),
    (TruncationControl, "tolerance", (1e-12,), (1e-9,)),
    (SeriesEval, "value terms error_bound", (1j, 3, 1e-15), (1j, 4, 1e-15)),
    (ReductionTrace, "matrix tau_reduced z_reduced lattice_shift prefactor_log",
     (S_INVERSION, 1j, 0.1 + 0j, (0, 1), 0.5j), (IDENTITY, 1j, 0.1 + 0j, (0, 1), 0.5j)),
    (FastEval, "value terms error_bound trace", (1j, 2, 1e-15, TRACE), (1j, 2, 1e-15, None)),
    (SweepCase, "matrix z tau residual", (IDENTITY, 0.1 + 0j, 1j, 1e-16), (IDENTITY, 0.2 + 0j, 1j, 1e-16)),
    (SweepResult, "kind seed cases", ("theta", 1, (CASE,)), ("eta", 1, (CASE,))),
    (VerifierParams, "H h k v z m", (1, 1, 2, 1.5, 0.2 + 0.1j, 3), (0, 0, 1, 1.5, 0.2 + 0.1j, 3)),
    (OriginResidue, "compact assembled parts", (1 + 1j, 0.5 + 1j, {"exp_terms": -0.5}), (1 + 1j, 0.5 + 1j, {})),
    (ResidueReport, "pole closed_form oracle", (1j, 0.5, 0.5 + 1e-12), (1j, 0.5, 0.5)),
    (OriginReport, "origin oracle", (ORIGIN, 0.5 + 1j), (ORIGIN, 0.5)),
    (EnclosedResidue, "family n pole radius residue", ("origin", 0, 0j, 0.1, 0.5 + 1j), ("imag", 1, 0.5j, 0.1, 1j)),
    (ClosureReport, "contour residue_sum poles", (1j, 0.5 + 1j, POLES), (1j, 0.5 + 1j, ())),
    (ResidueVerification, "origin closure closed_forms identity gap closure_tol passed",
     (ORIGIN, CLOSURE, (0.5 + 1j,), 1e-13, 2.0, 1e-8, True), (ORIGIN, CLOSURE, (0.5 + 1j,), 1e-13, 2.0, 1e-8, False)),
    (Report, "params rows text summary code", ({"h": 1}, [{"h": 1}], ["1/18"], None, 0), ({}, [{}], [], None, 1)),
]


def _hashable(value) -> bool:
    try:
        hash(value)
    except TypeError:
        return False
    return True


def test_table_covers_every_record_class():
    package = Path(thetamod.__file__).parent
    found = set()
    for path in package.glob("*.py"):
        module = importlib.import_module(f"thetamod.{path.stem}") if path.stem != "__init__" else thetamod
        found |= {value for value in vars(module).values()
                  if isinstance(value, type) and "__record_fields__" in vars(value)}
    assert found == {row[0] for row in RECORDS}
    assert len(RECORDS) == 17


@pytest.mark.parametrize("cls, names, values, other", RECORDS, ids=[row[0].__name__ for row in RECORDS])
def test_record(cls, names, values, other):
    names = names.split()
    record = cls(*values)
    assert [getattr(record, name) for name in names] == list(values)
    assert cls(**dict(zip(names, values))) == record == cls(*values)
    assert record != cls(*other) and not record == cls(*other)
    assert record != values and (record == values) is False  # equal only within one class
    if all(_hashable(value) for value in values):
        assert hash(record) == hash(cls(*values)) == hash(tuple(values))
    else:  # a dict or list field makes the record unhashable, as its value is
        with pytest.raises(TypeError):
            hash(record)
    assert repr(record) == f"{cls.__qualname__}({', '.join(f'{n}={v!r}' for n, v in zip(names, values))})"
    for name in (*names, "extra"):
        with pytest.raises(AttributeError):
            setattr(record, name, 0)
        with pytest.raises(AttributeError):
            delattr(record, name)
    assert [getattr(record, name) for name in names] == list(values)
    with pytest.raises(TypeError):
        cls(*values, 0)


def test_subclass_records_extend_their_base():
    fast = FastEval(1j, 2, 1e-15, TRACE)
    assert isinstance(fast, SeriesEval)
    assert fast != SeriesEval(1j, 2, 1e-15) and SeriesEval(1j, 2, 1e-15) != fast
    params = VerifierParams(H=1, h=1, k=2, v=1.5, z=0.2 + 0.1j, m=3)
    assert isinstance(params, TransformParams) and params.order == 3.5


def test_defaults():
    assert TruncationControl().tolerance == 1e-12
    assert TruncationControl() == TruncationControl(1e-12)
    report = Report({}, [{}], [])
    assert report.summary is None and report.code == 0


@pytest.mark.parametrize(
    "call, match",
    [
        (lambda: ModularMatrix(1, 1, 1, 1), "determinant must be 1, got 0"),
        (lambda: ModularMatrix(1, 0, 0, 1.0), r"d=1\.0 is not an integer"),
        (lambda: TransformParams(H=2, h=1, k=0, v=1j), "k must be a positive integer"),
        (lambda: TransformParams(H=1, h=1, k=3, v=1j), "is not -1 modulo k=3"),
        (lambda: TruncationControl(1.0), r"tolerance must be in \[1e-16, 1\)"),
        (lambda: VerifierParams(H=1, h=1, k=2, v=1.5, z=0.2 + 0.1j, m=65), r"m must be an integer in \[1, 64\]"),
        (lambda: VerifierParams(H=1, h=1, k=2, v=-1.5, z=0.2 + 0.1j, m=3), "v must be a positive real"),
        (lambda: VerifierParams(H=1, h=1, k=2, v=1e-320, z=0.2 + 1e-321j, m=3), "v must be a positive real"),
        (lambda: VerifierParams(H=1, h=2, k=2, v=1.5, z=0.2 + 0.1j, m=3), "must be coprime"),
    ],
    ids=["determinant", "float entry", "k zero", "congruence", "tolerance", "m 65", "negative v", "1/v infinite",
         "base check"],
)
def test_validation_raises_its_error(call, match):
    with pytest.raises(ValidationError, match=match):
        call()
