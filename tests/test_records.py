"""The public records are immutable tuples with named fields, like Expr
nodes: keyword construction, repr, equality and hash, pickle and copy, and
a ``_replace`` that validates as the constructor does."""

import copy
import pickle
from fractions import Fraction

import pytest

import partfrac
from partfrac import (
    ONE,
    Constant,
    Counterexample,
    Decomposition,
    DuplicateRootError,
    MonomialTerm,
    OutputFormat,
    PoleTerm,
    RationalFunctionSpec,
    SourceSpan,
    SubstitutionReport,
    symbols,
)

a, b = symbols("a b")

RECORDS = [
    (RationalFunctionSpec, dict(numerator_degree=2, factors=((a, 2), (Constant(-3), 1)))),
    (PoleTerm, dict(pole_index=1, order=2, coefficient=(a - b) ** -3)),
    (MonomialTerm, dict(degree=1, coefficient=Constant(Fraction(-2, 5)))),
    (Decomposition,
     dict(roots=(a, b), monomials=(MonomialTerm(0, a),), poles=(PoleTerm(1, 2, b),))),
    (Counterexample, dict(bindings=(("a", 3),), x=5, original=1, decomposed=2, modulus=7)),
    (SubstitutionReport, dict(trials=2, points_checked=2, counterexample=None)),
    (OutputFormat, dict(mode="structured", expand_coefficients=True)),
    (SourceSpan, dict(start=1, end=4)),
]


@pytest.mark.parametrize("cls, fields", RECORDS, ids=[cls.__name__ for cls, _ in RECORDS])
def test_records_are_immutable_values(cls, fields):
    r = cls(**fields)
    for name, value in fields.items():
        assert getattr(r, name) == value
    assert eval(repr(r), {**vars(partfrac), "Fraction": Fraction}) == r
    name = next(iter(fields))
    with pytest.raises(AttributeError):
        setattr(r, name, fields[name])
    with pytest.raises(AttributeError):
        r.extra = 1
    again = cls(**fields)
    assert again == r and again is not r
    assert hash(again) == hash(r)
    for twin in (pickle.loads(pickle.dumps(r)), copy.copy(r), copy.deepcopy(r), r._replace()):
        assert type(twin) is cls and twin == r


def test_replace_validates_as_the_constructor_does():
    spec = RationalFunctionSpec(1, ((a, 1), (b, 2)))
    with pytest.raises(DuplicateRootError):
        spec._replace(factors=((a, 1), (a, 1)))
    with pytest.raises(ValueError, match="numerator degree must be >= 0"):
        spec._replace(numerator_degree=-1)
    assert spec._replace(factors=[(b, 2)]).factors == ((b, 2),)
    with pytest.raises(ValueError, match="unknown output mode 'yaml'"):
        OutputFormat()._replace(mode="yaml")
    ce = Counterexample({"b": 2, "a": 1}, x=5, original=1, decomposed=2, modulus=7)
    assert ce.bindings == (("a", 1), ("b", 2)) and hash(ce) == hash(ce._replace())
    assert ce._replace(bindings={"c": 4}).bindings == (("c", 4),)
    assert str(ce).startswith("x=5 with bindings {'a': 1, 'b': 2} mod p=7")
    d = Decomposition((a,), (), ())._replace(poles=[PoleTerm(0, 1, ONE)])
    assert d.poles == (PoleTerm(0, 1, ONE),) and type(d.poles) is tuple
