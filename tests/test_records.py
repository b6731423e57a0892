"""The package's immutable records: construction by position or keyword
through one constructor, equality within one class only, hashing, `repr`,
and refusal to change."""

import copy
import importlib
import pickle

import pytest

import smoothwords
from smoothwords import (
    Alphabet,
    BispecialNode,
    ComplexityTable,
    DerivabilityReport,
    EmbeddingWitness,
    ExponentReport,
    FSmoothCertificate,
    GenerationStats,
    GrowthMatrices,
    Run,
    RunFactorization,
    Word,
)
from smoothwords.checks import CheckResult
from smoothwords.words import _Record

AB = Alphabet(1, 2)
W = Word(AB, b"\x01\x02\x02\x01")
V = Word(AB, b"\x02")

# class, field names in order, field values, repr of the record they make
RECORDS = [
    (Alphabet, ("a", "b"), (1, 2), "Alphabet(a=1, b=2)"),
    (RunFactorization, ("runs",), ((Run(1, 1), Run(2, 2)),),
     "RunFactorization(runs=(Run(letter=1, exponent=1), Run(letter=2, exponent=2)))"),
    (Word, ("alphabet", "letters"), (AB, b"\x01\x02\x02\x01"), "Word({1,2}, '1221')"),
    (DerivabilityReport,
     ("derivable", "offending_run_index", "offending_exponent", "reason"),
     (False, 0, 3, "too long"),
     "DerivabilityReport(derivable=False, offending_run_index=0, "
     "offending_exponent=3, reason='too long')"),
    (FSmoothCertificate, ("word", "height", "chain"), (V, 1, (V, AB.empty())),
     "FSmoothCertificate(word=Word({1,2}, '2'), height=1, "
     "chain=(Word({1,2}, '2'), Word({1,2}, '')))"),
    (BispecialNode, ("word", "family", "generation", "multiplicity"), (W, "T1", 2, 1),
     "BispecialNode(word=Word({1,2}, '1221'), family='T1', generation=2, multiplicity=1)"),
    (GenerationStats,
     ("family", "generation", "count", "min_len", "max_len", "total_len", "histogram"),
     ("T", 1, 2, 3, 4, 7, {3: 1, 4: 1}),
     "GenerationStats(family='T', generation=1, count=2, min_len=3, max_len=4, "
     "total_len=7, histogram={3: 1, 4: 1})"),
    (ComplexityTable,
     ("alphabet", "horizon", "p", "s", "b", "lower", "upper", "provenance"),
     (AB, 1, (1, 2), (1,), (), (1, 2), (3, 4), "enumeration"),
     "ComplexityTable(alphabet=Alphabet(a=1, b=2), horizon=1, p=(1, 2), s=(1,), "
     "b=(), lower=(1, 2), upper=(3, 4), provenance='enumeration')"),
    (EmbeddingWitness, ("left_extension", "combined"), (V, W),
     "EmbeddingWitness(left_extension=Word({1,2}, '2'), combined=Word({1,2}, '1221'))"),
    (GrowthMatrices, ("m", "n", "p", "r"), (((1, 0), (0, 1)), (1, 2), ((0, 1), (1, 0)), None),
     "GrowthMatrices(m=((1, 0), (0, 1)), n=(1, 2), p=((0, 1), (1, 0)), r=None)"),
    (ExponentReport,
     ("alphabet", "rho", "alpha", "beta", "zeta", "growth_lambda", "rho_prime",
      "c_constant", "formulas"),
     (AB, 2.0, 1.5, 7.0, None, 1.5, 0.5, 4.0, {"rho": "x"}),
     "ExponentReport(alphabet=Alphabet(a=1, b=2), rho=2.0, alpha=1.5, beta=7.0, "
     "zeta=None, growth_lambda=1.5, rho_prime=0.5, c_constant=4.0, "
     "formulas={'rho': 'x'})"),
    (CheckResult, ("criterion", "name", "passed", "detail", "elapsed"),
     (4, "greedy", True, "ok", 0.25),
     "CheckResult(criterion=4, name='greedy', passed=True, detail='ok', elapsed=0.25)"),
]
UNHASHABLE = {GenerationStats, ExponentReport}  # each holds a dict
IDS = [cls.__name__ for cls, *_ in RECORDS]


@pytest.mark.parametrize("cls, names, values, text", RECORDS, ids=IDS)
def test_construction_in_field_order(cls, names, values, text):
    by_position = cls(*values)
    by_keyword = cls(**dict(zip(names, values)))
    assert tuple(getattr(by_position, n) for n in names) == values
    assert tuple(getattr(by_keyword, n) for n in names) == values


@pytest.mark.parametrize("cls, names, values, text", RECORDS, ids=IDS)
def test_equal_within_one_class_only(cls, names, values, text):
    record = cls(*values)
    assert record == cls(*values)
    assert not record != cls(*values)
    assert record != values
    assert values != record
    others = [other(*other_values) for other, _, other_values, _ in RECORDS
              if other is not cls]
    assert all(record != other for other in others)
    if len(values) > 1:
        assert record != values[:1]


def test_records_differ_when_one_field_does():
    assert Alphabet(1, 2) != Alphabet(1, 3)
    assert Word(AB, b"\x01") != Word(AB, b"\x02")
    assert Word(AB, b"\x01") != Word(Alphabet(1, 3), b"\x01")
    assert DerivabilityReport(False, 0, None, None) != DerivabilityReport(False, 1, None, None)
    assert CheckResult(1, "x", True, "", 0.0) != CheckResult(1, "x", False, "", 0.0)


def test_a_record_holding_nan_equals_itself():
    nan = float("nan")
    report = ExponentReport(AB, nan, nan, nan, None, None, nan, nan, {})
    assert report == report
    assert CheckResult(1, "x", True, "", nan) == CheckResult(1, "x", True, "", nan)


@pytest.mark.parametrize("cls, names, values, text", RECORDS, ids=IDS)
def test_hash_is_the_hash_of_the_fields(cls, names, values, text):
    record = cls(*values)
    if cls in UNHASHABLE:
        with pytest.raises(TypeError):
            hash(record)
    else:
        assert hash(record) == hash(values)
        assert len({record, cls(*values)}) == 1


@pytest.mark.parametrize("cls, names, values, text", RECORDS, ids=IDS)
def test_repr(cls, names, values, text):
    assert repr(cls(*values)) == text


@pytest.mark.parametrize("cls, names, values, text", RECORDS, ids=IDS)
def test_fields_cannot_be_assigned_or_deleted(cls, names, values, text):
    record = cls(*values)
    for name in names:
        with pytest.raises(AttributeError):
            setattr(record, name, values[0])
        with pytest.raises(AttributeError):
            delattr(record, name)
    with pytest.raises(AttributeError):
        record.extra = 1
    assert tuple(getattr(record, n) for n in names) == values


@pytest.mark.parametrize("cls, names, values, text", RECORDS, ids=IDS)
def test_copies_and_pickles_equal_the_record(cls, names, values, text):
    record = cls(*values)
    for twin in (copy.copy(record), copy.deepcopy(record),
                 pickle.loads(pickle.dumps(record))):
        assert type(twin) is cls and twin == record


@pytest.mark.parametrize("cls, names, values, text", RECORDS, ids=IDS)
def test_a_missing_extra_unknown_or_repeated_field_raises_type_error(cls, names, values, text):
    named = dict(zip(names, values))
    for bad in (lambda: cls(), lambda: cls(*values, values[0]),
                lambda: cls(*values, bogus=1), lambda: cls(**named, bogus=1),
                lambda: cls(*values, **{names[0]: values[0]}),
                lambda: cls(values[0], **named)):
        with pytest.raises(TypeError):
            bad()


@pytest.mark.parametrize("cls, names, values, text", RECORDS, ids=IDS)
def test_keywords_bind_by_name_in_any_order(cls, names, values, text):
    backwards = dict(reversed(list(zip(names, values))))
    assert tuple(getattr(cls(**backwards), n) for n in names) == values
    for given in range(1, len(names)):
        rest = dict(reversed(list(zip(names[given:], values[given:]))))
        record = cls(*values[:given], **rest)
        assert tuple(getattr(record, n) for n in names) == values


def _record_classes():
    """Every `_Record` subclass of the package, with all its modules loaded."""
    for module in smoothwords._EXPORTS:
        importlib.import_module(f"smoothwords.{module}")
    found, pending = set(), [_Record]
    while pending:
        for cls in pending.pop().__subclasses__():
            pending.append(cls)
            if cls.__module__.startswith("smoothwords."):
                found.add(cls)
    return found


def test_every_record_class_is_listed():
    """A record class the package adds must join `RECORDS`, and so every
    test above."""
    assert _record_classes() == {cls for cls, *_ in RECORDS}


def test_records_use_the_base_methods():
    """Equality, hashing, pickling and field binding have one implementation,
    in `_Record`; only the records with checks have their own constructor."""
    classes = _record_classes()
    for cls in classes:
        own = {"__eq__", "__hash__", "__reduce__", "__dict__"} & vars(cls).keys()
        assert not own, f"{cls.__name__} defines {sorted(own)}"
    assert {cls for cls in classes if "__init__" in vars(cls)} == {Word, Alphabet}
