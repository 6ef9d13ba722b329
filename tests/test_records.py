"""The engine's value classes behave as immutable values.

Every class built on ``absix.record.Record`` is checked on an instance the
engine itself produced: it cannot be changed, it equals and hashes like a
copy built from its fields, it equals no other type holding the same values
(not even a tuple of them), it can be weakly referenced, copied and
pickled, and its repr is ``Name(field=value, ...)`` over the fields below.
"""

import copy
import pickle
import weakref

import pytest

from absix import corpus
from absix.absic import absolute_ic, ch_at, direct_factor_check, plain_table
from absix.atlas import Finding, StratumData, validate_atlas
from absix.cli import build_report
from absix.corpus import CATALOGUE, CorpusItem, builtin
from absix.hodgecore import PureObject
from absix.plus import compare_candidates, plus_dichotomy, weight_criteria
from absix.record import Record
from absix.wss import grW, gysin_complex

# class name -> its fields, in repr and constructor order
FIELDS = {
    "PureObject": ("weight", "slots"),
    "MixedGraded": ("pieces",),
    "CohomologyTable": ("kind", "by_degree"),
    "StratumData": ("cohomology", "pairings"),
    "Finding": ("code", "where", "detail"),
    "ValidationReport": ("findings",),
    "WeightComplex": ("weight", "spots", "maps", "decreasing"),
    "ChParts": ("kernel_part", "image_part", "cokernel_part", "total"),
    "ChDecomposition": ("kernel_part", "image_part", "cokernel_part", "total", "i_ch",
                        "pi_ch"),
    "AbsicResult": ("table", "comparisons", "decompositions"),
    "FactorCheck": ("by_degree",),
    "CriteriaReport": ("cond2", "cond3", "cond6", "cond7", "verdict", "cond2_by_degree",
                       "cond3_by_degree", "injectivityRange", "injectivityRoute",
                       "lefschetz"),
    "DichotomyResult": ("mode", "horn", "degrees", "boundary_nonzero", "detail"),
    "ComparisonReport": ("hStar", "ihPlus", "hY", "matchesPlus", "matchesY",
                         "plusMismatchDegrees", "yMismatchDegrees"),
    "Report": ("atlasName", "tables", "criteria", "comparison", "dichotomy", "provenance"),
    "CorpusItem": ("name", "summary", "parameters"),
}


def _instances() -> dict:
    a = builtin("gm_times_a1")  # its weight criteria fail, so it has a dichotomy
    return {
        "PureObject": PureObject(2, ((1, 1), (1, 1))),
        "MixedGraded": grW(a, 1),
        "CohomologyTable": plain_table(a),
        "StratumData": a.strata[()],
        "Finding": Finding("UnitCheck", "Y.H^0", "degree-0 slots must all be (0,0)"),
        "ValidationReport": validate_atlas(a),
        "WeightComplex": gysin_complex(a, 2),
        "ChParts": ch_at(a, 2),
        "ChDecomposition": absolute_ic(a).decomposition(2),
        "AbsicResult": absolute_ic(a),
        "FactorCheck": direct_factor_check(a),
        "CriteriaReport": weight_criteria(a),
        "DichotomyResult": plus_dichotomy(a),
        "ComparisonReport": compare_candidates(a),
        "Report": build_report(a, "gm_times_a1", "all"),
        "CorpusItem": CATALOGUE[0],
    }


INSTANCES = _instances()


def _rebuilt(x):
    """A new instance of x's class, from x's field values."""
    values = [getattr(x, name) for name in FIELDS[type(x).__name__]]
    if isinstance(x, CorpusItem):
        values.append(x.build)
    return type(x)(*values)


def test_every_value_class_is_checked():
    assert sorted(FIELDS) == sorted(INSTANCES)
    for name, x in INSTANCES.items():
        assert type(x).__name__ == name and isinstance(x, Record)
        assert type(x)._fields == FIELDS[name]


@pytest.mark.parametrize("name", sorted(FIELDS))
def test_it_is_immutable(name):
    x = INSTANCES[name]
    for field in FIELDS[name] + ("anything_else",):
        with pytest.raises(AttributeError):
            setattr(x, field, None)
        with pytest.raises(AttributeError):
            delattr(x, field)
    assert not hasattr(x, "__dict__")


@pytest.mark.parametrize("name", sorted(FIELDS))
def test_it_equals_and_hashes_by_value(name):
    x = INSTANCES[name]
    y = _rebuilt(x)
    if name == "PureObject":  # the constructor returns the one object on these slots
        assert y is x
        y = copy.copy(x)
    assert y is not x and y == x and not (y != x)
    values = tuple(getattr(x, f) for f in FIELDS[name])
    if name == "Report":  # its tables and provenance are dicts, as before
        with pytest.raises(TypeError):
            hash(x)
    else:
        assert hash(y) == hash(x) == hash(values)


@pytest.mark.parametrize("name", sorted(FIELDS))
def test_it_equals_no_other_type_with_the_same_values(name):
    x = INSTANCES[name]
    values = tuple(getattr(x, f) for f in FIELDS[name])

    class LookAlike(Record):
        __slots__ = _fields = FIELDS[name]

    twin = LookAlike(*values)
    assert twin._values() == x._values()
    assert x != twin and twin != x
    assert x != values and values != x
    assert x != list(values)


@pytest.mark.parametrize("name", sorted(FIELDS))
def test_it_can_be_weakly_referenced_copied_and_pickled(name):
    x = INSTANCES[name]
    assert weakref.ref(x)() is x
    assert copy.copy(x) == x
    assert copy.deepcopy(x) == x
    assert pickle.loads(pickle.dumps(x)) == x


@pytest.mark.parametrize("name", sorted(FIELDS))
def test_its_repr_names_each_field(name):
    x = INSTANCES[name]
    shown = ", ".join(f"{f}={getattr(x, f)!r}" for f in FIELDS[name])
    assert repr(x) == f"{name}({shown})"


def test_pinned_reprs():
    assert repr(PureObject(2, ((1, 1),))) == "PureObject(weight=2, slots=((1, 1),))"
    assert repr(INSTANCES["Finding"]) == (
        "Finding(code='UnitCheck', where='Y.H^0', detail='degree-0 slots must all be (0,0)')")


def test_fields_differ_so_values_differ():
    assert PureObject(2, ((1, 1),)) != PureObject(2, ((1, 1), (1, 1)))
    assert Finding("A", "Y", "x") != Finding("A", "Y", "y")
    assert PureObject(2, [(1, 1)]) == PureObject(2, ((1, 1),))  # slots are normalized


def test_corpus_items_leave_their_builder_out():
    item = CATALOGUE[1]
    other = CorpusItem(item.name, item.summary, item.parameters, lambda: None)
    assert other == item and hash(other) == hash(item)
    assert "build" not in repr(item)
    assert item.build is corpus.gm
    assert copy.copy(item).build is item.build


def test_constructor_arguments_are_checked():
    assert Finding(code="A", where="Y", detail="x") == Finding("A", detail="x", where="Y")
    with pytest.raises(TypeError):
        Finding("A", "Y")
    with pytest.raises(TypeError):
        Finding("A", "Y", "x", "extra")
    with pytest.raises(TypeError):
        Finding("A", "Y", "x", code="B")
    with pytest.raises(TypeError):
        Finding("A", "Y", detail="x", colour="red")


def test_a_memo_is_not_part_of_the_value():
    obj = PureObject(2, ((0, 2), (1, 1), (2, 0)))
    assert obj.labels() is obj.labels()  # indexed once
    assert obj._positions  # the index is filled
    bare = object.__new__(PureObject)  # the same fields, no index
    for name in PureObject._fields:
        object.__setattr__(bare, name, getattr(obj, name))
    assert bare == obj and hash(bare) == hash(obj)
    assert "_positions" not in repr(obj) and "_labels" not in repr(obj)
    assert StratumData.__slots__ == StratumData._fields  # no memo beside the fields
