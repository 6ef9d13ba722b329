"""Pure objects, bigraded morphisms, mixed families, and tables."""

from fractions import Fraction
from random import Random

import pytest

from absix import Matrix, hodgecore
from absix.cli import build_report
from absix.corpus import builtin, corpus_names
from absix.errors import DimensionError, WeightMismatch
from absix.hodgecore import (
    CohomologyTable,
    MixedGraded,
    PureMorphism,
    PureObject,
    ZERO_OBJECT,
    direct_sum,
    direct_sum_all,
    from_hodge_numbers,
    mixed,
    pure_mixed,
    table,
    tate_twist,
    weight_support,
)

from synth import random_atlas, random_morphism


# ---------------------------------------------------------------------------
# PureObject
# ---------------------------------------------------------------------------

def test_from_hodge_numbers_sorts_slots_lexicographically():
    v = from_hodge_numbers(3, {(2, 1): 2, (0, 3): 1, (1, 2): 1})
    assert v.slots == ((0, 3), (1, 2), (2, 1), (2, 1))
    assert v.dim == 4
    assert v.count((2, 1)) == 2
    assert v.positions((2, 1)) == (2, 3)
    assert v.hodge_numbers() == {(0, 3): 1, (1, 2): 1, (2, 1): 2}


def test_slots_must_lie_on_the_weight():
    with pytest.raises(WeightMismatch):
        PureObject(2, ((1, 0),))
    assert PureObject(7, ()).weight == 0  # zero object normalizes its weight


def test_tate_objects_and_twists():
    v = PureObject(2, ((0, 2), (1, 1)))
    tw = tate_twist(v, -1)
    assert (tw.weight, tw.slots) == (4, ((1, 3), (2, 2)))
    assert tate_twist(tw, 1) == v
    assert tate_twist(ZERO_OBJECT, 5) == ZERO_OBJECT


def test_direct_sum_concatenates_and_checks_weights():
    a = PureObject(2, ((1, 1),))
    b = PureObject(2, ((0, 2), (2, 0)))
    assert direct_sum(a, b).slots == ((1, 1), (0, 2), (2, 0))
    assert direct_sum(ZERO_OBJECT, b) == b
    assert direct_sum_all([a, ZERO_OBJECT, b]).dim == 3
    with pytest.raises(WeightMismatch):
        direct_sum(a, PureObject(4, ((2, 2),)))


def test_direct_sum_all_builds_one_object_and_checks_each_weight():
    a = PureObject(2, ((1, 1),))
    b = PureObject(2, ((0, 2),))
    c = PureObject(2, ((2, 0),))
    total = direct_sum_all([ZERO_OBJECT, a, b, ZERO_OBJECT, c])
    assert total == PureObject(2, a.slots + b.slots + c.slots)
    assert total.positions((1, 1)) == (0,) and total.labels() == ((0, 2), (1, 1), (2, 0))
    assert direct_sum_all([ZERO_OBJECT, b]) is b
    assert direct_sum_all([]) == ZERO_OBJECT
    with pytest.raises(WeightMismatch, match="direct sum of weights 2 and 4"):
        direct_sum_all([a, b, PureObject(4, ((2, 2),))])


def test_from_hodge_numbers_checks_each_label_once():
    with pytest.raises(WeightMismatch, match=r"slot \(1,0\) does not lie on weight 2"):
        from_hodge_numbers(2, {(1, 1): 1, (1, 0): 2})
    assert from_hodge_numbers(2, {(1, 0): 0}) == ZERO_OBJECT


def test_engine_built_objects_equal_their_checked_construction(monkeypatch):
    built = []
    trusted = hodgecore._pure

    def recording(weight, slots):
        built.append(trusted(weight, slots))
        return built[-1]

    monkeypatch.setattr(hodgecore, "_pure", recording)
    rng = Random(2468)
    for a in [builtin(name) for name in corpus_names()] + [random_atlas(rng) for _ in range(8)]:
        build_report(a, "atlas", "all")
    assert len(built) > 500
    for obj in built:
        assert type(obj.slots) is tuple
        assert all(type(s) is tuple and len(s) == 2 and type(s[0]) is type(s[1]) is int
                   for s in obj.slots)
        checked = PureObject(obj.weight, obj.slots)
        assert obj == checked and obj.labels() == checked.labels()
        assert all(obj.positions(lab) == checked.positions(lab) for lab in checked.labels())


# ---------------------------------------------------------------------------
# PureMorphism
# ---------------------------------------------------------------------------

def test_morphism_blocks_and_full_matrix_roundtrip():
    src = from_hodge_numbers(2, {(1, 1): 2, (0, 2): 1})
    tgt = from_hodge_numbers(2, {(1, 1): 1, (2, 0): 1})
    f = PureMorphism(src, tgt, {(1, 1): Matrix(1, 2, [[3, -1]])})
    full = f.full_matrix()
    assert full.shape == (2, 3)
    again = PureMorphism.from_full_matrix(src, tgt, full)
    assert again == f
    assert f.block((0, 2)).shape == (0, 1)  # absent block defaults to zeros
    assert f.rank() == 1
    # A stored all-zero block equals an omitted one, and hashes alike.
    stored_zero = PureMorphism(src, tgt, {(1, 1): Matrix.zeros(1, 2)})
    omitted = PureMorphism.zero(src, tgt)
    assert stored_zero == omitted and hash(stored_zero) == hash(omitted)
    assert stored_zero != f and omitted != f


def test_from_full_matrix_rejects_entries_across_labels():
    src = from_hodge_numbers(2, {(1, 1): 1, (0, 2): 1})
    tgt = from_hodge_numbers(2, {(1, 1): 1})
    bad = Matrix(1, 2, [[1, 0]])  # slots sort lex, so column 0 is the (0,2) slot
    with pytest.raises((DimensionError, WeightMismatch)):
        PureMorphism.from_full_matrix(src, tgt, bad)


def test_compose_and_identity_laws():
    rng = Random(7)
    for _ in range(25):
        f = random_morphism(rng)
        idt = PureMorphism.identity(f.target)
        ids = PureMorphism.identity(f.source)
        assert idt.compose(f) == f
        assert f.compose(ids) == f
        g = PureMorphism.zero(f.target, f.source)
        assert f.compose(g).is_zero()


def test_compose_requires_matching_middle_object():
    f = PureMorphism.identity(PureObject(2, ((1, 1),)))
    g = PureMorphism.identity(PureObject(2, ((0, 2),)))
    with pytest.raises((DimensionError, WeightMismatch)):
        f.compose(g)


def test_injectivity_surjectivity_by_rank():
    src = from_hodge_numbers(0, {(0, 0): 2})
    tgt = from_hodge_numbers(0, {(0, 0): 2})
    iso = PureMorphism(src, tgt, {(0, 0): Matrix(2, 2, [[1, 1], [0, 1]])})
    assert iso.is_injective() and iso.is_surjective()
    drop = PureMorphism(src, tgt, {(0, 0): Matrix(2, 2, [[1, 0], [1, 0]])})
    assert not drop.is_injective() and not drop.is_surjective()


# ---------------------------------------------------------------------------
# MixedGraded and tables
# ---------------------------------------------------------------------------

def test_mixed_graded_drops_zero_pieces_and_sorts():
    m = mixed({4: PureObject(4, ((2, 2),)), 2: PureObject(2, ((1, 1),)),
               6: ZERO_OBJECT})
    assert m.weights() == (2, 4)
    assert m.dim == 2
    assert m.piece(6) == ZERO_OBJECT
    assert m.hodge_numbers() == {(1, 1): 1, (2, 2): 1}
    assert pure_mixed(ZERO_OBJECT).is_zero


def test_mixed_graded_rejects_misfiled_weights():
    with pytest.raises(WeightMismatch):
        MixedGraded(((4, PureObject(2, ((1, 1),))),))


def test_table_kind_bounds():
    ok = table("plain", {1: mixed({2: PureObject(2, ((1, 1),))})})
    assert weight_support(ok, 1) == {2}
    assert ok.dim(1) == 1 and ok.dim(5) == 0
    with pytest.raises(WeightMismatch):
        table("plain", {1: mixed({3: PureObject(3, ((1, 2),))})})  # w > 2n
    with pytest.raises(WeightMismatch):
        table("compactSupport", {1: mixed({2: PureObject(2, ((1, 1),))})})  # w > n
    with pytest.raises(WeightMismatch):
        table("absoluteIC", {2: mixed({3: PureObject(3, ((1, 2),))})})  # not pure
    with pytest.raises(DimensionError):
        CohomologyTable("nonsense", ())


def test_table_accessors():
    t = table("boundary", {0: mixed({0: PureObject(0, ((0, 0),))}),
                           1: mixed({2: PureObject(2, ((1, 1),))})})
    assert t.degrees() == (0, 1)
    assert t.hodge(1) == {(1, 1): 1}
    assert t.degree(3).is_zero
