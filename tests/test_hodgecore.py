"""Pure objects, bigraded morphisms, mixed families, and tables."""

import copy
import gc
import pickle
from fractions import Fraction
from random import Random

import pytest

from absix import Matrix, atlas, hodgecore, wss
from absix.atlas import dumps_atlas, loads_atlas
from absix.cli import build_report, report_json, report_text
from absix.corpus import builtin, corpus_names
from absix.errors import DimensionError, WeightMismatch
from absix.hodgecore import (
    CohomologyTable,
    MixedGraded,
    PureMorphism,
    PureObject,
    ZERO_OBJECT,
    direct_sum_all,
    from_hodge_numbers,
    mixed,
    pure_mixed,
    table,
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

    for module in (hodgecore, atlas, wss):  # the reader and wss import _pure by name
        monkeypatch.setattr(module, "_pure", recording)
    rng = Random(2468)
    for a in [builtin(name) for name in corpus_names()] + [random_atlas(rng) for _ in range(8)]:
        build_report(loads_atlas(dumps_atlas(a)), "atlas", "all")
    monkeypatch.undo()  # the checked constructor below goes through _pure too
    assert len(built) > 500
    for obj in built:
        assert type(obj.slots) is tuple
        assert all(type(s) is tuple and len(s) == 2 and type(s[0]) is type(s[1]) is int
                   for s in obj.slots)
        assert PureObject(obj.weight, obj.slots) is obj  # checks the weight, finds obj


@pytest.mark.parametrize("weight, slots", [
    (1, [(1.9, 0.1)]),
    (1, [(True, False)]),
    (0, [("1", "-1")]),
    (1, [(Fraction(1), 0)]),
    (2.0, ((1, 1),)),
    (True, ((1, 0),)),
    (0.0, ()),
    ("0", ()),
])
def test_the_constructor_refuses_entries_that_are_not_integers(weight, slots):
    with pytest.raises(WeightMismatch, match="is not an integer"):
        PureObject(weight, slots)


@pytest.mark.parametrize("slot", [(1, 1, 0), (2,), 2, "11", {1: 1}])
def test_the_constructor_refuses_slots_that_are_not_pairs(slot):
    with pytest.raises(WeightMismatch, match="is not a pair"):
        PureObject(2, [slot])


def test_the_constructor_normalizes_lists_and_int_subclasses():
    class Level(int):
        pass

    v = PureObject(Level(2), [[Level(1), 1]])
    assert v is PureObject(2, ((1, 1),))
    assert type(v.weight) is int and all(type(x) is int for s in v.slots for x in s)


# ---------------------------------------------------------------------------
# One PureObject per slot tuple
# ---------------------------------------------------------------------------

def test_zero_object_is_the_entry_for_no_slots():
    assert PureObject(7, ()) is ZERO_OBJECT
    assert PureObject(0, []) is ZERO_OBJECT
    assert ZERO_OBJECT.weight == 0 and ZERO_OBJECT.slots == ()
    assert from_hodge_numbers(4, {}) is ZERO_OBJECT
    assert direct_sum_all([ZERO_OBJECT, ZERO_OBJECT]) is ZERO_OBJECT


def test_every_route_returns_the_one_object_on_its_slots():
    a = PureObject(2, ((0, 2), (1, 1), (1, 1), (2, 0)))
    assert PureObject(2, [[0, 2], [1, 1], [1, 1], [2, 0]]) is a
    assert from_hodge_numbers(2, {(2, 0): 1, (1, 1): 2, (0, 2): 1}) is a
    left, right = PureObject(2, ((0, 2), (1, 1))), PureObject(2, ((1, 1), (2, 0)))
    assert direct_sum_all([left, ZERO_OBJECT, right]) is a
    b = builtin("gm_times_a1")  # a restriction spot is the sum of its strata
    slots = [s for z in b.subsets_of_size(1) for s in b.pure_at(z, 0).slots]
    assert len(slots) > 1 and wss.restriction_complex(b, 0).spots[1] is PureObject(0, slots)
    mirrored = wss._mirror(a, 2)  # (p, q) -> (2 - p, 2 - q)
    assert mirrored is PureObject(2, ((2, 0), (1, 1), (1, 1), (0, 2)))
    assert wss._mirror(mirrored, 2) is a
    assert builtin("gm").pure_at((), 0) is builtin("pn_minus_hyperplane", n=1).pure_at((), 0)


def test_two_reads_of_one_document_share_their_cohomology_objects():
    text = dumps_atlas(builtin("surface_resolution"))
    first, second = loads_atlas(text), loads_atlas(text)
    assert first is not second
    shared = 0
    for subset in first.declared_subsets():
        for k in range(2 * first.e(subset) + 1):
            assert first.pure_at(subset, k) is second.pure_at(subset, k)
            shared += not first.pure_at(subset, k).is_zero
    assert shared > 5


def test_the_table_forgets_a_dropped_report():
    gc.collect()
    before = len(hodgecore._INTERNED)
    a = builtin("points_in_proper", points=137)
    report = build_report(a, "atlas", "all")
    text, document = report_text(report), report_json(report)
    assert len(hodgecore._INTERNED) > before
    del a, report
    gc.collect()
    assert len(hodgecore._INTERNED) == before
    assert text and document


def test_pickled_and_copied_objects_stay_equal_and_hash_equal():
    v = from_hodge_numbers(3, {(2, 1): 2, (1, 2): 1})
    for again in (pickle.loads(pickle.dumps(v)), copy.copy(v), copy.deepcopy(v)):
        assert again == v and hash(again) == hash(v)
        assert again.labels() == v.labels() and again.positions((2, 1)) == (1, 2)
        assert again.weight == 3 and again.slots == v.slots
    assert pickle.loads(pickle.dumps(ZERO_OBJECT)) == ZERO_OBJECT


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


def test_label_blocks_finds_the_first_off_label_entry_in_its_one_pass():
    """On random multi-label matrices, ``label_blocks`` names the entry
    ``off_label_entry`` names, and otherwise its blocks rebuild the matrix."""
    rng = Random(2525)
    labels = [(0, 2), (1, 1), (2, 0)]
    hits = multi = 0
    for _ in range(400):
        source, target = [PureObject(2, [rng.choice(labels) for _ in range(rng.randint(0, 6))])
                          for _ in range(2)]
        off = rng.random() < 0.5  # then some entries link two labels
        m = Matrix(target.dim, source.dim,
                   [[rng.randint(-3, 3) if s == t or (off and rng.random() < 0.15) else 0
                     for s in source.slots] for t in target.slots])
        blocks, hit = hodgecore.label_blocks(source, target, m)
        assert hit == hodgecore.off_label_entry(source, target, m)
        if hit is None:
            assert PureMorphism(source, target, blocks).full_matrix() == m
        else:
            assert blocks is None
        hits += hit is not None
        multi += len(source.labels()) > 1
    assert hits >= 50 and multi >= 200  # both outcomes, mostly on several labels


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
