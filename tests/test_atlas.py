"""Atlas container, JSON round-trips, and the structural validator."""

import copy
import hashlib
import json
import sys
import time
from fractions import Fraction
from random import Random

import pytest

import absix.atlas
from absix import Matrix
from absix.atlas import (
    Finding,
    StratumAtlas,
    StratumData,
    _subset_name,
    dump_atlas,
    dumps_atlas,
    load_atlas,
    loads_atlas,
    make_stratum,
    read_atlas,
    require_valid,
    validate_atlas,
)
from absix.cli import atlas_hash, main
from absix.corpus import ALIASES, builtin, corpus_names
from absix.errors import DimensionError, InvalidAtlas, ParseError, UnknownCorpusItem
from absix.hodgecore import ZERO_OBJECT, PureMorphism, PureObject

from synth import kunneth, random_atlas, random_boundary_atlas

# sha256 of dumps_atlas(builtin(name)) for every catalogue name and alias: the
# frozen bytes of the corpus, and so of every report's atlas hash.
PINNED_DIGESTS = {
    "pn_minus_hyperplane": "28db91a8d717aef77095bead580a584d4212c96d6ed39e0f6bbb8c382d380f23",
    "gm": "2041c601ab36de2898c73fbd746017d8c375239a81b089da5921184d87180505",
    "smooth_divisor_ample": "22f388989fb70744e9fbbcaa6359e104d351f49bd6b7b9350ebc590b7b13cce5",
    "points_in_proper": "a919655d73c12ea6d897304dd60648d223ac131f3317e3ba6f70680ddd3dc04f",
    "low_dim_Z": "21f5e90a51b9c9f67f7878577402a95328277a6b0769919cba35318bb3605d0f",
    "middle_dim_Z_selfint_zero": "b8ceb0b3484e42e0d099977b445647fa67f8f981adaa5dfac531a4b0b9b333ca",
    "middle_dim_Z_selfint_nonzero": "004ebae8fb105d23de7b657f6ac00e8ea4ce30ffaf63df65c7bfa77a9f6730ec",
    "surface_resolution": "a2eb678f73254f429321ae4066335918d633f3ae44b68085718fd28b7503b486",
    "gm_times_a1": "8fd2e2ee55fc8c3df3a5cbddd9277582e07f62176351ab116449f1415fb87038",
    "a1": "876e4350c0a651bc93e439488801ae1ca9a744b45021576344363217084566e3",
    "a2": "28db91a8d717aef77095bead580a584d4212c96d6ed39e0f6bbb8c382d380f23",
    "a3": "6caf46e3d8f58c21aa35357651d8cce9a0ed8413ff6e9811feea583608fd5cde",
    "p1p1_minus_diagonal": "004ebae8fb105d23de7b657f6ac00e8ea4ce30ffaf63df65c7bfa77a9f6730ec",
}


# ---------------------------------------------------------------------------
# Corpus integrity
# ---------------------------------------------------------------------------

def test_every_catalogue_entry_is_valid(corpus):
    for name, atlas in corpus.items():
        report = validate_atlas(atlas)
        assert report.ok, f"{name}: {report}"


def test_aliases_resolve_and_validate():
    for alias in ALIASES:
        report = validate_atlas(builtin(alias))
        assert report.ok, f"{alias}: {report}"


@pytest.mark.parametrize("name", corpus_names() + sorted(ALIASES))
def test_builtin_text_matches_pinned_digest(name):
    text = dumps_atlas(builtin(name))
    assert hashlib.sha256(text.encode("utf-8")).hexdigest() == PINNED_DIGESTS[name]
    assert loads_atlas(text) == builtin(name)


def test_builtin_rejects_unknown_names_and_bad_parameters():
    with pytest.raises(UnknownCorpusItem):
        builtin("no_such_item")
    with pytest.raises(UnknownCorpusItem):
        builtin("a1", points=3)  # parameter belongs to a different family
    with pytest.raises(ValueError):
        builtin("pn_minus_hyperplane", n=0)


def test_parameterized_families():
    for n in (1, 2, 3, 4):
        assert validate_atlas(builtin("pn_minus_hyperplane", n=n)).ok
    for points in (1, 2, 5):
        assert validate_atlas(builtin("points_in_proper", points=points)).ok


# ---------------------------------------------------------------------------
# Round trips and determinism
# ---------------------------------------------------------------------------

def test_dump_load_round_trip(corpus):
    for name, atlas in corpus.items():
        again = load_atlas(dump_atlas(atlas))
        assert again == atlas, name
        assert loads_atlas(dumps_atlas(atlas)) == atlas, name


def test_dumps_is_deterministic():
    a = dumps_atlas(builtin("surface_resolution"))
    b = dumps_atlas(builtin("surface_resolution"))
    assert a == b
    assert json.loads(a)  # genuinely JSON


def test_round_trip_preserves_fractions(tmp_path):
    doc = dump_atlas(builtin("a1"))
    doc["self_intersections"] = {doc["components"][0]: "-3/2"}
    atlas = load_atlas(doc)
    assert list(atlas.self_intersections.values()) == [Fraction(-3, 2)]
    p = tmp_path / "x.atlas.json"
    p.write_text(dumps_atlas(atlas), encoding="utf-8")
    assert read_atlas(p) == atlas


def test_synthetic_atlases_validate():
    rng = Random(424242)
    for _ in range(30):
        a = random_atlas(rng)
        report = validate_atlas(a)
        assert report.ok, f"d={a.dimension} comps={a.components}: {report}"


# ---------------------------------------------------------------------------
# Structural accessors
# ---------------------------------------------------------------------------

def test_subset_bookkeeping():
    a = builtin("gm_times_a1")
    subs = a.declared_subsets()
    assert subs[0] == ()
    assert a.depth() == 2
    assert [len(s) for s in subs] == sorted(len(s) for s in subs)
    for s in a.subsets_of_size(2):
        assert a.e(s) == a.dimension - 2
    assert a.connected
    assert a.stratum(("nope",)) is None
    assert a.pure_at(("nope",), 0) == ZERO_OBJECT
    assert a.pairing_at(("nope",), 0).shape == (0, 0)


def test_restriction_matrix_defaults_to_zero():
    a = builtin("a1")
    (z,) = a.subsets_of_size(1)
    m = a.restriction_matrix((), z, 5)  # degree with no declared matrix
    assert m.is_zero()
    assert m.shape == (a.pure_at(z, 5).dim, a.pure_at((), 5).dim)


def test_omitted_trailing_restriction_degrees_give_the_same_atlas(tmp_path, monkeypatch, capsys):
    full = dump_atlas(builtin("pn_minus_hyperplane", n=2))
    cut = copy.deepcopy(full)
    (restriction,) = cut["restrictions"]
    assert restriction["matrices"] == [[["1"]], [], [["1"]], [], []]
    restriction["matrices"] = restriction["matrices"][:3]
    a, b = load_atlas(full), load_atlas(cut)
    assert a == b
    assert dumps_atlas(a) == dumps_atlas(b)
    assert atlas_hash(a) == atlas_hash(b)
    assert atlas_hash(b).startswith("sha256:864f7e6b")
    monkeypatch.chdir(tmp_path)
    reports = []
    for doc in (full, cut):
        (tmp_path / "x.atlas.json").write_text(json.dumps(doc), encoding="utf-8")
        assert main(["compute", "x.atlas.json", "--what", "all"]) == 0
        reports.append(capsys.readouterr())
    assert reports[0] == reports[1]


def test_a_short_restriction_list_round_trips():
    a = builtin("a1")
    short = StratumAtlas(
        a.dimension, a.components, a.strata,
        {pair: mats[:1] for pair, mats in a.restrictions.items()})
    assert short == a
    assert loads_atlas(dumps_atlas(short)) == short
    for (src, dst), mats in short.restrictions.items():
        assert len(mats) == len(a.strata[src].cohomology)
        for k, m in enumerate(mats):
            assert m.shape == (a.pure_at(dst, k).dim, a.pure_at(src, k).dim)


def test_an_empty_restriction_degree_keeps_its_finding():
    doc = dump_atlas(builtin("surface_resolution"))
    (restriction,) = [r for r in doc["restrictions"] if (r["from"], r["to"]) == ([], ["E1"])]
    restriction["matrices"][0] = []
    assert [str(f) for f in validate_atlas(load_atlas(doc)).findings] == [
        "[RestrictionShape] Y->{E1}.matrices[0]: shape (0, 1), expected (1, 1)"]


def _built(doc) -> StratumAtlas:
    """The atlas of ``doc`` built with ``make_stratum`` and ``StratumAtlas``,
    passing ``Matrix.zeros(0, 0)`` wherever the document writes ``[]``."""
    def block(rows):
        return Matrix.from_rows(rows) if rows else Matrix.zeros(0, 0)

    d = doc["dimension"]
    strata = {
        tuple(st["subset"]): make_stratum(
            d - len(st["subset"]),
            [PureObject(k, [tuple(s) for s in slots]) if slots else ZERO_OBJECT
             for k, slots in enumerate(st["cohomology"])],
            [block(rows) for rows in st["pairings"]])
        for st in doc["strata"]
    }
    restrictions = {(tuple(r["from"]), tuple(r["to"])): [block(rows) for rows in r["matrices"]]
                    for r in doc["restrictions"]}
    return StratumAtlas(d, doc["components"], strata, restrictions)


def _a1_with(edit):
    doc = _doc()
    edit(doc["strata"][0], doc["restrictions"][0])
    return doc


# Each document leaves a block out; its builder twin passes Matrix.zeros(0, 0)
# for each [] and leaves out the same trailing degrees.
LEFT_OUT_BLOCKS = {
    # H^0 and H^2 of Y both nonzero: an empty pairing has no rows
    "pairing_with_both_sides": (
        lambda st, r: st["pairings"].__setitem__(0, []),
        ["[PairingShape] Y.pairing[0]: shape (0, 1), expected (1, 1)"]),
    # H^(2e-k) zero: an empty pairing is the zero block (dim H^k, 0)
    "pairing_without_a_dual": (
        lambda st, r: (st["cohomology"].__setitem__(2, []),
                       st["pairings"].__setitem__(0, []), st["pairings"].__setitem__(2, [])),
        ["[PoincareDuality] Y.H^0: h^(0,0) = 1 not mirrored by h^(1,1) in H^2",
         "[PairingNotPerfect] Y.pairing[0]: pairing matrix is not square invertible",
         "[PairingNotPerfect] Y.pairing[2]: pairing matrix is not square invertible"]),
    # degree 2 (already [] in the dump): H^2(Y) nonzero, H^2 of the point zero
    "restriction_degree_into_zero": (
        lambda st, r: r["matrices"].__setitem__(2, []), []),
    # degree 0 from a zero H^0(Y): the empty block stays 0x0, is misshaped
    # against the point's H^0 and, having no rows, has no unit rows to check
    "restriction_degree_from_zero": (
        lambda st, r: (st["cohomology"].__setitem__(0, []), r["matrices"].__setitem__(0, [])),
        ["[PoincareDuality] Y.H^2: h^(1,1) = 1 not mirrored by h^(0,0) in H^0",
         "[PairingShape] Y.pairing[0]: shape (1, 1), expected (0, 1)",
         "[PairingShape] Y.pairing[2]: shape (1, 1), expected (1, 0)",
         "[RestrictionShape] Y->{Z}.matrices[0]: shape (0, 0), expected (1, 0)"]),
    "trailing_degrees": (
        lambda st, r: (r["matrices"].__delitem__(slice(1, None)),
                       st["pairings"].__delitem__(slice(2, None))),
        ["[PairingNotPerfect] Y.pairing[2]: pairing matrix is not square invertible"]),
}


@pytest.mark.parametrize("case", sorted(LEFT_OUT_BLOCKS))
def test_a_builder_and_a_document_leaving_out_a_block_agree(case):
    edit, findings = LEFT_OUT_BLOCKS[case]
    doc = _a1_with(edit)
    loaded, built = load_atlas(doc), _built(doc)
    assert built == loaded
    assert atlas_hash(built) == atlas_hash(loaded)
    assert [str(f) for f in validate_atlas(built).findings] == findings
    assert [str(f) for f in validate_atlas(loaded).findings] == findings


def test_left_out_blocks_are_completed_to_their_shapes():
    a = load_atlas(_a1_with(LEFT_OUT_BLOCKS["pairing_with_both_sides"][0]))
    assert [m.shape for m in a.stratum(()).pairings] == [(0, 1), (0, 0), (1, 1)]
    b = load_atlas(_a1_with(LEFT_OUT_BLOCKS["pairing_without_a_dual"][0]))
    assert [m.shape for m in b.stratum(()).pairings] == [(1, 0), (0, 0), (0, 1)]
    for edit in (LEFT_OUT_BLOCKS["restriction_degree_into_zero"][0],
                 LEFT_OUT_BLOCKS["trailing_degrees"][0]):
        (mats,) = _built(_a1_with(edit)).restrictions.values()
        assert [m.shape for m in mats] == [(1, 1), (0, 0), (0, 1)]


# ---------------------------------------------------------------------------
# Parse errors
# ---------------------------------------------------------------------------

def _doc(name="a1"):
    return dump_atlas(builtin(name))


def _perr(doc) -> ParseError:
    with pytest.raises(ParseError) as exc:
        load_atlas(doc)
    return exc.value


def test_truncated_json_reports_line_and_column():
    text = dumps_atlas(builtin("a1"))
    with pytest.raises(ParseError) as exc:
        loads_atlas(text[: len(text) // 2])
    assert "line" in str(exc.value) and "column" in str(exc.value)


def test_unknown_fields_rejected():
    doc = _doc()
    doc["flavour"] = "strawberry"
    assert "unknown fields" in str(_perr(doc))
    doc = _doc()
    doc["strata"][0]["extra"] = 1
    assert "unknown fields" in str(_perr(doc))


def test_missing_fields_rejected():
    doc = _doc()
    del doc["restrictions"]
    assert "missing field" in str(_perr(doc))


def test_subset_hygiene():
    doc = _doc("gm_times_a1")
    comps = doc["components"]
    # unsorted subset (relative to the declared component order)
    for st in doc["strata"]:
        if len(st["subset"]) == 2:
            st["subset"] = st["subset"][::-1]
            break
    assert "not sorted" in str(_perr(doc))

    doc = _doc()
    doc["strata"][1]["subset"] = ["martian"]
    assert "unknown component" in str(_perr(doc))

    doc = _doc()
    doc["strata"].append(copy.deepcopy(doc["strata"][1]))
    assert "duplicate stratum" in str(_perr(doc))

    doc = _doc()
    name = doc["components"][0]
    doc["strata"][1]["subset"] = [name, name]
    assert "repeated component" in str(_perr(doc))


def test_oversized_subset_rejected_at_parse():
    doc = _doc("gm_times_a1")
    doc["dimension"] = 1  # pairs of curves no longer fit
    assert "negative dimension" in str(_perr(doc))


def test_bad_scalars_rejected():
    doc = _doc()
    doc["strata"][0]["pairings"][0] = [["1/0"]]
    assert "bad rational" in str(_perr(doc))

    doc = _doc()
    doc["strata"][0]["pairings"][0] = [[1.5]]
    assert "expected rational" in str(_perr(doc))

    doc = _doc()
    doc["dimension"] = True
    assert "nonnegative integer" in str(_perr(doc))


@pytest.mark.parametrize("value", ["1e3", "1.5", "1_000", " 2 ", "+2", "2/", "1/-2", "٢"])
def test_rationals_follow_the_strict_grammar(value):
    doc = _doc()
    doc["strata"][0]["pairings"][0] = [[value]]
    assert _perr(doc).location == "strata[0].pairings[0][0][0]"


@pytest.mark.parametrize("value", [True, 1.0])
def test_a_value_equal_to_a_parsed_string_is_still_rejected(value):
    doc = _doc()
    assert doc["strata"][0]["pairings"][0] == [["1"]]  # "1" is parsed first
    doc["restrictions"][0]["matrices"][0] = [[value]]
    err = _perr(doc)
    assert err.location == "restrictions[0].matrices[0][0][0]"
    assert "expected rational" in err.message


def test_a_bad_string_used_twice_is_reported_at_its_first_use():
    doc = _doc()
    doc["strata"][0]["pairings"][0] = [["1", "2"], ["3", "1/0"]]
    doc["restrictions"][0]["matrices"][0] = [["1/0"]]
    err = _perr(doc)
    assert err.location == "strata[0].pairings[0][1][1]"
    assert "bad rational" in err.message


def test_integers_past_the_digit_limit_are_parse_errors():
    doc = _doc()
    doc["strata"][0]["pairings"][0] = [["1" * 5000]]
    assert "bad rational" in str(_perr(doc))
    text = dumps_atlas(builtin("a1")).replace('"dimension": 1', '"dimension": 1' + "0" * 5000)
    with pytest.raises(ParseError):
        loads_atlas(text)


def test_ragged_matrix_rejected():
    doc = _doc("low_dim_Z")
    for r in doc["restrictions"]:
        for m in r["matrices"]:
            if len(m) >= 1 and len(m[0]) >= 2:
                m[0] = m[0][:1]
                assert "ragged" in str(_perr(doc))
                return
    raise AssertionError("no wide matrix found to corrupt")


def test_bad_slot_rejected():
    doc = _doc()
    doc["strata"][0]["cohomology"][0] = [[0, 1]]  # weight 1 slot at degree 0
    assert "weight" in str(_perr(doc)).lower()


@pytest.mark.parametrize("bad", ["x", [0], True])
def test_a_malformed_slot_is_reported_before_an_earlier_off_weight_slot(bad):
    """Every slot of a degree is type-checked before any is weight-checked."""
    doc = _doc()
    doc["strata"][0]["cohomology"][0] = [[1, 0], bad]
    err = _perr(doc)
    assert (err.location, err.message) == ("strata[0].cohomology[0][1]",
                                           "slot must be a pair of integers")


def _set(container, key, value):
    container[key] = value


# One edit of gm_times_a1's document per place where load_atlas can refuse it
# (components L0, Linf, Minf; strata[4] is {L0,Minf}; restrictions[1] is
# Y->{Linf}), with the location and message recorded before the parser
# formatted its locations lazily.
PARSE_ERROR_SITES = [
    (lambda d: _set(d, "dimension", 1001), "dimension", "must be at most 1000"),
    (lambda d: d["components"].append("L0"), "components", "duplicate component names"),
    (lambda d: _set(d["strata"], 2, 5), "strata[2]", "stratum must be an object"),
    (lambda d: d["strata"][2].update(flavour=1, aroma=2), "strata[2]",
     "unknown fields: ['aroma', 'flavour']"),
    (lambda d: d["strata"][2].pop("pairings"), "strata[2]", "missing field 'pairings'"),
    (lambda d: _set(d["strata"][2], "subset", "Z1"), "strata[2].subset",
     "expected a list of component names"),
    (lambda d: _set(d["strata"][4]["subset"], 1, 7), "strata[4].subset[1]",
     "component names are strings"),
    (lambda d: _set(d["strata"][4]["subset"], 1, "Q"), "strata[4].subset[1]",
     "unknown component 'Q'"),
    (lambda d: _set(d["strata"][4], "subset", ["L0", "L0"]), "strata[4].subset",
     "repeated component in subset"),
    (lambda d: d["strata"][4]["subset"].reverse(), "strata[4].subset",
     "subset not sorted in components order"),
    (lambda d: d["strata"].append(dict(d["strata"][1])), "strata[6].subset",
     "duplicate stratum"),
    (lambda d: _set(d["strata"][1], "cohomology", {}), "strata[1].cohomology",
     "must be a list"),
    (lambda d: _set(d["strata"][1]["cohomology"], 2, 3), "strata[1].cohomology[2]",
     "expected a list of [p, q] slots"),
    (lambda d: d["strata"][0]["cohomology"][2].append([1, True]),
     "strata[0].cohomology[2][2]", "slot must be a pair of integers"),
    (lambda d: d["strata"][0]["cohomology"][2].append([2, 1]), "strata[0].cohomology[2]",
     "slot (2,1) does not lie on weight 2"),
    (lambda d: _set(d["strata"][1], "pairings", "x"), "strata[1].pairings",
     "must be a list"),
    (lambda d: _set(d["strata"][0]["pairings"], 2, "x"), "strata[0].pairings[2]",
     "expected a list of matrix rows"),
    (lambda d: _set(d["strata"][0]["pairings"][2], 0, 1), "strata[0].pairings[2][0]",
     "expected a row list"),
    (lambda d: d["strata"][0]["pairings"][2].append(["1", "0", "0"]),
     "strata[0].pairings[2][2]", "ragged matrix rows"),
    (lambda d: _set(d["strata"][0]["pairings"][2][0], 1, "1/0"),
     "strata[0].pairings[2][0][1]", "bad rational '1/0': Fraction(1, 0)"),
    (lambda d: _set(d["restrictions"], 1, []), "restrictions[1]",
     "restriction must be an object"),
    (lambda d: d["restrictions"][1].update(z=1), "restrictions[1]", "unknown fields: ['z']"),
    (lambda d: d["restrictions"][1].pop("to"), "restrictions[1]", "missing field 'to'"),
    (lambda d: d["restrictions"][1]["from"].append("Q"), "restrictions[1].from[0]",
     "unknown component 'Q'"),
    (lambda d: _set(d["restrictions"][1], "to", None), "restrictions[1].to",
     "expected a list of component names"),
    (lambda d: d["restrictions"].append(dict(d["restrictions"][1])), "restrictions[7]",
     "duplicate restriction pair"),
    (lambda d: _set(d["restrictions"][1], "matrices", 1), "restrictions[1].matrices",
     "must be a list"),
    (lambda d: _set(d["restrictions"][1]["matrices"][0][0], 0, 1.5),
     "restrictions[1].matrices[0][0][0]",
     "expected rational: an int, a Fraction or a p/q string, got float"),
    (lambda d: _set(d, "self_intersections", []), "self_intersections", "must be an object"),
    (lambda d: _set(d, "self_intersections", {"W": "1"}), "self_intersections.W",
     "unknown component"),
    (lambda d: _set(d, "self_intersections", {"L0": "x"}), "self_intersections.L0",
     "bad rational 'x': expected an integer or p/q"),
]


@pytest.mark.parametrize("edit, location, message", PARSE_ERROR_SITES)
def test_each_parse_error_keeps_its_location_and_message(edit, location, message):
    doc = _doc("gm_times_a1")
    edit(doc)
    err = _perr(doc)
    assert (err.location, err.message) == (location, message)
    assert str(err) == f"{location}: {message}"


def test_several_missing_fields_report_the_first_in_schema_order():
    """Not the first in the iteration order of a set of strings, which
    changes with the interpreter's hash seed."""
    doc = _doc()
    for field in ("pairings", "subset", "cohomology"):
        del doc["strata"][1][field]
    assert (_perr(doc).location, _perr(doc).message) == ("strata[1]", "missing field 'subset'")
    doc = _doc()
    for field in ("matrices", "from"):
        del doc["restrictions"][0][field]
    assert _perr(doc).message == "missing field 'from'"


# ---------------------------------------------------------------------------
# Validator findings, one per code
# ---------------------------------------------------------------------------

def _codes_of(doc) -> set:
    return validate_atlas(load_atlas(doc)).codes()


def test_finding_missing_subset_no_interior():
    doc = _doc()
    doc["strata"] = [st for st in doc["strata"] if st["subset"]]
    assert "MissingSubset" in _codes_of(doc)


def test_finding_missing_subset_downward_closure():
    doc = _doc("gm_times_a1")
    keep = None
    for st in doc["strata"]:
        if len(st["subset"]) == 2:
            keep = st["subset"][0]
    doc["strata"] = [
        st for st in doc["strata"] if st["subset"] != [keep]
    ]
    assert "MissingSubset" in _codes_of(doc)


def test_finding_unknown_component_and_bad_subset():
    base = builtin("a1")
    (z,) = base.subsets_of_size(1)
    weird = StratumAtlas(
        base.dimension, base.components,
        {(): base.stratum(()), ("martian",): base.stratum(z)},
        {},
    )
    assert "UnknownComponent" in validate_atlas(weird).codes()

    tagged = StratumAtlas(
        base.dimension, base.components, dict(base.strata),
        dict(base.restrictions), {"martian": Fraction(1)},
    )
    assert "UnknownComponent" in validate_atlas(tagged).codes()

    point = base.stratum(z)
    shallow = StratumAtlas(0, base.components, {(): point, z: point}, {})
    assert "BadSubset" in validate_atlas(shallow).codes()


def test_finding_degree_range():
    base = builtin("a1")
    (z,) = base.subsets_of_size(1)
    inflated = make_stratum(
        0,
        [PureObject(0, ((0, 0),)), ZERO_OBJECT, PureObject(2, ((1, 1),))],
        [Matrix(1, 1, [[1]])],
    )
    a = StratumAtlas(
        base.dimension, base.components,
        {(): base.stratum(()), z: inflated},
        dict(base.restrictions),
    )
    assert "DegreeRange" in validate_atlas(a).codes()


def test_finding_hodge_symmetry():
    doc = _doc()
    doc["strata"][0]["cohomology"][2] = [[2, 0]]
    assert "HodgeSymmetry" in _codes_of(doc)


def test_finding_poincare_duality():
    doc = _doc()
    doc["strata"][0]["cohomology"][2] = [[1, 1], [1, 1]]
    assert "PoincareDuality" in _codes_of(doc)


def test_finding_unit_check_wrong_h0():
    doc = _doc()
    doc["strata"][0]["cohomology"][0] = [[1, -1]]
    assert "UnitCheck" in _codes_of(doc)


def test_finding_unit_check_degree_zero_restriction():
    doc = _doc()
    doc["restrictions"][0]["matrices"][0] = [["2"]]
    assert "UnitCheck" in _codes_of(doc)


def test_finding_pairing_shape():
    doc = _doc()
    doc["strata"][0]["pairings"][0] = [["1"], ["1"]]
    assert "PairingShape" in _codes_of(doc)


def test_finding_pairing_not_perfect():
    doc = _doc()
    doc["strata"][0]["pairings"][0] = [["0"]]
    assert "PairingNotPerfect" in _codes_of(doc)


def test_a_singular_hodge_compatible_square_pairing_is_not_perfect():
    doc = {
        "dimension": 2,
        "components": [],
        "strata": [{
            "subset": [],
            "cohomology": [[[0, 0]], [], [[1, 1], [1, 1]], [], [[2, 2]]],
            "pairings": [[["1"]], [], [["1", "1"], ["1", "1"]], [], [["1"]]],
        }],
        "restrictions": [],
    }
    assert str(validate_atlas(load_atlas(doc))) == (
        "[PairingNotPerfect] Y.pairing[2]: pairing matrix is not square invertible")


def test_finding_pairing_hodge():
    doc = {
        "dimension": 2,
        "components": [],
        "strata": [{
            "subset": [],
            "cohomology": [[[0, 0]], [], [[0, 2], [2, 0]], [], [[2, 2]]],
            "pairings": [
                [["1"]], [],
                [["1", "0"], ["0", "1"]],  # pairs (0,2) with (0,2): forbidden
                [], [["1"]],
            ],
        }],
        "restrictions": [],
    }
    codes = _codes_of(doc)
    assert "PairingHodge" in codes
    fixed = copy.deepcopy(doc)
    fixed["strata"][0]["pairings"][2] = [["0", "1"], ["1", "0"]]
    assert _codes_of(fixed) == set()


def test_finding_bad_restriction():
    doc = _doc()
    z = doc["restrictions"][0]["to"]
    doc["restrictions"].append({"from": z, "to": z, "matrices": []})
    assert "BadRestriction" in _codes_of(doc)


def test_finding_restriction_shape():
    doc = _doc()
    doc["restrictions"][0]["matrices"][0] = [["1"], ["0"]]
    assert "RestrictionShape" in _codes_of(doc)


ODD_SURFACE_DOC = {
    "dimension": 2,
    "components": ["E"],
    "strata": [
        {
            "subset": [],
            "cohomology": [
                [[0, 0]],
                [[0, 1], [1, 0]],
                [[0, 2], [1, 1], [2, 0]],
                [[1, 2], [2, 1]],
                [[2, 2]],
            ],
            "pairings": [
                [["1"]],
                [["0", "1"], ["1", "0"]],
                [["0", "0", "1"], ["0", "1", "0"], ["1", "0", "0"]],
                [["0", "-1"], ["-1", "0"]],
                [["1"]],
            ],
        },
        {
            "subset": ["E"],
            "cohomology": [[[0, 0]], [[0, 1], [1, 0]], [[1, 1]]],
            "pairings": [
                [["1"]],
                [["0", "1"], ["-1", "0"]],
                [["1"]],
            ],
        },
    ],
    "restrictions": [
        {
            "from": [],
            "to": ["E"],
            "matrices": [
                [["1"]],
                [["1", "0"], ["0", "1"]],
                [["0", "1", "0"]],
            ],
        }
    ],
}


def test_odd_cohomology_base_document_is_valid():
    assert _codes_of(copy.deepcopy(ODD_SURFACE_DOC)) == set()


def test_finding_restriction_blocks():
    doc = copy.deepcopy(ODD_SURFACE_DOC)
    # Degree-2 restriction now sends the (0,2) line to the (1,1) line.
    doc["restrictions"][0]["matrices"][2] = [["1", "0", "0"]]
    a = load_atlas(doc)
    (finding,) = [f for f in validate_atlas(a).findings if f.code == "RestrictionBlocks"]
    assert finding.where == "Y->{E}.matrices[2]"
    with pytest.raises(DimensionError) as exc:  # the detail is the splitter's message
        PureMorphism.from_full_matrix(a.pure_at((), 2), a.pure_at(("E",), 2),
                                      a.restrictions[((), ("E",))][2],
                                      where="restriction []->['E'] degree 2")
    assert finding.detail == str(exc.value)


def test_finding_missing_restriction():
    doc = _doc()
    doc["restrictions"] = []
    assert "MissingRestriction" in _codes_of(doc)


def _missing_restrictions_by_double_loop(a):
    """The adjacency check as a loop over all pairs of declared strata."""
    return [
        f"{_subset_name(subset)}->{_subset_name(other)}"
        for subset in a.declared_subsets()
        for other in a.declared_subsets()
        if len(other) == len(subset) + 1 and set(subset) < set(other)
        and (subset, other) not in a.restrictions
    ]


def _without(a, dropped):
    kept = {pair: m for pair, m in a.restrictions.items() if pair not in dropped}
    return StratumAtlas(a.dimension, a.components, dict(a.strata), kept,
                        a.self_intersections)


def test_missing_restrictions_match_the_double_loop(corpus):
    rng = Random(4242)
    atlases = list(corpus.values()) + [random_atlas(rng) for _ in range(20)]
    removed = 0
    for a in atlases:
        pairs = sorted(a.restrictions, key=lambda p: (a.subset_key(p[0]), a.subset_key(p[1])))
        cases = [a]
        if pairs:
            cases.append(_without(a, {rng.choice(pairs)}))
            cases.append(_without(a, set(rng.sample(pairs, rng.randint(1, len(pairs))))))
        for b in cases:
            found = [f.where for f in validate_atlas(b).findings
                     if f.code == "MissingRestriction"]
            assert found == _missing_restrictions_by_double_loop(b), b
            removed += bool(found)
    assert removed >= 20  # the removals are seen, not just the valid atlases


def test_finding_square_incompatible():
    doc = _doc("gm_times_a1")
    pairs = [r for r in doc["restrictions"] if len(r["to"]) == 2]
    assert pairs
    pairs[0]["matrices"][0] = [["-1"]]
    assert "SquareIncompatible" in _codes_of(doc)


def _square_findings_by_double_loop(a):
    """The square check as a loop over each declared S and each pair of other
    components, skipping a degree where one of the four matrices is misshaped."""
    def misshaped(src, dst, k):
        mats = a.restrictions[(src, dst)]
        if k >= len(mats):
            return False
        m, want = mats[k], (a.pure_at(dst, k).dim, a.pure_at(src, k).dim)
        return m.shape != want and not (m.rows == 0 and m.cols == 0 and want[0] == 0)

    found = []
    for subset in a.declared_subsets():
        comps = [c for c in a.components if c not in subset]
        for x in range(len(comps)):
            for y in range(x + 1, len(comps)):
                si, sj, sij = (tuple(sorted(subset + extra, key=a.components.index))
                               for extra in ((comps[x],), (comps[y],), (comps[x], comps[y])))
                paths = [(subset, si), (si, sij), (subset, sj), (sj, sij)]
                if not (si in a.strata and sj in a.strata and sij in a.strata
                        and all(p in a.restrictions for p in paths)):
                    continue
                for k in range(2 * a.e(subset) + 1):
                    if any(misshaped(*p, k) for p in paths):
                        continue
                    one = a.restriction_matrix(si, sij, k) * a.restriction_matrix(subset, si, k)
                    two = a.restriction_matrix(sj, sij, k) * a.restriction_matrix(subset, sj, k)
                    if one != two:
                        found.append(Finding(
                            "SquareIncompatible",
                            f"{_subset_name(subset)}->{_subset_name(sij)}.degree[{k}]",
                            "the two restriction paths disagree"))
                        break
    return found


def _with_matrix(a, pair, k, m):
    mats = list(a.restrictions[pair])
    mats[k] = m
    return StratumAtlas(a.dimension, a.components, dict(a.strata),
                        {**a.restrictions, pair: tuple(mats)}, a.self_intersections)


def _broken(a, rng):
    """One nonzero restriction entry doubled, or None if every entry is zero."""
    cells = [(pair, k, i, j) for pair, mats in a.restrictions.items()
             for k, m in enumerate(mats) for i, row in enumerate(m.entries())
             for j, x in enumerate(row) if x]
    if not cells:
        return None
    pair, k, i, j = rng.choice(sorted(cells, key=repr))
    rows = a.restrictions[pair][k].to_lists()
    rows[i][j] *= 2
    return _with_matrix(a, pair, k, Matrix.from_rows(rows))


def _reshaped(a, rng, pair):
    """One matrix of ``pair`` with a zero row or a zero column appended."""
    k = rng.randrange(len(a.restrictions[pair]))
    m = a.restrictions[pair][k]
    grown = (m.vstack(Matrix.zeros(1, m.cols)) if rng.random() < 0.5
             else m.hstack(Matrix.zeros(m.rows, 1)))
    return _with_matrix(a, pair, k, grown)


def test_squares_match_the_double_loop(corpus):
    rng = Random(4343)
    atlases = list(corpus.values()) + [random_atlas(rng) for _ in range(20)] + [
        kunneth(random_boundary_atlas(rng, rng.randint(1, 2), rng.randint(1, 2)),
                random_boundary_atlas(rng, 1, rng.randint(1, 2)))
        for _ in range(20)
    ]
    # Doubling the degree-0 maps Y->A.Z1 and Y->B.Z1 breaks the squares up to
    # {A.Z1,B.Z2} and {A.Z2,B.Z1} but not {A.Z1,B.Z1}: their order shows.
    crossed = kunneth(random_boundary_atlas(rng, 1, 2), random_boundary_atlas(rng, 1, 2))
    for comp in ("A.Z1", "B.Z1"):
        crossed = _with_matrix(crossed, ((), (comp,)), 0, Matrix.from_rows([[2]]))
    atlases.append(crossed)
    fired = reshaped = 0
    for a in atlases:
        pairs = sorted(a.restrictions, key=lambda p: (a.subset_key(p[0]), a.subset_key(p[1])))
        twice = _broken(a, rng)
        cases = [a, twice, twice and _broken(twice, rng)]
        if pairs:
            cases.append(_without(a, {rng.choice(pairs)}))
            cases.append(_reshaped(a, rng, rng.choice(pairs)))
        for b in filter(None, cases):
            findings = validate_atlas(b).findings
            found = [f for f in findings if f.code == "SquareIncompatible"]
            assert found == _square_findings_by_double_loop(b), b
            fired += bool(found)
            reshaped += any(f.code == "RestrictionShape" for f in findings)
    assert fired >= 10 and reshaped >= 30  # the mutations are seen


def test_validation_of_many_components_is_quick():
    a = builtin("points_in_proper", points=300)
    start = time.perf_counter()
    assert validate_atlas(a).ok
    assert time.perf_counter() - start < 2.0


def _counting_inverses(monkeypatch) -> list:
    """Record each matrix the atlas layer inverts."""
    inverted = []
    real = absix.atlas.inverse

    def counted(m):
        inverted.append(m)
        return real(m)

    monkeypatch.setattr(absix.atlas, "inverse", counted)
    return inverted


def test_validation_inverts_no_pairing(monkeypatch):
    inverted = _counting_inverses(monkeypatch)
    rng = Random(1100)
    atlases = [builtin(name) for name in corpus_names()]
    atlases += [random_atlas(rng) for _ in range(12)]
    atlases.append(builtin("points_in_proper", points=300))
    for a in atlases:
        assert validate_atlas(a).ok
    assert inverted == []


def test_a_full_report_inverts_each_pairing_the_gysin_complexes_read_once(monkeypatch, capsys):
    """The Gysin complexes are written in the basis dual to the restriction
    spots, so the only inverses read are Y's, each degree at most once."""
    inverted = _counting_inverses(monkeypatch)
    validated, read = [], []
    real_validate, real = absix.atlas.validate_atlas, StratumData.pairing_inverse

    def validate(a):
        validated.append(a)
        return real_validate(a)

    def recorded(self, k):
        read.append((self, k, sys._getframe(1).f_code.co_name))
        return real(self, k)

    monkeypatch.setattr(absix.atlas, "validate_atlas", validate)
    monkeypatch.setattr(StratumData, "pairing_inverse", recorded)
    reads = 0
    for name in corpus_names():
        validated.clear()
        inverted.clear()
        read.clear()
        assert main(["compute", "@" + name, "--what", "all"]) == 0
        capsys.readouterr()
        assert {caller for _, _, caller in read} <= {"gysin_complex"}
        y = validated[0].stratum(())
        assert all(st is y for st, _, _ in read), name
        degrees = [k for _, k, _ in read]
        assert len(degrees) == len(set(degrees)) == len(inverted), name
        reads += len(read)
    assert reads  # the gysin complexes do read inverses


def test_require_valid_raises_with_findings():
    doc = _doc()
    doc["strata"][0]["pairings"][0] = [["0"]]
    bad = load_atlas(doc)
    with pytest.raises(InvalidAtlas) as exc:
        require_valid(bad)
    assert "PairingNotPerfect" in str(exc.value)
    require_valid(builtin("a1"))  # must not raise
