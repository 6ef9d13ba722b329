"""Atlas container, JSON round-trips, and the structural validator."""

import copy
import json
import pathlib
from fractions import Fraction
from random import Random

import pytest

import absix
from absix import Matrix
from absix.atlas import (
    StratumAtlas,
    dump_atlas,
    dumps_atlas,
    load_atlas,
    loads_atlas,
    make_stratum,
    read_atlas,
    require_valid,
    validate_atlas,
)
from absix.corpus import ALIASES, CATALOGUE, builtin
from absix.errors import InvalidAtlas, ParseError, UnknownCorpusItem
from absix.hodgecore import ZERO_OBJECT, pure

from synth import random_atlas

DATA_DIR = pathlib.Path(absix.__file__).parent / "corpus"


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


def test_shipped_files_equal_builtins():
    files = sorted(DATA_DIR.glob("*.atlas.json"))
    names = {f.name[: -len(".atlas.json")] for f in files}
    assert {item.name for item in CATALOGUE} <= names
    assert set(ALIASES) <= names
    for f in files:
        atlas = read_atlas(f)
        assert atlas == builtin(f.name[: -len(".atlas.json")])
        # Canonical serialization reproduces the shipped bytes exactly.
        assert dumps_atlas(atlas) == f.read_text(encoding="utf-8")


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
        [pure(0, ((0, 0),)), ZERO_OBJECT, pure(2, ((1, 1),))],
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
    assert "RestrictionBlocks" in _codes_of(doc)


def test_finding_missing_restriction():
    doc = _doc()
    doc["restrictions"] = []
    assert "MissingRestriction" in _codes_of(doc)


def test_finding_square_incompatible():
    doc = _doc("gm_times_a1")
    pairs = [r for r in doc["restrictions"] if len(r["to"]) == 2]
    assert pairs
    pairs[0]["matrices"][0] = [["-1"]]
    assert "SquareIncompatible" in _codes_of(doc)


def test_require_valid_raises_with_findings():
    doc = _doc()
    doc["strata"][0]["pairings"][0] = [["0"]]
    bad = load_atlas(doc)
    with pytest.raises(InvalidAtlas) as exc:
        require_valid(bad)
    assert "PairingNotPerfect" in str(exc.value)
    require_valid(builtin("a1"))  # must not raise
