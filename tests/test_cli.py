"""End-to-end tests for the ``absix`` command-line interface.

Everything drives ``absix.cli.main`` in-process (plus one subprocess smoke
test), asserting exit codes, stream routing, and byte-level determinism.
"""

import argparse
import json
import os
import re
import subprocess
import sys
import time
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import absix
from absix import __version__, factor, qmat, wss
from absix.absic import (
    absolute_ic,
    boundary_cohomology,
    compact_table,
    plain_table,
)
from absix.atlas import MAX_DIMENSION, dump_atlas, dumps_atlas, read_atlas, validate_atlas
from absix.cli import atlas_hash, build_report, dumps_json, main, report_json
from absix.corpus import ALIASES, CATALOGUE, MAX_N, MAX_POINTS, builtin, corpus_names
from absix.plus import ih_one_point

# Two disjoint projective lines: structurally valid but disconnected, so the
# one-point compactification table must be refused.
DISCONNECTED_DOC = {
    "dimension": 1,
    "components": ["P"],
    "strata": [
        {
            "subset": [],
            "cohomology": [[[0, 0], [0, 0]], [], [[1, 1], [1, 1]]],
            "pairings": [
                [["1", "0"], ["0", "1"]], [],
                [["1", "0"], ["0", "1"]],
            ],
        },
        {"subset": ["P"], "cohomology": [[[0, 0]]], "pairings": [[["1"]]]},
    ],
    "restrictions": [
        {"from": [], "to": ["P"], "matrices": [[["1", "0"]]]}
    ],
}


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def _write_doc(tmp_path, doc, name="case.atlas.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc), encoding="utf-8")
    return str(path)


def _broken_pairing_doc():
    doc = dump_atlas(builtin("a1"))
    stratum = next(s for s in doc["strata"] if s["subset"] == [])
    stratum["pairings"][0] = [["0"]]
    return doc


def _expect_json_table(t):
    return {
        "kind": t.kind,
        "byDegree": {
            str(n): {
                str(w): {
                    f"{p},{q}": k for (p, q), k in obj.hodge_numbers().items()
                }
                for w, obj in t.degree(n).pieces
            }
            for n in t.degrees()
        },
    }


# ---------------------------------------------------------------------------
# validate
# ---------------------------------------------------------------------------

def test_validate_accepts_every_builtin_text(tmp_path, capsys):
    for name in corpus_names() + sorted(ALIASES):
        path = tmp_path / f"{name}.atlas.json"
        path.write_text(dumps_atlas(builtin(name)), encoding="utf-8")
        code, out, err = run_cli(capsys, "validate", str(path))
        assert (code, out, err) == (0, "atlas valid\n", ""), name


def test_validate_prints_findings_and_fails(tmp_path, capsys):
    path = _write_doc(tmp_path, _broken_pairing_doc())
    code, out, err = run_cli(capsys, "validate", path)
    assert code == 1
    assert "PairingNotPerfect" in out
    assert "atlas valid" not in out


def test_validate_missing_file_is_io_error(tmp_path, capsys):
    code, out, err = run_cli(capsys, "validate", str(tmp_path / "nope.json"))
    assert code == 2
    assert "cannot read" in err
    assert out == ""


def _indented(doc) -> str:
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


def test_validate_json_of_a_valid_atlas(tmp_path, capsys):
    path = tmp_path / "gm.atlas.json"
    path.write_text(dumps_atlas(builtin("gm")), encoding="utf-8")
    code, out, err = run_cli(capsys, "validate", str(path), "--format", "json")
    assert (code, err) == (0, "")
    assert out == _indented(
        {"schema": 1, "atlasName": str(path), "valid": True, "findings": []})


def test_validate_json_lists_the_findings_the_text_prints(tmp_path, capsys):
    path = _write_doc(tmp_path, _broken_pairing_doc())
    findings = validate_atlas(read_atlas(path)).findings
    assert findings
    code, out, err = run_cli(capsys, "validate", path, "--format", "json")
    assert (code, err) == (1, "")
    assert out == _indented({
        "schema": 1, "atlasName": path, "valid": False,
        "findings": [{"code": f.code, "where": f.where, "detail": f.detail}
                     for f in findings],
    })
    assert run_cli(capsys, "validate", path) == (
        1, "".join(f"{f}\n" for f in findings), "")


def test_validate_json_of_an_unreadable_file_is_the_text_error(tmp_path, capsys):
    missing, garbled = tmp_path / "nope.json", tmp_path / "bad.json"
    garbled.write_bytes(b'{"dimension": 1,')
    for path in (missing, garbled):
        text = run_cli(capsys, "validate", str(path))
        assert run_cli(capsys, "validate", str(path), "--format", "json") == text
        assert text[:2] == (2, "") and text[2].count("\n") == 1
    assert text[2].startswith("parse error at line 1, column 17")


def _with_pairing_entry(value: str) -> bytes:
    doc = dump_atlas(builtin("gm"))
    doc["strata"][0]["pairings"][0][0][0] = value
    return json.dumps(doc).encode()


def test_validate_malformed_json_is_parse_error(tmp_path, capsys):
    path = tmp_path / "bad.json"
    huge = b"9" * (sys.get_int_max_str_digits() + 1)
    entry = re.escape("strata[0].pairings[0][0][0]")
    for data, location in [
        (b'{"dimension": 1,', r"line 1, column 17"),
        (b"\xff\xfe\x00garbage", r"byte 0"),   # not UTF-8
        # Nested too deeply: the location is the first bracket past the limit.
        (b"[" * 100000 + b"]" * 100000, f"line 1, column {sys.getrecursionlimit() + 1}"),
        # An integer past the digit limit: the location is its first digit,
        # not a digit inside a string that comes first.
        (b'{"d": "' + huge + b'",\n "x": [1.5e3, -' + huge + b"]}", r"line 2, column 16"),
        # Rational strings past the digit limit or outside the grammar: the
        # message quotes only the start of the value.
        (_with_pairing_entry("1" * 5000), entry),
        (_with_pairing_entry("1.5" * 2000), entry),
    ]:
        path.write_bytes(data)
        for command in ("validate", "compute"):
            code, out, err = run_cli(capsys, command, str(path))
            assert (code, out) == (2, ""), (command, data[:16])
            assert re.match(f"parse error at {location}: ", err), (command, err)
            assert err.count("\n") == 1 and len(err) < 300, (command, err[:300])


def test_document_level_parse_errors_name_the_document(tmp_path, capsys):
    doc = dump_atlas(builtin("gm"))
    del doc["dimension"]
    for data, message in [
        ([doc], "atlas document must be an object"),
        ({**dump_atlas(builtin("gm")), "extra": 1}, "unknown fields: ['extra']"),
        (doc, "missing field 'dimension'"),
    ]:
        path = _write_doc(tmp_path, data)
        for command in ("validate", "compute"):
            assert run_cli(capsys, command, path) == (
                2, "", f"parse error at document: {message}\n"), command


# ---------------------------------------------------------------------------
# compute: target resolution and error routing
# ---------------------------------------------------------------------------

def test_compute_corpus_reference_text_report(capsys):
    code, out, err = run_cli(capsys, "compute", "@a1")
    assert (code, err) == (0, "")
    assert out.startswith("atlas: a1\n")
    assert "hash: sha256:" in out
    assert "H^n(X), weight-graded [plain]" in out
    assert "absolute intersection cohomology H^n_!*(X) [absoluteIC]" in out
    assert "IH^n of the one-point compactification [onePointIC]" in out
    assert "weight criteria:" in out
    assert "verdict: true" in out
    assert "candidate comparison:" in out
    assert "matchesPlus: true" in out


def test_compute_unknown_corpus_name_is_domain_error(capsys):
    code, out, err = run_cli(capsys, "compute", "@no_such_atlas")
    assert code == 1
    assert err.startswith("error:")
    assert "no corpus atlas named" in err


def test_compute_bad_parameter_values_are_parse_errors(capsys):
    for value in ("two", "1_0", "+3", "\u0663"):  # U+0663 is Arabic-Indic three
        code, out, err = run_cli(capsys, "compute", f"@pn_minus_hyperplane(n={value})")
        assert (code, out) == (2, ""), value
        assert err.startswith("parse error at") and "must be an integer" in err
    code, _, err = run_cli(capsys, "compute", "@pn_minus_hyperplane(n=0)")
    assert code == 2
    assert err.startswith("parse error")
    code, _, err = run_cli(capsys, "compute", "@pn_minus_hyperplane(3)")
    assert code == 2
    assert "expected param=value" in err


def test_corpus_parameters_over_their_cap_are_parse_errors(capsys):
    for target, cap in (("@pn_minus_hyperplane(n=100000000)", MAX_N),
                        (f"@points_in_proper(points={MAX_POINTS + 1})", MAX_POINTS)):
        code, out, err = run_cli(capsys, "compute", target, "--what", "cohomology",
                                 "--degree", "0")
        assert (code, out) == (2, ""), target
        assert err.startswith("parse error at") and f"<= {cap}" in err
        assert err.count("\n") == 1
    code, out, _ = run_cli(capsys, "corpus")
    assert f"pn_minus_hyperplane(1<=n<={MAX_N}" in out
    assert f"points_in_proper(1<=points<={MAX_POINTS}" in out


def test_spellings_of_one_corpus_atlas_print_one_report(capsys):
    outputs = set()
    for target in ("@pn_minus_hyperplane(n=3)", "@pn_minus_hyperplane(n=03)",
                   "@pn_minus_hyperplane( n = 3 ,)"):
        code, out, err = run_cli(capsys, "compute", target, "--what", "absic",
                                 "--format", "json")
        assert (code, err) == (0, ""), target
        outputs.add(out)
    assert len(outputs) == 1
    assert json.loads(outputs.pop())["atlasName"] == "pn_minus_hyperplane(n=3)"
    bare = run_cli(capsys, "compute", "@gm")
    assert run_cli(capsys, "compute", "@gm()") == bare
    assert bare[1].startswith("atlas: gm\n")
    code, out, err = run_cli(capsys, "compute", "@pn_minus_hyperplane(n=2,n=3)")
    assert (code, out) == (2, "")
    assert err.startswith("parse error at") and "given twice" in err


def test_compute_unknown_parameter_name_is_domain_error(capsys):
    code, _, err = run_cli(capsys, "compute", "@a1(m=2)")
    assert code == 1
    assert "bad parameters" in err


def test_compute_missing_file_is_io_error(tmp_path, capsys):
    code, _, err = run_cli(capsys, "compute", str(tmp_path / "gone.json"))
    assert code == 2
    assert "cannot read" in err


def test_compute_invalid_atlas_file_is_domain_error(tmp_path, capsys):
    path = _write_doc(tmp_path, _broken_pairing_doc())
    code, out, err = run_cli(capsys, "compute", path)
    assert code == 1
    assert err.startswith("invalid atlas:")


def test_misshaped_square_matrix_is_a_finding_not_a_crash(tmp_path, capsys):
    doc = dump_atlas(builtin("surface_resolution"))
    (r,) = [r for r in doc["restrictions"] if (r["from"], r["to"]) == (["E1"], ["E1", "E2"])]
    r["matrices"][0] = [["1", "0"]]
    path = _write_doc(tmp_path, doc)
    code, out, err = run_cli(capsys, "validate", path)
    assert (code, err) == (1, "")
    assert out == ("[RestrictionShape] {E1}->{E1,E2}.matrices[0]: "
                   "shape (1, 2), expected (1, 1)\n")
    code, out, err = run_cli(capsys, "compute", path)
    assert (code, out) == (1, "")
    assert err.startswith("invalid atlas:") and "RestrictionShape" in err


def test_compute_ihplus_needs_connected_atlas(tmp_path, capsys):
    path = _write_doc(tmp_path, DISCONNECTED_DOC)
    code, out, err = run_cli(capsys, "compute", path, "--what", "ihplus")
    assert code == 1
    assert err == "error: the one-point table needs a connected X\n"
    # Other tables of the same atlas are still available.
    code, out, err = run_cli(capsys, "compute", path, "--what", "absic")
    assert (code, err) == (0, "")
    assert "[absoluteIC]" in out


def test_compute_parameterized_reference(capsys):
    code, out, err = run_cli(
        capsys, "compute", "@pn_minus_hyperplane(n=3)", "--format", "json",
        "--what", "absic",
    )
    assert (code, err) == (0, "")
    doc = json.loads(out)
    assert doc["atlasName"] == "pn_minus_hyperplane(n=3)"
    expected = _expect_json_table(absolute_ic(builtin("pn_minus_hyperplane", n=3)).table)
    assert doc["tables"] == {"absoluteIC": expected}


# ---------------------------------------------------------------------------
# compute: JSON report shape, agreement with the library, determinism
# ---------------------------------------------------------------------------

def test_json_report_shape_and_determinism(capsys):
    code, out, err = run_cli(capsys, "compute", "@gm", "--format", "json")
    assert (code, err) == (0, "")
    doc = json.loads(out)
    assert doc["schema"] == 1
    assert doc["atlasName"] == "gm"
    prov = doc["provenance"]
    assert prov["engine"] == f"absix {__version__}"
    assert re.fullmatch(r"sha256:[0-9a-f]{64}", prov["atlasHash"])
    assert prov["atlasHash"] == atlas_hash(builtin("gm"))
    # Canonical rendering: sorted keys, two-space indent, trailing newline.
    assert out == json.dumps(doc, indent=2, sort_keys=True) + "\n"
    assert set(doc["tables"]) == {
        "plain", "compactSupport", "absoluteIC", "boundary", "onePointIC",
    }
    assert "criteria" in doc and "comparison" in doc
    assert "dichotomy" not in doc  # verdict holds for gm
    code2, out2, err2 = run_cli(capsys, "compute", "@gm", "--format", "json")
    assert (code2, out2, err2) == (code, out, err)


@pytest.mark.parametrize("name", ["gm", "low_dim_Z", "gm_times_a1"])
def test_json_tables_agree_with_library(name, capsys):
    code, out, err = run_cli(capsys, "compute", f"@{name}", "--format", "json")
    assert (code, err) == (0, "")
    doc = json.loads(out)
    a = builtin(name)
    res = absolute_ic(a)
    assert doc["tables"]["plain"] == _expect_json_table(plain_table(a))
    assert doc["tables"]["compactSupport"] == _expect_json_table(compact_table(a))
    assert doc["tables"]["absoluteIC"] == _expect_json_table(res.table)
    assert doc["tables"]["boundary"] == _expect_json_table(boundary_cohomology(a))
    assert doc["tables"]["onePointIC"] == _expect_json_table(ih_one_point(a))


def test_json_dichotomy_appears_when_verdict_fails(capsys):
    code, out, err = run_cli(
        capsys, "compute", "@gm_times_a1", "--format", "json", "--what", "criteria",
    )
    assert (code, err) == (0, "")
    doc = json.loads(out)
    assert "tables" not in doc
    crit = doc["criteria"]
    assert crit["verdict"] is False
    assert crit["cond2ByDegree"] == [[0, True], [1, False]]
    assert crit["injectivityRoute"] == "via-weights"
    assert doc["dichotomy"]["mode"] == "general"
    assert doc["dichotomy"]["horn"] == "i"
    assert doc["dichotomy"]["degrees"] == [1, 3]


# ---------------------------------------------------------------------------
# The JSON writer: json.dumps(doc, indent=2, sort_keys=True), in one pass
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("item", [item.name for item in CATALOGUE])
def test_writer_matches_json_on_every_corpus_report(item):
    a = builtin(item)
    for degree in (None, 1):
        doc = report_json(build_report(a, item, "all", degree))
        assert dumps_json(doc) == json.dumps(doc, indent=2, sort_keys=True), degree


_AWKWARD = st.sampled_from(['"', "\\", "\x00", "\x1f", "\x7f", "\n", "\t", "é", "€",
                            "\U0001f600", "\ud800", "a", "/"])
_LEAVES = (st.none() | st.booleans() | st.integers()
           | st.integers(10 ** 299, 10 ** 300 - 1) | st.integers(-(10 ** 300) + 1, -(10 ** 299))
           | st.text() | st.text(_AWKWARD))
_DOCS = st.recursive(
    _LEAVES,
    lambda inner: (st.lists(inner, max_size=4)
                   | st.dictionaries(st.text(max_size=4) | st.text(_AWKWARD, max_size=4),
                                     inner, max_size=4)),
    max_leaves=40,
)


@given(_DOCS)
@settings(max_examples=300, deadline=None)
def test_writer_matches_json_on_nested_documents(doc):
    assert dumps_json(doc) == json.dumps(doc, indent=2, sort_keys=True)


def test_a_non_ascii_atlas_path_is_escaped(tmp_path, capsys):
    path = tmp_path / "gm-\u00e9t\u00e9-\u20ac.atlas.json"
    path.write_text(dumps_atlas(builtin("gm")), encoding="utf-8")
    for command in ("compute", "validate"):
        code, out, err = run_cli(capsys, command, str(path), "--format", "json")
        assert (code, err) == (0, ""), command
        assert out.isascii() and "\\u00e9t\\u00e9-\\u20ac" in out, command
        doc = json.loads(out)
        assert doc["atlasName"] == str(path) and out == _indented(doc), command


@pytest.mark.parametrize("bad", [1.5, (1, 2), {1: 0}, {"a": 0, 2: 0}, [{"b": float("nan")}],
                                 {"c": {"d": [frozenset()]}}])
def test_a_value_json_would_write_its_own_way_exits_3(bad, monkeypatch, capsys):
    monkeypatch.setattr("absix.cli.report_json", lambda report: {"schema": 1, "x": bad})
    code, out, err = run_cli(capsys, "compute", "@a1", "--format", "json")
    assert (code, out) == (3, "")
    assert err.startswith("internal error (a bug in absix): cannot write a ")
    assert err.count("\n") == 1


def test_a_json_report_never_runs_the_python_encoder(monkeypatch, capsys):
    """Up to CPython 3.12, json.dumps with an indent builds its pure-Python
    encoder; a report is written without it, to the same bytes."""
    assert main(["compute", "@gm", "--format", "json"]) == 0
    want = capsys.readouterr()

    def refuse(*args, **kwargs):
        raise RuntimeError("the pure-Python JSON encoder ran")

    monkeypatch.setattr(json.encoder, "_make_iterencode", refuse)
    assert main(["compute", "@gm", "--format", "json"]) == 0
    assert capsys.readouterr() == want


def test_what_selects_tables(capsys):
    for what, expected in [
        ("cohomology", {"plain", "compactSupport"}),
        ("absic", {"absoluteIC"}),
        ("boundary", {"boundary"}),
        ("ihplus", {"onePointIC"}),
    ]:
        code, out, err = run_cli(
            capsys, "compute", "@a1", "--format", "json", "--what", what,
        )
        assert (code, err) == (0, ""), what
        doc = json.loads(out)
        assert set(doc["tables"]) == expected, what
        assert "criteria" not in doc, what


# The tables and report sections each selective --what renders.
SELECTIONS = {
    "cohomology": (("plain", "compactSupport"), ()),
    "absic": (("absoluteIC",), ()),
    "boundary": (("boundary",), ()),
    "ihplus": (("onePointIC",), ()),
    "criteria": ((), ("criteria", "dichotomy")),
}


@pytest.mark.parametrize("item", [item.name for item in CATALOGUE])
def test_selective_what_equals_the_matching_part_of_all(item, capsys):
    code, out, err = run_cli(capsys, "compute", f"@{item}", "--format", "json")
    assert (code, err) == (0, "")
    full = json.loads(out)
    for what, (tables, sections) in SELECTIONS.items():
        code, out, err = run_cli(
            capsys, "compute", f"@{item}", "--format", "json", "--what", what,
        )
        assert (code, err) == (0, ""), what
        expected = {k: full[k] for k in ("schema", "atlasName", "provenance") + sections
                    if k in full}
        if tables:
            expected["tables"] = {t: full["tables"][t] for t in tables}
        assert json.loads(out) == expected, what


def test_cohomology_runs_no_absolute_ic(monkeypatch, capsys):
    # Criteria, comparison and dichotomy all rest on CH(u_n), whose parts
    # are read off the ranks of u_n.
    def refuse(*args):
        raise AssertionError("--what cohomology must not rank u_n")

    monkeypatch.setattr("absix.absic.ch_parts", refuse)
    code, out, err = run_cli(capsys, "compute", "@gm_times_a1", "--what", "cohomology")
    assert (code, err) == (0, "")
    assert "[plain]" in out and "[compactSupport]" in out


def _record_calls(monkeypatch, name, original) -> list:
    """Record the arguments of each call of ``original``, under ``name`` in
    every absix module that binds it."""
    calls = []

    def recording(*args):
        calls.append(args)
        return original(*args)

    for module_name, module in sorted(sys.modules.items()):
        if module_name.startswith("absix") and getattr(module, name, None) is original:
            monkeypatch.setattr(module, name, recording)
    return calls


def _corpus_files(tmp_path) -> list:
    """(path, dimension) of each corpus atlas, written out, so that a request
    reads a file as the benchmark's do and builds nothing."""
    files = []
    for name in corpus_names():
        a = builtin(name)
        path = tmp_path / f"{name}.atlas.json"
        path.write_text(dumps_atlas(a), encoding="utf-8")
        files.append((str(path), a.dimension))
    return files


@pytest.mark.parametrize("fmt", ["text", "json"])
def test_cohomology_builds_no_gysin_complex_and_inverts_nothing(fmt, monkeypatch, tmp_path,
                                                               capsys):
    # H^n_c is read off the restriction complexes, H^n is its Poincare dual
    files = _corpus_files(tmp_path)
    built = _record_calls(monkeypatch, "gysin_complex", wss.gysin_complex)
    inverted = _record_calls(monkeypatch, "inverse", qmat.inverse)
    for path, _ in files:
        code, out, err = run_cli(capsys, "compute", path, "--what", "cohomology", "--format", fmt)
        assert (code, err) == (0, ""), path
    assert built == [] and inverted == []


def test_ihplus_builds_the_gysin_complex_of_the_middle_degree_alone(monkeypatch, tmp_path,
                                                                    capsys):
    # u_d needs it; the other rows are H^n and H^n_c
    files = _corpus_files(tmp_path)
    built = _record_calls(monkeypatch, "gysin_complex", wss.gysin_complex)
    for path, d in files:
        built.clear()
        code, out, err = run_cli(capsys, "compute", path, "--what", "ihplus")
        assert (code, err) == (0, ""), path
        assert [w for _, w in built] == [d], path


def test_no_request_builds_the_ch_factorization(monkeypatch, tmp_path, capsys):
    # The reports print the parts of CH(u_n) alone, read off the ranks of u_n
    files = _corpus_files(tmp_path)
    built = _record_calls(monkeypatch, "ch_factorization", factor.ch_factorization)
    for path, _ in files:
        for fmt in ("text", "json"):
            code, out, err = run_cli(capsys, "compute", path, "--what", "all", "--format", fmt)
            assert (code, err) == (0, ""), path
    assert built == []


def test_the_boundary_deep_pool_projects_onto_no_cokernel(monkeypatch, capsys):
    # Each u_n there has a zero end in every label, so no block of it is built
    root = Path(__file__).resolve().parents[1]
    manifest = json.loads((root / "perfbench" / "inputs" / "manifest.json")
                          .read_text(encoding="utf-8"))
    spec = manifest["workloads"]["boundary_deep"]
    monkeypatch.chdir(root)  # the pool's atlas paths are root-relative
    projected = _record_calls(monkeypatch, "cokernel_projection", qmat.cokernel_projection)
    for atlas in spec["atlases"]:
        argv = [atlas if part == "{atlas}" else part for part in spec["kinds"][0]]
        code, out, err = run_cli(capsys, *argv)
        assert (code, err) == (0, ""), atlas
    assert projected == []


def test_failed_invariant_exits_3_without_traceback(monkeypatch, capsys):
    # A rank larger than the spot makes a homology count negative; main
    # returns (nothing escapes it) with exit code 3 and a one-line message.
    monkeypatch.setattr("absix.wss.rank", lambda m: m.rows + m.cols + 1)
    code, out, err = run_cli(capsys, "compute", "@gm", "--what", "cohomology")
    assert (code, out) == (3, "")
    assert err.startswith("internal error (a bug in absix): homology count negative")
    assert err.count("\n") == 1


@pytest.mark.parametrize("value", ["1e5000", "1.5", "1_000", " 2 "])
def test_rationals_outside_the_grammar_are_parse_errors(value, tmp_path, capsys):
    doc = dump_atlas(builtin("middle_dim_Z_selfint_zero"))
    doc["self_intersections"] = {"Z": value}
    path = _write_doc(tmp_path, doc)
    for command in ("validate", "compute"):
        code, out, err = run_cli(capsys, command, path)
        assert (code, out) == (2, ""), command
        assert err.startswith("parse error at self_intersections.Z: bad rational"), command


def test_degree_filter(capsys):
    code, out, err = run_cli(
        capsys, "compute", "@gm", "--format", "json", "--what", "cohomology",
        "--degree", "1",
    )
    assert (code, err) == (0, "")
    doc = json.loads(out)
    assert set(doc["tables"]["plain"]["byDegree"]) == {"1"}
    assert set(doc["tables"]["compactSupport"]["byDegree"]) == {"1"}
    # A degree with no classes renders as an explicitly zero table.
    code, out, err = run_cli(
        capsys, "compute", "@gm", "--what", "absic", "--degree", "7",
    )
    assert (code, err) == (0, "")
    assert "(zero)" in out


def test_criteria_text_for_failing_atlas(capsys):
    code, out, err = run_cli(capsys, "compute", "@gm_times_a1", "--what", "criteria")
    assert (code, err) == (0, "")
    assert "cond2 (boundary weights <= n for n <= d-1): false (fails at degrees 1)" in out
    assert "cond3 (boundary weights >= n+1 for n >= d): false (fails at degrees 2)" in out
    assert "injectivity range [via-weights]: 2:false" in out
    assert "verdict: false" in out
    assert "mode: general" in out
    assert "degrees: 1, 3" in out


def test_lefschetz_route_rendered_for_single_smooth_boundary(capsys):
    code, out, err = run_cli(
        capsys, "compute", "@middle_dim_Z_selfint_zero", "--what", "criteria",
    )
    assert (code, err) == (0, "")
    assert "lefschetz route (single smooth boundary): 2:false" in out
    assert "mode: exemplar" in out


# ---------------------------------------------------------------------------
# corpus listing and argument handling
# ---------------------------------------------------------------------------

def test_corpus_listing(capsys):
    code, out, err = run_cli(capsys, "corpus")
    assert (code, err) == (0, "")
    lines = out.splitlines()
    assert len(lines) == len(CATALOGUE) >= 8
    pattern = re.compile(r"^\w+(?:\(.*\))?  --  .+$")
    for line in lines:
        assert pattern.match(line), line
    names = {line.split("  --  ")[0].split("(")[0] for line in lines}
    assert {"gm", "gm_times_a1", "pn_minus_hyperplane", "surface_resolution"} <= names
    assert any(line.startswith("pn_minus_hyperplane(") for line in lines)


def test_usage_errors_exit_with_code_two(capsys):
    with pytest.raises(SystemExit) as exc:
        main([])
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        main(["compute", "@a1", "--what", "bogus"])
    assert exc.value.code == 2
    capsys.readouterr()


def _run_module(*argv, flags=()):
    """``python *flags -m absix.cli *argv`` in a child that imports this same package."""
    paths = [str(Path(absix.__file__).resolve().parents[1]), os.environ.get("PYTHONPATH")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, paths)))
    return subprocess.run([sys.executable, *flags, "-m", "absix.cli", *argv],
                          capture_output=True, text=True, timeout=120, env=env)


def test_calls_in_one_process_print_what_each_prints_alone(tmp_path, capsys, monkeypatch):
    path = _write_doc(tmp_path, dump_atlas(builtin("gm")))
    calls = [
        ["compute", "@gm", "--what", "bogus"],
        ["compute", "@gm", "--what", "absic", "--degree", "1"],
        ["compute", "@gm", "--what", "absic"],
        ["validate", path],
        ["corpus"],
    ]
    alone = []
    for argv in calls:
        proc = _run_module(*argv)
        alone.append((proc.returncode, proc.stdout, proc.stderr))
    assert [code for code, _, _ in alone] == [2, 0, 0, 0, 0]

    built = []

    class CountingParser(argparse.ArgumentParser):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            if self.prog == "absix":  # the top-level parser, not a subcommand's
                built.append(self)

    monkeypatch.setattr(argparse, "ArgumentParser", CountingParser)
    together = []
    for argv in calls:
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
        out, err = capsys.readouterr()
        together.append((code, out, err))
    assert together == alone
    assert len(built) <= 1


def test_module_is_runnable_as_script():
    proc = _run_module("corpus")
    assert proc.returncode == 0
    assert "  --  " in proc.stdout.splitlines()[0]


def test_optimized_interpreter_prints_the_same_report(capsys):
    argv = ("compute", "@surface_resolution", "--what", "all")
    proc = _run_module(*argv, flags=("-O",))
    assert (proc.returncode, proc.stdout, proc.stderr) == run_cli(capsys, *argv)


def _point_doc(d: int, full: bool) -> dict:
    """Y alone with H^0, and with H^2d too when ``full`` (then it validates)."""
    cohomology, pairings = [[[0, 0]]], [[["1"]]]
    if full:
        cohomology += [[]] * (2 * d - 1) + [[[d, d]]]
        pairings += [[]] * (2 * d - 1) + [[["1"]]]
    return {"dimension": d, "components": [], "restrictions": [],
            "strata": [{"subset": [], "cohomology": cohomology, "pairings": pairings}]}


def test_dimension_over_the_cap_is_a_parse_error(tmp_path, capsys):
    for d in (MAX_DIMENSION + 1, 10 ** 7):
        path = _write_doc(tmp_path, _point_doc(d, full=False))
        assert os.path.getsize(path) < 150
        start = time.perf_counter()
        for command in ("validate", "compute"):
            code, out, err = run_cli(capsys, command, path)
            assert (code, out) == (2, ""), (d, command)
            assert err == f"parse error at dimension: must be at most {MAX_DIMENSION}\n"
        assert time.perf_counter() - start < 0.5, d
    path = _write_doc(tmp_path, _point_doc(MAX_DIMENSION, full=True))
    start = time.perf_counter()
    assert run_cli(capsys, "validate", path) == (0, "atlas valid\n", "")
    assert time.perf_counter() - start < 10
