"""Seeded mutants of the corpus atlases end in a report or a located error.

Each mutant is one edit of a corpus atlas document: a field dropped,
duplicated or retyped, a subset's order swapped, a restriction dropped, a
huge or 5000-digit number, or a ``dimension`` over the cap.  It goes through
``absix validate`` and ``absix compute --what all`` in-process.  Every run
exits 0, 1 or 2 (never 3, the code of a failed internal invariant), no
exception escapes ``main``, exit 2 prints one ``parse error at`` line with a
non-empty location, and both commands give the same exit code.
"""

import copy
import json
import re
from random import Random

import pytest

from absix.atlas import MAX_DIMENSION, dump_atlas
from absix.cli import main
from absix.corpus import builtin, corpus_names

MUTANTS = 1000
HUGE = "1" * 5000
OTHER_TYPES = (None, True, 0, -1, 1.5, "x", "1/0", [], {}, [[]], [[0, 0]])


def _slots(node, out):
    """Every (container, key) pair under ``node``, depth first."""
    items = node.items() if isinstance(node, dict) else (
        enumerate(node) if isinstance(node, list) else ())
    for key, value in list(items):
        out.append((node, key))
        _slots(value, out)
    return out


def _drop(rng, doc):
    parent, key = rng.choice([s for s in _slots(doc, []) if isinstance(s[0], dict)])
    del parent[key]


def _duplicate(rng, doc):
    parent, key = rng.choice([s for s in _slots(doc, []) if isinstance(s[0], list)])
    parent.insert(key, copy.deepcopy(parent[key]))


def _retype(rng, doc):
    parent, key = rng.choice(_slots(doc, []))
    parent[key] = rng.choice([v for v in OTHER_TYPES if type(v) is not type(parent[key])])


def _swap_subset(rng, doc):
    subsets = [st["subset"] for st in doc["strata"] if len(st["subset"]) > 1]
    subsets += [r[end] for r in doc["restrictions"] for end in ("from", "to")
                if len(r[end]) > 1]
    (rng.choice(subsets) if subsets else doc["components"]).reverse()


def _drop_restriction(rng, doc):
    if doc["restrictions"]:
        doc["restrictions"].pop(rng.randrange(len(doc["restrictions"])))


def _huge_rational(rng, doc):
    parent, key = rng.choice([s for s in _slots(doc, []) if isinstance(s[0][s[1]], str)])
    parent[key] = rng.choice([HUGE, "-" + HUGE + "/7", "1/" + HUGE, "123456789" * 30])


def _huge_integer(rng, doc):
    parent, key = rng.choice([s for s in _slots(doc, []) if type(s[0][s[1]]) is int])
    parent[key] = rng.choice([HUGE, 10 ** 30, -(10 ** 30)])


def _dimension(rng, doc):
    doc["dimension"] = rng.choice([MAX_DIMENSION + 1, 10 ** 7])


EDITS = (_drop, _duplicate, _retype, _swap_subset, _drop_restriction, _huge_rational,
         _huge_integer, _dimension)


def _mutant_text(rng, docs) -> str:
    doc = copy.deepcopy(rng.choice(docs))
    rng.choice(EDITS)(rng, doc)
    # A 5000-digit JSON integer is written out by hand: it is past the
    # digit limit of int -> str, and the loader must refuse it as text.
    return json.dumps(doc).replace(f'"{HUGE}"', HUGE, 1 if rng.random() < 0.5 else 0)


def test_mutated_atlases_end_in_a_report_or_a_located_error(tmp_path, capsys):
    rng = Random(4711)
    docs = [dump_atlas(builtin(name)) for name in corpus_names()]
    path = tmp_path / "mutant.atlas.json"
    codes = {}
    for i in range(MUTANTS):
        text = _mutant_text(rng, docs)
        path.write_text(text, encoding="utf-8")
        seen = []
        for argv in (["validate", str(path)], ["compute", str(path), "--what", "all"]):
            try:
                code = main(argv)
            except Exception as exc:  # any exception out of main is the failure
                pytest.fail(f"mutant {i} {argv[0]}: {exc!r} escaped main; {text[:200]}")
            out, err = capsys.readouterr()
            assert code in (0, 1, 2), (i, argv[0], err[:300], text[:200])
            if code == 2:
                assert out == "" and re.fullmatch(r"parse error at [^:\n]+: [^\n]*\n", err), (
                    i, err)
            codes[argv[0], code] = codes.get((argv[0], code), 0) + 1
            seen.append(code)
        assert seen[0] == seen[1], (i, "compute refuses exactly what validate rejects")
    # The mutants reach every outcome of both commands.
    assert set(codes) == {(c, k) for c in ("validate", "compute") for k in (0, 1, 2)}, codes
