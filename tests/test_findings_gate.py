"""Seeded value mutants of pairing and restriction matrices keep their findings.

Each mutant is one or two edits of a nonempty pairing or restriction matrix
of a corpus atlas document or of a seeded ``random_atlas`` draw: one entry
set to another of ``0, 1, -1, 2, 1/2, -3/4``, or two rows swapped.  Every
mutant goes through ``absix validate`` in-process, and one sha256 over every
exit code, stdout and stderr (the file path masked) is pinned.  Unlike the
structural mutants of ``test_fuzz``, these reach the validator's value
loops: perfection, Hodge compatibility of pairings, block-diagonal
restrictions, degree-0 unit rows and commuting squares.
"""

import copy
import hashlib
import json
from random import Random

from absix.atlas import dump_atlas
from absix.cli import main
from absix.corpus import builtin, corpus_names

from synth import random_atlas

MUTANTS = 1000
VALUES = ("0", "1", "-1", "2", "1/2", "-3/4")
# Recorded on the validator that inverted every pairing; the text of every
# finding, and their order, must not move.
DIGEST = "1ce86306ca6ea44b5faf79b64492fe68aaaec4aeed99ebda2b6616b3ce8ac753"
# Each value loop is reached by many mutants.
REACHED = ("PairingNotPerfect", "PairingHodge", "RestrictionBlocks", "UnitCheck",
           "SquareIncompatible")


def _documents() -> list:
    docs = [dump_atlas(builtin(name)) for name in corpus_names()]
    rng = Random(1100)
    docs += [dump_atlas(random_atlas(rng)) for _ in range(12)]
    return docs


def _matrices(doc) -> list:
    """Every nonempty pairing and restriction matrix of ``doc``, in document order."""
    mats = [m for st in doc["strata"] for m in st["pairings"]]
    mats += [m for r in doc["restrictions"] for m in r["matrices"]]
    return [m for m in mats if m and m[0]]


def _edit(rng, m):
    if len(m) > 1 and rng.random() < 0.25:
        i, j = rng.sample(range(len(m)), 2)
        m[i], m[j] = m[j], m[i]
    else:
        row = m[rng.randrange(len(m))]
        j = rng.randrange(len(row))
        row[j] = rng.choice([v for v in VALUES if v != row[j]])


def test_value_mutants_give_the_pinned_findings(tmp_path, capsys):
    rng = Random(2718)
    docs = _documents()
    path = tmp_path / "mutant.atlas.json"
    digest = hashlib.sha256()
    reached = dict.fromkeys(REACHED, 0)
    for _ in range(MUTANTS):
        doc = copy.deepcopy(rng.choice(docs))
        for _ in range(rng.randint(1, 2)):
            _edit(rng, rng.choice(_matrices(doc)))
        path.write_text(json.dumps(doc), encoding="utf-8")
        code = main(["validate", str(path)])
        out, err = capsys.readouterr()
        for text in (str(code), out, err):
            digest.update(text.replace(str(path), "<path>").encode() + b"\0")
        for c in reached:
            reached[c] += f"[{c}]" in out
    assert min(reached.values()) >= 30, reached
    assert digest.hexdigest() == DIGEST
