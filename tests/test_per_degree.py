"""The report is built one degree at a time.

Each table of ``compute`` is collected from per-degree pieces, so a
``--degree N`` request or the one-point table factorizes only the maps u_n
it prints, and a table built at one degree is the full table cut to it.
"""

from random import Random

import pytest

from absix.absic import (
    absolute_ic,
    boundary_cohomology,
    compact_table,
    plain_table,
)
from absix.atlas import dumps_atlas, load_atlas, loads_atlas
from absix.cli import build_report, main
from absix.corpus import builtin
from absix.errors import PreconditionViolated
from absix.factor import ch_factorization
from absix.hodgecore import table
from absix.plus import ih_one_point
from absix.wss import u_map

from synth import random_atlas
from test_cli import DISCONNECTED_DOC

# kind -> (the --what that prints it, the library's full table)
FULL = {
    "plain": ("cohomology", plain_table),
    "compactSupport": ("cohomology", compact_table),
    "absoluteIC": ("absic", lambda a: absolute_ic(a).table),
    "boundary": ("boundary", boundary_cohomology),
    "onePointIC": ("ihplus", ih_one_point),
}


@pytest.fixture
def factorized(monkeypatch):
    """The maps u handed to the CH factorization, in call order."""
    seen = []

    def counting(u):
        seen.append(u)
        return ch_factorization(u)

    monkeypatch.setattr("absix.absic.ch_factorization", counting)
    return seen


def _compute(capsys, *argv):
    code = main(["compute", "@gm_times_a1", *argv])
    assert (code, capsys.readouterr().err) == (0, "")


def test_one_degree_of_the_absolute_table_factorizes_one_map(factorized, capsys):
    a = builtin("gm_times_a1")
    for n in range(-1, 2 * a.dimension + 2):
        factorized.clear()
        _compute(capsys, "--what", "absic", "--degree", str(n))
        assert factorized == ([u_map(a, n)] if 0 <= n <= 2 * a.dimension else []), n


def test_one_boundary_degree_factorizes_u_n_and_u_next(factorized, capsys):
    a = builtin("gm_times_a1")
    for n in range(-1, 2 * a.dimension + 1):
        factorized.clear()
        _compute(capsys, "--what", "boundary", "--degree", str(n))
        expected = [u_map(a, n), u_map(a, n + 1)] if 0 <= n < 2 * a.dimension else []
        assert factorized == expected, n


def test_the_one_point_table_factorizes_only_the_middle_map(factorized, capsys):
    a = builtin("gm_times_a1")
    d = a.dimension
    _compute(capsys, "--what", "ihplus")
    assert factorized == [u_map(a, d)]
    for n in (d - 1, d, d + 1):
        factorized.clear()
        _compute(capsys, "--what", "ihplus", "--format", "json", "--degree", str(n))
        assert factorized == ([u_map(a, d)] if n == d else []), n
    factorized.clear()
    ih_one_point(builtin("gm_times_a1"))
    assert factorized == [u_map(a, d)]


def _cut(t, n):
    return table(t.kind, {n: t.degree(n)} if n in t.degrees() else {})


def test_each_degree_of_a_table_is_the_full_table_cut_to_it(corpus):
    rng = Random(2718)
    atlases = list(corpus.items()) + [(f"random-{i}", random_atlas(rng)) for i in range(20)]
    for name, a in atlases:
        kinds = [k for k in FULL if k != "onePointIC" or a.connected]
        whole = {kind: FULL[kind][1](a) for kind in kinds}
        for kind in kinds:
            assert build_report(a, name, FULL[kind][0]).tables[kind] == whole[kind]
        for n in range(-1, 2 * a.dimension + 2):
            fresh = loads_atlas(dumps_atlas(a))  # nothing cached from the full tables
            for kind in kinds:
                got = build_report(fresh, name, FULL[kind][0], n).tables[kind]
                assert got == _cut(whole[kind], n), (name, kind, n)


def test_the_one_point_table_of_a_disconnected_atlas_is_a_precondition():
    a = load_atlas(DISCONNECTED_DOC)
    with pytest.raises(PreconditionViolated, match="^the one-point table needs a connected X$"):
        build_report(a, "x", "ihplus")
    assert "onePointIC" not in build_report(a, "x", "all").tables
