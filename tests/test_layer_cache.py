"""The per-atlas layer cache: one validity gate, immutability, cached == fresh."""

import gc
import weakref
from random import Random

import pytest

from absix.absic import (
    absic_at,
    absolute_ic,
    boundary_at,
    boundary_cohomology,
    ch_at,
    compact_table,
    tabulate,
    direct_factor_check,
    plain_table,
)
from absix.atlas import dump_atlas, dumps_atlas, load_atlas, loads_atlas
from absix.corpus import builtin
from absix.errors import InvalidAtlas
from absix.plus import (
    compare_candidates,
    ih_one_point,
    ih_plus_at,
    plus_dichotomy,
    weight_criteria,
)
from absix.wss import grW, grW_c, gysin_complex, lowest_weight_compact, restriction_complex, u_map

from synth import random_atlas

COMPUTATIONS = {
    "gysin_complex": lambda a: gysin_complex(a, 2),
    "restriction_complex": lambda a: restriction_complex(a, 0),
    "grW": lambda a: grW(a, 1),
    "grW_c": lambda a: grW_c(a, 1),
    "lowest_weight_compact": lambda a: lowest_weight_compact(a, 0),
    "u_map": lambda a: u_map(a, 0),
    "ch_at": lambda a: ch_at(a, 1),
    "absic_at": lambda a: absic_at(a, 1),
    "boundary_at": lambda a: boundary_at(a, 1),
    "ih_plus_at": lambda a: ih_plus_at(a, 1),
    "tabulate": lambda a: tabulate(a, "plain", grW, (1,)),
    "absolute_ic": absolute_ic,
    "boundary_cohomology": boundary_cohomology,
    "plain_table": plain_table,
    "compact_table": compact_table,
    "direct_factor_check": direct_factor_check,
    "weight_criteria": weight_criteria,
    "ih_one_point": ih_one_point,
    "compare_candidates": compare_candidates,
    "plus_dichotomy": plus_dichotomy,
}


def _without_y():
    doc = dump_atlas(builtin("gm_times_a1"))
    doc["strata"] = [st for st in doc["strata"] if st["subset"]]
    return doc


def _singular_pairing():
    doc = dump_atlas(builtin("gm_times_a1"))
    doc["strata"][0]["pairings"][0] = [["0"]]
    return doc


@pytest.mark.parametrize("broken", [_without_y, _singular_pairing])
@pytest.mark.parametrize("name", sorted(COMPUTATIONS))
def test_every_computation_refuses_an_atlas_with_findings(name, broken):
    a = load_atlas(broken())
    for _ in range(2):  # a refusal is not cached as a result
        with pytest.raises(InvalidAtlas):
            COMPUTATIONS[name](a)


def _report_parts(a):
    """Everything `compute --what all` renders, in report order."""
    parts = {
        "plain": plain_table(a),
        "compactSupport": compact_table(a),
        "absoluteIC": absolute_ic(a).table,
        "boundary": boundary_cohomology(a),
        "criteria": weight_criteria(a),
    }
    if a.connected:
        parts["onePointIC"] = ih_one_point(a)
        parts["comparison"] = compare_candidates(a)
        if not parts["criteria"].verdict:
            parts["dichotomy"] = plus_dichotomy(a)
    return parts


def _report_parts_reversed(a, keys):
    """The same parts on another atlas object, computed in reverse order."""
    compute = {
        "plain": plain_table,
        "compactSupport": compact_table,
        "absoluteIC": lambda x: absolute_ic(x).table,
        "boundary": boundary_cohomology,
        "criteria": weight_criteria,
        "onePointIC": ih_one_point,
        "comparison": compare_candidates,
        "dichotomy": plus_dichotomy,
    }
    return {k: compute[k](a) for k in reversed(list(keys))}


def _atlases(corpus):
    rng = Random(1100)
    return list(corpus.items()) + [(f"random-{i}", random_atlas(rng)) for i in range(20)]


def test_cached_results_equal_fresh_results_in_any_order(corpus):
    for name, a in _atlases(corpus):
        parts = _report_parts(a)
        fresh = loads_atlas(dumps_atlas(a))
        assert _report_parts_reversed(fresh, parts) == parts, name


def test_each_layer_is_computed_once_per_atlas_object():
    a = builtin("gm_times_a1")
    assert gysin_complex(a, 2) is gysin_complex(a, 2)
    assert grW(a, 1) is grW(a, 1)
    assert u_map(a, 1) is u_map(a, 1)
    assert ch_at(a, 1) is ch_at(a, 1)
    assert boundary_at(a, 1) is boundary_at(a, 1)
    assert absolute_ic(a) is absolute_ic(a)
    assert boundary_cohomology(a) is boundary_cohomology(a)
    assert ih_one_point(a) is ih_one_point(a)
    assert weight_criteria(a) is weight_criteria(a)
    fresh = loads_atlas(dumps_atlas(a))
    assert absolute_ic(fresh) is not absolute_ic(a)
    assert absolute_ic(fresh) == absolute_ic(a)


def test_atlas_is_immutable():
    a = builtin("middle_dim_Z_selfint_zero")
    with pytest.raises(TypeError):
        a.strata[()] = a.strata[("Z",)]
    with pytest.raises(TypeError):
        a.restrictions[((), ("Z",))] = ()
    with pytest.raises(TypeError):
        a.self_intersections["Z"] = 1
    with pytest.raises(AttributeError):
        a.dimension = 3


def test_cached_layers_are_freed_with_their_atlas():
    a = builtin("gm_times_a1")
    result = weakref.ref(absolute_ic(a))
    complex_ = weakref.ref(gysin_complex(a, 2))
    del a
    gc.collect()
    assert result() is None and complex_() is None
