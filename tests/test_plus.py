"""Weight criteria, the failure dichotomy, and candidate comparisons."""

from random import Random

import pytest

from absix import Matrix
from absix.absic import absolute_ic
from absix.atlas import StratumAtlas, load_atlas, make_stratum
from absix.corpus import builtin
from absix.errors import MissingSelfIntersections, PreconditionViolated
from absix.hodgecore import ZERO_OBJECT, PureObject
from absix.plus import (
    compare_candidates,
    ih_one_point,
    intersection_matrix,
    intersection_matrix_rank,
    plus_dichotomy,
    weight_criteria,
)
from absix.qmat import rank

from synth import kunneth, random_atlas, random_boundary_atlas

Q0 = {(0, 0): 1}
Q1 = {(1, 1): 1}
Q2 = {(2, 2): 1}

#: name -> expected verdict of the boundary-weight criteria.
VERDICTS = {
    "pn_minus_hyperplane": True,
    "points_in_proper": True,
    "low_dim_Z": True,
    "smooth_divisor_ample": True,
    "middle_dim_Z_selfint_zero": False,
    "middle_dim_Z_selfint_nonzero": True,
    "surface_resolution": True,
    "gm_times_a1": False,
    "gm": True,
}


# ---------------------------------------------------------------------------
# Criteria reports
# ---------------------------------------------------------------------------

def test_verdicts_across_the_corpus(corpus):
    got = {name: weight_criteria(a).verdict for name, a in corpus.items()}
    assert got == VERDICTS


def test_criteria_details_for_the_product_of_lines():
    rep = weight_criteria(builtin("gm_times_a1"))
    assert (rep.cond2, rep.cond3, rep.cond6, rep.cond7) == (False,) * 4
    assert rep.cond2_by_degree == ((0, True), (1, False))
    assert rep.cond3_by_degree == ((2, False), (3, True))
    assert rep.injectivityRoute == "via-weights"
    assert rep.injectivityRange == ((2, False),)
    assert rep.lefschetz is None  # three boundary components


def test_criteria_details_for_the_zero_self_intersection_surface():
    rep = weight_criteria(builtin("middle_dim_Z_selfint_zero"))
    assert not rep.verdict
    # Both purity conditions still hold; only the boundary weights fail.
    assert rep.cond6 and rep.cond7
    assert rep.injectivityRange == ((2, False),)
    assert rep.lefschetz == ((2, False),)


def test_weight_route_and_matrix_route_agree(corpus):
    saw_lefschetz = 0
    for name, a in corpus.items():
        rep = weight_criteria(a)
        if rep.lefschetz is None:
            assert not (len(a.components) == 1 and a.depth() == 1
                        and a.pure_at((a.components[0],), 0).dim == 1), name
            continue
        saw_lefschetz += 1
        assert dict(rep.lefschetz) == dict(rep.injectivityRange), name
    assert saw_lefschetz >= 4


def test_criteria_equivalences_hold(corpus):
    for name, a in corpus.items():
        rep = weight_criteria(a)
        assert rep.cond2 == rep.cond3 == rep.verdict, name
        if rep.verdict:
            assert rep.cond6 and rep.cond7, name


def test_criteria_equivalences_on_synthetic_atlases():
    rng = Random(741)
    for _ in range(12):
        a = random_atlas(rng)
        rep = weight_criteria(a)
        assert rep.cond2 == rep.cond3 == rep.verdict
        if rep.verdict:
            assert rep.cond6 and rep.cond7


# ---------------------------------------------------------------------------
# One-point tables
# ---------------------------------------------------------------------------

def test_one_point_table_for_two_points_in_the_plane():
    t = ih_one_point(builtin("points_in_proper"))
    assert {n: t.hodge(n) for n in t.degrees()} == {0: Q0, 2: Q1, 4: Q2}


def test_one_point_table_for_the_product_of_lines():
    t = ih_one_point(builtin("gm_times_a1"))
    assert {n: t.hodge(n) for n in t.degrees()} == {
        0: Q0, 1: Q1, 3: Q1, 4: Q2,
    }


# ---------------------------------------------------------------------------
# The dichotomy
# ---------------------------------------------------------------------------

def test_dichotomy_requires_a_failed_verdict():
    with pytest.raises(PreconditionViolated):
        plus_dichotomy(builtin("a1"))


def test_dichotomy_for_the_zero_self_intersection_surface():
    r = plus_dichotomy(builtin("middle_dim_Z_selfint_zero"))
    assert (r.mode, r.horn, r.degrees, r.boundary_nonzero) == (
        "exemplar", "ii", (2,), False,
    )
    assert "vanishes" in r.detail


def test_dichotomy_for_the_product_of_lines():
    r = plus_dichotomy(builtin("gm_times_a1"))
    assert (r.mode, r.horn, r.degrees, r.boundary_nonzero) == (
        "general", "i", (1, 3), None,
    )
    assert "degrees [1, 3]" in r.detail


def _p1_proper_atlas():
    """A projective line with no boundary at all."""
    one = Matrix(1, 1, [[1]])
    data = make_stratum(
        1,
        [PureObject(0, ((0, 0),)), ZERO_OBJECT, PureObject(2, ((1, 1),))],
        [one, Matrix.zeros(0, 0), one],
    )
    return StratumAtlas(1, (), {(): data}, {})


QUADRIC_COMPLEMENT_DOC = {
    # Three-space minus a smooth quadric surface.  The quadric carries two
    # ruling classes while the ambient space only restricts onto their sum,
    # so middle cohomology of the boundary is not induced.
    "dimension": 3,
    "components": ["Q"],
    "strata": [
        {
            "subset": [],
            "cohomology": [[[0, 0]], [], [[1, 1]], [], [[2, 2]], [], [[3, 3]]],
            "pairings": [[["1"]], [], [["1"]], [], [["1"]], [], [["1"]]],
        },
        {
            "subset": ["Q"],
            "cohomology": [[[0, 0]], [], [[1, 1], [1, 1]], [], [[2, 2]]],
            "pairings": [
                [["1"]], [], [["0", "1"], ["1", "0"]], [], [["1"]],
            ],
        },
    ],
    "restrictions": [
        {
            "from": [],
            "to": ["Q"],
            "matrices": [[["1"]], [], [["1"], ["1"]], [], [["2"]]],
        }
    ],
}


def test_dichotomy_exemplar_with_nonvanishing_connecting_map():
    # X = P^1 x (three-space minus a quadric): even-dimensional, one smooth
    # connected boundary divisor.  Restriction out of middle cohomology of
    # the total space has rank 2 against a three-dimensional target, so the
    # connecting map out of the boundary's middle cohomology is nonzero.
    a = kunneth(_p1_proper_atlas(), load_atlas(QUADRIC_COMPLEMENT_DOC))
    assert a.dimension == 4 and len(a.components) == 1
    rep = weight_criteria(a)
    assert not rep.verdict
    r = plus_dichotomy(a)
    assert (r.mode, r.horn, r.degrees, r.boundary_nonzero) == (
        "exemplar", "i", (3, 5), True,
    )
    assert "nonzero" in r.detail


def test_dichotomy_exemplar_vanishing_case_in_higher_dimension():
    # X = P^1 x P^1 x (plane minus a line): same even-dimensional shape,
    # but every middle class of the divisor is induced from the total
    # space, so the connecting map vanishes and the failure sits in the
    # middle degree alone.
    a = kunneth(_p1_proper_atlas(), kunneth(_p1_proper_atlas(), builtin("a2")))
    assert a.dimension == 4 and len(a.components) == 1
    r = plus_dichotomy(a)
    assert (r.mode, r.horn, r.degrees, r.boundary_nonzero) == (
        "exemplar", "ii", (4,), False,
    )


def test_exemplar_connecting_map_matches_the_restriction_rank():
    """The exemplar reads the connecting map out of H^2c(Z) off the compact
    table; directly, it is nonzero exactly when the restriction
    H^2c(Y) -> H^2c(Z) is not onto."""
    rng = Random(7)
    outcomes = set()
    for _ in range(100):
        for d in (2, 4):
            a = random_boundary_atlas(rng, d, 1)
            if weight_criteria(a).verdict:
                continue
            z, c = (a.components[0],), d // 2
            r = plus_dichotomy(a)
            assert r.mode == "exemplar"
            assert r.boundary_nonzero == (
                rank(a.restriction_matrix((), z, 2 * c)) < a.pure_at(z, 2 * c).dim)
            outcomes.add(r.boundary_nonzero)
    assert outcomes == {True, False}


def test_dichotomy_matches_verdict_on_synthetic_atlases():
    rng = Random(9000)
    fired = 0
    for _ in range(12):
        a = random_atlas(rng)
        if weight_criteria(a).verdict:
            with pytest.raises(PreconditionViolated):
                plus_dichotomy(a)
        else:
            fired += 1
            r = plus_dichotomy(a)
            assert r.mode in ("exemplar", "general")
            assert r.horn in ("i", "ii")
            assert r.degrees
    # The sample should contain at least one failing atlas to be meaningful.
    assert fired >= 1


# ---------------------------------------------------------------------------
# Candidate comparison
# ---------------------------------------------------------------------------

def test_comparison_for_the_affine_line():
    rep = compare_candidates(builtin("a1"))
    assert (rep.matchesPlus, rep.matchesY) == (True, True)
    assert rep.plusMismatchDegrees == () and rep.yMismatchDegrees == ()


def test_comparison_for_the_affine_plane():
    rep = compare_candidates(builtin("a2"))
    assert (rep.matchesPlus, rep.matchesY) == (True, False)
    assert rep.yMismatchDegrees == (2,)
    assert {n: rep.hStar.hodge(n) for n in rep.hStar.degrees()} == {0: Q0, 4: Q2}


def test_comparison_for_the_product_of_lines():
    rep = compare_candidates(builtin("gm_times_a1"))
    assert (rep.matchesPlus, rep.matchesY) == (False, False)
    assert rep.plusMismatchDegrees == (1, 3)
    assert rep.yMismatchDegrees == (2,)


def test_comparison_tracks_the_verdict(corpus):
    for name, a in corpus.items():
        rep = compare_candidates(a)
        assert rep.matchesPlus == VERDICTS[name], name


def test_comparison_tracks_the_verdict_on_synthetic_atlases():
    rng = Random(33)
    for _ in range(12):
        a = random_atlas(rng)
        assert compare_candidates(a).matchesPlus == weight_criteria(a).verdict


# ---------------------------------------------------------------------------
# Connectedness preconditions
# ---------------------------------------------------------------------------

TWO_LINES_DOC = {
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


def test_disconnected_atlases_are_rejected_where_required():
    a = load_atlas(TWO_LINES_DOC)
    assert not a.connected
    for fn in (ih_one_point, plus_dichotomy, compare_candidates):
        with pytest.raises(PreconditionViolated):
            fn(a)
    # The degreewise machinery itself still runs fine.
    assert absolute_ic(a).table.dim(0) == 2


# ---------------------------------------------------------------------------
# Intersection matrices
# ---------------------------------------------------------------------------

def test_intersection_matrices_frozen():
    assert intersection_matrix(builtin("points_in_proper")) == Matrix(
        2, 2, [[-1, 0], [0, -1]]
    )
    assert intersection_matrix(builtin("gm_times_a1")) == Matrix(
        3, 3, [[0, 0, 1], [0, 0, 1], [1, 1, 0]]
    )
    assert intersection_matrix(builtin("surface_resolution")) == Matrix(
        2, 2, [[-2, 1], [1, -1]]
    )
    assert intersection_matrix(builtin("middle_dim_Z_selfint_zero")) == Matrix(
        1, 1, [[0]]
    )


def test_intersection_matrix_ranks():
    assert intersection_matrix_rank(builtin("middle_dim_Z_selfint_zero")) == 0
    assert intersection_matrix_rank(builtin("middle_dim_Z_selfint_nonzero")) == 1
    assert intersection_matrix_rank(builtin("gm_times_a1")) == 2
    assert intersection_matrix_rank(builtin("surface_resolution")) == 2


def test_intersection_matrix_preconditions():
    with pytest.raises(PreconditionViolated):
        intersection_matrix(builtin("a1"))  # d = 1
    with pytest.raises(PreconditionViolated):
        intersection_matrix(builtin("low_dim_Z"))  # d = 3
    with pytest.raises(MissingSelfIntersections):
        intersection_matrix(builtin("a2"))  # d = 2 but no declared numbers
    base = builtin("middle_dim_Z_selfint_zero")
    partial = StratumAtlas(
        base.dimension, base.components, dict(base.strata),
        dict(base.restrictions), {},
    )
    with pytest.raises(MissingSelfIntersections):
        intersection_matrix(partial)
