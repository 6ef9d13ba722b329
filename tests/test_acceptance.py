"""Acceptance suite: eleven exact, zero-tolerance criteria.

Each test is one criterion; the terminal summary (see conftest.py) prints a
PASS/FAIL line per criterion.  Everything is exact rational arithmetic — no
tolerances anywhere — and every expected value is either hand-frozen or
recomputed through an independent route.
"""

from random import Random

from absix import Matrix
from absix.absic import (
    absolute_ic,
    boundary_cohomology,
    compact_table,
    direct_factor_check,
    plain_table,
)
from absix.atlas import validate_atlas
from absix.corpus import builtin
from absix.factor import idempotent_kernel, versal_embed
from absix.hodgecore import PureMorphism
from absix.plus import compare_candidates, ih_one_point, plus_dichotomy, weight_criteria
from absix.qmat import kernel_basis, rank
from absix.wss import grW, grW_c, gysin_complex, restriction_complex, u_map

from synth import random_atlas, random_versal_instance


# ---------------------------------------------------------------------------
# Helpers (kept tiny so each criterion reads as its own statement)
# ---------------------------------------------------------------------------

def _graded_dict(mg):
    return {w: dict(obj.hodge_numbers()) for w, obj in mg.pieces}


def _table_dict(t):
    return {n: _graded_dict(t.degree(n)) for n in t.degrees()}


def _matches_proper_cohomology(a, res, skip=()):
    """H^n_!*(X) == H^n(Y) in every degree and every (p, q), except `skip`."""
    y = a.stratum(())
    degrees = set(res.table.degrees())
    for n in range(2 * a.dimension + 1):
        if n in skip:
            continue
        expected = dict(y.pure_at(n).hodge_numbers())
        got = dict(res.table.hodge(n)) if n in degrees else {}
        assert got == expected, (n, got, expected)


def _span_equal(a: Matrix, b: Matrix) -> bool:
    joined = a.hstack(b)
    return rank(a) == rank(b) == rank(joined)


# ---------------------------------------------------------------------------
# Criteria 1-4: frozen desk examples
# ---------------------------------------------------------------------------

def test_criterion_01_affine_line_recovers_projective_line():
    a = builtin("pn_minus_hyperplane", n=1)
    res = absolute_ic(a)
    assert _table_dict(res.table) == {
        0: {0: {(0, 0): 1}},
        2: {2: {(1, 1): 1}},
    }
    _matches_proper_cohomology(a, res)
    assert _table_dict(boundary_cohomology(a)) == {
        0: {0: {(0, 0): 1}},
        1: {2: {(1, 1): 1}},
    }


def test_criterion_02_affine_spaces_look_like_even_spheres():
    for n in (1, 2, 3):
        a = builtin("pn_minus_hyperplane", n=n)
        res = absolute_ic(a)
        assert _table_dict(res.table) == {
            0: {0: {(0, 0): 1}},
            2 * n: {2 * n: {(n, n): 1}},
        }, n
        assert _table_dict(boundary_cohomology(a)) == {
            0: {0: {(0, 0): 1}},
            2 * n - 1: {2 * n: {(n, n): 1}},
        }, n


def test_criterion_03_small_boundary_recovers_compactification():
    # Boundaries of dimension strictly below their codimension: points in a
    # proper surface, and a line inside projective three-space.  The divisor
    # atlas necessarily declares the blown-up compactification, but the
    # absolute table recovers the cohomology of the *small* one (the surface,
    # respectively the three-space) in every degree and every (p, q).
    anchors = {
        "points_in_proper": {n: {n: {(n // 2, n // 2): 1}} for n in (0, 2, 4)},
        "low_dim_Z": {n: {n: {(n // 2, n // 2): 1}} for n in (0, 2, 4, 6)},
    }
    for name, anchor in anchors.items():
        a = builtin(name)
        res = absolute_ic(a)
        assert _table_dict(res.table) == anchor, name
        # Strictly smaller than the declared (blown-up) compactification:
        # the exceptional middle classes are not part of the answer.
        assert res.table.dim(2) < a.stratum(()).pure_at(2).dim, name


def test_criterion_04_middle_dimensional_boundary_cases():
    # Self-intersection zero (a ruling line): nothing is lost.
    a = builtin("middle_dim_Z_selfint_zero")
    _matches_proper_cohomology(a, absolute_ic(a))

    # The diagonal (self-intersection two): exactly one middle class is lost.
    b = builtin("middle_dim_Z_selfint_nonzero")
    resb = absolute_ic(b)
    y = b.stratum(())
    mid = resb.table.degree(2).piece(2)
    assert y.pure_at(2).dim == 2
    assert mid.dim == y.pure_at(2).dim - 1 == 1
    assert dict(mid.hodge_numbers()) == {(1, 1): 1}
    _matches_proper_cohomology(b, resb, skip=(2,))


# ---------------------------------------------------------------------------
# Criteria 5-7: the canonical factorization through CH(u)
# ---------------------------------------------------------------------------

def test_criterion_05_interior_factorization_is_mono_epi(corpus_results):
    for name, (a, res) in corpus_results.items():
        for n in res.degrees():
            u = res.u(n)
            dec = res.decomposition(n)
            assert dec.i_ch.is_injective(), (name, n)
            assert dec.pi_ch.is_surjective(), (name, n)
            assert dec.pi_ch.compose(dec.i_ch) == u, (name, n)
            # Exact rank checks, not just the boolean predicates.
            assert rank(dec.i_ch.full_matrix()) == u.source.dim, (name, n)
            assert rank(dec.pi_ch.full_matrix()) == u.target.dim, (name, n)


def test_criterion_06_versal_factorization_property_suite():
    rng = Random(600)
    for _ in range(200):
        v, h, j, p, dec = random_versal_instance(rng)
        iota, q, h_prime = versal_embed(v, h, j, p, dec)
        assert q.compose(iota) == PureMorphism.identity(dec.total)
        assert iota.compose(dec.i_ch) == j
        assert p.compose(iota) == dec.pi_ch
        assert q.compose(j) == dec.i_ch
        assert dec.pi_ch.compose(q) == p


def test_criterion_07_interior_bounds_and_direct_factor(corpus_results):
    for name, (a, res) in corpus_results.items():
        for n in res.degrees():
            u = res.u(n)
            interior = rank(u.full_matrix())
            assert res.decomposition(n).image_part.dim == interior, (name, n)
            assert interior <= u.source.dim, (name, n)
            assert interior <= u.target.dim, (name, n)
        assert direct_factor_check(a).ok, name


# ---------------------------------------------------------------------------
# Criteria 8-10: the one-point compactification and the identification
# ---------------------------------------------------------------------------

def test_criterion_08_one_point_table_by_independent_recomputation(corpus_results):
    for name, (a, res) in corpus_results.items():
        d = a.dimension
        ih = ih_one_point(a)
        expected = {}
        for n in range(2 * d + 1):
            if n < d:
                g = _graded_dict(grW(a, n))
            elif n > d:
                g = _graded_dict(grW_c(a, n))
            else:
                u = u_map(a, d)
                hodge = {}
                for lab in u.labels():
                    r = rank(u.block(lab))
                    if r:
                        hodge[lab] = r
                g = {d: hodge} if hodge else {}
            if g:
                expected[n] = g
        assert _table_dict(ih) == expected, name


def test_criterion_09_verdict_matches_table_comparison(corpus_results):
    for name, (a, res) in corpus_results.items():
        crit = weight_criteria(a)
        tables_equal = _table_dict(ih_one_point(a)) == _table_dict(res.table)
        assert crit.verdict == tables_equal, name
        assert crit.cond2 == crit.cond3, name
        if crit.verdict:
            assert crit.cond6 and crit.cond7, name


def test_criterion_10_plus_identification_verdicts(corpus_results):
    expected_true = {
        "pn_minus_hyperplane",
        "gm",
        "smooth_divisor_ample",
        "points_in_proper",
        "low_dim_Z",
        "middle_dim_Z_selfint_nonzero",
        "surface_resolution",
    }
    for name, (a, res) in corpus_results.items():
        crit = weight_criteria(a)
        assert crit.verdict == (name in expected_true), name
    fired = plus_dichotomy(corpus_results["middle_dim_Z_selfint_zero"][0])
    assert (fired.mode, fired.horn) == ("exemplar", "ii")
    comp = compare_candidates(corpus_results["gm_times_a1"][0])
    assert comp.matchesPlus is False
    assert comp.matchesY is False


# ---------------------------------------------------------------------------
# Criterion 11: structural invariants across corpus + random atlases
# ---------------------------------------------------------------------------

def _check_dd_zero(c):
    for i in range(len(c.maps) - 1):
        if c.decreasing:
            assert c.maps[i].compose(c.maps[i + 1]).is_zero()
        else:
            assert c.maps[i + 1].compose(c.maps[i]).is_zero()


def _check_weight_duality(a):
    d = a.dimension
    for n in range(2 * d + 1):
        g = grW(a, n)
        gc = grW_c(a, 2 * d - n)
        for w in range(2 * d + 1):
            left = dict(g.piece(w).hodge_numbers())
            mirror = gc.piece(2 * d - w).hodge_numbers()
            assert left == {(d - p, d - q): k for (p, q), k in mirror.items()}, (n, w)


def _check_euler_identity(a):
    """Alternating Hodge multiplicities of H_c equal stratum inclusion-exclusion."""
    table = {}
    t = compact_table(a)
    for n in t.degrees():
        sign = (-1) ** n
        for lab, k in t.hodge(n).items():
            table[lab] = table.get(lab, 0) + sign * k
    strata = {}
    for subset in a.declared_subsets():
        sign = (-1) ** len(subset)
        st = a.stratum(subset)
        for k in range(st.top_degree() + 1):
            ks = sign * (-1) ** k
            for lab, mult in st.pure_at(k).hodge_numbers().items():
                strata[lab] = strata.get(lab, 0) + ks * mult
    assert ({lab: v for lab, v in table.items() if v}
            == {lab: v for lab, v in strata.items() if v})


def _check_purity_bounds(a):
    d = a.dimension
    tables = (
        (plain_table(a), lambda n: n, lambda n: 2 * n),
        (compact_table(a), lambda n: max(0, 2 * (n - d)), lambda n: n),
        (absolute_ic(a).table, lambda n: n, lambda n: n),
    )
    for t, lo, hi in tables:
        for n in t.degrees():
            for w, obj in t.degree(n).pieces:
                if obj.dim:
                    assert lo(n) <= w <= hi(n), (t.kind, n, w)


def _check_idempotent_kernel(a):
    """Triangular idempotents built from the comparison maps vs elimination."""
    d = a.dimension
    for n in sorted({max(0, d - 1), d, min(2 * d, d + 1)}):
        u = u_map(a, n).full_matrix()
        got = idempotent_kernel(
            Matrix.identity(u.rows), u, Matrix.zeros(u.cols, u.cols))
        full = (Matrix.identity(u.rows).hstack(u)
                .vstack(Matrix.zeros(u.cols, u.rows + u.cols)))
        reference = kernel_basis(full)
        assert (full * got).is_zero()
        assert rank(got) == got.cols == reference.cols
        assert _span_equal(got, reference)


def test_criterion_11_structural_invariants_on_random_atlases(corpus):
    rng = Random(1100)
    atlases = list(corpus.values())
    for _ in range(100):
        s = random_atlas(rng)
        assert validate_atlas(s).ok
        atlases.append(s)
    for a in atlases:
        for w in range(2 * a.dimension + 1):
            _check_dd_zero(gysin_complex(a, w))
            _check_dd_zero(restriction_complex(a, w))
        _check_weight_duality(a)
        _check_euler_identity(a)
        _check_purity_bounds(a)
        _check_idempotent_kernel(a)
