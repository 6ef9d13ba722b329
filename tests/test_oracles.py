"""Oracles that need no frozen value: symmetries the answers must have.

Duality for ``u_n : Gr^W_n H^n_c(X) -> Gr^W_n H^n(X)``.  On a smooth X of
dimension d, Poincare duality pairs H^n_c with H^(2d-n) and takes ``u_n`` to
the transpose of ``u_(2d-n)``, with Hodge labels mirrored by
(p, q) -> (d-p, d-q).  So in the CH factorization of ``u_n``, the image part
mirrors the image part of ``u_(2d-n)``, and the kernel part mirrors the
cokernel part of ``u_(2d-n)``.  Nothing in the engine computes ``u_(2d-n)``
from ``u_n``: each degree is eliminated on its own.

Kunneth.  For a product X x X', Gr^W H^n and Gr^W H^n_c are sums of tensor
products of the factors' pieces, with degrees, weights and (p, q) adding
(Deligne, Theorie de Hodge II/III).  H^a_c has weights <= a and H^a has
weights >= a, so ``u_n`` of the product is the sum of ``u_a (x) u'_b`` over
a + b = n.  Writing K, I, C for the kernel, image and cokernel parts of the
factors' ``u``, the product's image part is the sum of I (x) I', its kernel
part the sum of K (x) K' + K (x) I' + I (x) K', and its cokernel part the
same with C in place of K.  Nothing is claimed here for IH(X+).

Basis-change invariance.  Every answer is a property of the Hodge structures
and maps, not of the coordinates they are written in.  Changing the basis of
each ``H^k(D_S)`` by an invertible ``P`` that only mixes slots of one (p, q)
label (and is the identity on ``H^0``, so the fundamental classes stay put)
turns each pairing ``Q_k`` into ``P_kᵀ Q_k P_(2e-k)`` and each restriction
``R`` into ``P_dst⁻¹ R P_src``.  The report must not change, except for the
hash of the atlas it names.

Closed forms for the scaling families.  These are classical.  ``G_m^k`` is a
torus: H^n is ``binom(k, n)`` copies of Q(-n), so (n, n) at weight 2n, and
by duality H^n_c is ``binom(k, 2k - n)`` copies of (n - k, n - k) at weight
2(n - k) for k <= n <= 2k.  P^2 minus p points has H^0 = (0, 0), H^2 = (1, 1)
and, from the punctures, p - 1 copies of (2, 2) at weight 4 in H^3; dually
H^1_c is p - 1 copies of (0, 0), H^2_c = (1, 1) and H^4_c = (2, 2).  Affine
n-space has H^0 = (0, 0) and H^2n_c = (n, n), nothing else.  The ``plain``
(``grW``) and ``compactSupport`` (``grW_c``) tables must match these.

The rank route.  The report reads CH(u_n) off the rank of each (p, q)
block of u_n, and builds a block of u_n only where both of its ends are
nonzero.  The full construction stays here as the oracle: a kernel basis of
the spot-0 restriction block and a cokernel projection of the Gysin block
into spot 0 for every label of H^n(Y), and the factorization
``ch_factorization`` of the resulting map, with its maps and checks.

The torus closed forms give the derived tables too.  H^n has weight 2n and
H^n_c weight 2(n - k); the weights differ, so every u_n is zero, and Gr^W_n
of either is zero except Gr^W_0 H^0 = Q and Gr^W_2k H^2k_c = Q(-k).  So
``absoluteIC`` is H^0 = (0, 0) in degree 0 and H^2k_c = (k, k) in degree
2k; with u = 0 the long exact sequence gives ``boundary`` bH^n = H^n (+)
H^(n+1)_c; ``onePointIC`` is H^n below degree k, im(u_k) = 0 in degree k
and H^n_c above it.
"""

from collections import Counter
from math import comb
from operator import add
from random import Random

import pytest

from absix import Matrix
from absix.absic import absolute_ic, all_degrees, boundary_cohomology, ch_at
from absix.atlas import StratumAtlas, StratumData
from absix.cli import build_report, report_json
from absix.corpus import builtin
from absix.factor import ChParts, ch_factorization
from absix.hodgecore import PureMorphism, from_hodge_numbers
from absix.plus import ih_one_point
from absix.qmat import cokernel_projection, inverse, kernel_basis
from absix.wss import grW, grW_c, gysin_complex, restriction_complex, u_map

from conftest import CORPUS_NAMES
from synth import kunneth, random_atlas

PRODUCTS = (
    ("gm", "gm"),
    ("a1", "gm_times_a1"),
    ("gm", "gm_times_a1"),
    ("surface_resolution", "gm"),
    ("smooth_divisor_ample", "a1"),
)

# The largest power of G_m run through every oracle here: at 6, the
# basis-change report check alone takes minutes.
TORUS_POWER = 5


def _mirrored(numbers: dict, d: int) -> dict:
    return {(d - p, d - q): k for (p, q), k in numbers.items()}


def _check_u_duality(a):
    d = a.dimension
    for n in range(2 * d + 1):
        here, there = ch_at(a, n), ch_at(a, 2 * d - n)
        assert here.image_part.hodge_numbers() == _mirrored(
            there.image_part.hodge_numbers(), d), ("image", n)
        assert here.kernel_part.hodge_numbers() == _mirrored(
            there.cokernel_part.hodge_numbers(), d), ("kernel", n)


@pytest.mark.parametrize("name", CORPUS_NAMES)
def test_u_duality_on_the_corpus(name):
    _check_u_duality(builtin(name))


@pytest.mark.parametrize("seed", range(12))
def test_u_duality_on_random_atlases(seed):
    _check_u_duality(random_atlas(Random(seed)))


@pytest.mark.parametrize("left, right", PRODUCTS)
def test_u_duality_on_kunneth_products(left, right):
    _check_u_duality(kunneth(builtin(left), builtin(right)))


def test_the_duality_pairs_kernel_with_cokernel():
    """On G_m, u_0 is 0 -> Q(0) and u_2 is Q(-1) -> 0: the kernel of u_2
    mirrors the cokernel of u_0, and not its kernel, which is zero."""
    a = builtin("gm")
    assert ch_at(a, 2).kernel_part.hodge_numbers() == {(1, 1): 1}
    assert ch_at(a, 0).cokernel_part.hodge_numbers() == {(0, 0): 1}
    assert ch_at(a, 0).kernel_part.hodge_numbers() == {}


KUNNETH_NAMES = ("gm", "a1", "smooth_divisor_ample", "surface_resolution",
                 "middle_dim_Z_selfint_zero", "gm_times_a1", "low_dim_Z",
                 "points_in_proper")
KUNNETH_PAIRS = ([(name, name) for name in KUNNETH_NAMES]
                 + list(zip(KUNNETH_NAMES, KUNNETH_NAMES[1:])))


def _tensor(x: dict, y: dict) -> Counter:
    """Tensor product of multiplicity tables keyed by tuples: keys add."""
    out = Counter()
    for kx, mx in x.items():
        for ky, my in y.items():
            out[tuple(map(add, kx, ky))] += mx * my
    return out


def _graded(a, table) -> dict:
    """(degree, weight, p, q) -> multiplicity of ``table(a, n)``."""
    return {(n, obj.weight, p, q): m
            for n in range(2 * a.dimension + 1)
            for _, obj in table(a, n).pieces
            for (p, q), m in obj.hodge_numbers().items()}


def _ch_parts(a) -> dict:
    """degree -> (K, I, C) Hodge numbers of the CH factorization of u_n."""
    parts = {}
    for n in range(2 * a.dimension + 1):
        dec = ch_at(a, n)
        parts[n] = (dec.kernel_part.hodge_numbers(), dec.image_part.hodge_numbers(),
                    dec.cokernel_part.hodge_numbers())
    return parts


def _check_kunneth(a, b):
    ab = kunneth(a, b)
    for table in (grW, grW_c):
        assert _graded(ab, table) == _tensor(_graded(a, table), _graded(b, table)), table
    left, right = _ch_parts(a), _ch_parts(b)
    for n, (k, i, c) in _ch_parts(ab).items():
        pairs = [(left[s], right[n - s]) for s in left if n - s in right]
        assert i == sum((_tensor(i1, i2) for (_, i1, _), (_, i2, _) in pairs),
                        Counter()), ("im", n)
        assert k == sum((_tensor(k1, k2) + _tensor(k1, i2) + _tensor(i1, k2)
                         for (k1, i1, _), (k2, i2, _) in pairs), Counter()), ("ker", n)
        assert c == sum((_tensor(c1, c2) + _tensor(c1, i2) + _tensor(i1, c2)
                         for (_, i1, c1), (_, i2, c2) in pairs), Counter()), ("coker", n)


@pytest.mark.parametrize("left, right", KUNNETH_PAIRS)
def test_kunneth_on_corpus_products(left, right):
    _check_kunneth(builtin(left), builtin(right))


def test_kunneth_on_random_products():
    rng = Random(2024)
    for _ in range(10):
        _check_kunneth(random_atlas(rng), random_atlas(rng))


def _label_blocks(rng: Random, obj, k: int) -> tuple:
    """A random ``P`` on ``obj`` that only mixes slots of one label, and its
    inverse; the identity in degree 0."""
    n = obj.dim
    p = [[int(i == j) for j in range(n)] for i in range(n)]
    p_inv = [row[:] for row in p]
    for lab in obj.labels() if k else ():
        pos = obj.positions(lab)
        block = None
        while block is None or inverse(block) is None:
            block = Matrix.from_rows([[rng.randrange(-2 ** 31, 2 ** 31) for _ in pos]
                                      for _ in pos])
        for out, m in ((p, block), (p_inv, inverse(block))):
            for a, i in enumerate(pos):
                for b, j in enumerate(pos):
                    out[i][j] = m[a, b]
    return Matrix(n, n, p), Matrix(n, n, p_inv)


def _change_basis(a: StratumAtlas, seed: int) -> StratumAtlas:
    rng = Random(seed)
    bases = {subset: [_label_blocks(rng, obj, k) for k, obj in enumerate(st.cohomology)]
             for subset, st in a.strata.items()}
    # An empty matrix stays as it is: its degree may lie past the end of the
    # other side's cohomology list, where no basis is drawn.
    strata = {}
    for subset, st in a.strata.items():
        e, p = a.e(subset), bases[subset]
        strata[subset] = StratumData(st.cohomology, tuple(
            p[k][0].transpose() * q * p[2 * e - k][0] if q.rows and q.cols else q
            for k, q in enumerate(st.pairings)))
    restrictions = {
        (src, dst): tuple(bases[dst][k][1] * r * bases[src][k][0] if r.rows and r.cols else r
                          for k, r in enumerate(mats))
        for (src, dst), mats in a.restrictions.items()}
    return StratumAtlas(a.dimension, a.components, strata, restrictions,
                        a.self_intersections)


def _report_without_hash(a) -> dict:
    report = report_json(build_report(a, "atlas", "all"))
    del report["provenance"]["atlasHash"]
    return report


# A point (d = 0) has only H^0, which keeps its basis: draw six with d > 0.
RANDOM_SEEDS = [seed for seed in range(20) if random_atlas(Random(seed)).dimension][:6]
ATLAS_CASES = (
    [(name, lambda name=name: builtin(name)) for name in CORPUS_NAMES]
    + [(f"random-{seed}", lambda seed=seed: random_atlas(Random(seed)))
       for seed in RANDOM_SEEDS]
    + [("gm x gm", lambda: kunneth(builtin("gm"), builtin("gm"))),
       (f"gm^{TORUS_POWER}", lambda: _gm_power(TORUS_POWER))]
)


@pytest.mark.parametrize("seed, make", enumerate(make for _, make in ATLAS_CASES),
                         ids=[name for name, _ in ATLAS_CASES])
def test_reports_do_not_depend_on_the_basis(seed, make):
    a = make()
    b = _change_basis(a, seed)
    assert b != a
    assert _report_without_hash(b) == _report_without_hash(a)


@pytest.mark.parametrize("make", [make for _, make in ATLAS_CASES],
                         ids=[name for name, _ in ATLAS_CASES])
def test_gysin_route_homology_is_the_plain_table(make):
    """Gr^W_w H^n(X) as the homology of the weight-w Gysin complex at spot
    w - n, which the tables never build, against ``grW``."""
    a = make()
    degrees = range(2 * a.dimension + 1)
    for w in degrees:
        gysin = gysin_complex(a, w)
        for n in degrees:
            got = gysin.homology_object(w - n).hodge_numbers()
            assert got == grW(a, n).piece(w).hodge_numbers(), (n, w)


def _gm_power(k: int) -> StratumAtlas:
    gm = builtin("gm")
    a = gm
    for _ in range(k - 1):
        a = kunneth(a, gm)
    return a


def test_kunneth_on_a_torus_power():
    _check_kunneth(_gm_power(TORUS_POWER), builtin("gm"))


def test_u_duality_on_a_torus_power():
    _check_u_duality(_gm_power(TORUS_POWER))


def test_u_duality_on_a_basis_changed_torus_power():
    _check_u_duality(_change_basis(_gm_power(TORUS_POWER), 0))


def _u_map_in_full(a, n) -> PureMorphism:
    """u_n with a kernel basis and a cokernel projection for every label of
    H^n(Y), its ends counted by their columns and rows."""
    d0 = restriction_complex(a, n).map_out_of(0)
    g1 = gysin_complex(a, n).map_into(0)
    labels = a.pure_at((), n).labels()
    kernels = {lab: kernel_basis(d0.block(lab)) for lab in labels}
    projections = {lab: cokernel_projection(g1.block(lab)) for lab in labels}
    source = from_hodge_numbers(n, {lab: m.cols for lab, m in kernels.items()})
    target = from_hodge_numbers(n, {lab: m.rows for lab, m in projections.items()})
    return PureMorphism(source, target,
                        {lab: projections[lab] * kernels[lab] for lab in labels})


def _check_rank_route(a):
    for n in all_degrees(a):
        u = u_map(a, n)
        assert u == _u_map_in_full(a, n), n
        dec = ch_factorization(u)
        assert ch_at(a, n) == ChParts(dec.kernel_part, dec.image_part, dec.cokernel_part,
                                      dec.total), n


def _random_draws():
    rng = Random(0)
    return [random_atlas(rng) for _ in range(40)]


RANK_ROUTE_CASES = (
    [(name, lambda name=name: [builtin(name)]) for name in CORPUS_NAMES]
    + [("random-0-x40", _random_draws),
       (f"gm^{TORUS_POWER}", lambda: [_gm_power(TORUS_POWER)]),
       (f"gm^{TORUS_POWER}-basis-changed",
        lambda: [_change_basis(_gm_power(TORUS_POWER), 0)])]
)


@pytest.mark.parametrize("make", [make for _, make in RANK_ROUTE_CASES],
                         ids=[name for name, _ in RANK_ROUTE_CASES])
def test_rank_route_matches_the_full_construction(make):
    for a in make():
        _check_rank_route(a)


def _positive(table: dict) -> dict:
    return {key: m for key, m in table.items() if m}


def _torus_tables(k: int) -> tuple:
    """The closed forms of H^n and H^n_c of G_m^k, keyed as ``_graded``."""
    plain = {(n, 2 * n, n, n): comb(k, n) for n in range(k + 1)}
    compact = {(n, 2 * (n - k), n - k, n - k): comb(k, 2 * k - n) for n in range(k, 2 * k + 1)}
    return plain, compact


@pytest.mark.parametrize("k", range(1, 7))
def test_torus_tables_have_their_closed_form(k):
    a = _gm_power(k)
    plain, compact = _torus_tables(k)
    assert _graded(a, grW) == plain
    assert _graded(a, grW_c) == compact


def _tabled(t) -> dict:
    """(degree, weight, p, q) -> multiplicity of a ``CohomologyTable``."""
    return {(n, obj.weight, p, q): m
            for n in t.degrees()
            for _, obj in t.degree(n).pieces
            for (p, q), m in obj.hodge_numbers().items()}


@pytest.mark.parametrize("k", range(1, 7))
def test_torus_derived_tables_have_their_closed_form(k):
    a = _gm_power(k)
    plain, compact = _torus_tables(k)
    assert _tabled(absolute_ic(a).table) == {key: m for key, m in {**plain, **compact}.items()
                                             if key[0] in (0, 2 * k)}
    boundary = Counter(plain)
    boundary.update({(n - 1, *rest): m for (n, *rest), m in compact.items()})
    assert _tabled(boundary_cohomology(a)) == boundary
    assert _tabled(ih_one_point(a)) == {key: m for key, m in {**plain, **compact}.items()
                                        if key[0] != k}


@pytest.mark.parametrize("p", [1, 2, 3, 8, 30, 100, 300])
def test_plane_minus_points_tables_have_their_closed_form(p):
    a = builtin("points_in_proper", points=p)
    assert _graded(a, grW) == _positive({(0, 0, 0, 0): 1, (2, 2, 1, 1): 1,
                                         (3, 4, 2, 2): p - 1})
    assert _graded(a, grW_c) == _positive({(1, 0, 0, 0): p - 1, (2, 2, 1, 1): 1,
                                           (4, 4, 2, 2): 1})


@pytest.mark.parametrize("n", [1, 2, 3, 10, 30, 100])
def test_affine_space_tables_have_their_closed_form(n):
    a = builtin("pn_minus_hyperplane", n=n)
    assert _graded(a, grW) == {(0, 0, 0, 0): 1}
    assert _graded(a, grW_c) == {(2 * n, 2 * n, n, n): 1}
