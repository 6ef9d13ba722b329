"""Weight complexes: differentials, duality, and graded cohomology."""

import functools
import sys
from fractions import Fraction
from random import Random

import pytest

from absix import Matrix, qmat, wss
from absix import atlas as atlas_module
from absix.atlas import StratumAtlas, StratumData, dumps_atlas, loads_atlas, validate_atlas
from absix.cli import main
from absix.corpus import builtin
from absix.errors import InternalError
from absix.hodgecore import ZERO_OBJECT, PureMorphism, PureObject, from_hodge_numbers
from absix.qmat import adjoint_pushforward, inverse
from absix.wss import (
    grW,
    grW_c,
    gysin_complex,
    lowest_weight_compact,
    restriction_complex,
    u_map,
)

from synth import kunneth, random_atlas, random_boundary_atlas, random_proper_atlas
from test_cli import _record_calls
from test_oracles import _change_basis


def _tables(a, fn):
    """Degree -> weight -> hodge numbers, dropping empty entries."""
    out = {}
    for n in range(2 * a.dimension + 1):
        mg = fn(a, n)
        if not mg.is_zero:
            out[n] = {w: mg.piece(w).hodge_numbers() for w in mg.weights()}
    return out


# ---------------------------------------------------------------------------
# Frozen weight-graded tables for hand-computed examples
# ---------------------------------------------------------------------------

Q0 = {(0, 0): 1}
Q1 = {(1, 1): 1}
Q2 = {(2, 2): 1}
Q3 = {(3, 3): 1}


def test_affine_line_tables(corpus):
    a = builtin("a1")
    assert _tables(a, grW) == {0: {0: Q0}}
    assert _tables(a, grW_c) == {2: {2: Q1}}


def test_punctured_line_tables():
    a = builtin("gm")
    assert _tables(a, grW) == {0: {0: Q0}, 1: {2: Q1}}
    assert _tables(a, grW_c) == {1: {0: Q0}, 2: {2: Q1}}


def test_plane_minus_points_tables():
    a = builtin("points_in_proper")  # two points removed from the plane
    assert _tables(a, grW) == {0: {0: Q0}, 2: {2: Q1}, 3: {4: Q2}}
    assert _tables(a, grW_c) == {1: {0: Q0}, 2: {2: Q1}, 4: {4: Q2}}


def test_space_minus_line_tables():
    a = builtin("low_dim_Z")
    assert _tables(a, grW) == {0: {0: Q0}, 2: {2: Q1}}
    assert _tables(a, grW_c) == {4: {4: Q2}, 6: {6: Q3}}


def test_plane_minus_conic_tables():
    a = builtin("smooth_divisor_ample")
    assert _tables(a, grW) == {0: {0: Q0}}
    assert _tables(a, grW_c) == {4: {4: Q2}}


def test_weight_bounds(corpus):
    for name, a in corpus.items():
        d = a.dimension
        for n in range(2 * d + 1):
            for w in grW(a, n).weights():
                assert n <= w <= min(2 * n, n + d), (name, n, w)
            for w in grW_c(a, n).weights():
                assert max(0, 2 * n - 2 * d) <= w <= n, (name, n, w)
        assert grW(a, -1).is_zero and grW(a, 2 * d + 1).is_zero


# ---------------------------------------------------------------------------
# Complexes: differentials square to zero, Euler counts agree
# ---------------------------------------------------------------------------

def _check_complex(c):
    for i in range(len(c.maps) - 1):
        if c.decreasing:
            assert c.maps[i].compose(c.maps[i + 1]).is_zero()
        else:
            assert c.maps[i + 1].compose(c.maps[i]).is_zero()
    spots = range(len(c.spots))
    euler_spots = sum((-1) ** m * c.spot(m).dim for m in spots)
    euler_homology = sum((-1) ** m * c.homology_object(m).dim for m in spots)
    assert euler_spots == euler_homology


def test_differentials_and_euler_on_corpus(corpus):
    for a in corpus.values():
        for w in range(2 * a.dimension + 1):
            _check_complex(gysin_complex(a, w))
            _check_complex(restriction_complex(a, w))


def test_differentials_and_euler_on_synthetic_atlases():
    rng = Random(8080)
    for _ in range(10):
        a = random_atlas(rng)
        for w in range(2 * a.dimension + 1):
            _check_complex(gysin_complex(a, w))
            _check_complex(restriction_complex(a, w))


@pytest.mark.parametrize("name", ["a1", "gm_times_a1"])
def test_the_differentials_past_either_end_are_zero_maps(name):
    a = builtin(name)
    for c in (gysin_complex(a, 2), restriction_complex(a, 0), restriction_complex(a, 2)):
        last = len(c.spots) - 1
        assert c.spot(-1) == c.spot(last + 1) == ZERO_OBJECT
        # the end the differentials lead to, and the end they start from
        head, tail = (0, last) if c.decreasing else (last, 0)
        assert c.map_out_of(head) == PureMorphism.zero(c.spot(head), ZERO_OBJECT)
        assert c.map_into(tail) == PureMorphism.zero(ZERO_OBJECT, c.spot(tail))
        assert c.map_out_of(head).is_zero() and c.map_into(tail).is_zero()
        assert c.map_into(head) is c.maps[0 if c.decreasing else -1]
        assert c.map_out_of(tail) is c.maps[-1 if c.decreasing else 0]


def test_homology_eliminates_each_differential_block_once(monkeypatch):
    """A stored block is the map out of one spot and into the next; its pivot
    memo makes the two ranks one elimination, and a second pass none."""
    a = builtin("gm_times_a1")
    complexes = [gysin_complex(a, w) for w in range(2 * a.dimension + 1)]
    blocks = {id(f.block(lab)) for c in complexes for f in c.maps for lab in f.labels()
              if f.source.count(lab) and f.target.count(lab)}
    counted = [0]
    echelon = qmat._bareiss_echelon

    def counting_echelon(rows, cols):
        counted[0] += 1
        return echelon(rows, cols)

    monkeypatch.setattr(qmat, "_bareiss_echelon", counting_echelon)
    for _ in range(2):
        for c in complexes:
            for m in range(len(c.spots)):
                c.homology_hodge(m)
        assert counted[0] == len(blocks) > 0


# ---------------------------------------------------------------------------
# Label-first differentials against the dense assembly they replace
# ---------------------------------------------------------------------------

def _dense(src_parts, tgt_parts, blocks):
    """Glue per-summand blocks into one full matrix in summand order."""
    col_off, cols = {}, 0
    for subset, obj in src_parts:
        col_off[subset] = cols
        cols += obj.dim
    row_off, rows = {}, 0
    for subset, obj in tgt_parts:
        row_off[subset] = rows
        rows += obj.dim
    if rows == 0 or cols == 0:
        return Matrix.zeros(rows, cols)
    grid = [[Fraction(0)] * cols for _ in range(rows)]
    for (tgt, src), m in blocks.items():
        r0, c0 = row_off[tgt], col_off[src]
        for i, row in enumerate(m.entries()):
            for j, x in enumerate(row):
                grid[r0 + i][c0 + j] = x
    return Matrix.from_rows(grid)


def _tate_twist(v, m):
    """Twist by Q(m): weight - 2m, slots (p - m, q - m)."""
    return PureObject(v.weight - 2 * m, tuple([(p - m, q - m) for (p, q) in v.slots]))


def _dense_gysin(a, w):
    """The Gysin differentials of weight w in the slot basis, each spot m the
    Tate-twisted H^(w - 2m)(D_S), as densely assembled full matrices."""
    d = a.dimension
    parts = [[(s, _tate_twist(a.pure_at(s, w - 2 * m), -m)) for s in a.subsets_of_size(m)]
             for m in range(a.depth() + 1)]
    out = []
    for m in range(1, a.depth() + 1):
        blocks = {}
        for subset, obj in parts[m]:
            for pos in range(len(subset) if obj.dim else 0):
                smaller = subset[:pos] + subset[pos + 1:]
                j = w - 2 * m
                if a.pairing_at(smaller, j + 2).rows == 0:
                    continue
                g = adjoint_pushforward(a.restriction_matrix(smaller, subset, 2 * d - w),
                                        a.pairing_at(subset, j),
                                        inverse(a.pairing_at(smaller, j + 2)))
                blocks[(smaller, subset)] = g.scale((-1) ** pos)
        out.append(_dense(parts[m], parts[m - 1], blocks))
    return out


def _dense_restriction(a, n):
    """The degree-n restriction differentials as densely assembled full matrices."""
    parts = [[(s, a.pure_at(s, n)) for s in a.subsets_of_size(m)]
             for m in range(a.depth() + 1)]
    out = []
    for m in range(a.depth()):
        blocks = {}
        for subset, obj in parts[m + 1]:
            for pos in range(len(subset)):
                smaller = subset[:pos] + subset[pos + 1:]
                if a.stratum(smaller) is not None:
                    blocks[(subset, smaller)] = (
                        a.restriction_matrix(smaller, subset, n).scale((-1) ** pos))
        out.append(_dense(parts[m], parts[m + 1], blocks))
    return out


def _pairing_block(a, m, w):
    """Block-diagonal pairing of gysin spot m (slot basis) against restriction
    spot m of degree 2d - w."""
    mats = [a.pairing_at(s, w - 2 * m) for s in a.subsets_of_size(m)]
    rows = sum(x.rows for x in mats)
    cols = sum(x.cols for x in mats)
    if rows == 0 or cols == 0:
        return Matrix.zeros(rows, cols)
    grid = [[Fraction(0)] * cols for _ in range(rows)]
    r0 = c0 = 0
    for x in mats:
        for i, row in enumerate(x.entries()):
            for j, val in enumerate(row):
                grid[r0 + i][c0 + j] = val
        r0 += x.rows
        c0 += x.cols
    return Matrix.from_rows(grid)


def _check_against_dense(a) -> int:
    """Compare every differential with the dense reference; count mixed-label maps.

    The Gysin complex is written in the basis dual to the restriction spots,
    so its map G'_m out of spot m meets the slot-basis reference G_m through
    the pairings P_m of ``_pairing_block``: G'_m P_m^T = P_(m-1)^T G_m for
    m >= 2, and G'_1 P_1^T = G_1, spot 0 being H^w(Y) in both.
    """
    mixed = 0
    for w in range(2 * a.dimension + 1):
        gc = gysin_complex(a, w)
        pairings = [_pairing_block(a, m, w) for m in range(len(gc.spots))]
        for m, (f, ref) in enumerate(zip(gc.maps, _dense_gysin(a, w), strict=True), 1):
            below = ref if m == 1 else pairings[m - 1].transpose() * ref
            assert f.full_matrix() * pairings[m].transpose() == below, (a, w, m)
        rc = restriction_complex(a, w)
        assert [f.full_matrix() for f in rc.maps] == _dense_restriction(a, w), (a, w)
        mixed += sum(len(f.labels()) > 1 for c in (gc, rc) for f in c.maps)
    return mixed


def test_label_first_differentials_match_dense_assembly_on_corpus(corpus):
    for a in corpus.values():
        _check_against_dense(a)


def test_label_first_differentials_match_dense_assembly_on_synthetic_atlases():
    rng = Random(6060)
    mixed = sum(_check_against_dense(random_atlas(rng)) for _ in range(20))
    assert mixed >= 20  # the draws exercise differentials with several labels


def _off_label_atlas():
    """A surface whose H^2 is ((0,2), (2,0)) with one boundary point class."""
    a = random_boundary_atlas(Random(0), 2, 1)
    assert a.pure_at((), 2).slots == ((0, 2), (2, 0))
    return a


def _off_label_inverse(monkeypatch):
    """Make the inverse of Y's degree-3 pairing also link the H^1 row that pairs
    with the (2, 1) class to the (1, 2) class."""
    real, y3 = wss.inverse, _off_label_atlas().pairing_at((), 3)

    def patched(m):
        inv = real(m)
        if m != y3:  # not Y's degree-3 pairing
            return inv
        rows = inv.to_lists()
        rows[0][0] += 1
        return Matrix.from_rows(rows)

    monkeypatch.setattr(wss, "inverse", patched)


def test_off_label_gysin_block_is_an_internal_error(monkeypatch):
    a = _off_label_atlas()
    _off_label_inverse(monkeypatch)
    # Weight 3: the (1,2) and (2,1) blocks out of H^1(Z1)(-1) read that inverse.
    with pytest.raises(InternalError, match=r"gysin differential w=3, spot 1: .*\(2, 1\) to slot \(1, 2\)"):
        gysin_complex(a, 3)


def test_off_label_gysin_block_exits_3_without_traceback(monkeypatch, tmp_path, capsys):
    path = tmp_path / "surface.atlas.json"
    path.write_text(dumps_atlas(_off_label_atlas()), encoding="utf-8")
    _off_label_inverse(monkeypatch)
    # u_3 reads the weight-3 Gysin complex; the cohomology tables read none
    assert main(["compute", str(path), "--what", "absic"]) == 3
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("internal error (a bug in absix): gysin differential w=3")
    assert err.count("\n") == 1


def _after_validation(monkeypatch) -> list:
    """Record each atlas that validates, so that a patch can leave validation
    alone and act on the engine only: it acts once the list is nonempty."""
    real = atlas_module.validate_atlas
    validated = []

    def validate(a):
        report = real(a)
        if report.ok:
            validated.append(a)
        return report

    monkeypatch.setattr(atlas_module, "validate_atlas", validate)
    return validated


def _gm2_file(tmp_path):
    path = tmp_path / "gm2.atlas.json"
    path.write_text(dumps_atlas(kunneth(builtin("gm"), builtin("gm"))), encoding="utf-8")
    return path


def _only_y_pairings(monkeypatch) -> list:
    """Once gm x gm has validated, reading a pairing of any stratum but Y, or
    inverting any matrix but one of Y's pairings, raises; returns the degrees
    of Y's pairings inverted."""
    validated = _after_validation(monkeypatch)
    real_pairing, real_inverse = StratumData.pairing_at, wss.inverse
    inverses = []

    def pairing(self, k):
        if validated and self.top_degree() != 4:  # Y is the one stratum with H^4
            raise RuntimeError(f"a boundary stratum's pairing was read in degree {k}")
        return real_pairing(self, k)

    def inverse(m):
        degrees = [k for k, p in enumerate(validated[-1].stratum(()).pairings) if p is m]
        if len(degrees) != 1:
            raise RuntimeError("a matrix other than one of Y's pairings was inverted")
        inverses.append(degrees[0])
        return real_inverse(m)

    monkeypatch.setattr(StratumData, "pairing_at", pairing)
    monkeypatch.setattr(wss, "inverse", inverse)
    return inverses


def test_a_full_report_reads_only_y_pairings(monkeypatch, tmp_path, capsys):
    """The Gysin complexes are written in the basis dual to the restriction
    spots, so no boundary stratum's pairing is read past validation."""
    path = _gm2_file(tmp_path)
    assert main(["compute", str(path), "--what", "all"]) == 0
    want = capsys.readouterr()
    inverses = _only_y_pairings(monkeypatch)
    assert main(["compute", str(path), "--what", "all"]) == 0
    assert capsys.readouterr() == want
    assert inverses and len(inverses) == len(set(inverses))  # each degree once


def _broken_square(monkeypatch):
    """Double the degree-0 restriction from the curve A.p0 of gm x gm to its
    point A.p0 x B.p0, once the atlas has validated: read now, the square
    from Y to that point through A.p0 and B.p0 would stop commuting."""
    validated = _after_validation(monkeypatch)
    real = StratumAtlas.restriction_matrix

    def patched(self, src, dst, k):
        r = real(self, src, dst, k)
        if validated and (tuple(src), tuple(dst), k) == (("A.p0",), ("A.p0", "B.p0"), 0):
            return r.scale(2)
        return r

    monkeypatch.setattr(StratumAtlas, "restriction_matrix", patched)


def test_a_square_broken_after_validation_leaves_the_complexes_unchanged(monkeypatch):
    """The complexes are split off the differentials validation squared, so
    no restriction read past validation reaches them."""
    fresh, a = kunneth(builtin("gm"), builtin("gm")), kunneth(builtin("gm"), builtin("gm"))
    want = [f(fresh, n) for f in (restriction_complex, gysin_complex) for n in range(5)]
    _broken_square(monkeypatch)
    assert atlas_module.validate_atlas(a).ok
    assert [f(a, n) for f in (restriction_complex, gysin_complex) for n in range(5)] == want


def test_a_square_broken_after_validation_leaves_the_full_report_unchanged(
        monkeypatch, tmp_path, capsys):
    path = _gm2_file(tmp_path)
    assert main(["compute", str(path), "--what", "all"]) == 0
    want = capsys.readouterr()
    _broken_square(monkeypatch)
    assert main(["compute", str(path), "--what", "all"]) == 0
    assert capsys.readouterr() == want


def test_a_full_report_calls_no_adjoint_pushforward(monkeypatch, tmp_path, capsys):
    calls = []
    real = qmat.adjoint_pushforward

    def counted(*args):
        calls.append(args)
        return real(*args)

    for name, module in list(sys.modules.items()):
        if name.startswith("absix") and getattr(module, "adjoint_pushforward", None) is real:
            monkeypatch.setattr(module, "adjoint_pushforward", counted)
    path = tmp_path / "product.atlas.json"
    path.write_text(dumps_atlas(kunneth(builtin("gm"), builtin("gm_times_a1"))),
                    encoding="utf-8")
    assert main(["compute", str(path), "--what", "all"]) == 0
    capsys.readouterr()
    assert calls == []


def _off_label_restriction(monkeypatch):
    """Make the degree-2 differential Y -> Z1 send the (0,2) line onto the
    (1,1) point class, as the restriction complex splits it."""
    real = wss.restriction_differential

    def patched(a, k, m):
        if (k, m) == (2, 0):
            return Matrix.from_rows([[1, 0]])
        return real(a, k, m)

    monkeypatch.setattr(wss, "restriction_differential", patched)


def test_off_label_restriction_block_is_an_internal_error(monkeypatch):
    a = _off_label_atlas()
    assert validate_atlas(a).ok
    _off_label_restriction(monkeypatch)
    with pytest.raises(InternalError) as exc:
        restriction_complex(a, 2)
    assert str(exc.value) == ("restriction differential n=2, spot 0: block []->['Z1'] "
                              "links slot (0, 2) to slot (1, 1)")


def test_off_label_restriction_block_exits_3_without_traceback(monkeypatch, tmp_path, capsys):
    path = tmp_path / "surface.atlas.json"
    path.write_text(dumps_atlas(_off_label_atlas()), encoding="utf-8")
    _off_label_restriction(monkeypatch)
    # absic builds u_2 from restriction_complex(a, 2) before the Gysin complex
    # that pushes the same matrix forward.
    assert main(["compute", str(path), "--what", "absic"]) == 3
    out, err = capsys.readouterr()
    assert out == ""
    assert err == ("internal error (a bug in absix): restriction differential n=2, spot 0: "
                   "block []->['Z1'] links slot (0, 2) to slot (1, 1)\n")


# ---------------------------------------------------------------------------
# Gysin/restriction duality under the declared pairings
# ---------------------------------------------------------------------------

def _check_duality(a):
    """Pushforward differentials are exact adjoints of the restrictions.

    In the dual basis the weight-w Gysin map G'_m : spot m -> spot m-1 is the
    transpose of the degree-(2d - w) restriction differential
    R : spot m-1 -> spot m for m >= 2; out of spot 1, where spot 0 keeps the
    basis of H^w(Y), Y's declared pairing P_0 intertwines them:
    G'_1^T P_0 = R.
    """
    d = a.dimension
    for w in range(2 * d + 1):
        gc = gysin_complex(a, w)
        rc = restriction_complex(a, 2 * d - w)
        for m in range(1, a.depth() + 1):
            lhs = gc.maps[m - 1].full_matrix().transpose()
            if m == 1:
                lhs = lhs * _pairing_block(a, 0, w)
            assert lhs == rc.maps[m - 1].full_matrix(), (w, m)


def test_duality_on_corpus(corpus):
    for a in corpus.values():
        _check_duality(a)


def test_duality_on_synthetic_atlases():
    rng = Random(1717)
    for _ in range(10):
        _check_duality(random_atlas(rng))


# ---------------------------------------------------------------------------
# Both references on the products the benchmark's deep workload runs
# ---------------------------------------------------------------------------

PRODUCTS = [("gm", "gm"), ("a1", "gm_times_a1"), ("gm", "gm_times_a1"),
            ("surface_resolution", "gm")]


@functools.lru_cache(maxsize=None)
def _random_products() -> tuple:
    """Six products of two random boundary curves, drawn as the benchmark
    draws its deep inputs (its filter aside)."""
    rng = Random(2600)
    return tuple([kunneth(random_boundary_atlas(rng, 1, rng.randint(1, 2)),
                          random_boundary_atlas(rng, 1, rng.randint(1, 2)))
                  for _ in range(6)])


PRODUCT_CASES = (
    [(f"{x} x {y}", lambda x=x, y=y: kunneth(builtin(x), builtin(y))) for x, y in PRODUCTS]
    + [(f"random-2600-{i}", lambda i=i: _random_products()[i]) for i in range(6)]
)


@pytest.mark.parametrize("changed", [False, True], ids=["as built", "basis changed"])
@pytest.mark.parametrize("make", [make for _, make in PRODUCT_CASES],
                         ids=[name for name, _ in PRODUCT_CASES])
def test_products_match_the_per_edge_reference_and_duality(make, changed):
    a = make()
    if changed:
        a = _change_basis(a, 2600)
        assert a != make()
    assert validate_atlas(a).ok
    _check_against_dense(a)
    _check_duality(a)


# ---------------------------------------------------------------------------
# Two routes to the lowest-weight compactly-supported piece
# ---------------------------------------------------------------------------

def _via_gysin_duality(a, n):
    """Gr^W_n H^n_c(X) as the mirror of Gr^W_(2d-n) H^(2d-n)(X), the spot-0
    homology of the weight-(2d - n) Gysin complex."""
    d = a.dimension
    dual = gysin_complex(a, 2 * d - n).homology_object(0)
    return from_hodge_numbers(n, {(d - p, d - q): k for (p, q), k in dual.hodge_numbers().items()})


def test_lowest_weight_routes_agree(corpus):
    for name, a in corpus.items():
        for n in range(2 * a.dimension + 1):
            direct = lowest_weight_compact(a, n)
            assert direct == grW_c(a, n).piece(n) == _via_gysin_duality(a, n), (name, n)


def test_lowest_weight_routes_agree_on_synthetic_atlases():
    rng = Random(2718)
    for _ in range(8):
        a = random_atlas(rng)
        for n in range(2 * a.dimension + 1):
            assert lowest_weight_compact(a, n) == _via_gysin_duality(a, n)


# ---------------------------------------------------------------------------
# The comparison map u_n
# ---------------------------------------------------------------------------

def test_u_map_endpoints_match_the_graded_tables(corpus):
    for name, a in corpus.items():
        for n in range(2 * a.dimension + 1):
            u = u_map(a, n)
            assert u.source == grW_c(a, n).piece(n), (name, n)
            assert u.target == grW(a, n).piece(n), (name, n)


def test_u_map_ranks_no_gysin_block_into_spot_0(monkeypatch, corpus):
    """The target is counted off the ranks of the dual restriction blocks R,
    not of the Gysin blocks Q R^T into spot 0 built from them."""
    ranked = _record_calls(monkeypatch, "rank", qmat.rank)
    stored = 0
    for name, a in corpus.items():
        a = loads_atlas(dumps_atlas(a))  # nothing cached on it yet
        for n in range(2 * a.dimension + 1):
            ranked.clear()
            u_map(a, n)
            g1 = gysin_complex(a, n).map_into(0)
            gysin = [g1.stored_block(lab) for lab in g1.labels()
                     if g1.stored_block(lab) is not None]
            stored += len(gysin)
            assert not [m for (m,) in ranked if any(m is b for b in gysin)], (name, n)
    assert stored > 0


def test_u_map_on_hand_examples():
    gm = builtin("gm")
    # Degree 0: nothing survives with compact supports on the open curve.
    assert u_map(gm, 0).source.dim == 0
    # Degree 2: H^2_c is one-dimensional but dies in ordinary cohomology.
    u2 = u_map(gm, 2)
    assert (u2.source.dim, u2.target.dim, u2.rank()) == (1, 0, 0)

    line = builtin("a1")
    u22 = u_map(line, 2)
    assert (u22.source.dim, u22.target.dim) == (1, 0)


def test_proper_atlases_have_isomorphic_comparison():
    rng = Random(515)
    for d in (0, 1, 2):
        for _ in range(4):
            a = random_proper_atlas(rng, d)
            for n in range(2 * d + 1):
                u = u_map(a, n)
                hn = a.pure_at((), n)
                assert u.source.hodge_numbers() == hn.hodge_numbers()
                assert u.target.hodge_numbers() == hn.hodge_numbers()
                assert u.rank() == hn.dim  # an isomorphism
                assert grW(a, n).piece(n) == u.target
                assert lowest_weight_compact(a, n) == u.source
