"""Built-in worked examples: small atlases with hand-checked cohomology.

Every atlas here encodes an open variety X = Y \\ Z as a smooth proper Y with
a normal-crossing boundary divisor.  Geometry whose boundary has higher
codimension (points in a surface, a line in P^3) is encoded through a blow-up
of Y along the centre, which replaces the centre by a divisor without changing
the open part X.  The pairings and restrictions were computed by hand from
standard intersection theory on the named varieties and are frozen as data.
The intersection numbers of the surfaces' boundary curves are not: they are
derived from the restrictions (see ``_surface_minus_curves``).
"""

from __future__ import annotations

from typing import Callable, Mapping

from .atlas import StratumAtlas, StratumData, make_stratum
from .errors import UnknownCorpusItem
from .hodgecore import PureObject, ZERO_OBJECT
from .qmat import Matrix, inverse
from .record import Record


def _tate(k: int, mult: int = 1) -> PureObject:
    """H^(2k) of a rational/cellular variety: `mult` slots (k, k)."""
    return PureObject(2 * k, ((k, k),) * mult)


def _projective_space(n: int) -> StratumData:
    coh, pairs = [], []
    for k in range(2 * n + 1):
        if k % 2 == 0:
            coh.append(_tate(k // 2))
            pairs.append(Matrix.from_rows([[1]]))
        else:
            coh.append(ZERO_OBJECT)
            pairs.append(Matrix.zeros(0, 0))
    return make_stratum(n, coh, pairs)


def _surface(middle_pairing) -> StratumData:
    """A simply connected surface with H^2 of Tate type and the given form."""
    r = len(middle_pairing)
    return make_stratum(
        2,
        [_tate(0), ZERO_OBJECT, _tate(1, r), ZERO_OBJECT, _tate(2)],
        [Matrix.from_rows([[1]]), Matrix.zeros(0, 0), Matrix.from_rows(middle_pairing),
         Matrix.zeros(0, 0), Matrix.from_rows([[1]])],
    )


def _restriction(src: StratumData, dst: StratumData, given: Mapping) -> tuple:
    """Full degreewise restriction tuple; degrees not given are zero."""
    mats = []
    for k in range(len(src.cohomology)):
        if k in given:
            mats.append(Matrix.from_rows(given[k]))
        else:
            mats.append(Matrix.zeros(dst.pure_at(k).dim, src.pure_at(k).dim))
    return tuple(mats)


def _surface_minus_curves(form, curves: Mapping) -> StratumAtlas:
    """A surface Y with H^2 form ``form``, minus smooth rational curves.

    ``curves`` maps each component, in components order, to its restriction
    row H^2(Y) -> H^2(P^1) = Q.  By Poincare duality on Y the intersection
    numbers are C_i.C_j = row_i F^-1 row_j^T (F the form): the diagonal gives
    the self-intersections, and two curves with C_i.C_j = 1 cross in one
    point stratum.  The curves meet at most once.
    """
    y = _surface(form)
    line, point = _projective_space(1), _projective_space(0)
    names = list(curves)
    strata = {(): y}
    restrictions = {}
    for name, row in curves.items():
        strata[(name,)] = line
        restrictions[((), (name,))] = _restriction(y, line, {0: [[1]], 2: [row]})
    r = Matrix.from_rows(list(curves.values()))
    meet = r * inverse(y.pairing_at(2)) * r.transpose()
    for i, ci in enumerate(names):
        for j in range(i + 1, len(names)):
            if meet.row(i)[j] == 1:
                cross = (ci, names[j])
                strata[cross] = point
                for c in cross:
                    restrictions[((c,), cross)] = _restriction(line, point, {0: [[1]]})
    return StratumAtlas(2, names, strata, restrictions,
                        {c: meet.row(i)[i] for i, c in enumerate(names)})


# ---------------------------------------------------------------------------
# Builders
# ---------------------------------------------------------------------------

#: Largest accepted family parameters, so that each request's work is bounded:
#: ``--what all`` takes under 1 s at n=100 and about 11 s at points=300.
MAX_N, MAX_POINTS = 100, 300


def pn_minus_hyperplane(n: int = 2) -> StratumAtlas:
    """Affine n-space: X = P^n minus a hyperplane P^(n-1)."""
    if not isinstance(n, int) or not 1 <= n <= MAX_N:
        raise ValueError(f"pn_minus_hyperplane requires an integer n with 1 <= n <= {MAX_N}")
    y = _projective_space(n)
    z = _projective_space(n - 1)
    given = {2 * k: [[1]] for k in range(n)}
    return StratumAtlas(
        n, ["Z"], {(): y, ("Z",): z},
        {((), ("Z",)): _restriction(y, z, given)},
    )


def points_in_proper(points: int = 2) -> StratumAtlas:
    """P^2 minus `points` points, via the blow-up of P^2 at those points.

    Y is the blow-up, with H^2 spanned by the hyperplane class h and the
    exceptional classes e_1, ..., e_p (intersection form diag(1, -1, ..., -1));
    the boundary components are the disjoint exceptional curves E_i, and
    restriction to E_i reads off -(coefficient of e_i).
    """
    if not isinstance(points, int) or not 1 <= points <= MAX_POINTS:
        raise ValueError(
            f"points_in_proper requires an integer points with 1 <= points <= {MAX_POINTS}")
    p = points
    form = [[0] * (p + 1) for _ in range(p + 1)]
    form[0][0] = 1
    curves = {}
    for i in range(p):
        form[i + 1][i + 1] = -1
        row = [0] * (p + 1)
        row[i + 1] = -1
        curves[f"E{i + 1}"] = row
    return _surface_minus_curves(form, curves)


def low_dim_Z() -> StratumAtlas:
    """P^3 minus a line, via the blow-up of P^3 along the line.

    Y = Bl_line(P^3) with H^2 = <h, e> and H^4 = <l, f> (l a general line,
    f a fibre of the exceptional divisor E = P^1 x P^1 over the centre);
    the pairing between them is diag(1, -1).  On E the two rulings are
    alpha (fibre of E -> centre, alpha = h|_E) and beta, with e|_E = -a - b
    and f|_E = -[pt].
    """
    coh = [_tate(0), ZERO_OBJECT, _tate(1, 2), ZERO_OBJECT,
           _tate(2, 2), ZERO_OBJECT, _tate(3)]
    pairs = [Matrix.from_rows([[1]]), Matrix.zeros(0, 0),
             Matrix.from_rows([[1, 0], [0, -1]]), Matrix.zeros(0, 0),
             Matrix.from_rows([[1, 0], [0, -1]]), Matrix.zeros(0, 0),
             Matrix.from_rows([[1]])]
    y = make_stratum(3, coh, pairs)
    e = _surface([[0, 1], [1, 0]])
    given = {0: [[1]], 2: [[1, -1], [0, -1]], 4: [[0, -1]]}
    return StratumAtlas(
        3, ["E"], {(): y, ("E",): e},
        {((), ("E",)): _restriction(y, e, given)},
    )


def smooth_divisor_ample() -> StratumAtlas:
    """P^2 minus a smooth conic (boundary a degree-2 rational curve)."""
    return _surface_minus_curves([[1]], {"Z": [2]})


def middle_dim_Z_selfint_zero() -> StratumAtlas:
    """P^1 x P^1 minus one ruling line {0} x P^1 (self-intersection 0)."""
    return _surface_minus_curves([[0, 1], [1, 0]], {"Z": [0, 1]})


def middle_dim_Z_selfint_nonzero() -> StratumAtlas:
    """P^1 x P^1 minus the diagonal (self-intersection 2)."""
    return _surface_minus_curves([[0, 1], [1, 0]], {"Z": [1, 1]})


def surface_resolution() -> StratumAtlas:
    """Twice-blown-up plane minus a normal-crossing chain of two curves.

    Y is P^2 blown up at a point and then at a point of the exceptional
    curve; H^2 = <H, a, b> with intersection form diag(1, -1, -1).  The
    boundary is E1 (class a - b, self-intersection -2) together with
    E2 (class b, self-intersection -1), meeting in a single point -- the
    shape of an exceptional chain contracting to a surface singularity.
    """
    return _surface_minus_curves([[1, 0, 0], [0, -1, 0], [0, 0, -1]],
                                 {"E1": [0, -1, 1], "E2": [0, 0, -1]})


def gm_times_a1() -> StratumAtlas:
    """G_m x A^1: P^1 x P^1 minus {0} x P^1, {oo} x P^1 and P^1 x {oo}."""
    return _surface_minus_curves([[0, 1], [1, 0]],
                                 {"L0": [0, 1], "Linf": [0, 1], "Minf": [1, 0]})


def gm() -> StratumAtlas:
    """The punctured line G_m = P^1 minus {0, oo}."""
    y = _projective_space(1)
    strata = {(): y, ("p0",): _projective_space(0), ("pinf",): _projective_space(0)}
    restrictions = {
        ((), ("p0",)): _restriction(y, strata[("p0",)], {0: [[1]]}),
        ((), ("pinf",)): _restriction(y, strata[("pinf",)], {0: [[1]]}),
    }
    return StratumAtlas(1, ["p0", "pinf"], strata, restrictions)


# ---------------------------------------------------------------------------
# Registry
# ---------------------------------------------------------------------------

class CorpusItem(Record):
    """One catalogue entry; ``build`` is left out of equality and repr."""

    __slots__ = ("name", "summary", "parameters", "build")
    _fields = ("name", "summary", "parameters")

    def __init__(self, name: str, summary: str, parameters: str, build: Callable):
        super().__init__(name, summary, parameters)
        object.__setattr__(self, "build", build)


CATALOGUE = (
    CorpusItem("pn_minus_hyperplane",
               "affine n-space, as P^n minus a hyperplane",
               f"1<=n<={MAX_N}, default 2", pn_minus_hyperplane),
    CorpusItem("gm",
               "the punctured line, as P^1 minus {0, oo}",
               "", gm),
    CorpusItem("smooth_divisor_ample",
               "P^2 minus a smooth conic",
               "", smooth_divisor_ample),
    CorpusItem("points_in_proper",
               "P^2 minus a finite set of points, via a blow-up",
               f"1<=points<={MAX_POINTS}, default 2", points_in_proper),
    CorpusItem("low_dim_Z",
               "P^3 minus a line, via the blow-up along the line",
               "", low_dim_Z),
    CorpusItem("middle_dim_Z_selfint_zero",
               "P^1 x P^1 minus a ruling line (Z.Z = 0)",
               "", middle_dim_Z_selfint_zero),
    CorpusItem("middle_dim_Z_selfint_nonzero",
               "P^1 x P^1 minus the diagonal (Z.Z = 2)",
               "", middle_dim_Z_selfint_nonzero),
    CorpusItem("surface_resolution",
               "blown-up plane minus a normal-crossing chain of two curves",
               "", surface_resolution),
    CorpusItem("gm_times_a1",
               "G_m x A^1, as P^1 x P^1 minus three lines",
               "", gm_times_a1),
)

ALIASES = {
    "a1": ("pn_minus_hyperplane", {"n": 1}),
    "a2": ("pn_minus_hyperplane", {"n": 2}),
    "a3": ("pn_minus_hyperplane", {"n": 3}),
    "p1p1_minus_diagonal": ("middle_dim_Z_selfint_nonzero", {}),
}

_BY_NAME = {item.name: item for item in CATALOGUE}


def corpus_names() -> list:
    return [item.name for item in CATALOGUE]


def builtin(name: str, **params) -> StratumAtlas:
    """Build a corpus atlas by name (aliases like "a1" are accepted)."""
    if name in ALIASES:
        base, fixed = ALIASES[name]
        clash = set(fixed) & set(params)
        if clash:
            raise UnknownCorpusItem(
                f"alias {name!r} already fixes parameter(s) {sorted(clash)}")
        merged = dict(fixed)
        merged.update(params)
        return builtin(base, **merged)
    item = _BY_NAME.get(name)
    if item is None:
        options = ", ".join(corpus_names() + sorted(ALIASES))
        raise UnknownCorpusItem(f"no corpus atlas named {name!r}; try one of: {options}")
    try:
        return item.build(**params)
    except TypeError as exc:
        raise UnknownCorpusItem(f"bad parameters for {name!r}: {exc}") from None
