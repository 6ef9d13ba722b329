"""One-point compactification cohomology and candidate comparisons.

``ih_plus_at(a, n)`` is the degree-n intersection cohomology of the one-point
compactification X+ of a connected X of pure dimension d:

    degree n < d : the full weight-graded H^n(X),
    degree n = d : the image of u_d (pure of weight d),
    degree n > d : the full weight-graded H^n_c(X),

so only the ranks of u_d are ever read; ``ih_one_point`` tabulates it over
every degree, once per atlas.

``weight_criteria`` evaluates the weight conditions on the boundary
cohomology that characterize when X+ already computes absolute intersection
cohomology.  ``plus_dichotomy`` explains a failing verdict: either extra
dimensions next to the middle degree, or a factorization obstruction in the
middle degree itself.  With one smooth boundary divisor Z and d = 2c, the
connecting map out of H^2c(Z) decides; it is nonzero exactly when
Gr^W_2c H^(2c+1)_c(X) = H^2c(Z) / im H^2c(Y) is, a piece the criteria have
computed.  ``compare_candidates`` compares the absolute table against both
X+ and the compactification Y; ``intersection_matrix_rank`` computes the
rank of the boundary intersection matrix for surfaces.
"""

from __future__ import annotations

from .absic import absic_table, all_degrees, boundary_at, ch_at, tabulate
from .atlas import StratumAtlas, per_atlas, require_valid
from .errors import MissingSelfIntersections, PreconditionViolated
from .hodgecore import (
    CohomologyTable,
    MixedGraded,
    from_hodge_numbers,
    pure_mixed,
    table,
)
from .qmat import Matrix, rank
from .record import Record
from .wss import grW, grW_c, gysin_complex, restriction_complex


def _smooth_boundary(a: StratumAtlas) -> bool:
    """Whether the boundary is one smooth connected divisor Z."""
    return (len(a.components) == 1 and a.depth() == 1
            and a.pure_at((a.components[0],), 0).dim == 1)


def _require_connected(a: StratumAtlas, what: str):
    """Raise InvalidAtlas, then PreconditionViolated, unless a is valid and connected."""
    require_valid(a)
    if not a.connected:
        raise PreconditionViolated(
            f"{what} needs a connected X (declared dim H^0(Y) = 1, "
            f"got {a.pure_at((), 0).dim})"
        )


def ih_plus_at(a: StratumAtlas, n: int) -> MixedGraded:
    """IH^n(X+), weight-graded: the degree-n row of ``ih_one_point``."""
    _require_connected(a, "the one-point compactification table")
    d = a.dimension
    if n < d:
        return grW(a, n)
    if n == d:
        return pure_mixed(ch_at(a, d).image_part)
    return grW_c(a, n)


def ih_one_point(a: StratumAtlas) -> CohomologyTable:
    """Weight-graded intersection cohomology of the one-point compactification
    (``tabulate`` builds it once per atlas)."""
    return tabulate(a, "onePointIC", ih_plus_at, all_degrees(a))


class CriteriaReport(Record):
    """Boundary-weight conditions and the resulting verdict.

    ``cond2``: every boundary degree n <= d-1 carries weights <= n only.
    ``cond3``: every boundary degree n >= d carries weights >= n+1 only.
    ``cond6``: H^n(X) is pure of weight n for n <= d-1.
    ``cond7``: H^n_c(X) is pure of weight n for n >= d+1.
    ``injectivityRange``: for each degree n in [2, d], whether the
    degree-(n-1) boundary weights stay <= n-1 (the weight-route reading of
    the injectivity condition); ``injectivityRoute`` records that reading.
    ``lefschetz``: in the single-smooth-boundary case, the independent
    matrix route: ((n, injective), ...) for the composite
    H^(n-2)(Z)(-1) -> H^n(Y) -> H^n(Z); None otherwise.
    ``verdict``: cond2 (equivalent to cond3 by duality).
    """

    __slots__ = _fields = ("cond2", "cond3", "cond6", "cond7", "verdict",
                           "cond2_by_degree", "cond3_by_degree", "injectivityRange",
                           "injectivityRoute", "lefschetz")


@per_atlas
def weight_criteria(a: StratumAtlas) -> CriteriaReport:
    """Evaluate the boundary-weight conditions on an atlas."""
    d = a.dimension

    cond2_rows, cond3_rows = [], []
    for n in range(2 * d):
        ws = boundary_at(a, n).weights()
        if n <= d - 1:
            cond2_rows.append((n, all(w <= n for w in ws)))
        if n >= d:
            cond3_rows.append((n, all(w >= n + 1 for w in ws)))
    cond2 = all(ok for _, ok in cond2_rows)
    cond3 = all(ok for _, ok in cond3_rows)

    cond6 = all(set(grW(a, n).weights()) <= {n} for n in range(d))
    cond7 = all(set(grW_c(a, n).weights()) <= {n} for n in range(d + 1, 2 * d + 1))

    # The injectivity row for degree n is cond2's row for degree n - 1.
    injectivity = tuple([(n + 1, ok) for n, ok in cond2_rows if n >= 1])

    lefschetz = None
    if _smooth_boundary(a):
        lefschetz = tuple([
            (n, restriction_complex(a, n).map_out_of(0)
                .compose(gysin_complex(a, n).map_into(0)).is_injective())
            for n in range(2, d + 1)
        ])

    return CriteriaReport(
        cond2=cond2,
        cond3=cond3,
        cond6=cond6,
        cond7=cond7,
        verdict=cond2,
        cond2_by_degree=tuple(cond2_rows),
        cond3_by_degree=tuple(cond3_rows),
        injectivityRange=injectivity,
        injectivityRoute="via-weights",
        lefschetz=lefschetz,
    )


class DichotomyResult(Record):
    """Which of the two failure modes a verdict-false atlas exhibits.

    ``horn`` is "i" (extra dimensions next to the middle degree) or "ii"
    (dimensions agree but no factorization-compatible identification).
    ``mode`` is "exemplar" for the even-dimensional single-smooth-boundary
    situation, where the connecting map decides the horn, and "general"
    for the table-comparison generalization.  ``degrees`` lists the degrees
    the horn points at; ``boundary_nonzero`` is the connecting-map test in
    exemplar mode (None in general mode).
    """

    __slots__ = _fields = ("mode", "horn", "degrees", "boundary_nonzero", "detail")


@per_atlas
def _plus_mismatch(a: StratumAtlas) -> tuple:
    """The degrees where the one-point table and H_!*(X) differ."""
    one_point, absolute = ih_one_point(a), absic_table(a)
    return tuple([n for n in all_degrees(a) if one_point.hodge(n) != absolute.hodge(n)])


def plus_dichotomy(a: StratumAtlas) -> DichotomyResult:
    """Explain why the one-point compactification fails to be absolute."""
    _require_connected(a, "the dichotomy")
    if weight_criteria(a).verdict:
        raise PreconditionViolated(
            "the dichotomy only applies when the weight criteria fail"
        )
    d = a.dimension

    if d % 2 == 0 and d >= 2 and _smooth_boundary(a):
        c = d // 2
        # H^2c(Z) / im H^2c(Y), the spot-1 homology of the degree-2c
        # restriction complex, which cond7 of the criteria has read.
        if not grW_c(a, 2 * c + 1).piece(2 * c).is_zero:
            return DichotomyResult(
                mode="exemplar",
                horn="i",
                degrees=(2 * c - 1, 2 * c + 1),
                boundary_nonzero=True,
                detail=(
                    f"the connecting map out of H^{2 * c}(Z) is nonzero, so the "
                    f"one-point table has extra dimensions in degrees "
                    f"{2 * c - 1} and {2 * c + 1}"
                ),
            )
        return DichotomyResult(
            mode="exemplar",
            horn="ii",
            degrees=(2 * c,),
            boundary_nonzero=False,
            detail=(
                f"the connecting map vanishes: dimensions agree in degree {2 * c} "
                f"but no identification is compatible with the factorizations"
            ),
        )

    mismatch = _plus_mismatch(a)
    if mismatch:
        return DichotomyResult(
            mode="general",
            horn="i",
            degrees=mismatch,
            boundary_nonzero=None,
            detail=f"one-point and absolute tables differ in degrees {list(mismatch)}",
        )
    return DichotomyResult(
        mode="general",
        horn="ii",
        degrees=(d,),
        boundary_nonzero=None,
        detail=(
            "tables agree dimensionwise; the failure is an identification "
            f"incompatible with the factorizations in degree {d}"
        ),
    )


class ComparisonReport(Record):
    """Absolute table vs the one-point table vs the compactification's table."""

    __slots__ = _fields = ("hStar", "ihPlus", "hY", "matchesPlus", "matchesY",
                           "plusMismatchDegrees", "yMismatchDegrees")


def compare_candidates(a: StratumAtlas) -> ComparisonReport:
    """Compare H_!*(X) against the one-point and smooth compactifications."""
    _require_connected(a, "candidate comparison")
    h_star = absic_table(a)
    ih_plus = ih_one_point(a)
    h_y = table("plain", {n: pure_mixed(from_hodge_numbers(n, a.pure_at((), n).hodge_numbers()))
                          for n in all_degrees(a)})

    plus_mismatch = _plus_mismatch(a)
    mid = ch_at(a, a.dimension)
    interior_consistent = mid.kernel_part.is_zero and mid.cokernel_part.is_zero
    matches_plus = not plus_mismatch and interior_consistent

    y_mismatch = tuple([n for n in all_degrees(a) if h_star.hodge(n) != h_y.hodge(n)])
    return ComparisonReport(
        hStar=h_star,
        ihPlus=ih_plus,
        hY=h_y,
        matchesPlus=matches_plus,
        matchesY=not y_mismatch,
        plusMismatchDegrees=plus_mismatch,
        yMismatchDegrees=y_mismatch,
    )


def intersection_matrix(a: StratumAtlas) -> Matrix:
    """The boundary intersection matrix (Z_i . Z_j) of a surface atlas.

    Off-diagonal entries count the points of the pairwise intersections
    (dim H^0 of the crossing stratum, 0 when absent); diagonal entries are
    the declared self-intersection numbers.
    """
    require_valid(a)
    if a.dimension != 2:
        raise PreconditionViolated(
            f"intersection matrix is defined for surfaces (d = 2), got d = {a.dimension}"
        )
    if a.self_intersections is None:
        raise MissingSelfIntersections(
            "the atlas declares no self_intersections extension field"
        )
    missing = [c for c in a.components if c not in a.self_intersections]
    if missing:
        raise MissingSelfIntersections(
            f"no self-intersection declared for component(s) {missing}"
        )
    comps = a.components
    return Matrix.from_rows([
        [a.self_intersections[ci] if i == j
         else a.pure_at((ci, cj) if i < j else (cj, ci), 0).dim
         for j, cj in enumerate(comps)]
        for i, ci in enumerate(comps)
    ])


def intersection_matrix_rank(a: StratumAtlas) -> int:
    """Rank of the boundary intersection matrix (surface atlases only)."""
    return rank(intersection_matrix(a))
