"""Absolute intersection cohomology of the open variety.

For each degree n the comparison map

    u_n : Gr^W_n H^n_c(X) -> Gr^W_n H^n(X)

has a canonical kernel/image/cokernel decomposition (see ``factor``); the
degree-n absolute intersection cohomology is the pure weight-n object

    H^n_!*(X)  =  ker(u_n) (+) im(u_n) (+) coker(u_n),

packaged here as a table alongside the maps and decompositions themselves.
The module also assembles the weight-graded boundary cohomology (the long
exact sequence between compact and ordinary cohomology splits weightwise)
and the dimension check that H^n_!* embeds Hodge-blockwise into H^n of the
chosen compactification.
"""

from __future__ import annotations

from dataclasses import dataclass

from .atlas import StratumAtlas, per_atlas
from .factor import ChDecomposition, ch_factorization
from .hodgecore import (
    CohomologyTable,
    PureMorphism,
    PureObject,
    from_hodge_numbers,
    mixed,
    pure_mixed,
    table,
)
from .wss import grW, grW_c, u_map


def _merge(weight: int, objects) -> PureObject:
    """Canonical (lex-slot-sorted) direct sum of same-weight pure objects."""
    numbers: dict = {}
    for obj in objects:
        for lab, k in obj.hodge_numbers().items():
            numbers[lab] = numbers.get(lab, 0) + k
    return from_hodge_numbers(weight, numbers)


@dataclass(frozen=True)
class AbsicResult:
    """Absolute intersection cohomology with its defining comparison maps."""

    table: CohomologyTable      # kind "absoluteIC"
    comparisons: tuple          # ((n, PureMorphism), ...)
    decompositions: tuple       # ((n, ChDecomposition), ...)

    def u(self, n: int) -> PureMorphism:
        for k, v in self.comparisons:
            if k == n:
                return v
        raise KeyError(f"no comparison map in degree {n}")

    def decomposition(self, n: int) -> ChDecomposition:
        for k, v in self.decompositions:
            if k == n:
                return v
        raise KeyError(f"no decomposition in degree {n}")

    def degrees(self) -> tuple:
        return tuple(k for k, _ in self.comparisons)


@per_atlas
def absolute_ic(a: StratumAtlas) -> AbsicResult:
    """Compute H^n_!*(X) for every degree n in [0, 2d]."""
    d = a.dimension
    comparisons, decompositions, by_degree = [], [], {}
    for n in range(2 * d + 1):
        u = u_map(a, n)
        dec = ch_factorization(u)
        comparisons.append((n, u))
        decompositions.append((n, dec))
        if not dec.total.is_zero:
            by_degree[n] = pure_mixed(dec.total)
    return AbsicResult(
        table("absoluteIC", by_degree), tuple(comparisons), tuple(decompositions)
    )


@per_atlas
def boundary_cohomology(a: StratumAtlas) -> CohomologyTable:
    """The weight-graded boundary cohomology table (degrees 0 .. 2d-1).

    The long exact sequence ... -> H^n_c(X) -> H^n(X) -> bH^n -> H^(n+1)_c(X)
    -> ... splits on weight-graded pieces, giving for each weight w

        Gr_w bH^n = [w = n] coker(u_n)  (+)  [w > n] Gr_w H^n(X)
                    (+) [w <= n] Gr_w H^(n+1)_c(X) (+) [w = n+1] ker(u_(n+1)).
    """
    result = absolute_ic(a)
    d = a.dimension
    by_degree = {}
    for n in range(2 * d):
        contributions: dict = {}

        def put(w, obj):
            if not obj.is_zero:
                contributions.setdefault(w, []).append(obj)

        put(n, result.decomposition(n).cokernel_part)
        put(n + 1, result.decomposition(n + 1).kernel_part)
        for w, obj in grW(a, n).pieces:
            if w > n:
                put(w, obj)
        for w, obj in grW_c(a, n + 1).pieces:
            if w <= n:
                put(w, obj)
        by_degree[n] = mixed(
            {w: _merge(w, objs) for w, objs in contributions.items()}
        )
    return table("boundary", by_degree)


def plain_table(a: StratumAtlas) -> CohomologyTable:
    """H^n(X) with its full weight grading, for n in [0, 2d]."""
    return table("plain", {n: grW(a, n) for n in range(2 * a.dimension + 1)})


def compact_table(a: StratumAtlas) -> CohomologyTable:
    """H^n_c(X) with its full weight grading, for n in [0, 2d]."""
    return table("compactSupport", {n: grW_c(a, n) for n in range(2 * a.dimension + 1)})


@dataclass(frozen=True)
class FactorCheck:
    """Degreewise answer to: does H^n_!* fit Hodge-blockwise inside H^n(Y)?"""

    by_degree: tuple  # ((n, bool), ...)

    @property
    def ok(self) -> bool:
        return all(flag for _, flag in self.by_degree)

    def holds(self, n: int) -> bool:
        for k, flag in self.by_degree:
            if k == n:
                return flag
        return True


def direct_factor_check(a: StratumAtlas) -> FactorCheck:
    """Check dim_(p,q) H^n_!*(X) <= dim_(p,q) H^n(Y) for every degree and label.

    Absolute intersection cohomology is a direct factor of the cohomology of
    any smooth compactification, so each Hodge block must fit inside the
    corresponding block of H^n(Y); this audits that containment numerically.
    """
    result = absolute_ic(a)
    rows = []
    for n in range(2 * a.dimension + 1):
        total = result.decomposition(n).total
        ambient = a.pure_at((), n).hodge_numbers()
        fits = all(
            k <= ambient.get(lab, 0) for lab, k in total.hodge_numbers().items()
        )
        rows.append((n, fits))
    return FactorCheck(tuple(rows))
