"""Absolute intersection cohomology of the open variety, one degree at a time.

For each degree n the comparison map

    u_n : Gr^W_n H^n_c(X) -> Gr^W_n H^n(X)

has a canonical kernel/image/cokernel decomposition (see ``factor``); the
degree-n absolute intersection cohomology is the pure weight-n object

    H^n_!*(X)  =  ker(u_n) (+) im(u_n) (+) coker(u_n).

The unit of work is one degree.  By strictness of weights the Hodge
numbers of the three parts depend only on the rank of each (p, q) block of
u_n, so ``ch_at(a, n)`` reads them off those ranks once per atlas, with no
factorization; ``absic_at`` reads H^n_!* off it, and ``boundary_at``
assembles the weight-graded boundary cohomology bH^n (the long exact
sequence between compact and ordinary cohomology splits weightwise) from
u_n, u_(n+1) and the plain and compact pieces.  ``tabulate`` collects a
piece over a tuple of degrees, once per atlas; ``absic_table``,
``boundary_cohomology``, ``plain_table`` and ``compact_table`` are such
collections over every degree.  Only ``absolute_ic``, for library users,
builds the maps of each factorization.
``direct_factor_check`` audits that H^n_!* embeds Hodge-blockwise into H^n
of the chosen compactification.
"""

from __future__ import annotations

from .atlas import StratumAtlas, per_atlas
from .factor import ChDecomposition, ChParts, ch_factorization, ch_parts
from .hodgecore import (
    CohomologyTable,
    MixedGraded,
    PureMorphism,
    PureObject,
    from_hodge_numbers,
    mixed,
    pure_mixed,
    table,
)
from .record import Record
from .wss import grW, grW_c, u_map


def _merge(weight: int, objects) -> PureObject:
    """Canonical (lex-slot-sorted) direct sum of same-weight pure objects."""
    numbers: dict = {}
    for obj in objects:
        for lab, k in obj.hodge_numbers().items():
            numbers[lab] = numbers.get(lab, 0) + k
    return from_hodge_numbers(weight, numbers)


class AbsicResult(Record):
    """Absolute intersection cohomology with its defining comparison maps:
    ``table`` (kind "absoluteIC"), ``comparisons`` ((n, PureMorphism), ...)
    and ``decompositions`` ((n, ChDecomposition), ...)."""

    __slots__ = _fields = ("table", "comparisons", "decompositions")

    def u(self, n: int) -> PureMorphism:
        return dict(self.comparisons)[n]

    def decomposition(self, n: int) -> ChDecomposition:
        return dict(self.decompositions)[n]

    def degrees(self) -> tuple:
        return tuple([k for k, _ in self.comparisons])


def all_degrees(a: StratumAtlas) -> tuple:
    """The degrees 0 .. 2d that a table on X spans."""
    return tuple(range(2 * a.dimension + 1))


def boundary_degrees(a: StratumAtlas) -> tuple:
    """The degrees 0 .. 2d-1 that the boundary table spans."""
    return tuple(range(2 * a.dimension))


@per_atlas
def tabulate(a: StratumAtlas, kind: str, piece, degrees: tuple) -> CohomologyTable:
    """The ``kind`` table of ``piece(a, n)`` for n in ``degrees``, built once per atlas."""
    return table(kind, {n: piece(a, n) for n in degrees})


@per_atlas
def ch_at(a: StratumAtlas, n: int) -> ChParts:
    """The parts of CH(u_n), read off the ranks of u_n once per atlas and degree."""
    return ch_parts(u_map(a, n))


def absic_at(a: StratumAtlas, n: int) -> MixedGraded:
    """H^n_!*(X) = CH(u_n), pure of weight n."""
    return pure_mixed(ch_at(a, n).total)


@per_atlas
def boundary_at(a: StratumAtlas, n: int) -> MixedGraded:
    """The weight-graded boundary cohomology bH^n(X).

    The long exact sequence ... -> H^n_c(X) -> H^n(X) -> bH^n -> H^(n+1)_c(X)
    -> ... splits on weight-graded pieces, giving for each weight w

        Gr_w bH^n = [w = n] coker(u_n)  (+)  [w > n] Gr_w H^n(X)
                    (+) [w <= n] Gr_w H^(n+1)_c(X) (+) [w = n+1] ker(u_(n+1)).
    """
    contributions: dict = {}

    def put(w, obj):
        if not obj.is_zero:
            contributions.setdefault(w, []).append(obj)

    put(n, ch_at(a, n).cokernel_part)
    put(n + 1, ch_at(a, n + 1).kernel_part)
    for w, obj in grW(a, n).pieces:
        if w > n:
            put(w, obj)
    for w, obj in grW_c(a, n + 1).pieces:
        if w <= n:
            put(w, obj)
    return mixed({w: _merge(w, objs) for w, objs in contributions.items()})


@per_atlas
def absolute_ic(a: StratumAtlas) -> AbsicResult:
    """H^n_!*(X) for every degree n in [0, 2d], with each u_n and its CH
    factorization."""
    degrees = all_degrees(a)
    return AbsicResult(
        absic_table(a),
        tuple([(n, u_map(a, n)) for n in degrees]),
        tuple([(n, ch_factorization(u_map(a, n))) for n in degrees]),
    )


def absic_table(a: StratumAtlas) -> CohomologyTable:
    """H^n_!*(X) for n in [0, 2d]."""
    return tabulate(a, "absoluteIC", absic_at, all_degrees(a))


def boundary_cohomology(a: StratumAtlas) -> CohomologyTable:
    """The weight-graded boundary cohomology table (degrees 0 .. 2d-1)."""
    return tabulate(a, "boundary", boundary_at, boundary_degrees(a))


def plain_table(a: StratumAtlas) -> CohomologyTable:
    """H^n(X) with its full weight grading, for n in [0, 2d]."""
    return tabulate(a, "plain", grW, all_degrees(a))


def compact_table(a: StratumAtlas) -> CohomologyTable:
    """H^n_c(X) with its full weight grading, for n in [0, 2d]."""
    return tabulate(a, "compactSupport", grW_c, all_degrees(a))


class FactorCheck(Record):
    """Degreewise answer to: does H^n_!* fit Hodge-blockwise inside H^n(Y)?
    ``by_degree`` is ((n, bool), ...)."""

    __slots__ = _fields = ("by_degree",)

    @property
    def ok(self) -> bool:
        return all(flag for _, flag in self.by_degree)

    def holds(self, n: int) -> bool:
        return dict(self.by_degree).get(n, True)


def direct_factor_check(a: StratumAtlas) -> FactorCheck:
    """Check dim_(p,q) H^n_!*(X) <= dim_(p,q) H^n(Y) for every degree and label.

    Absolute intersection cohomology is a direct factor of the cohomology of
    any smooth compactification, so each Hodge block must fit inside the
    corresponding block of H^n(Y); this audits that containment numerically.
    """
    rows = []
    for n in all_degrees(a):
        numbers = ch_at(a, n).total.hodge_numbers()
        ambient = a.pure_at((), n).hodge_numbers()
        rows.append((n, all(k <= ambient.get(lab, 0) for lab, k in numbers.items())))
    return FactorCheck(tuple(rows))
