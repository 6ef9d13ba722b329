"""Weight-graded cohomology of the open variety via boundary complexes.

For X = Y \\ Z with normal-crossing boundary, each weight-graded piece of
H^*(X) is the cohomology of a small complex built out of the closed strata:

* ``gysin_complex(a, w)``: spot m carries the weight-w pure object

      (+)_{|S| = m}  H^(w - 2m)(D_S)(-m),

  and the differential (spot m -> spot m-1) sums signed Gysin pushforwards
  along the inclusions D_S -> D_(S \\ {i}).  Each pushforward is the Poincare
  adjoint of the corresponding restriction matrix.  Then

      Gr^W_w H^n(X)  =  homology of this complex at spot m = w - n.

* ``restriction_complex(a, n)``: spot m carries (+)_{|S| = m} H^n(D_S) with
  signed restriction differentials (spot m -> spot m+1); its spot-0 kernel is
  the lowest-weight piece Gr^W_n of H^n_c(X).

``grW_c`` (full weight grading with compact supports) is produced from
``grW`` by Poincare duality of the open smooth X, which keeps the two
independent routes to the overlapping weight-n piece available as a
cross-check.  ``u_map`` assembles the canonical comparison

      u_n : Gr^W_n H^n_c(X) -> Gr^W_n H^n(X)

whose kernel/image/cokernel decomposition everything downstream consumes.

All spots, maps and homology objects are bigraded; computations happen one
(p, q) block at a time over exact rationals.  Each differential is placed
from the nonzeros of the summand blocks that exist, each straight into its
label's block; absent summand pairs cost nothing and no full matrix is formed.
"""

from __future__ import annotations

from .atlas import StratumAtlas, per_atlas
from .errors import InternalError
from .hodgecore import (
    ZERO_OBJECT,
    MixedGraded,
    PureMorphism,
    PureObject,
    direct_sum_all,
    from_hodge_numbers,
    mixed,
    tate_twist,
)
from .qmat import (_sparse, _wrap, adjoint_pushforward, cokernel_projection, kernel_basis,
                   rank)
from .record import Record


class WeightComplex(Record):
    """A bounded complex of pure objects indexed by stratum codimension.

    ``maps[i]`` connects spots i and i+1: for a decreasing complex it is a
    morphism spots[i+1] -> spots[i] (Gysin direction), for an increasing one
    spots[i] -> spots[i+1] (restriction direction).
    """

    __slots__ = _fields = ("weight", "spots", "maps", "decreasing")

    def __init__(self, weight: int, spots: tuple, maps: tuple, decreasing: bool):
        for i in range(len(maps) - 1):
            if decreasing:
                square = maps[i].compose(maps[i + 1])
            else:
                square = maps[i + 1].compose(maps[i])
            if not square.is_zero():
                raise InternalError(f"differential does not square to zero at {i}")
        super().__init__(weight, spots, maps, decreasing)

    def spot(self, m: int) -> PureObject:
        """The object at spot m: ``ZERO_OBJECT`` past either end."""
        return self.spots[m] if 0 <= m < len(self.spots) else ZERO_OBJECT

    def map_out_of(self, m: int) -> PureMorphism:
        """The differential leaving spot m: past either end, the zero map to
        the next spot."""
        i = m - 1 if self.decreasing else m
        if 0 <= i < len(self.maps):
            return self.maps[i]
        return PureMorphism.zero(self.spot(m), self.spot(m - 1 if self.decreasing else m + 1))

    def map_into(self, m: int) -> PureMorphism:
        """The differential arriving at spot m: past either end, the zero map
        from the previous spot."""
        i = m if self.decreasing else m - 1
        if 0 <= i < len(self.maps):
            return self.maps[i]
        return PureMorphism.zero(self.spot(m + 1 if self.decreasing else m - 1), self.spot(m))

    def homology_hodge(self, m: int) -> dict:
        """Hodge numbers of ker(out) / im(in) at spot m, one label at a time."""
        spot = self.spot(m)
        out_map, in_map = self.map_out_of(m), self.map_into(m)
        counts = {}
        for lab in spot.labels():
            h = spot.count(lab) - rank(out_map.block(lab)) - rank(in_map.block(lab))
            if h < 0:
                raise InternalError(f"homology count negative at spot {m}, label {lab}")
            if h:
                counts[lab] = counts.get(lab, 0) + h
        return counts

    def homology_object(self, m: int) -> PureObject:
        return from_hodge_numbers(self.weight, self.homology_hodge(m))


def _direct_sum(parts) -> tuple:
    """The direct sum of the summands ``parts`` (subset -> object) and its
    place table: each summand's slots as ``(label, index within that label's
    block)``, counted in summand order, then slot order."""
    seen, places = {}, {}
    for subset, obj in parts.items():
        places[subset] = row = []
        for lab in obj.slots:
            k = seen.get(lab, 0)
            seen[lab] = k + 1
            row.append((lab, k))
    return direct_sum_all(list(parts.values())), places


def _label_first(source, target, blocks, where: str) -> PureMorphism:
    """The morphism between the direct sums ``source`` and ``target`` (each
    ``(object, places)`` from ``_direct_sum``) with summand blocks
    ``blocks[(tgt, src)] = (m, negate)``, absent pairs zero, placed in one
    pass over their nonzeros.  A nonzero linking two different labels is an
    InternalError: validated data has none."""
    (src_obj, src_places), (tgt_obj, tgt_places) = source, target
    lines = {}  # (label, row in its block) -> that row, once it has a nonzero
    for (tgt, src), (m, negate) in blocks.items():
        row_places, col_places = tgt_places[tgt], src_places[src]
        for i, row in enumerate(_sparse(m)[0]):
            if row:
                place = row_places[i]
                line = lines.get(place)
                if line is None:
                    line = lines[place] = [0] * src_obj.count(place[0])
                for j, x in row.items():
                    lab, c = col_places[j]
                    if lab != place[0]:
                        raise InternalError(f"{where}: block {list(src)}->{list(tgt)} "
                                            f"links slot {lab} to slot {place[0]}")
                    line[c] = -x if negate else x
    label_blocks = {}
    for lab in src_obj.labels():
        rows, cols = tgt_obj.count(lab), src_obj.count(lab)
        if rows:
            zero = (0,) * cols
            label_blocks[lab] = _wrap(rows, cols, tuple([
                tuple(lines[lab, i]) if (lab, i) in lines else zero for i in range(rows)]))
    return PureMorphism(src_obj, tgt_obj, label_blocks)


@per_atlas
def gysin_complex(a: StratumAtlas, w: int) -> WeightComplex:
    """The weight-w Gysin complex; homology at spot m is Gr^W_w H^(w-m)(X)."""
    sums = [_direct_sum({s: tate_twist(a.pure_at(s, w - 2 * m), -m)
                         for s in a.subsets_of_size(m)}) for m in range(a.depth() + 1)]
    maps = []
    for m in range(1, len(sums)):
        j = w - 2 * m  # degree on the source stratum
        blocks = {}
        for subset, slots in sums[m][1].items():
            for pos in range(len(subset) if slots else 0):
                smaller = subset[:pos] + subset[pos + 1:]
                if a.pairing_at(smaller, j + 2).rows:
                    r = a.restriction_matrix(smaller, subset, 2 * a.dimension - w)
                    g = adjoint_pushforward(r, a.pairing_at(subset, j),
                                            a.strata[smaller].pairing_inverse(j + 2))
                    blocks[(smaller, subset)] = (g, pos % 2)
        maps.append(_label_first(sums[m], sums[m - 1], blocks,
                                 f"gysin differential w={w}, spot {m}"))
    return WeightComplex(w, tuple([s for s, _ in sums]), tuple(maps), True)


@per_atlas
def restriction_complex(a: StratumAtlas, n: int) -> WeightComplex:
    """The degree-n restriction complex (weight n at every spot)."""
    sums = [_direct_sum({s: a.pure_at(s, n) for s in a.subsets_of_size(m)})
            for m in range(a.depth() + 1)]
    maps = []
    for m in range(len(sums) - 1):
        blocks = {}
        for subset, slots in sums[m + 1][1].items():
            for pos in range(len(subset) if slots else 0):
                smaller = subset[:pos] + subset[pos + 1:]
                blocks[(subset, smaller)] = (a.restriction_matrix(smaller, subset, n), pos % 2)
        maps.append(_label_first(sums[m], sums[m + 1], blocks,
                                 f"restriction differential n={n}, spot {m}"))
    return WeightComplex(n, tuple([s for s, _ in sums]), tuple(maps), False)


@per_atlas
def grW(a: StratumAtlas, n: int) -> MixedGraded:
    """Weight-graded pieces of H^n(X) as a MixedGraded family."""
    d = a.dimension
    if n < 0 or n > 2 * d:
        return MixedGraded(())
    pieces = {}
    for w in range(n, min(2 * n, n + a.depth()) + 1):  # spot w - n <= depth
        obj = gysin_complex(a, w).homology_object(w - n)
        if not obj.is_zero:
            pieces[w] = obj
    return mixed(pieces)


@per_atlas
def grW_c(a: StratumAtlas, n: int) -> MixedGraded:
    """Weight-graded pieces of H^n_c(X), by duality with degree 2d - n."""
    d = a.dimension
    plain = grW(a, 2 * d - n)
    pieces = {}
    for _, obj in plain.pieces:
        w = 2 * d - obj.weight
        numbers = {}
        for (p, q) in obj.slots:
            lab = (d - p, d - q)
            numbers[lab] = numbers.get(lab, 0) + 1
        pieces[w] = from_hodge_numbers(w, numbers)
    return mixed(pieces)


def lowest_weight_compact(a: StratumAtlas, n: int) -> PureObject:
    """Gr^W_n H^n_c(X) read directly from the restriction complex.

    This is the spot-0 kernel of ``restriction_complex(a, n)`` -- an
    independent route to the same object ``grW_c(a, n)`` produces at
    weight n via duality; both are exposed so they can be compared.
    """
    return restriction_complex(a, n).homology_object(0)


@per_atlas
def u_map(a: StratumAtlas, n: int) -> PureMorphism:
    """The comparison u_n : Gr^W_n H^n_c(X) -> Gr^W_n H^n(X).

    Per (p, q) block: the source is the kernel of the spot-0 restriction
    differential (inside H^n(Y)), the target is the cokernel of the spot-1
    Gysin differential (a quotient of H^n(Y)), and u_n is induced by the
    identity of H^n(Y).
    """
    rc = restriction_complex(a, n)
    gc = gysin_complex(a, n)
    ambient = rc.spot(0)
    if ambient.slots != gc.spot(0).slots:
        raise InternalError("spot-0 objects must agree")
    d0 = rc.map_out_of(0)
    g1 = gc.map_into(0)
    src_counts, tgt_counts, kernels, projections = {}, {}, {}, {}
    for lab in ambient.labels():
        k = kernel_basis(d0.block(lab))
        c = cokernel_projection(g1.block(lab))
        kernels[lab], projections[lab] = k, c
        if k.cols:
            src_counts[lab] = k.cols
        if c.rows:
            tgt_counts[lab] = c.rows
    source = from_hodge_numbers(n, src_counts)
    target = from_hodge_numbers(n, tgt_counts)
    blocks = {
        lab: projections[lab] * kernels[lab]
        for lab in ambient.labels()
        if kernels[lab].cols and projections[lab].rows
    }
    return PureMorphism(source, target, blocks)
