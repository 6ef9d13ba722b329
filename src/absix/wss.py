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
(p, q) block at a time over exact rationals.  Each differential is gathered
label by label from the signed summand matrices, with no full matrix formed.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from .atlas import StratumAtlas, per_atlas
from .errors import InternalError
from .hodgecore import (
    MixedGraded,
    PureMorphism,
    PureObject,
    cross_label_entry,
    direct_sum_all,
    from_hodge_numbers,
    mixed,
    tate_twist,
)
from .qmat import (_ZERO, Matrix, _wrap, adjoint_pushforward, cokernel_projection,
                   kernel_basis, rank)


@dataclass(frozen=True)
class WeightComplex:
    """A bounded complex of pure objects indexed by stratum codimension.

    ``maps[i]`` connects spots i and i+1: for a decreasing complex it is a
    morphism spots[i+1] -> spots[i] (Gysin direction), for an increasing one
    spots[i] -> spots[i+1] (restriction direction).
    """

    weight: int
    spots: tuple
    maps: tuple
    decreasing: bool

    def __post_init__(self):
        for i in range(len(self.maps) - 1):
            if self.decreasing:
                square = self.maps[i].compose(self.maps[i + 1])
            else:
                square = self.maps[i + 1].compose(self.maps[i])
            if not square.is_zero():
                raise InternalError(f"differential does not square to zero at {i}")

    def spot(self, m: int) -> PureObject:
        if 0 <= m < len(self.spots):
            return self.spots[m]
        return PureObject(self.weight, ())

    def map_out_of(self, m: int) -> Optional[PureMorphism]:
        """The differential leaving spot m, or None at the end."""
        i = m - 1 if self.decreasing else m
        if 0 <= i < len(self.maps):
            return self.maps[i]
        return None

    def map_into(self, m: int) -> Optional[PureMorphism]:
        """The differential arriving at spot m, or None at the end."""
        i = m if self.decreasing else m - 1
        if 0 <= i < len(self.maps):
            return self.maps[i]
        return None

    def homology_hodge(self, m: int) -> dict:
        """Hodge numbers of ker(out) / im(in) at spot m, one label at a time."""
        spot = self.spot(m)
        out_map, in_map = self.map_out_of(m), self.map_into(m)
        counts = {}
        for lab in spot.labels():
            total = spot.count(lab)
            r_out = rank(out_map.block(lab)) if out_map is not None else 0
            r_in = rank(in_map.block(lab)) if in_map is not None else 0
            h = total - r_out - r_in
            if h < 0:
                raise InternalError(f"homology count negative at spot {m}, label {lab}")
            if h:
                counts[lab] = counts.get(lab, 0) + h
        return counts

    def homology_object(self, m: int) -> PureObject:
        return from_hodge_numbers(self.weight, self.homology_hodge(m))


def _label_first(source: PureObject, target: PureObject,
                 src_parts, tgt_parts, blocks, where: str) -> PureMorphism:
    """The morphism with summand blocks ``blocks[(tgt, src)]`` (absent pairs zero).

    ``source``/``target`` are the direct sums of the ``subset -> object``
    summands ``src_parts``/``tgt_parts``.  A label block takes that label's
    rows and columns in summand order, then slot order: the full matrix's
    order.  Blocks of validated data link no two different labels.
    """
    for (tgt, src), m in blocks.items():
        hit = cross_label_entry(src_parts[src], tgt_parts[tgt], m)
        if hit is not None:
            i, j = hit
            raise InternalError(f"{where}: block {list(src)}->{list(tgt)} links slot "
                                f"{src_parts[src].slots[j]} to slot {tgt_parts[tgt].slots[i]}")
    label_blocks, zeros = {}, (_ZERO,) * source.dim
    for lab in source.labels():
        if not target.count(lab):
            continue
        cols = [(src, obj.positions(lab)) for src, obj in src_parts.items()]
        rows = []
        for tgt, obj in tgt_parts.items():
            pieces = [(blocks.get((tgt, src)), pos) for src, pos in cols]
            for i in obj.positions(lab):
                row = []
                for m, pos in pieces:
                    entries = zeros if m is None else m.row(i)
                    row.extend([entries[j] for j in pos])
                rows.append(tuple(row))
        label_blocks[lab] = _wrap(len(rows), source.count(lab), tuple(rows))
    return PureMorphism(source, target, label_blocks)


@per_atlas
def gysin_complex(a: StratumAtlas, w: int) -> WeightComplex:
    """The weight-w Gysin complex; homology at spot m is Gr^W_w H^(w-m)(X)."""
    d = a.dimension
    depth = a.depth()
    summands = [{s: tate_twist(a.pure_at(s, w - 2 * m), -m) for s in a.subsets_of_size(m)}
                for m in range(depth + 1)]
    spots = [direct_sum_all(list(sm.values())) for sm in summands]
    maps = []
    for m in range(1, depth + 1):
        blocks = {}
        for subset, obj in summands[m].items():
            if obj.is_zero:
                continue
            for pos, dropped in enumerate(subset):
                smaller = subset[:pos] + subset[pos + 1:]
                j = w - 2 * m  # degree on the source stratum
                if a.pairing_at(smaller, j + 2).rows == 0:
                    continue
                r = a.restriction_matrix(smaller, subset, 2 * d - w)
                g = adjoint_pushforward(r, a.pairing_at(subset, j),
                                        a.strata[smaller].pairing_inverses[j + 2])
                if g.is_zero():
                    continue
                blocks[(smaller, subset)] = -g if pos % 2 else g
        maps.append(_label_first(spots[m], spots[m - 1], summands[m], summands[m - 1],
                                 blocks, f"gysin differential w={w}, spot {m}"))
    return WeightComplex(w, tuple(spots), tuple(maps), True)


@per_atlas
def restriction_complex(a: StratumAtlas, n: int) -> WeightComplex:
    """The degree-n restriction complex (weight n at every spot)."""
    depth = a.depth()
    summands = [{s: a.pure_at(s, n) for s in a.subsets_of_size(m)} for m in range(depth + 1)]
    spots = [direct_sum_all(list(sm.values())) for sm in summands]
    maps = []
    for m in range(depth):
        blocks = {}
        for subset, obj in summands[m + 1].items():
            if obj.is_zero:
                continue
            for pos, added in enumerate(subset):
                smaller = subset[:pos] + subset[pos + 1:]
                if a.stratum(smaller) is None:
                    continue
                r = a.restriction_matrix(smaller, subset, n)
                if r.is_zero():
                    continue
                blocks[(subset, smaller)] = -r if pos % 2 else r
        maps.append(_label_first(spots[m], spots[m + 1], summands[m], summands[m + 1],
                                 blocks, f"restriction differential n={n}, spot {m}"))
    return WeightComplex(n, tuple(spots), tuple(maps), False)


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
        restr = d0.block(lab) if d0 is not None else Matrix.zeros(0, ambient.count(lab))
        gys = g1.block(lab) if g1 is not None else Matrix.zeros(ambient.count(lab), 0)
        k = kernel_basis(restr)
        c = cokernel_projection(gys)
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
