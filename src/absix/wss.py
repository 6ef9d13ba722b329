"""Weight-graded cohomology of the open variety via boundary complexes.

For X = Y \\ Z with normal-crossing boundary, each weight-graded piece of
H^*(X) is the cohomology of a small complex built out of the closed strata:

* ``restriction_complex(a, n)``: spot m carries (+)_{|S| = m} H^n(D_S) with
  signed restriction differentials (spot m -> spot m+1); its spot-0 kernel is
  the lowest-weight piece Gr^W_n of H^n_c(X).

* ``gysin_complex(a, w)``: spot m carries (+)_{|S| = m} H^(w - 2m)(D_S)(-m),
  the differential (spot m -> spot m-1) sums signed Gysin pushforwards along
  D_S -> D_(S \\ {i}), and Gr^W_w H^n(X) is its homology at spot w - n.  A
  pushforward is the Poincare adjoint of a restriction, so the complex is
  written in the basis Poincare-dual to the degree-(2d - w) restriction
  complex: spot m >= 1 is restriction spot m with each slot (p, q)
  relabelled (d - p, d - q), and the label-L block of the differential out
  of it is R^T, with R the label-(d - p, d - q) block of restriction
  differential m - 1.  Spot 0 stays H^w(Y) in its own basis, so the block
  out of spot 1 is Q R^T, with Q the transpose of the inverse of Y's
  degree-w pairing; no other pairing is read.  In the slot basis the block
  out of spot m is (P_m R P_(m-1)^-1)^T, P_m pairing spot m with its dual,
  so the change of basis is P_m on spot m >= 1: ranks, and the image of the
  map into spot 0 that ``u_map`` reads, are those of the slot basis.

Every block is placed the same way: ``_direct_sum`` lays a spot out and
numbers each slot within its label's block, and ``_label_first`` writes the
nonzeros of the stratum blocks (restrictions, and Y's transposed inverse
pairing against the mirrored H^(2d - w)(Y)) straight into the rows of the
label blocks.  An entry linking two labels is an InternalError.

Each complex checks d . d = 0 per label, as the product of its stored
blocks.  ``grW_c`` is ``grW`` under Poincare duality of X;
``lowest_weight_compact`` reads the weight-n piece off the restriction
complex instead.  Both routes share the placed restriction blocks; the
independent reference, one ``qmat.adjoint_pushforward`` per boundary edge
in the slot basis, lives in the tests.  ``u_map`` assembles the comparison
u_n : Gr^W_n H^n_c(X) -> Gr^W_n H^n(X), whose kernel/image/cokernel
decomposition everything downstream consumes.  All of it runs one (p, q)
block at a time over exact rationals.
"""

from __future__ import annotations

from .atlas import StratumAtlas, per_atlas
from .errors import InternalError
from .hodgecore import (
    ZERO_OBJECT,
    MixedGraded,
    PureMorphism,
    PureObject,
    _pure,
    from_hodge_numbers,
    mixed,
)
from .qmat import _wrap, cokernel_projection, kernel_basis, rank
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
            first, then = (maps[i + 1], maps[i]) if decreasing else (maps[i], maps[i + 1])
            for lab in then.labels():
                outer, inner = then.stored_block(lab), first.stored_block(lab)
                if outer is not None and inner is not None and not (outer * inner).is_zero():
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
        """Hodge numbers of ker(out) / im(in) at spot m, one label at a time;
        only the stored blocks of the two differentials are ranked."""
        spot = self.spot(m)
        near = [self.maps[i] for i in ((m - 1, m) if self.decreasing else (m, m - 1))
                if 0 <= i < len(self.maps)]
        counts = {}
        for lab in spot.labels():
            h = spot.count(lab)
            for f in near:
                block = f.stored_block(lab)
                if block is not None:
                    h -= rank(block)
            if h < 0:
                raise InternalError(f"homology count negative at spot {m}, label {lab}")
            if h:
                counts[lab] = h
        return counts

    def homology_object(self, m: int) -> PureObject:
        return from_hodge_numbers(self.weight, self.homology_hodge(m))


def _direct_sum(parts) -> tuple:
    """The direct sum of the summands ``parts`` (subset -> object) and its
    place table: each summand's slots as ``(label, index within that label's
    block)``, counted in summand order, then slot order."""
    slots, seen, places = [], {}, {}
    for subset, obj in parts.items():
        places[subset] = row = []
        for lab in obj.slots:
            k = seen.get(lab, 0)
            seen[lab] = k + 1
            row.append((lab, k))
            slots.append(lab)
    return (_pure(sum(slots[0]), tuple(slots)) if slots else ZERO_OBJECT), places


def _mirror(obj: PureObject, d: int) -> PureObject:
    """``obj`` with each slot (p, q) relabelled (d - p, d - q), in order."""
    return _pure(2 * d - obj.weight, tuple([(d - p, d - q) for p, q in obj.slots]))


def _label_first(source, target, blocks, where: str) -> dict:
    """The label blocks of the morphism between the direct sums ``source``
    and ``target`` (each ``(object, places)`` from ``_direct_sum``) with
    summand blocks ``blocks[(tgt, src)] = (m, negate)``, absent pairs zero,
    placed in one pass over their nonzeros; the placed rows become the label
    blocks' rows.  A nonzero linking two different labels is an
    InternalError: validated data has none."""
    (src_obj, src_places), (tgt_obj, tgt_places) = source, target
    lines = {lab: [{} for _ in range(tgt_obj.count(lab))] for lab in src_obj.labels()}
    for (tgt, src), (m, negate) in blocks.items():
        row_places, col_places = tgt_places[tgt], src_places[src]
        for i, row in enumerate(m.sparse_rows()):
            if row:
                lab, r = row_places[i]
                for j, x in row.items():
                    col_lab, c = col_places[j]
                    if col_lab != lab:
                        raise InternalError(f"{where}: block {list(src)}->{list(tgt)} "
                                            f"links slot {col_lab} to slot {lab}")
                    lines[lab][r][c] = -x if negate else x
    return {lab: _wrap(src_obj.count(lab), rows) for lab, rows in lines.items() if rows}


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
        maps.append(PureMorphism(sums[m][0], sums[m + 1][0], _label_first(
            sums[m], sums[m + 1], blocks, f"restriction differential n={n}, spot {m}")))
    return WeightComplex(n, tuple([obj for obj, _ in sums]), tuple(maps), False)


@per_atlas
def gysin_complex(a: StratumAtlas, w: int) -> WeightComplex:
    """The weight-w Gysin complex; homology at spot m is Gr^W_w H^(w-m)(X).

    Spot 0 is H^w(Y); the other spots and every differential are read off
    the degree-(2d - w) restriction complex in the Poincare-dual basis
    (module docstring)."""
    d = a.dimension
    dual = restriction_complex(a, 2 * d - w)
    mirrored = [_mirror(obj, d) for obj in dual.spots]
    spots = tuple([a.pure_at((), w)] + mirrored[1:])
    maps = []
    for m, r in enumerate(dual.maps, 1):
        blocks = {}
        for p, q in r.labels():
            block = r.stored_block((p, q))
            if block is not None:
                blocks[d - p, d - q] = block.transpose()
        if m == 1 and blocks:
            inverse = a.stratum(()).pairing_inverse(w).transpose()
            placed = _label_first(_direct_sum({(): mirrored[0]}), _direct_sum({(): spots[0]}),
                                  {((), ()): (inverse, False)},
                                  f"gysin differential w={w}, spot 1: inverse pairing in degree {w}")
            blocks = {lab: placed[lab] * block for lab, block in blocks.items()}
        maps.append(PureMorphism(spots[m], spots[m - 1], blocks))
    return WeightComplex(w, spots, tuple(maps), True)


@per_atlas
def grW(a: StratumAtlas, n: int) -> MixedGraded:
    """Weight-graded pieces of H^n(X) as a MixedGraded family."""
    d = a.dimension
    if n < 0 or n > 2 * d:
        return MixedGraded(())
    pieces = {}
    # spot w - n <= depth; past weight 2d every spot of the complex is zero
    for w in range(n, min(2 * n, n + a.depth(), 2 * d) + 1):
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
