"""Weight-graded cohomology of the open variety via boundary complexes.

For X = Y \\ Z with normal-crossing boundary, each weight-graded piece of
H^*(X) is the cohomology of a small complex built out of the closed strata:

* ``restriction_complex(a, n)``: spot m carries (+)_{|S| = m} H^n(D_S) with
  signed restriction differentials (spot m -> spot m+1); its spot-0 kernel is
  the lowest-weight piece Gr^W_n of H^n_c(X).

* ``gysin_complex(a, w)``: spot m carries (+)_{|S| = m} H^(w - 2m)(D_S)(-m),
  the differential (spot m -> spot m-1) sums signed Gysin pushforwards along
  D_S -> D_(S \\ {i}), and Gr^W_w H^n(X) is its homology at spot w - n.  A
  pushforward is the Poincare adjoint of a restriction, so the differential
  is read off the placed degree-(2d - w) restriction differential one (p, q)
  label L at a time: its block is (P_m R P_(m-1)^-1)^T, with R the label-L*
  block, L* = (d - p, d - q), and P_m pairing spot m's label-L slots with
  their duals.  The block is computed as Q_(m-1) (P_m R)^T, where Q is the
  transpose of P^-1.

Every block is placed the same way: ``_direct_sum`` lays a spot out and
numbers each slot within its label's block, relabelling as it counts (the
Tate shift (p, q) -> (p + m, q + m) on Gysin spot m, the mirror
(p, q) -> (d - p, d - q) on the H^(2d - w)(D_S) that spot m's pairings pair
with), and ``_label_first`` writes the nonzeros of the stratum blocks
(restrictions, pairings P_S, transposed inverse pairings) straight into the
rows of the label blocks.  An entry linking two labels is an InternalError.

Each complex checks d . d = 0 per label, as the product of its stored
blocks.  ``grW_c`` is ``grW`` under Poincare duality of X;
``lowest_weight_compact`` reads the weight-n piece off the restriction
complex instead.  Both routes now share the placed restriction blocks; the
independent reference, one ``qmat.adjoint_pushforward`` per boundary edge,
lives in the tests.  ``u_map`` assembles the comparison
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


def _direct_sum(parts, sign: int = 1, shift: int = 0) -> tuple:
    """The direct sum of the summands ``parts`` (subset -> object), each slot
    (p, q) relabelled (sign p + shift, sign q + shift), and its place table:
    each summand's slots as ``(label, index within that label's block)``,
    counted in summand order, then slot order."""
    slots, seen, places = [], {}, {}
    for subset, obj in parts.items():
        places[subset] = row = []
        for p, q in obj.slots:
            lab = (sign * p + shift, sign * q + shift)
            k = seen.get(lab, 0)
            seen[lab] = k + 1
            row.append((lab, k))
            slots.append(lab)
    return (_pure(sum(slots[0]), tuple(slots)) if slots else ZERO_OBJECT), places


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

    Its differentials are the Poincare adjoints of the degree-(2d - w)
    restriction differentials, one label at a time (module docstring)."""
    d = a.dimension
    strata = [[(s, a.stratum(s)) for s in a.subsets_of_size(m)] for m in range(a.depth() + 1)]
    sums = [_direct_sum({s: st.pure_at(w - 2 * m) for s, st in row}, 1, m)
            for m, row in enumerate(strata)]
    spots = tuple([obj for obj, _ in sums])
    shared = [set(spots[m - 1].labels()).intersection(spots[m].labels())
              for m in range(1, len(spots))] + [()]
    dual = restriction_complex(a, 2 * d - w) if any(shared) else None
    maps, below = [], None
    for m, row in enumerate(strata):
        j, out_of, into = w - 2 * m, shared[m - 1] if m else (), shared[m]
        if out_of or into:
            live = [(s, st) for s, st in row if sums[m][1][s]]
            mirror = _direct_sum({s: st.pure_at(2 * d - w) for s, st in live}, -1, d)
        blocks = {}
        if out_of:
            pairing = _label_first(mirror, sums[m],
                                   {(s, s): (st.pairing_at(j), False) for s, st in live},
                                   f"gysin differential w={w}, spot {m}: pairing in degree {j}")
            for lab in out_of:
                r = dual.maps[m - 1].block((d - lab[0], d - lab[1]))
                blocks[lab] = below[lab] * (pairing[lab] * r).transpose()
        if m:
            maps.append(PureMorphism(spots[m], spots[m - 1], blocks))
        if into:
            inverses = {}
            for s, st in live:  # a loop, so the inverse is read in this frame
                inverses[s, s] = (st.pairing_inverse(j).transpose(), False)
            below = _label_first(mirror, sums[m], inverses, f"gysin differential w={w}, "
                                 f"spot {m + 1}: inverse pairing in degree {j}")
    return WeightComplex(w, spots, tuple(maps), True)


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
