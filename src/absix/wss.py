"""Weight-graded cohomology of the open variety via boundary complexes.

For X = Y \\ Z with normal-crossing boundary, each weight-graded piece of
H^*_c(X) and H^*(X) is the cohomology of a small complex built out of the
closed strata:

* ``restriction_complex(a, k)``: spot m carries (+)_{|S| = m} H^k(D_S) with
  signed restriction differentials (spot m -> spot m+1).  These complexes
  are the E_1 page of the weight spectral sequence of H^*_c(X): Gr^W_k
  H^n_c(X) is the homology at spot n - k (``grW_c``), and its k = n term is
  the spot-0 kernel (``lowest_weight_compact``).  ``grW`` is its Poincare
  dual: Gr^W_(2d - k) H^n(X) mirrors Gr^W_k H^(2d - n)_c(X), each slot
  (p, q) relabelled (d - p, d - q).  The tables read Hodge numbers only, so
  they invert no pairing.

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
  degree-w pairing, inverted once per complex; no other pairing is read.
  In the slot basis the block out of spot m is (P_m R P_(m-1)^-1)^T, P_m
  pairing spot m with its dual, so the change of basis is P_m on spot
  m >= 1: ranks, and the image of the map into spot 0 that ``u_map``
  reads, are those of the slot basis.  Only ``u_map`` and the Lefschetz
  route of ``plus.weight_criteria`` build it, for that map; the tests check
  its homology against ``grW``.

The restriction differentials are those validation squared
(``atlas.restriction_differential``), split into label blocks by
``hodgecore.label_blocks`` like Y's transposed inverse pairing; an entry
linking two labels is an InternalError.  The independent reference for the
Gysin blocks, one ``qmat.adjoint_pushforward`` per boundary edge in the slot
basis, lives in the tests.  ``u_map`` assembles the comparison
u_n : Gr^W_n H^n_c(X) -> Gr^W_n H^n(X), from ``lowest_weight_compact`` to
the cokernel of the Gysin map into spot 0, whose block ranks everything
downstream reads.  It counts that cokernel off the dual restriction blocks
R (rank Q R^T = rank R), so it ranks no Gysin block, and it builds a block
only where both ends are nonzero.  All of it runs one (p, q) block at a
time over exact rationals.
"""

from __future__ import annotations

from .atlas import StratumAtlas, per_atlas, restriction_differential
from .errors import InternalError
from .hodgecore import (
    ZERO_OBJECT,
    MixedGraded,
    PureMorphism,
    PureObject,
    _pure,
    direct_sum_all,
    from_hodge_numbers,
    label_blocks,
    mixed,
)
from .qmat import cokernel_projection, inverse, kernel_basis, rank
from .record import Record


class WeightComplex(Record):
    """A bounded complex of pure objects indexed by stratum codimension.

    ``maps[i]`` connects spots i and i+1: for a decreasing complex it is a
    morphism spots[i+1] -> spots[i] (Gysin direction), for an increasing one
    spots[i] -> spots[i+1] (restriction direction).
    """

    __slots__ = _fields = ("weight", "spots", "maps", "decreasing")

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


def _mirror(obj: PureObject, d: int) -> PureObject:
    """``obj`` with each slot (p, q) relabelled (d - p, d - q), in order."""
    return _pure(2 * d - obj.weight, tuple([(d - p, d - q) for p, q in obj.slots]))


@per_atlas
def restriction_complex(a: StratumAtlas, n: int) -> WeightComplex:
    """The degree-n restriction complex (weight n at every spot)."""
    spots = tuple([direct_sum_all([a.pure_at(s, n) for s in a.subsets_of_size(m)])
                   for m in range(a.depth() + 1)])
    maps = []
    for m in range(len(spots) - 1):
        source, target = spots[m], spots[m + 1]
        blocks, hit = label_blocks(source, target, restriction_differential(a, n, m))
        if hit is not None:
            i, j = hit
            raise InternalError(
                f"restriction differential n={n}, spot {m}: block {list(a.spot_subsets(n, m)[j])}"
                f"->{list(a.spot_subsets(n, m + 1)[i])} links slot {source.slots[j]} to slot "
                f"{target.slots[i]}")
        maps.append(PureMorphism(source, target, blocks))
    return WeightComplex(n, spots, tuple(maps), False)


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
            placed, hit = label_blocks(mirrored[0], spots[0],
                                       inverse(a.pairing_at((), w)).transpose())
            if hit is not None:
                i, j = hit
                raise InternalError(
                    f"gysin differential w={w}, spot 1: inverse pairing in degree {w}: block "
                    f"[]->[] links slot {mirrored[0].slots[j]} to slot {spots[0].slots[i]}")
            blocks = {lab: placed[lab] * block for lab, block in blocks.items()}
        maps.append(PureMorphism(spots[m], spots[m - 1], blocks))
    return WeightComplex(w, spots, tuple(maps), True)


@per_atlas
def grW_c(a: StratumAtlas, n: int) -> MixedGraded:
    """Weight-graded pieces of H^n_c(X): Gr^W_k is the homology of
    ``restriction_complex(a, k)`` at spot n - k."""
    d = a.dimension
    # spot n - k <= depth, and H^k(D_S) with |S| = n - k vanishes below k = 2n - 2d
    return mixed({k: restriction_complex(a, k).homology_object(n - k)
                  for k in range(max(0, n - a.depth(), 2 * n - 2 * d), n + 1)})


@per_atlas
def grW(a: StratumAtlas, n: int) -> MixedGraded:
    """Weight-graded pieces of H^n(X), Poincare dual to H^(2d - n)_c(X):
    weight k goes to weight 2d - k and slot (p, q) to (d - p, d - q)."""
    d = a.dimension
    pieces = {}
    for k, obj in grW_c(a, 2 * d - n).pieces:
        mirrored = {(d - p, d - q): h for (p, q), h in obj.hodge_numbers().items()}
        pieces[2 * d - k] = from_hodge_numbers(2 * d - k, mirrored)
    return mixed(pieces)


def lowest_weight_compact(a: StratumAtlas, n: int) -> PureObject:
    """Gr^W_n H^n_c(X), the k = n term of ``grW_c``: the spot-0 kernel of
    ``restriction_complex(a, n)``."""
    return restriction_complex(a, n).homology_object(0)


@per_atlas
def u_map(a: StratumAtlas, n: int) -> PureMorphism:
    """The comparison u_n : Gr^W_n H^n_c(X) -> Gr^W_n H^n(X).

    Per (p, q) block: the source is the kernel of the spot-0 restriction
    differential (inside H^n(Y)), so ``lowest_weight_compact``; the target
    is the cokernel of the spot-1 Gysin differential (a quotient of H^n(Y)),
    and u_n is induced by the identity of H^n(Y).  That Gysin block is
    Q R^T with Q invertible, so the target is counted as the spot-0
    homology of the degree-(2d - n) restriction complex, each slot (p, q)
    relabelled (d - p, d - q): the ranks of R, not of Q R^T.  A block is
    built only where neither end is zero.
    """
    d = a.dimension
    rc = restriction_complex(a, n)
    gc = gysin_complex(a, n)
    if rc.spot(0).slots != gc.spot(0).slots:
        raise InternalError("spot-0 objects must agree")
    dual = restriction_complex(a, 2 * d - n).homology_hodge(0)
    source = lowest_weight_compact(a, n)
    target = from_hodge_numbers(n, {(d - p, d - q): h for (p, q), h in dual.items()})
    d0, g1 = rc.map_out_of(0), gc.map_into(0)
    blocks = {lab: cokernel_projection(g1.block(lab)) * kernel_basis(d0.block(lab))
              for lab in source.labels() if target.count(lab)}
    return PureMorphism(source, target, blocks)
