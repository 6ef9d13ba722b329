"""Weight-graded cohomology of the open variety via boundary complexes.

For X = Y \\ Z with normal-crossing boundary, each weight-graded piece of
H^*(X) is the cohomology of a small complex built out of the closed strata:

* ``restriction_complex(a, n)``: spot m carries (+)_{|S| = m} H^n(D_S) with
  signed restriction differentials (spot m -> spot m+1); its spot-0 kernel is
  the lowest-weight piece Gr^W_n of H^n_c(X).  Each differential is placed
  from the nonzeros of the summand blocks that exist, straight into its
  label blocks, whose sparse views are the placed rows.

* ``gysin_complex(a, w)``: spot m carries (+)_{|S| = m} H^(w - 2m)(D_S)(-m),
  the differential (spot m -> spot m-1) sums signed Gysin pushforwards along
  D_S -> D_(S \\ {i}), and Gr^W_w H^n(X) is its homology at spot w - n.  A
  pushforward is the Poincare adjoint of a restriction, so the differential
  is read off the placed degree-(2d - w) restriction differential one (p, q)
  label L at a time: its block is (P_m R P_(m-1)^-1)^T, with R the label-L*
  block, L* = (d - p, d - q), and P_m pairing spot m's label-L slots with
  their duals, applied stratum by stratum on sparse rows.  A pairing entry
  linking two labels is an InternalError.

Each complex checks d . d = 0 on the sparse rows of its blocks.  ``grW_c``
is ``grW`` under Poincare duality of X; ``lowest_weight_compact`` reads the
weight-n piece off the restriction complex instead.  Both routes now share
the placed restriction blocks; the independent reference, one
``qmat.adjoint_pushforward`` per boundary edge, lives in the tests.
``u_map`` assembles the comparison u_n : Gr^W_n H^n_c(X) -> Gr^W_n H^n(X),
whose kernel/image/cokernel decomposition everything downstream consumes.
All of it runs one (p, q) block at a time over exact rationals.
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
from .qmat import _from_sparse, _sparse, cokernel_projection, kernel_basis, rank
from .record import Record


class WeightComplex(Record):
    """A bounded complex of pure objects indexed by stratum codimension.

    ``maps[i]`` connects spots i and i+1: for a decreasing complex it is a
    morphism spots[i+1] -> spots[i] (Gysin direction), for an increasing one
    spots[i] -> spots[i+1] (restriction direction).  ``_ends`` keeps the zero
    maps past either end once they are asked for.
    """

    __slots__ = ("weight", "spots", "maps", "decreasing", "_ends")
    _fields = ("weight", "spots", "maps", "decreasing")

    def __init__(self, weight: int, spots: tuple, maps: tuple, decreasing: bool):
        for i in range(len(maps) - 1):
            first, then = (maps[i + 1], maps[i]) if decreasing else (maps[i], maps[i + 1])
            if not _composes_to_zero(first, then):
                raise InternalError(f"differential does not square to zero at {i}")
        super().__init__(weight, spots, maps, decreasing)
        object.__setattr__(self, "_ends", {})

    def spot(self, m: int) -> PureObject:
        """The object at spot m: ``ZERO_OBJECT`` past either end."""
        return self.spots[m] if 0 <= m < len(self.spots) else ZERO_OBJECT

    def map_out_of(self, m: int) -> PureMorphism:
        """The differential leaving spot m: past either end, the zero map to
        the next spot."""
        i = m - 1 if self.decreasing else m
        if 0 <= i < len(self.maps):
            return self.maps[i]
        return self._zero_map(m, m - 1 if self.decreasing else m + 1)

    def map_into(self, m: int) -> PureMorphism:
        """The differential arriving at spot m: past either end, the zero map
        from the previous spot."""
        i = m if self.decreasing else m - 1
        if 0 <= i < len(self.maps):
            return self.maps[i]
        return self._zero_map(m + 1 if self.decreasing else m - 1, m)

    def _zero_map(self, source: int, target: int) -> PureMorphism:
        key = (source, target)
        got = self._ends.get(key)
        if got is None:
            got = self._ends[key] = PureMorphism.zero(self.spot(source), self.spot(target))
        return got

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


def _composes_to_zero(first: PureMorphism, then: PureMorphism) -> bool:
    """Whether ``then`` after ``first`` is zero, read off the sparse rows of
    their stored blocks; no product is formed."""
    for lab in then.labels():
        outer, inner = then.stored_block(lab), first.stored_block(lab)
        if outer is None or inner is None:
            continue
        rows = _sparse(inner)[0]
        for line in _sparse(outer)[0]:
            acc = {}
            for k, x in line.items():
                for j, y in rows[k].items():
                    acc[j] = acc.get(j, 0) + x * y
            if any(acc.values()):
                return False
    return True


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
    pass over their nonzeros; the placed rows become each label block's
    sparse view.  A nonzero linking two different labels is an
    InternalError: validated data has none."""
    (src_obj, src_places), (tgt_obj, tgt_places) = source, target
    lines = {}  # (label, row in its block) -> {column: entry}, once it has a nonzero
    for (tgt, src), (m, negate) in blocks.items():
        row_places, col_places = tgt_places[tgt], src_places[src]
        for i, row in enumerate(_sparse(m)[0]):
            if row:
                place = row_places[i]
                line = lines.get(place)
                if line is None:
                    line = lines[place] = {}
                for j, x in row.items():
                    lab, c = col_places[j]
                    if lab != place[0]:
                        raise InternalError(f"{where}: block {list(src)}->{list(tgt)} "
                                            f"links slot {lab} to slot {place[0]}")
                    line[c] = -x if negate else x
    label_blocks = {}
    for lab in src_obj.labels():
        rows = tgt_obj.count(lab)
        if rows:
            label_blocks[lab] = _from_sparse(src_obj.count(lab), [
                dict(sorted(lines[lab, i].items())) if (lab, i) in lines else {}
                for i in range(rows)])
    return PureMorphism(src_obj, tgt_obj, label_blocks)


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


def _label_rows(mat, rows_obj, row_map: tuple, cols_obj, col_map: tuple,
                offsets: dict, wanted, out: dict, fault):
    """Append to ``out[L]``, for each Gysin label L in ``wanted``, the sparse
    rows of ``mat`` (a stratum's pairing or its inverse, ``rows_obj`` x
    ``cols_obj``) on the slots that carry L, each column numbered within L's
    block of the spot from ``offsets[L]`` on.  A map ``(s, t)`` sends a slot
    label (p, q) of its side to the Gysin label (s p + t, s q + t).  An entry
    linking two Gysin labels raises InternalError, prefixed by ``fault()``."""
    (rs, rt), (cs, ct) = row_map, col_map
    sparse = _sparse(mat)[0]
    for p, q in rows_obj.labels():
        lab = (rs * p + rt, rs * q + rt)
        if lab not in wanted:
            continue
        base = offsets.get(lab, 0)
        partner = (cs * (lab[0] - ct), cs * (lab[1] - ct))
        column = {j: base + k for k, j in enumerate(cols_obj.positions(partner))}
        dest = out.setdefault(lab, [])
        for i in rows_obj.positions((p, q)):
            line = {}
            for j, x in sparse[i].items():
                c = column.get(j)
                if c is None:
                    pp, qq = cols_obj.slots[j]
                    raise InternalError(f"{fault()} links slot {lab} to slot "
                                        f"{(cs * pp + ct, cs * qq + ct)}")
                line[c] = x
            dest.append(line)


def _adjoint_block(left: list, r, right: list):
    """One label's Gysin block (P R P'^-1)^T from the sparse rows of P
    (``left``) and of P'^-1 (``right``) and the restriction block ``r``; the
    transpose is placed as it is formed, so it gets its sparse view."""
    middle = _sparse(r)[0]
    lines = [{} for _ in range(r.cols)]
    for i, prow in enumerate(left):
        acc = {}
        for k, x in prow.items():
            for c, y in middle[k].items():
                acc[c] = acc.get(c, 0) + x * y
        out = {}
        for c, y in acc.items():
            if y:
                for t, z in right[c].items():
                    out[t] = out.get(t, 0) + y * z
        for t, v in out.items():
            if v:
                lines[t][i] = v if type(v) is int or v.denominator != 1 else v.numerator
    return _from_sparse(len(left), lines)


@per_atlas
def gysin_complex(a: StratumAtlas, w: int) -> WeightComplex:
    """The weight-w Gysin complex; homology at spot m is Gr^W_w H^(w-m)(X).

    Its differentials are the Poincare adjoints of the degree-(2d - w)
    restriction differentials, one label at a time (module docstring)."""
    d = a.dimension
    strata = [[(s, a.stratum(s)) for s in a.subsets_of_size(m)] for m in range(a.depth() + 1)]
    objs = [[st.pure_at(w - 2 * m) for _, st in row] for m, row in enumerate(strata)]
    spots = tuple([tate_twist(direct_sum_all(row), -m) for m, row in enumerate(objs)])
    shared = [set(spots[m - 1].labels()).intersection(spots[m].labels())
              for m in range(1, len(spots))] + [()]
    dual = restriction_complex(a, 2 * d - w) if any(shared) else None
    maps, right = [], {}
    for m, row in enumerate(strata):
        # label -> sparse rows of P_m (the map out of m) and of P_m^-1 (the
        # map into m).  Duality of the slot counts makes a stratum's label-L
        # and dual label-L* slots start at the same offset in their spots.
        j, out_of, into = w - 2 * m, shared[m - 1] if m else (), shared[m]
        left, below, right, offsets = {}, right, {}, {}
        for (s, st), gysin in zip(row, objs[m]):
            if not (gysin.dim and (out_of or into)):
                continue
            restricted = st.pure_at(2 * d - w)
            if out_of:
                _label_rows(st.pairing_at(j), gysin, (1, m), restricted, (-1, d), offsets,
                            out_of, left, lambda: f"gysin differential w={w}, spot {m}: "
                                              f"pairing of {list(s)} in degree {j}")
            if into:
                _label_rows(st.pairing_inverse(j), restricted, (-1, d), gysin, (1, m), offsets,
                            into, right, lambda: f"gysin differential w={w}, spot {m + 1}: "
                                               f"inverse pairing of {list(s)} in degree {j}")
            for p, q in gysin.labels():
                offsets[p + m, q + m] = offsets.get((p + m, q + m), 0) + gysin.count((p, q))
        if m:
            maps.append(PureMorphism(spots[m], spots[m - 1], {
                lab: _adjoint_block(left[lab], dual.maps[m - 1].block((d - lab[0], d - lab[1])),
                                    below[lab])
                for lab in out_of}))
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
