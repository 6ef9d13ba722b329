"""Weight-graded data model for pure Hodge-type coefficients.

The engine never stores mixed extension data: a mixed structure is always
represented by its associated weight-graded pieces, each a :class:`PureObject`
— a pure weight together with an ordered list of (p, q) slot labels whose
entries sum to the weight.  Morphisms of pure objects preserve the bigrading,
so a :class:`PureMorphism` is a family of exact-rational blocks, one per
(p, q) label; blocks for labels absent from either side are zero-sized.

Grading conventions:

* Tate twist by m relabels (p, q) -> (p - m, q - m) and shifts the weight by
  -2m; Q(-1) is the weight-2 object with single slot (1, 1).
* The dual of a weight-w object has weight -w and slots (-p, -q); Poincare
  duality on a dimension-e stratum pairs H^k with the dual of H^(2e-k)
  twisted by Q(-e), i.e. slot (p, q) with slot (e - p, e - q).
* The zero object is stored with weight 0 and no slots, and is
  weight-compatible with everything.

There is one :class:`PureObject` per slot tuple, kept in a weak-valued table.

:class:`MixedGraded` collects pure pieces by weight; :class:`CohomologyTable`
collects mixed graded pieces by cohomological degree, tagged with the kind of
cohomology it tabulates.
"""

from __future__ import annotations

import weakref
from typing import Mapping, Optional, Sequence

from .errors import DimensionError, WeightMismatch
from .qmat import Matrix, _wrap, rank
from .record import Record

#: Allowed CohomologyTable kind tags.
TABLE_KINDS = ("plain", "compactSupport", "boundary", "absoluteIC", "onePointIC")


class PureObject(Record):
    """A pure weight-w object with an ordered basis labelled by (p, q) slots."""

    __slots__ = ("weight", "slots", "_positions", "_labels")
    _fields = ("weight", "slots")

    def __new__(cls, weight: int, slots: tuple = ()):
        _require_int(weight, "weight")
        checked = []
        for slot in slots:
            if not isinstance(slot, (tuple, list)) or len(slot) != 2:
                raise WeightMismatch(f"slot {slot!r} is not a pair")
            p, q = slot
            _require_int(p, "slot entry")
            _require_int(q, "slot entry")
            if p + q != weight:
                raise WeightMismatch(f"slot ({p},{q}) does not lie on weight {weight}")
            checked.append((int(p), int(q)))
        return _pure(int(weight), tuple(checked))

    def __init__(self, weight: int, slots: tuple = ()):
        pass  # __new__ returned the shared object: Record.__init__ would reset it

    @property
    def dim(self) -> int:
        return len(self.slots)

    @property
    def is_zero(self) -> bool:
        return not self.slots

    def hodge_numbers(self) -> dict:
        return {lab: len(pos) for lab, pos in self._positions.items()}

    def labels(self) -> tuple:
        return self._labels

    def positions(self, label) -> tuple:
        """Basis indices carrying the given (p, q) label, in order."""
        return self._positions.get(label, ())

    def count(self, label) -> int:
        return len(self.positions(label))


def _index_slots(obj: PureObject, weight: int, slots: tuple):
    """Set the fields of ``obj`` and index its slots by label, labels sorted once."""
    positions: dict = {}
    for i, lab in enumerate(slots):
        positions.setdefault(lab, []).append(i)
    object.__setattr__(obj, "weight", weight if slots else 0)
    object.__setattr__(obj, "slots", slots)
    object.__setattr__(obj, "_positions",
                       {lab: tuple(positions[lab]) for lab in sorted(positions)})
    object.__setattr__(obj, "_labels", tuple(obj._positions))


def _require_int(x, what: str):
    if not isinstance(x, int) or isinstance(x, bool):
        raise WeightMismatch(f"{what} {x!r} is not an integer")


#: slots -> the one live PureObject on them.
_INTERNED = weakref.WeakValueDictionary()


def _pure(weight: int, slots: tuple) -> PureObject:
    """The PureObject on ``slots``, which must already be a tuple of int pairs
    on ``weight``: nothing is converted or checked."""
    obj = _INTERNED.get(slots)
    if obj is None:
        obj = object.__new__(PureObject)
        _index_slots(obj, weight, slots)
        _INTERNED[slots] = obj
    return obj


ZERO_OBJECT = PureObject(0, ())


def from_hodge_numbers(weight: int, numbers: Mapping) -> PureObject:
    """Pure object with lexicographically sorted slots of given multiplicity."""
    slots = []
    for (p, q) in sorted(numbers):
        mult = numbers[(p, q)]
        if mult > 0:
            if p + q != weight:
                raise WeightMismatch(f"slot ({p},{q}) does not lie on weight {weight}")
            slots.extend([(p, q)] * mult)
    return _pure(weight, tuple(slots))


def direct_sum_all(parts: Sequence[PureObject]) -> PureObject:
    """One object on the concatenated slots of the nonzero parts, in order."""
    nonzero = [p for p in parts if not p.is_zero]
    if len(nonzero) < 2:
        return nonzero[0] if nonzero else ZERO_OBJECT
    weight = nonzero[0].weight
    for p in nonzero:
        if p.weight != weight:
            raise WeightMismatch(f"direct sum of weights {weight} and {p.weight}")
    return _pure(weight, tuple([s for p in nonzero for s in p.slots]))


def off_label_entry(source: PureObject, target: PureObject, m: Matrix) -> Optional[tuple]:
    """``(i, j)`` for the first nonzero of ``m`` (target x source, in slot
    order) linking two (p, q) labels: i its row, j the first such column in
    it; None when every nonzero keeps its label."""
    labels = source.labels()
    if len(labels) == 1 and labels == target.labels():
        return None
    for i, (t, row) in enumerate(zip(target.slots, m.sparse_rows())):
        off = [j for j in row if source.slots[j] != t]
        if off:
            return i, min(off)
    return None


def label_blocks(source: PureObject, target: PureObject, m: Matrix) -> tuple:
    """``(blocks, None)``: ``m`` (target x source, in slot order) split into its
    (p, q) blocks; or ``(None, off_label_entry(source, target, m))``."""
    labels = source.labels()
    if len(labels) == 1 and labels == target.labels():
        return {labels[0]: m}, None
    hit = off_label_entry(source, target, m)
    if hit is not None:
        return None, hit
    place, lines = [0] * source.dim, {}
    for lab in labels:
        for c, j in enumerate(source.positions(lab)):
            place[j] = c
    for t, row in zip(target.slots, m.sparse_rows()):
        lines.setdefault(t, []).append({place[j]: x for j, x in row.items()})
    return {lab: _wrap(source.count(lab), rows) for lab, rows in lines.items()}, None


class PureMorphism:
    """A bigrading-preserving map between pure objects of equal weight.

    Stored as one rational block per (p, q) label; the block for a label
    carries shape (target multiplicity) x (source multiplicity) and is kept
    only when both sides are nonzero there.
    """

    __slots__ = ("source", "target", "_blocks", "_labels")

    def __init__(self, source: PureObject, target: PureObject, blocks: Mapping):
        if not source.is_zero and not target.is_zero and source.weight != target.weight:
            raise WeightMismatch(
                f"morphism between weights {source.weight} and {target.weight}"
            )
        self.source = source
        self.target = target
        stored = {}
        for label in sorted(set(blocks)):
            m = blocks[label]
            tgt, src = target.count(label), source.count(label)
            if m.shape != (tgt, src):
                raise DimensionError(
                    f"block {label} has shape {m.shape}, expected {(tgt, src)}"
                )
            if tgt and src:
                stored[label] = m
        self._blocks = stored
        src, tgt = source.labels(), target.labels()
        self._labels = src if src == tgt else tuple(sorted(set(src) | set(tgt)))

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls, source: PureObject, target: PureObject) -> "PureMorphism":
        return cls(source, target, {})

    @classmethod
    def identity(cls, v: PureObject) -> "PureMorphism":
        blocks = {lab: Matrix.identity(v.count(lab)) for lab in v.labels()}
        return cls(v, v, blocks)

    @classmethod
    def from_full_matrix(cls, source: PureObject, target: PureObject,
                         m: Matrix, where: str = "") -> "PureMorphism":
        """Split a full matrix (in slot order) into per-label blocks.

        Entries between different (p, q) labels must vanish exactly: a
        nonzero off-block entry (DimensionError) is no morphism of pure
        structures.
        """
        if m.shape != (target.dim, source.dim):
            raise DimensionError(
                f"{where or 'matrix'}: shape {m.shape}, expected {(target.dim, source.dim)}"
            )
        blocks, hit = label_blocks(source, target, m)
        if hit is not None:
            i, j = hit
            raise DimensionError(f"{where or 'matrix'}: nonzero entry ({i},{j}) links slot "
                                 f"{source.slots[j]} to slot {target.slots[i]}")
        return cls(source, target, blocks)

    # -- access ------------------------------------------------------------

    def block(self, label) -> Matrix:
        got = self._blocks.get(label)
        if got is not None:
            return got
        return Matrix.zeros(self.target.count(label), self.source.count(label))

    def stored_block(self, label):
        """The block kept for ``label``, or None where it is zero-sized."""
        return self._blocks.get(label)

    def labels(self) -> tuple:
        return self._labels

    def full_matrix(self) -> Matrix:
        """Reassemble the single matrix in the slot order of source/target."""
        lines = [{} for _ in range(self.target.dim)]
        for lab, m in self._blocks.items():
            cols = self.source.positions(lab)
            for i, row in zip(self.target.positions(lab), m.sparse_rows()):
                line = lines[i]
                for j, x in row.items():
                    line[cols[j]] = x
        return _wrap(self.source.dim, lines)

    # -- algebra -----------------------------------------------------------

    def compose(self, other: "PureMorphism") -> "PureMorphism":
        """self after other."""
        if other.target.slots != self.source.slots:
            raise DimensionError("compose: middle objects differ")
        blocks = {}
        for lab in self.labels():
            blocks[lab] = self.block(lab) * other.block(lab)
        return PureMorphism(other.source, self.target, blocks)

    def rank(self) -> int:
        return sum(rank(m) for m in self._blocks.values())

    def is_injective(self) -> bool:
        return self.rank() == self.source.dim

    def is_surjective(self) -> bool:
        return self.rank() == self.target.dim

    def is_zero(self) -> bool:
        return all(m.is_zero() for m in self._blocks.values())

    def __eq__(self, other) -> bool:
        """Blockwise equality: an all-zero block equals an omitted one."""
        return (
            isinstance(other, PureMorphism)
            and self.source == other.source
            and self.target == other.target
            and all(self.block(lab) == other.block(lab)
                    for lab in self._blocks.keys() | other._blocks.keys())
        )

    def __hash__(self):
        return hash((self.source, self.target,
                     tuple([(lab, m) for lab, m in self._blocks.items() if not m.is_zero()])))

    def __repr__(self) -> str:
        return f"PureMorphism({self.source.dim}->{self.target.dim}, w={self.target.weight})"


class MixedGraded(Record):
    """Finitely supported family of pure pieces, keyed by weight."""

    __slots__ = _fields = ("pieces",)

    def __init__(self, pieces: tuple = ()):
        cleaned = []
        for w, obj in pieces:
            if obj.is_zero:
                continue
            if obj.weight != w:
                raise WeightMismatch(f"piece of weight {obj.weight} stored at key {w}")
            cleaned.append((int(w), obj))
        cleaned.sort(key=lambda t: t[0])
        keys = [w for w, _ in cleaned]
        if len(set(keys)) != len(keys):
            raise WeightMismatch("duplicate weight keys in MixedGraded")
        object.__setattr__(self, "pieces", tuple(cleaned))

    def piece(self, w: int) -> PureObject:
        for key, obj in self.pieces:
            if key == w:
                return obj
        return ZERO_OBJECT

    def weights(self) -> tuple:
        return tuple([w for w, _ in self.pieces])

    @property
    def dim(self) -> int:
        return sum(obj.dim for _, obj in self.pieces)

    @property
    def is_zero(self) -> bool:
        return not self.pieces

    def hodge_numbers(self) -> dict:
        """Aggregated (p, q) -> multiplicity over all weights."""
        out: dict = {}
        for _, obj in self.pieces:
            for s, k in obj.hodge_numbers().items():
                out[s] = out.get(s, 0) + k
        return dict(sorted(out.items()))


EMPTY_MIXED = MixedGraded(())


def mixed(by_weight: Mapping) -> MixedGraded:
    return MixedGraded(tuple(by_weight.items()))


def pure_mixed(obj: PureObject) -> MixedGraded:
    """The mixed graded concentrated in the object's own weight."""
    if obj.is_zero:
        return EMPTY_MIXED
    return MixedGraded(((obj.weight, obj),))


class CohomologyTable(Record):
    """Weight-graded cohomology tabulated by degree, with a kind tag."""

    __slots__ = _fields = ("kind", "by_degree")

    def __init__(self, kind: str, by_degree: tuple = ()):
        if kind not in TABLE_KINDS:
            raise DimensionError(f"unknown table kind {kind!r}")
        cleaned = []
        for n, mg in by_degree:
            if mg.is_zero:
                continue
            for w in mg.weights():
                if kind == "plain" and not (n <= w <= 2 * n):
                    raise WeightMismatch(
                        f"plain table: weight {w} outside [{n}, {2*n}] at degree {n}"
                    )
                if kind == "compactSupport" and w > n:
                    raise WeightMismatch(
                        f"compact-support table: weight {w} > degree {n}"
                    )
                if kind == "absoluteIC" and w != n:
                    raise WeightMismatch(
                        f"absolute-IC table must be pure of weight {n} at degree {n}"
                    )
            cleaned.append((int(n), mg))
        cleaned.sort(key=lambda t: t[0])
        keys = [n for n, _ in cleaned]
        if len(set(keys)) != len(keys):
            raise WeightMismatch("duplicate degree keys in CohomologyTable")
        object.__setattr__(self, "kind", kind)
        object.__setattr__(self, "by_degree", tuple(cleaned))

    def degree(self, n: int) -> MixedGraded:
        for key, mg in self.by_degree:
            if key == n:
                return mg
        return EMPTY_MIXED

    def degrees(self) -> tuple:
        return tuple([n for n, _ in self.by_degree])

    def dim(self, n: int) -> int:
        return self.degree(n).dim

    def hodge(self, n: int) -> dict:
        return self.degree(n).hodge_numbers()


def table(kind: str, by_degree: Mapping) -> CohomologyTable:
    return CohomologyTable(kind, tuple(by_degree.items()))


def weight_support(t: CohomologyTable, n: int) -> set:
    """The set of weights w with Gr_w of degree n nonzero."""
    return set(t.degree(n).weights())
