"""Stratum atlases: the combinatorial input the whole engine consumes.

An atlas describes a smooth proper ambient variety Y of dimension d together
with a normal-crossing boundary divisor Z = Z_1 u ... u Z_k, through the
cohomology of the closed strata

    D_S = intersection of Z_i for i in S        (D_empty = Y),

which are smooth proper of dimension d - |S|.  For each declared subset S the
atlas stores the weight-k pure object H^k(D_S) (as (p, q) slot labels), the
Poincare pairing matrices H^k x H^(2e-k) -> Q with e = d - |S|, and for each
adjacent pair S < S u {i} the degreewise restriction (pullback) matrices.
Strata with empty intersection are simply omitted and read as zero.

JSON schema (all rationals are strings like "3/4" or "-2"; unknown fields are
rejected)::

    {
      "dimension": 2,
      "components": ["Z1", "Z2"],
      "strata": [
        {"subset": [],            # [] denotes Y itself
         "cohomology": [[[0,0]], [], [[1,1]]],   # degree -> list of [p,q]
         "pairings":   [[["1"]], [], [["1"]]]},  # degree -> matrix rows
        ...
      ],
      "restrictions": [
        {"from": [], "to": ["Z1"], "matrices": [[["1"]], []]},
        ...
      ],
      "self_intersections": {"Z1": "-2"}          # optional extension
    }

Subsets are listed in the order their elements appear in ``components``;
the loader rejects unsorted subsets so that serialization is canonical, and
a ``dimension`` above ``MAX_DIMENSION``.
``load_atlas`` parses each distinct rational string once per document.
``validate_atlas`` audits the semantic invariants (closure, degree ranges,
Hodge symmetry and duality of slot counts, perfect/block-compatible pairings,
block-diagonal restriction matrices, commuting restriction squares, degree-0
unit rows) and returns the complete list of findings; computational modules
refuse atlases with findings.  Its work follows what the atlas declares: each
square S < S+i, S+j < S+i+j is found from a declared S+i+j, and compared only
in degrees where D_S and D_(S+i+j) have cohomology and its four matrices have
their declared shapes.
An atlas is immutable; ``per_atlas`` computes a layer once per atlas object
and caches it on the atlas, next to its validation report.
"""

from __future__ import annotations

import functools
import json
import re
import sys
from dataclasses import dataclass
from fractions import Fraction
from types import MappingProxyType
from typing import Mapping, Optional, Sequence

from .errors import DimensionError, InvalidAtlas, ParseError, WeightMismatch
from .hodgecore import PureObject, ZERO_OBJECT, cross_label_entry
from .qmat import Matrix, _frac, _parse_rational, _wrap, inverse

MAX_DIMENSION = 1000  # each stratum spans 2e+1 degrees, so work grows with d
_TOP_FIELDS = {"dimension", "components", "strata", "restrictions", "self_intersections"}
_STRATUM_FIELDS = {"subset", "cohomology", "pairings"}
_RESTRICTION_FIELDS = {"from", "to", "matrices"}


@dataclass(frozen=True)
class StratumData:
    """Degree-indexed cohomology and pairing matrices of one closed stratum."""

    cohomology: tuple   # tuple[PureObject, ...], index = degree
    pairings: tuple     # tuple[Matrix, ...], pairings[k]: H^k x H^(2e-k)

    def pure_at(self, k: int) -> PureObject:
        if 0 <= k < len(self.cohomology):
            return self.cohomology[k]
        return ZERO_OBJECT

    def dim_at(self, k: int) -> int:
        return self.pure_at(k).dim

    def pairing_at(self, k: int) -> Matrix:
        if 0 <= k < len(self.pairings):
            return self.pairings[k]
        return Matrix.zeros(0, 0)

    def top_degree(self) -> int:
        return len(self.cohomology) - 1

    @functools.cached_property
    def pairing_inverses(self) -> tuple:
        """``inverse`` of each pairing matrix (None where singular), computed once."""
        return tuple(map(inverse, self.pairings))


def make_stratum(e: int, cohomology: Sequence[PureObject],
                 pairings: Sequence[Matrix]) -> StratumData:
    """Normalize the degree arrays of a dimension-e stratum to length 2e+1."""
    n = max(2 * e + 1, len(cohomology), len(pairings))
    coh = list(cohomology) + [ZERO_OBJECT] * (n - len(cohomology))
    prs = list(pairings) + [Matrix.zeros(0, 0)] * (n - len(pairings))
    # Give degenerate zero pairings their context-implied shapes.
    for k in range(n):
        want = (coh[k].dim, coh[2 * e - k].dim if 0 <= 2 * e - k < n else 0)
        if prs[k].shape != want and prs[k].rows == 0 and prs[k].cols == 0:
            prs[k] = Matrix.zeros(*want)
    return StratumData(tuple(coh), tuple(prs))


def _matrix_at(mats: Optional[tuple], source: PureObject, target: PureObject,
               k: int) -> Matrix:
    """Degree k of a restriction's matrices ``mats`` (None when undeclared)
    from ``source`` to ``target``: zeros of their shape when absent."""
    want = (target.dim, source.dim)
    m = mats[k] if mats is not None and 0 <= k < len(mats) else None
    if m is None or (m.shape != want and m.rows == 0 and m.cols == 0):
        return Matrix.zeros(*want)
    return m


class StratumAtlas:
    """One atlas; immutable, so that results cached on it stay correct."""

    def __init__(self, dimension: int, components: Sequence[str],
                 strata: Mapping, restrictions: Mapping,
                 self_intersections: Optional[Mapping] = None):
        self.dimension = int(dimension)
        self.components = tuple(components)
        self._index = {name: i for i, name in enumerate(self.components)}
        self.strata = MappingProxyType({tuple(k): v for k, v in strata.items()})
        self.restrictions = MappingProxyType({
            (tuple(src), tuple(dst)): tuple(mats)
            for (src, dst), mats in restrictions.items()
        })
        self.self_intersections = (
            MappingProxyType(dict(self_intersections))
            if self_intersections is not None else None
        )
        self._subsets = tuple(sorted(self.strata, key=self.subset_key))
        self._cache = {}  # validation report and per_atlas results; set last

    def __setattr__(self, name, value):
        if "_cache" in self.__dict__:
            raise AttributeError(f"StratumAtlas is immutable: cannot set {name!r}")
        object.__setattr__(self, name, value)

    # -- combinatorics -----------------------------------------------------

    def subset_key(self, subset: Sequence[str]) -> tuple:
        return (len(subset), tuple(self._index.get(c, len(self.components)) for c in subset))

    def declared_subsets(self) -> tuple:
        """The declared subsets by size, then in components order (sorted once)."""
        return self._subsets

    def subsets_of_size(self, m: int) -> list:
        return [s for s in self.declared_subsets() if len(s) == m]

    def depth(self) -> int:
        return max((len(s) for s in self.strata), default=0)

    def e(self, subset: Sequence[str]) -> int:
        return self.dimension - len(subset)

    # -- data access -------------------------------------------------------

    def stratum(self, subset: Sequence[str]) -> Optional[StratumData]:
        return self.strata.get(tuple(subset))

    def pure_at(self, subset, k: int) -> PureObject:
        st = self.stratum(subset)
        return st.pure_at(k) if st is not None else ZERO_OBJECT

    def pairing_at(self, subset, k: int) -> Matrix:
        st = self.stratum(subset)
        return st.pairing_at(k) if st is not None else Matrix.zeros(0, 0)

    def restriction_matrix(self, src, dst, k: int) -> Matrix:
        """Pullback matrix H^k(D_src) -> H^k(D_dst) (dst = src + one element)."""
        return _matrix_at(self.restrictions.get((tuple(src), tuple(dst))),
                          self.pure_at(src, k), self.pure_at(dst, k), k)

    @property
    def connected(self) -> bool:
        """X is connected iff Y is, read off the declared H^0(Y) basis."""
        return self.pure_at((), 0).dim == 1

    # -- equality ----------------------------------------------------------

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, StratumAtlas)
            and self.dimension == other.dimension
            and self.components == other.components
            and self.strata == other.strata
            and self.restrictions == other.restrictions
            and self.self_intersections == other.self_intersections
        )

    def __repr__(self) -> str:
        return (f"StratumAtlas(d={self.dimension}, components={list(self.components)}, "
                f"strata={len(self.strata)})")


# ---------------------------------------------------------------------------
# Parsing
# ---------------------------------------------------------------------------

def _expect(cond: bool, loc: str, msg: str):
    if not cond:
        raise ParseError(loc, msg)


class _Rationals(dict):
    """The distinct rational strings of one document, each parsed once.

    Only values with ``type(x) is str`` may be looked up here: ``True == 1``
    and ``1.0 == 1`` hash alike, yet must still be rejected.  A rejected
    string raises and is not stored.
    """

    def __missing__(self, text: str) -> Fraction:
        value = self[text] = _parse_rational(text)
        return value


def _parse_fraction(x, rationals: _Rationals, loc: str, *index: int) -> Fraction:
    """A JSON integer or strict rational string (``qmat``'s grammar) as a Fraction.

    The location is ``loc`` followed by ``[i]`` for each index, formatted
    only when the value is rejected.
    """
    try:
        return rationals[x] if type(x) is str else _frac(x)
    except DimensionError as exc:
        raise ParseError(loc + "".join(f"[{i}]" for i in index), str(exc)) from None


def _parse_matrix(rows, rationals: _Rationals, loc: str,
                  expected_cols: Optional[int] = None) -> Matrix:
    _expect(isinstance(rows, list), loc, "expected a list of matrix rows")
    if not rows:
        return Matrix.zeros(0, expected_cols or 0)
    parsed = []
    width = None
    for i, row in enumerate(rows):
        if not isinstance(row, list):
            raise ParseError(f"{loc}[{i}]", "expected a row list")
        vals = tuple([_parse_fraction(x, rationals, loc, i, j) for j, x in enumerate(row)])
        if width is None:
            width = len(vals)
        elif len(vals) != width:
            raise ParseError(f"{loc}[{i}]", "ragged matrix rows")
        parsed.append(vals)
    return _wrap(len(parsed), width, tuple(parsed))


def _parse_subset(raw, loc: str, index: Mapping) -> tuple:
    _expect(isinstance(raw, list), loc, "expected a list of component names")
    out = []
    for i, name in enumerate(raw):
        _expect(isinstance(name, str), f"{loc}[{i}]", "component names are strings")
        _expect(name in index, f"{loc}[{i}]", f"unknown component {name!r}")
        out.append(name)
    _expect(len(set(out)) == len(out), loc, "repeated component in subset")
    ordered = sorted(out, key=index.__getitem__)
    _expect(ordered == out, loc, "subset not sorted in components order")
    return tuple(out)


def _parse_pure(entries, degree: int, loc: str) -> PureObject:
    _expect(isinstance(entries, list), loc, "expected a list of [p, q] slots")
    slots = []
    for i, s in enumerate(entries):
        _expect(
            isinstance(s, list) and len(s) == 2
            and all(isinstance(x, int) and not isinstance(x, bool) for x in s),
            f"{loc}[{i}]", "slot must be a pair of integers",
        )
        slots.append((s[0], s[1]))
    try:
        return PureObject(degree, tuple(slots))
    except WeightMismatch as exc:
        raise ParseError(loc, str(exc)) from None


def load_atlas(document: Mapping) -> StratumAtlas:
    """Build a StratumAtlas from an already-parsed JSON document."""
    _expect(isinstance(document, dict), "", "atlas document must be an object")
    unknown = set(document) - _TOP_FIELDS
    _expect(not unknown, "", f"unknown fields: {sorted(unknown)}")
    for field in ("dimension", "components", "strata", "restrictions"):
        _expect(field in document, "", f"missing field {field!r}")

    d = document["dimension"]
    _expect(isinstance(d, int) and not isinstance(d, bool) and d >= 0,
            "dimension", "must be a nonnegative integer")
    _expect(d <= MAX_DIMENSION, "dimension", f"must be at most {MAX_DIMENSION}")

    comps = document["components"]
    _expect(isinstance(comps, list) and all(isinstance(c, str) and c for c in comps),
            "components", "must be a list of nonempty strings")
    _expect(len(set(comps)) == len(comps), "components", "duplicate component names")
    index = {c: i for i, c in enumerate(comps)}
    rationals = _Rationals()

    strata = {}
    raw_strata = document["strata"]
    _expect(isinstance(raw_strata, list), "strata", "must be a list")
    for si, raw in enumerate(raw_strata):
        loc = f"strata[{si}]"
        _expect(isinstance(raw, dict), loc, "stratum must be an object")
        unknown = set(raw) - _STRATUM_FIELDS
        _expect(not unknown, loc, f"unknown fields: {sorted(unknown)}")
        for field in _STRATUM_FIELDS:
            _expect(field in raw, loc, f"missing field {field!r}")
        subset = _parse_subset(raw["subset"], f"{loc}.subset", index)
        _expect(subset not in strata, f"{loc}.subset", "duplicate stratum")
        _expect(len(subset) <= d, f"{loc}.subset",
                f"stratum would have negative dimension (d = {d})")
        e = d - len(subset)

        raw_coh = raw["cohomology"]
        _expect(isinstance(raw_coh, list), f"{loc}.cohomology", "must be a list")
        cohomology = [
            _parse_pure(entry, k, f"{loc}.cohomology[{k}]")
            for k, entry in enumerate(raw_coh)
        ]
        raw_pairs = raw["pairings"]
        _expect(isinstance(raw_pairs, list), f"{loc}.pairings", "must be a list")
        dims = [obj.dim for obj in cohomology]
        pairings = []
        for k, rows in enumerate(raw_pairs):
            dual_deg = 2 * e - k
            expected_cols = dims[dual_deg] if 0 <= dual_deg < len(dims) else 0
            pairings.append(
                _parse_matrix(rows, rationals, f"{loc}.pairings[{k}]", expected_cols))
        strata[subset] = make_stratum(e, cohomology, pairings)

    restrictions = {}
    raw_restrictions = document["restrictions"]
    _expect(isinstance(raw_restrictions, list), "restrictions", "must be a list")
    for ri, raw in enumerate(raw_restrictions):
        loc = f"restrictions[{ri}]"
        _expect(isinstance(raw, dict), loc, "restriction must be an object")
        unknown = set(raw) - _RESTRICTION_FIELDS
        _expect(not unknown, loc, f"unknown fields: {sorted(unknown)}")
        for field in _RESTRICTION_FIELDS:
            _expect(field in raw, loc, f"missing field {field!r}")
        src = _parse_subset(raw["from"], f"{loc}.from", index)
        dst = _parse_subset(raw["to"], f"{loc}.to", index)
        _expect((src, dst) not in restrictions, loc, "duplicate restriction pair")
        raw_mats = raw["matrices"]
        _expect(isinstance(raw_mats, list), f"{loc}.matrices", "must be a list")
        dst_dims = [o.dim for o in strata[dst].cohomology] if dst in strata else []
        src_dims = [o.dim for o in strata[src].cohomology] if src in strata else []
        mats = []
        for k, rows in enumerate(raw_mats):
            cols = src_dims[k] if k < len(src_dims) else 0
            m = _parse_matrix(rows, rationals, f"{loc}.matrices[{k}]", cols)
            if m.rows == 0 and m.cols == 0 and k < len(dst_dims) and dst_dims[k] == 0:
                m = Matrix.zeros(0, cols)
            mats.append(m)
        restrictions[(src, dst)] = tuple(mats)

    selfint = None
    if "self_intersections" in document:
        raw_si = document["self_intersections"]
        _expect(isinstance(raw_si, dict), "self_intersections", "must be an object")
        selfint = {}
        for name, val in raw_si.items():
            _expect(name in index, f"self_intersections.{name}", "unknown component")
            selfint[name] = _parse_fraction(val, rationals, f"self_intersections.{name}")

    return StratumAtlas(d, comps, strata, restrictions, selfint)


# Strings (skipped whole), numbers and brackets: enough of JSON to find where
# ``json.loads`` stopped at an interpreter limit, since everything before that
# point parsed.
_JSON_TOKENS = re.compile(
    r'"(?:[^"\\]|\\.)*"'
    r"|-?(?P<int>[0-9]+)(?P<real>(?:\.[0-9]+)?(?:[eE][+-]?[0-9]+)?)"
    r"|(?P<open>[\[{])|(?P<close>[\]}])",
    re.DOTALL,
)


def _limit_location(text: str, deep: bool) -> str:
    """``line L, column C`` of the place where ``json.loads`` hit a limit.

    With ``deep``, the first ``[``/``{`` that opens a level past the
    recursion limit (or, if the call stack was already deep, the first that
    opens the document's deepest level); otherwise the first digit of the
    first integer literal longer than the int digit limit.
    """
    depth = deepest = pos = 0
    for m in _JSON_TOKENS.finditer(text):
        if m["open"]:
            depth += 1
            if deep and depth > deepest:
                deepest, pos = depth, m.start()
                if depth > sys.getrecursionlimit():
                    break
        elif m["close"]:
            depth -= 1
        elif (not deep and m["int"] and not m["real"]
              and len(m["int"]) > sys.get_int_max_str_digits()):
            pos = m.start("int")
            break
    line = text.count("\n", 0, pos) + 1
    column = pos - text.rfind("\n", 0, pos)  # counted as json.JSONDecodeError does
    return f"line {line}, column {column}"


def loads_atlas(text: str) -> StratumAtlas:
    """Parse atlas JSON text (ParseError carries line/column on bad JSON)."""
    try:
        document = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"line {exc.lineno}, column {exc.colno}", exc.msg) from None
    except ValueError as exc:  # an integer literal past the digit limit
        raise ParseError(_limit_location(text, deep=False), str(exc)) from None
    except RecursionError:
        raise ParseError(_limit_location(text, deep=True),
                         "JSON nested too deeply") from None
    return load_atlas(document)


def read_atlas(path) -> StratumAtlas:
    with open(path, "r", encoding="utf-8") as fh:
        try:
            text = fh.read()
        except UnicodeDecodeError as exc:  # offsets count bytes of the file
            raise ParseError(f"byte {exc.start}", f"not UTF-8: {exc.reason}") from None
    return loads_atlas(text)


# ---------------------------------------------------------------------------
# Serialization (canonical, round-trips through load_atlas)
# ---------------------------------------------------------------------------

def _dump_matrix(m: Matrix) -> list:
    return [[str(x) for x in row] for row in m.entries()]


def dump_atlas(a: StratumAtlas) -> dict:
    doc = {
        "dimension": a.dimension,
        "components": list(a.components),
        "strata": [
            {
                "subset": list(subset),
                "cohomology": [
                    [list(s) for s in obj.slots] for obj in a.strata[subset].cohomology
                ],
                "pairings": [_dump_matrix(p) for p in a.strata[subset].pairings],
            }
            for subset in a.declared_subsets()
        ],
        "restrictions": [
            {
                "from": list(src),
                "to": list(dst),
                "matrices": [_dump_matrix(m) for m in a.restrictions[(src, dst)]],
            }
            for (src, dst) in sorted(
                a.restrictions, key=lambda p: (a.subset_key(p[0]), a.subset_key(p[1]))
            )
        ],
    }
    if a.self_intersections is not None:
        doc["self_intersections"] = {
            name: str(val) for name, val in sorted(a.self_intersections.items())
        }
    return doc


def dumps_atlas(a: StratumAtlas) -> str:
    return json.dumps(dump_atlas(a), indent=1, sort_keys=True) + "\n"


# ---------------------------------------------------------------------------
# Validation
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Finding:
    code: str
    where: str
    detail: str

    def __str__(self):
        return f"[{self.code}] {self.where}: {self.detail}"


@dataclass(frozen=True)
class ValidationReport:
    findings: tuple = ()

    @property
    def ok(self) -> bool:
        return not self.findings

    def codes(self) -> set:
        return {f.code for f in self.findings}

    def __str__(self):
        if self.ok:
            return "atlas valid"
        return "\n".join(str(f) for f in self.findings)


def _subset_name(subset) -> str:
    return "{" + ",".join(subset) + "}" if subset else "Y"


def validate_atlas(a: StratumAtlas) -> ValidationReport:
    """Audit every semantic invariant; returns the full list of findings."""
    if "validation" in a._cache:
        return a._cache["validation"]
    findings = []

    def flag(code, where, detail):
        findings.append(Finding(code, where, detail))

    if () not in a.strata:
        flag("MissingSubset", "Y", "the empty subset (Y itself) must be declared")

    known = set(a.components)
    for subset in a.declared_subsets():
        where = _subset_name(subset)
        bad = [c for c in subset if c not in known]
        if bad:
            flag("UnknownComponent", where, f"components {bad} not declared")
            continue
        if len(subset) > a.dimension:
            flag("BadSubset", where, "stratum would have negative dimension")
            continue
        # downward closure: drop one element at a time
        for i in range(len(subset)):
            sub = subset[:i] + subset[i + 1:]
            if sub not in a.strata:
                flag("MissingSubset", where,
                     f"subset {_subset_name(sub)} must be declared (downward closure)")

    if a.self_intersections is not None:
        for name in a.self_intersections:
            if name not in known:
                flag("UnknownComponent", f"self_intersections.{name}",
                     "not a declared component")

    # per-stratum checks
    for subset in a.declared_subsets():
        st = a.strata[subset]
        if len(subset) > a.dimension:
            continue
        e = a.e(subset)
        where = _subset_name(subset)
        for k, obj in enumerate(st.cohomology):
            if obj.is_zero:
                continue
            if k > 2 * e:
                flag("DegreeRange", f"{where}.H^{k}",
                     f"nonzero cohomology beyond degree {2 * e}")
                continue
            hn = obj.hodge_numbers()
            for (p, q), mult in hn.items():
                if hn.get((q, p), 0) != mult:
                    flag("HodgeSymmetry", f"{where}.H^{k}",
                         f"h^({p},{q}) = {mult} but h^({q},{p}) = {hn.get((q, p), 0)}")
            dualobj = st.pure_at(2 * e - k)
            dn = dualobj.hodge_numbers()
            for (p, q), mult in hn.items():
                if dn.get((e - p, e - q), 0) != mult:
                    flag("PoincareDuality", f"{where}.H^{k}",
                         f"h^({p},{q}) = {mult} not mirrored by "
                         f"h^({e - p},{e - q}) in H^{2 * e - k}")
        if not st.pure_at(0).is_zero and set(st.pure_at(0).slots) != {(0, 0)}:
            flag("UnitCheck", f"{where}.H^0", "degree-0 slots must all be (0,0)")

        for k in range(2 * e + 1):
            obj = st.pure_at(k)
            dualobj = st.pure_at(2 * e - k)
            pk = st.pairing_at(k)
            if obj.is_zero and dualobj.is_zero:
                if not pk.is_zero():
                    flag("PairingShape", f"{where}.pairing[{k}]",
                         "nonzero pairing on zero spaces")
                continue
            if pk.shape != (obj.dim, dualobj.dim):
                flag("PairingShape", f"{where}.pairing[{k}]",
                     f"shape {pk.shape}, expected {(obj.dim, dualobj.dim)}")
                continue
            if obj.dim != dualobj.dim or st.pairing_inverses[k] is None:
                flag("PairingNotPerfect", f"{where}.pairing[{k}]",
                     "pairing matrix is not square invertible")
            for i, (p, q) in enumerate(obj.slots):
                for j, (pp, qq) in enumerate(dualobj.slots):
                    if pk[i, j] != 0 and (p + pp != e or q + qq != e):
                        flag("PairingHodge", f"{where}.pairing[{k}]",
                             f"entry ({i},{j}) pairs slot ({p},{q}) with ({pp},{qq})")

    # restriction checks
    misshaped = set()  # (src, dst, degree) of each RestrictionShape finding
    for (src, dst) in sorted(
        a.restrictions, key=lambda p: (a.subset_key(p[0]), a.subset_key(p[1]))
    ):
        where = f"{_subset_name(src)}->{_subset_name(dst)}"
        if src not in a.strata or dst not in a.strata:
            flag("BadRestriction", where, "references an undeclared stratum")
            continue
        extra = [c for c in dst if c not in src]
        if len(dst) != len(src) + 1 or len(extra) != 1:
            flag("BadRestriction", where, "'to' must be 'from' plus one component")
            continue
        mats = a.restrictions[(src, dst)]
        src_st, dst_st = a.strata[src], a.strata[dst]
        for k, m in enumerate(mats):
            source, target = src_st.pure_at(k), dst_st.pure_at(k)
            want = (target.dim, source.dim)
            if m.rows == 0 and m.cols == 0 and want[0] == 0:
                continue
            if m.shape != want:
                misshaped.add((src, dst, k))
                flag("RestrictionShape", f"{where}.matrices[{k}]",
                     f"shape {m.shape}, expected {want}")
                continue
            hit = cross_label_entry(source, target, m) if m.rows and m.cols else None
            if hit is not None:
                i, j = hit
                flag("RestrictionBlocks", f"{where}.matrices[{k}]",
                     f"restriction {list(src)}->{list(dst)} degree {k}: nonzero entry "
                     f"({i},{j}) links slot {source.slots[j]} to slot {target.slots[i]}")
        # degree-0 unit rows: one 1 per connected piece of the target
        m0 = _matrix_at(mats, src_st.pure_at(0), dst_st.pure_at(0), 0)
        for i in range(m0.rows):
            row = m0.row(i)
            if sorted(row) != sorted([1] + [0] * (len(row) - 1)):
                flag("UnitCheck", f"{where}.matrices[0]",
                     f"row {i} must contain a single 1 (fundamental classes)")

    # presence of all adjacent restrictions: each declared stratum against its
    # declared faces (drop one element), in declared order of (face, stratum)
    order = {subset: i for i, subset in enumerate(a.declared_subsets())}
    for _, _, face, subset in sorted(
        (order[face], order[subset], face, subset) for subset in a.declared_subsets()
        for face in {subset[:i] + subset[i + 1:] for i in range(len(subset))}
        if face in a.strata and (face, subset) not in a.restrictions
    ):
        flag("MissingRestriction", f"{_subset_name(face)}->{_subset_name(subset)}",
             "adjacent strata need a declared restriction")

    # commuting squares S < S+i, S+j < S+i+j, found from each declared top
    # S+i+j (its elements in components order) and checked in declared order
    # of S, then components order of i and j
    squares = []
    for top in a.declared_subsets():
        pos = [a._index.get(c, -1) for c in top]
        if len(top) < 2 or not all(0 <= x < y for x, y in zip(pos, pos[1:])):
            continue
        for x in range(len(top)):
            for y in range(x + 1, len(top)):
                base = top[:x] + top[x + 1:y] + top[y + 1:]
                si, sj = top[:y] + top[y + 1:], top[:x] + top[x + 1:]
                paths = ((si, top), (base, si), (sj, top), (base, sj))
                if (base in order and si in a.strata and sj in a.strata
                        and all(pair in a.restrictions for pair in paths)):
                    squares.append((order[base], pos[x], pos[y], base, top, paths))
    for _, _, _, base, top, paths in sorted(squares):
        e = a.e(base)
        base_st = a.strata[base]
        edges = [(a.restrictions[pair], a.strata[pair[0]], a.strata[pair[1]])
                 for pair in paths]
        for k, obj in enumerate(a.strata[top].cohomology):
            # an empty corner makes both paths the same zero-sized map, and a
            # misshaped matrix has its RestrictionShape finding already
            if (k > 2 * e or obj.is_zero or base_st.pure_at(k).is_zero
                    or any((src, dst, k) in misshaped for src, dst in paths)):
                continue
            r = [_matrix_at(mats, s.pure_at(k), t.pure_at(k), k) for mats, s, t in edges]
            if r[0] * r[1] != r[2] * r[3]:
                flag("SquareIncompatible",
                     f"{_subset_name(base)}->{_subset_name(top)}.degree[{k}]",
                     "the two restriction paths disagree")
                break

    report = ValidationReport(tuple(findings))
    a._cache["validation"] = report
    return report


def require_valid(a: StratumAtlas):
    """Raise InvalidAtlas unless validation produced no findings."""
    report = validate_atlas(a)
    if not report.ok:
        raise InvalidAtlas(
            f"atlas failed validation with {len(report.findings)} finding(s):\n{report}",
            report=report,
        )


def per_atlas(fn):
    """Compute ``fn(a, *args)`` once per atlas object, and only on a valid atlas.

    The result is cached on the atlas, so it is freed with the atlas.
    """
    @functools.wraps(fn)
    def cached(a: StratumAtlas, *args):
        key = (fn, *args)
        if key not in a._cache:
            require_valid(a)
            a._cache[key] = fn(a, *args)
        return a._cache[key]

    return cached
