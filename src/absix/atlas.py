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
a ``dimension`` above ``MAX_DIMENSION``.  ``load_atlas`` parses each
distinct rational string once per document and builds only what the
document declares: an empty cohomology degree is ``ZERO_OBJECT`` and an
empty matrix ``[]`` is the 0x0 block.  Left-out blocks are completed where
they are built, ``make_stratum`` for pairings and ``StratumAtlas`` for
restrictions, so a builder's ``Matrix.zeros(0, 0)`` means what a document's
``[]`` does, and every reader just indexes.
``validate_atlas`` audits the semantic invariants (closure, subset order,
degree ranges, Hodge symmetry and duality of slot counts, perfect/block-
compatible pairings, block-diagonal restriction matrices, commuting
restriction squares, degree-0 unit rows) and returns the complete list of
findings; computational modules refuse atlases with findings.  A pairing is
perfect when it is square of full rank, so nothing is inverted; the Hodge,
block and unit checks walk each matrix's nonzeros; the squares are read off
the product of two consecutive ``restriction_differential``s, built only in
degrees where a square exists and then split by the restriction complexes.
The engine inverts only Y's pairings, once per Gysin complex: the Gysin
complexes are written in the basis dual to the restriction complexes.
``StratumAtlas`` keeps its restriction pairs in canonical order (by source,
then target, each by size and then components order), the order validation
reports them in and ``dump_atlas`` writes them.  An atlas is immutable;
``per_atlas`` computes a layer once per atlas object and caches it on the
atlas, next to its validation report.
"""

from __future__ import annotations

import functools
import json
import re
import sys
from itertools import compress
from types import MappingProxyType
from typing import Mapping, Optional, Sequence

from .errors import DimensionError, InvalidAtlas, ParseError
from .hodgecore import PureObject, ZERO_OBJECT, _pure, off_label_entry
from .qmat import Matrix, _frac, _parse_rational, _wrap, rank
from .record import Record

MAX_DIMENSION = 1000  # each stratum spans 2e+1 degrees, so work grows with d
# The required fields of each object, in the order a missing one is reported.
_TOP_FIELDS = ("dimension", "components", "strata", "restrictions")
_STRATUM_FIELDS = ("subset", "cohomology", "pairings")
_RESTRICTION_FIELDS = ("from", "to", "matrices")


class StratumData(Record):
    """Degree-indexed cohomology and pairing matrices of one closed stratum.

    ``cohomology[k]`` is the PureObject H^k and ``pairings[k]`` the matrix of
    H^k x H^(2e-k) -> Q.
    """

    __slots__ = _fields = ("cohomology", "pairings")

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


class _ZeroBlocks(dict):
    """One zero matrix per shape, shared by the blocks of one atlas."""

    def __missing__(self, shape: tuple) -> Matrix:
        m = self[shape] = Matrix.zeros(*shape)
        return m


def make_stratum(e: int, cohomology: Sequence[PureObject],
                 pairings: Sequence[Matrix],
                 zeros: Optional[_ZeroBlocks] = None) -> StratumData:
    """Normalize the degree arrays of a dimension-e stratum to length 2e+1.

    Each pairing H^k x H^(2e-k) is completed here: an omitted one is the zero
    block (dim H^k, dim H^(2e-k)); an empty (0x0) one has no rows and
    dim H^(2e-k) columns, or is the zero block (dim H^k, 0) when H^(2e-k) is
    zero.  Zero blocks come from ``zeros`` (shape -> zero matrix) when given.
    """
    n = max(2 * e + 1, len(cohomology), len(pairings))
    coh = tuple(cohomology) + (ZERO_OBJECT,) * (n - len(cohomology))
    prs = list(pairings) + [None] * (n - len(pairings))
    zeros = _ZeroBlocks() if zeros is None else zeros
    for k, m in enumerate(prs):
        dual = coh[2 * e - k].dim if k <= 2 * e else 0
        if m is None:
            prs[k] = zeros[coh[k].dim, dual]
        elif not (m.rows or m.cols):
            prs[k] = zeros[0, dual] if dual else zeros[coh[k].dim, 0]
    return StratumData(coh, tuple(prs))


class StratumAtlas:
    """One atlas; immutable, so that results cached on it stay correct."""

    def __init__(self, dimension: int, components: Sequence[str],
                 strata: Mapping, restrictions: Mapping,
                 self_intersections: Optional[Mapping] = None):
        self.dimension = int(dimension)
        self.components = tuple(components)
        self._index = {name: i for i, name in enumerate(self.components)}
        self.strata = MappingProxyType({tuple(k): v for k, v in strata.items()})
        padded = {}
        zeros = _ZeroBlocks()
        for (src, dst), mats in restrictions.items():
            src, dst, mats = tuple(src), tuple(dst), list(mats)
            s, t = self.strata.get(src), self.strata.get(dst)
            # an empty (0x0) degree has no rows and dim H^k(D_src) columns;
            # omitted trailing degrees are zero maps: one atlas, one hash
            if s is not None:
                mats = [m if m.rows or m.cols else zeros[0, s.dim_at(k)]
                        for k, m in enumerate(mats)]
                if t is not None:
                    mats += [zeros[t.dim_at(k), s.dim_at(k)]
                             for k in range(len(mats), len(s.cohomology))]
            padded[(src, dst)] = tuple(mats)
        key = {s: self.subset_key(s) for s in {*self.strata, *(s for p in padded for s in p)}}
        self.restrictions = MappingProxyType(dict(sorted(
            padded.items(), key=lambda item: (key[item[0][0]], key[item[0][1]]))))
        self.self_intersections = (
            MappingProxyType(dict(self_intersections))
            if self_intersections is not None else None
        )
        self._subsets = tuple(sorted(self.strata, key=key.__getitem__))
        by_size = {}
        for s in self._subsets:
            by_size.setdefault(len(s), []).append(s)
        self._by_size = {m: tuple(group) for m, group in by_size.items()}
        self._cache = {}  # validation report and per_atlas results; set last

    def __setattr__(self, name, value):
        if "_cache" in self.__dict__:
            raise AttributeError(f"StratumAtlas is immutable: cannot set {name!r}")
        object.__setattr__(self, name, value)

    # -- combinatorics -----------------------------------------------------

    def subset_key(self, subset: Sequence[str]) -> tuple:
        # undeclared components sort after the declared ones, then by name
        return (len(subset), tuple([self._index.get(c, len(self.components)) for c in subset]),
                tuple(subset))

    def declared_subsets(self) -> tuple:
        """The declared subsets by size, then in components order (sorted once)."""
        return self._subsets

    def subsets_of_size(self, m: int) -> tuple:
        """The declared subsets of size m, in ``declared_subsets`` order."""
        return self._by_size.get(m, ())

    def spot_subsets(self, k: int, m: int) -> list:
        """The subset of size m holding each slot of restriction spot m in degree k."""
        return [s for s in self.subsets_of_size(m) for _ in self.strata[s].pure_at(k).slots]

    def depth(self) -> int:
        return max(self._by_size, default=0)

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
        """Pullback matrix H^k(D_src) -> H^k(D_dst) (dst = src + one element):
        zeros of its shape for a pair or degree the atlas does not declare."""
        mats = self.restrictions.get((tuple(src), tuple(dst)), ())
        if 0 <= k < len(mats):
            return mats[k]
        return Matrix.zeros(self.pure_at(dst, k).dim, self.pure_at(src, k).dim)

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

    def __missing__(self, text: str):
        value = self[text] = _parse_rational(text)
        return value


# Locations are formatted only on failure.  A parser below locates an error
# relative to what it parses ("[i]" for a matrix row, "" for the whole), and
# ``_parse_list`` puts the list's part in front on the way out: ".pairings[k]"
# in a stratum, "strata[i]" or "restrictions[i]" in ``load_atlas``.

def _parse_fraction(x, rationals: _Rationals, loc: str, *index: int):
    """A JSON integer or strict rational string (``qmat``'s grammar) as a
    canonical ``qmat`` scalar: an int, or a Fraction with denominator > 1.

    The location is ``loc`` followed by ``[i]`` for each index.
    """
    try:
        return rationals[x] if type(x) is str else _frac(x)
    except DimensionError as exc:
        raise ParseError(loc + "".join(f"[{i}]" for i in index), str(exc)) from None


def _parse_matrix(rows, rationals: _Rationals, zeros: _ZeroBlocks) -> Matrix:
    """A nonempty row list as a Matrix; ``[]`` as the shared 0x0 block, which
    ``make_stratum`` and ``StratumAtlas`` complete to its shape."""
    if not isinstance(rows, list):
        raise ParseError("", "expected a list of matrix rows")
    if not rows:
        return zeros[0, 0]
    parsed = []
    width = None
    for i, row in enumerate(rows):
        if not isinstance(row, list):
            raise ParseError(f"[{i}]", "expected a row list")
        try:
            vals = [rationals[x] if type(x) is str else _frac(x) for x in row]
        except DimensionError:
            for j, x in enumerate(row):  # locate the first bad entry
                _parse_fraction(x, rationals, "", i, j)
            raise
        if width is None:
            width = len(vals)
        elif len(vals) != width:
            raise ParseError(f"[{i}]", "ragged matrix rows")
        parsed.append(dict(compress(enumerate(vals), vals)))
    return _wrap(width, parsed)


def _parse_object(raw, loc: str, what: str, required: tuple, optional: tuple = ()):
    """Check that ``raw`` is an object with every ``required`` field and no
    field outside ``required`` and ``optional``."""
    if not isinstance(raw, dict):
        raise ParseError(loc, f"{what} must be an object")
    unknown = raw.keys() - {*required, *optional}
    if unknown:
        raise ParseError(loc, f"unknown fields: {sorted(unknown)}")
    for field in required:
        if field not in raw:
            raise ParseError(loc, f"missing field {field!r}")


def _order_fault(subset, index: Mapping) -> Optional[str]:
    """Why ``subset`` (of known components) is not in components order, if it
    is not: the loader's and the validator's text."""
    if all(index[x] < index[y] for x, y in zip(subset, subset[1:])):
        return None
    if len(set(subset)) != len(subset):
        return "repeated component in subset"
    return "subset not sorted in components order"


def _parse_subset(raw, loc: str, index: Mapping) -> tuple:
    if not isinstance(raw, list):
        raise ParseError(loc, "expected a list of component names")
    for i, name in enumerate(raw):
        if not isinstance(name, str):
            raise ParseError(f"{loc}[{i}]", "component names are strings")
        if name not in index:
            raise ParseError(f"{loc}[{i}]", f"unknown component {name!r}")
    fault = _order_fault(raw, index)
    if fault:
        raise ParseError(loc, fault)
    return tuple(raw)


def _parse_pure(entries, degree: int) -> PureObject:
    """The slot list of degree ``degree``.  A slot that is no pair of
    integers is reported before an earlier slot off the weight."""
    if not isinstance(entries, list):
        raise ParseError("", "expected a list of [p, q] slots")
    if not entries:
        return ZERO_OBJECT
    slots = []
    off = None  # the first slot off the weight
    for i, s in enumerate(entries):
        if not (isinstance(s, list) and len(s) == 2):
            raise ParseError(f"[{i}]", "slot must be a pair of integers")
        p, q = s
        if type(p) is not int or type(q) is not int:
            if not all(isinstance(x, int) and not isinstance(x, bool) for x in s):
                raise ParseError(f"[{i}]", "slot must be a pair of integers")
            p, q = int(p), int(q)
        if p + q != degree and off is None:
            off = (p, q)
        slots.append((p, q))
    if off is not None:
        raise ParseError("", f"slot ({off[0]},{off[1]}) does not lie on weight {degree}")
    return _pure(degree, tuple(slots))


def _parse_list(raw, loc: str, parse) -> list:
    """``parse(item, i)`` of each item of the list ``raw``, in order; a
    ParseError from item i is located at ``loc[i]`` followed by its own."""
    _expect(isinstance(raw, list), loc, "must be a list")
    parsed = []
    try:
        for i, item in enumerate(raw):
            parsed.append(parse(item, i))
    except ParseError as exc:
        raise exc.within(f"{loc}[{i}]") from None
    return parsed


def _parse_stratum(raw, d: int, index: Mapping, rationals: _Rationals,
                   zeros: _ZeroBlocks, strata: dict):
    """Add one entry of ``strata`` to ``strata``, the strata parsed before it;
    ParseError locations are relative to the entry."""
    _parse_object(raw, "", "stratum", _STRATUM_FIELDS)
    subset = _parse_subset(raw["subset"], ".subset", index)
    _expect(subset not in strata, ".subset", "duplicate stratum")
    if len(subset) > d:
        raise ParseError(".subset", f"stratum would have negative dimension (d = {d})")
    cohomology = _parse_list(raw["cohomology"], ".cohomology", _parse_pure)
    pairings = _parse_list(raw["pairings"], ".pairings",
                           lambda rows, _: _parse_matrix(rows, rationals, zeros))
    strata[subset] = make_stratum(d - len(subset), cohomology, pairings, zeros)


def _parse_restriction(raw, index: Mapping, rationals: _Rationals, zeros: _ZeroBlocks,
                       restrictions: dict):
    """Add one entry of ``restrictions`` to ``restrictions``, the restrictions
    parsed before it; ParseError locations are relative to the entry."""
    _parse_object(raw, "", "restriction", _RESTRICTION_FIELDS)
    src = _parse_subset(raw["from"], ".from", index)
    dst = _parse_subset(raw["to"], ".to", index)
    _expect((src, dst) not in restrictions, "", "duplicate restriction pair")
    restrictions[src, dst] = tuple(_parse_list(
        raw["matrices"], ".matrices", lambda rows, _: _parse_matrix(rows, rationals, zeros)))


def load_atlas(document: Mapping) -> StratumAtlas:
    """Build a StratumAtlas from an already-parsed JSON document."""
    _parse_object(document, "document", "atlas document", _TOP_FIELDS, ("self_intersections",))

    d = document["dimension"]
    _expect(isinstance(d, int) and not isinstance(d, bool) and d >= 0,
            "dimension", "must be a nonnegative integer")
    if d > MAX_DIMENSION:
        raise ParseError("dimension", f"must be at most {MAX_DIMENSION}")

    comps = document["components"]
    _expect(isinstance(comps, list) and all(isinstance(c, str) and c for c in comps),
            "components", "must be a list of nonempty strings")
    _expect(len(set(comps)) == len(comps), "components", "duplicate component names")
    index = {c: i for i, c in enumerate(comps)}
    rationals = _Rationals()
    zeros = _ZeroBlocks()

    strata, restrictions = {}, {}
    _parse_list(document["strata"], "strata",
                lambda raw, _: _parse_stratum(raw, d, index, rationals, zeros, strata))
    _parse_list(document["restrictions"], "restrictions",
                lambda raw, _: _parse_restriction(raw, index, rationals, zeros, restrictions))

    selfint = None
    if "self_intersections" in document:
        raw_si = document["self_intersections"]
        _expect(isinstance(raw_si, dict), "self_intersections", "must be an object")
        selfint = {}
        for name, val in raw_si.items():
            if name not in index:
                raise ParseError(f"self_intersections.{name}", "unknown component")
            selfint[name] = _parse_fraction(val, rationals, "self_intersections." + name)

    return StratumAtlas(d, comps, strata, restrictions, selfint)


# Strings (skipped whole), numbers and brackets: enough of JSON to find where
# ``json.loads`` stopped at an interpreter limit, since everything before that
# point parsed.  Compiled on first use, by ``re``'s cache: only a failed parse
# needs it.
_JSON_TOKENS = (
    r'"(?:[^"\\]|\\.)*"'
    r"|-?(?P<int>[0-9]+)(?P<real>(?:\.[0-9]+)?(?:[eE][+-]?[0-9]+)?)"
    r"|(?P<open>[\[{])|(?P<close>[\]}])"
)


def _limit_location(text: str, deep: bool) -> str:
    """``line L, column C`` of the place where ``json.loads`` hit a limit.

    With ``deep``, the first ``[``/``{`` that opens a level past the
    recursion limit (or, if the call stack was already deep, the first that
    opens the document's deepest level); otherwise the first digit of the
    first integer literal longer than the int digit limit.
    """
    depth = deepest = pos = 0
    for m in re.finditer(_JSON_TOKENS, text, re.DOTALL):
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
    out = []
    for line in m.sparse_rows():
        row = ["0"] * m.cols
        for j, x in line.items():
            row[j] = str(x)
        out.append(row)
    return out


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
                "matrices": [_dump_matrix(m) for m in mats],
            }
            for (src, dst), mats in a.restrictions.items()
        ],
    }
    if a.self_intersections is not None:
        doc["self_intersections"] = {
            name: str(val) for name, val in sorted(a.self_intersections.items())
        }
    return doc


def dumps_atlas(a: StratumAtlas) -> str:
    return json.dumps(dump_atlas(a), indent=1, sort_keys=True) + "\n"


def restriction_differential(a: StratumAtlas, k: int, m: int) -> Matrix:
    """The signed degree-k restriction differential from spot m to spot m+1.

    Spot m sums H^k(D_S) over the S of size m in ``subsets_of_size`` order;
    the block from S minus its element at position p to S is the restriction,
    negated for odd p, unless its face or pair is undeclared or its matrix
    misshaped.  A valid atlas keeps those validation squared until asked."""
    kept = a._cache.get("differentials")
    if kept and (k, m) in kept:
        return kept.pop((k, m))
    cols, col_at = 0, {}
    for s in a.subsets_of_size(m):
        col_at[s] = cols
        cols += a.strata[s].dim_at(k)
    lines = []
    for top in a.subsets_of_size(m + 1):
        block = [{} for _ in range(a.strata[top].dim_at(k))]
        for p in range(len(top) if block else 0):
            face = top[:p] + top[p + 1:]
            mats = a.restrictions.get((face, top), ())
            if (face in col_at and k < len(mats)
                    and mats[k].shape == (len(block), a.strata[face].dim_at(k))):
                c0, negate = col_at[face], p % 2
                for line, row in zip(block, mats[k].sparse_rows()):
                    for j, x in row.items():
                        line[c0 + j] = -x if negate else x
        lines += block
    return _wrap(cols, lines)


# ---------------------------------------------------------------------------
# Validation
# ---------------------------------------------------------------------------

class Finding(Record):
    """One failed invariant: its code, where in the atlas, and what is wrong."""

    __slots__ = _fields = ("code", "where", "detail")

    def __str__(self):
        return f"[{self.code}] {self.where}: {self.detail}"


class ValidationReport(Record):
    """The findings of one validation, in the order they were found."""

    __slots__ = _fields = ("findings",)

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
        fault = _order_fault(subset, a._index)
        if fault:
            flag("BadSubset", where, fault)
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
        pure = st.pure_at
        for k, obj in enumerate(st.cohomology):
            if not obj.slots:
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
            dualobj = pure(2 * e - k)
            dn = dualobj.hodge_numbers()
            for (p, q), mult in hn.items():
                if dn.get((e - p, e - q), 0) != mult:
                    flag("PoincareDuality", f"{where}.H^{k}",
                         f"h^({p},{q}) = {mult} not mirrored by "
                         f"h^({e - p},{e - q}) in H^{2 * e - k}")
        h0 = pure(0).slots
        if h0 and set(h0) != {(0, 0)}:
            flag("UnitCheck", f"{where}.H^0", "degree-0 slots must all be (0,0)")

        for k in range(2 * e + 1):
            slots, dual_slots, pk = pure(k).slots, pure(2 * e - k).slots, st.pairing_at(k)
            if not (slots or dual_slots):
                if not pk.is_zero():
                    flag("PairingShape", f"{where}.pairing[{k}]",
                         "nonzero pairing on zero spaces")
                continue
            want = (len(slots), len(dual_slots))
            if pk.shape != want:
                flag("PairingShape", f"{where}.pairing[{k}]",
                     f"shape {pk.shape}, expected {want}")
                continue
            if want[0] != want[1] or rank(pk) != want[0]:
                flag("PairingNotPerfect", f"{where}.pairing[{k}]",
                     "pairing matrix is not square invertible")
            for i, ((p, q), row) in enumerate(zip(slots, pk.sparse_rows())):
                for j in sorted(row):
                    pp, qq = dual_slots[j]
                    if p + pp != e or q + qq != e:
                        flag("PairingHodge", f"{where}.pairing[{k}]",
                             f"entry ({i},{j}) pairs slot ({p},{q}) with ({pp},{qq})")

    # restriction checks
    misshaped = set()  # (src, dst, degree) of each RestrictionShape finding
    for (src, dst), mats in a.restrictions.items():
        where = f"{_subset_name(src)}->{_subset_name(dst)}"
        src_st, dst_st = a.strata.get(src), a.strata.get(dst)
        if src_st is None or dst_st is None:
            flag("BadRestriction", where, "references an undeclared stratum")
            continue
        extra = [c for c in dst if c not in src]
        if len(dst) != len(src) + 1 or len(extra) != 1:
            flag("BadRestriction", where, "'to' must be 'from' plus one component")
            continue
        for k, m in enumerate(mats):
            source, target = src_st.pure_at(k), dst_st.pure_at(k)
            want = (len(target.slots), len(source.slots))
            if m.shape != want:
                misshaped.add((src, dst, k))
                flag("RestrictionShape", f"{where}.matrices[{k}]",
                     f"shape {m.shape}, expected {want}")
                continue
            hit = off_label_entry(source, target, m)
            if hit is not None:
                i, j = hit
                flag("RestrictionBlocks", f"{where}.matrices[{k}]",
                     f"restriction {list(src)}->{list(dst)} degree {k}: nonzero entry "
                     f"({i},{j}) links slot {source.slots[j]} to slot {target.slots[i]}")
        # degree-0 unit rows: one 1 per connected piece of the target
        for i, row in enumerate(a.restriction_matrix(src, dst, 0).sparse_rows()):
            if list(row.values()) != [1]:
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

    # commuting squares S < S+i, S+j < S+i+j: the (S+i+j, S) block of the
    # product of the degree-k differentials out of spots |S| + 1 and |S| is
    # +-(path 1 - path 2).  A nonzero block is a failed square if its strata
    # and restrictions are declared, S+i+j is in components order and no path
    # is misshaped in degree k <= 2e(S); each is reported at its lowest such
    # degree, in declared order of S, then components order of i and j
    need = {(k, len(top) - 2) for top in a.declared_subsets() if len(top) > 1
            for k, obj in enumerate(a.strata[top].cohomology) if obj.slots}
    built = {(k, m): restriction_differential(a, k, m)
             for k, m in {(k, m + i) for k, m in need for i in (0, 1)}}
    failed = {}
    for k, m in sorted(need):
        product = built[k, m + 1] * built[k, m]
        tops, bases = a.spot_subsets(k, m + 2), a.spot_subsets(k, m)
        for base, top in {(bases[j], tops[i])
                          for i, row in enumerate(product.sparse_rows()) for j in row}:
            pos = [a._index.get(c, -1) for c in top]
            if k > 2 * a.e(base) or not all(0 <= x < y for x, y in zip(pos, pos[1:])):
                continue
            x, y = [i for i, c in enumerate(top) if c not in base]
            si, sj = top[:y] + top[y + 1:], top[:x] + top[x + 1:]
            paths = ((si, top), (base, si), (sj, top), (base, sj))
            if (si in a.strata and sj in a.strata and all(p in a.restrictions for p in paths)
                    and not any((src, dst, k) in misshaped for src, dst in paths)):
                failed.setdefault((order[base], pos[x], pos[y], base, top), k)
    for (_, _, _, base, top), k in sorted(failed.items()):
        flag("SquareIncompatible", f"{_subset_name(base)}->{_subset_name(top)}.degree[{k}]",
             "the two restriction paths disagree")

    report = ValidationReport(tuple(findings))
    if report.ok:
        a._cache["differentials"] = built
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
