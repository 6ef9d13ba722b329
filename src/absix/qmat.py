"""Exact linear algebra over the rationals.

Scalars have one canonical form: an integral entry is stored as an ``int``,
any other entry as a reduced ``fractions.Fraction`` with denominator > 1.
Since ``Fraction(n) == n``, ``hash(Fraction(n)) == hash(n)`` and
``str(Fraction(n)) == str(n)``, matrix equality, hashing and printed forms
are those of the rationals; the form only makes the common case fast, as
almost every engine entry is a small integer and ``int`` arithmetic runs in
C.  Every constructor and every kernel returns canonical entries.  Nothing
here divides two entries (``int / int`` would be a float): division is exact
integer division or the building of a ``Fraction``.

A matrix is stored once, as its rows of nonzeros: one ``{column: entry}``
dict per row (compressed-row storage), with a flag, set when the rows are
built, that says whether every entry is an ``int``.  Every kernel reads and
writes these rows, so a zero entry costs nothing; ``sparse_rows()`` hands
them to the rest of the package, shared and read-only.  Dense tuples are
built only on demand, for dumping and printing: ``row()`` and ``entries()``
give canonical scalars, ``m[i, j]`` and ``to_lists()`` give ``Fraction``
values.  Equality and hashing depend on the entries alone, not on the
column order inside a row.  Sums of integers stay integers; when a
``Fraction`` takes part, the sums run on ``Fraction`` accumulators and
integral results go back to ``int``.

Rank-revealing computations run fraction-free on sparse integer rows: each
row is cleared to integers by the lcm of its denominators and kept as
``{column: int}``, then eliminated Bareiss-style (two-row integer updates
with exact division by the previous pivot) so entries stay the size of
minors.  Only structural nonzeros are touched: a row with a zero in the
pivot column is not updated, because Bareiss would only scale it by the
ratio of two pivots, and that scaling is applied, exactly, when the row is
next used.  ``rref`` then back-substitutes upward on the integer pivot rows,
again with exact division, to ``D * RREF`` (``D`` the last pivot) and
divides each entry by ``D`` once.  A remainder in either exact division
raises InternalError.  The pivot is always the first nonzero in column
order, and the reduced row echelon form is unique, which makes every
echelon form -- and therefore every returned basis -- deterministic and
byte-reproducible.  Each matrix memoizes its pivot columns, so ``rank`` and
``pivot_columns`` eliminate a matrix at most once, and not at all after
``rref``.

Trust boundary: the public constructors (``Matrix(rows, cols, data)``,
``from_rows``, ``column``, and the shapes given to ``zeros``/``identity``)
check the shape and every entry.  An entry is a ``Fraction``, an ``int``
(not ``bool``) or a string in the strict grammar ``-?[0-9]+(/[0-9]+)?`` that
the atlas format also uses; anything else is a ``DimensionError``.  Every
matrix this module computes is built from rows that already hold nonzero
canonical entries inside the declared shape, so the one unchecked
constructor, ``_wrap``, takes them without checking them again.

Every tuple here is built from a list, whose length is known, never from a
generator or ``zip`` directly: CPython builds those by resizing a ten-slot
tuple, which is slower and, request after request, leaves the freed tuples
in the interpreter's free lists until a full collection.

No floating point enters anywhere.
"""

from __future__ import annotations

import re
from fractions import Fraction
from itertools import chain, compress
from math import lcm
from typing import Iterable, Optional, Sequence

from .errors import DimensionError, InternalError, PairingNotPerfect

_ZERO = Fraction(0)
_INT = frozenset([int])

_RATIONAL = re.compile(r"(-?[0-9]+)(?:/([0-9]+))?")


def _echo(text: str) -> str:
    """``repr`` of a rejected value, cut to 40 characters with its length noted."""
    return repr(text) if len(text) <= 40 else f"{text[:40]!r}... ({len(text)} characters)"


def _parse_rational(text: str):
    """A string in the grammar ``-?[0-9]+(/[0-9]+)?`` as a canonical scalar.

    Other spellings, a zero denominator and integers past the interpreter's
    digit limit raise DimensionError, which quotes the value cut short.
    """
    m = _RATIONAL.fullmatch(text)
    if m is None:
        raise DimensionError(f"bad rational {_echo(text)}: expected an integer or p/q")
    p, q = m.groups()
    try:
        if not q:
            return int(p)
        x = Fraction(int(p), int(q))
    except (ValueError, ZeroDivisionError) as exc:  # zero denominator, digit limit
        raise DimensionError(f"bad rational {_echo(text)}: {exc}") from None
    return x.numerator if x.denominator == 1 else x


def _frac(x):
    """``x`` as a canonical scalar: an int, or a Fraction with denominator > 1."""
    if type(x) is int:
        return x
    if isinstance(x, Fraction):
        return x.numerator if x.denominator == 1 else x
    if isinstance(x, int) and not isinstance(x, bool):
        return int(x)
    if isinstance(x, str):
        return _parse_rational(x)
    raise DimensionError(
        f"expected rational: an int, a Fraction or a p/q string, got {type(x).__name__}"
    )


def _canon(x):
    """The canonical form of an arithmetic result of canonical scalars."""
    return x if type(x) is int or x.denominator != 1 else x.numerator


def _check_shape(rows: int, cols: int):
    if rows < 0 or cols < 0:
        raise DimensionError("negative matrix dimensions")


def _all_int(lines: Sequence[dict]) -> bool:
    """Whether every entry of the rows ``lines`` is an int."""
    return _INT.issuperset(map(type, chain.from_iterable([line.values() for line in lines])))


def _wrap(cols: int, lines: Sequence[dict], integral: Optional[bool] = None) -> "Matrix":
    """The Matrix with ``cols`` columns whose rows are ``lines``: ``{column:
    entry}`` dicts of nonzero canonical entries, in any column order.
    Nothing is checked or copied, so the dicts must not be modified
    afterwards.  ``integral`` says whether every entry is an int; when it is
    not given, the entries are scanned."""
    m = object.__new__(Matrix)
    m.rows = len(lines)
    m.cols = cols
    m._lines = lines = tuple(lines)
    m._integral = _all_int(lines) if integral is None else integral
    m._pivots = None
    return m


def _dense(cols: int, line: dict) -> tuple:
    """The row ``line`` as a ``cols``-tuple, zeros included."""
    row = [0] * cols
    for j, x in line.items():
        row[j] = x
    return tuple(row)


class Matrix:
    """Immutable matrix of exact rationals; supports zero-sized shapes.

    ``_lines`` holds the rows as ``{column: entry}`` dicts of their nonzeros
    and ``_integral`` whether every entry is an int; both are set when the
    rows are built.  ``_pivots`` is a memo filled on first use; it never
    changes what the matrix is.
    """

    __slots__ = ("rows", "cols", "_lines", "_integral", "_pivots")

    def __init__(self, rows: int, cols: int, data: Iterable[Iterable]):
        _check_shape(rows, cols)
        dense = [[_frac(x) for x in row] for row in data]
        if len(dense) != rows or any(len(r) != cols for r in dense):
            raise DimensionError(
                f"expected {rows}x{cols} data, got rows of lengths {[len(r) for r in dense]}"
            )
        self.rows = rows
        self.cols = cols
        self._lines = lines = tuple([dict(compress(enumerate(r), r)) for r in dense])
        self._integral = _all_int(lines)
        self._pivots = None

    # -- constructors ------------------------------------------------------

    @classmethod
    def from_rows(cls, data: Sequence[Sequence]) -> "Matrix":
        """Build from a list of rows (entries: Fraction, int or p/q string)."""
        data = [list(r) for r in data]
        rows = len(data)
        cols = len(data[0]) if rows else 0
        return cls(rows, cols, data)

    @classmethod
    def zeros(cls, rows: int, cols: int) -> "Matrix":
        _check_shape(rows, cols)
        m = _wrap(cols, ({},) * rows, True)
        m._pivots = ()
        return m

    @classmethod
    def identity(cls, n: int) -> "Matrix":
        _check_shape(n, n)
        return _wrap(n, [{i: 1} for i in range(n)], True)

    # -- access ------------------------------------------------------------

    def __getitem__(self, key) -> Fraction:
        i, j = key
        return Fraction(self.row(i)[j])

    def row(self, i: int) -> tuple:
        """Row i as a tuple of canonical scalars, zeros included."""
        return _dense(self.cols, self._lines[i])

    def sparse_rows(self) -> tuple:
        """The stored rows: one ``{column: entry}`` dict of nonzero canonical
        entries per row, in no fixed column order.  They are shared, so they
        must not be modified."""
        return self._lines

    @property
    def shape(self) -> tuple:
        return (self.rows, self.cols)

    def entries(self) -> tuple:
        """All rows as tuples of canonical scalars, zeros included."""
        return tuple([_dense(self.cols, line) for line in self._lines])

    def to_lists(self) -> list:
        """The entries as lists of Fractions."""
        return [list(map(Fraction, r)) for r in self.entries()]

    # -- algebra -----------------------------------------------------------

    def __mul__(self, other: "Matrix") -> "Matrix":
        if not isinstance(other, Matrix):
            return NotImplemented
        if self.cols != other.rows:
            raise DimensionError(f"cannot multiply {self.shape} by {other.shape}")
        right = other._lines
        out = []
        if self._integral and other._integral:
            for row in self._lines:
                acc = {}
                for k, a in row.items():
                    for j, b in right[k].items():
                        acc[j] = acc.get(j, 0) + a * b
                out.append({j: x for j, x in acc.items() if x} if 0 in acc.values() else acc)
            return _wrap(other.cols, out, True)
        # Fraction accumulators, and a Fraction (when there is one) on the
        # left of each product, so no term goes through Fraction's slower
        # reflected operators.
        for row in self._lines:
            acc = {}
            for k, a in row.items():
                if type(a) is int:
                    for j, b in right[k].items():
                        acc[j] = acc.get(j, _ZERO) + b * a
                else:
                    for j, b in right[k].items():
                        acc[j] = acc.get(j, _ZERO) + a * b
            out.append({j: x.numerator if x.denominator == 1 else x
                        for j, x in acc.items() if x})
        return _wrap(other.cols, out)

    def scale(self, k) -> "Matrix":
        k = _frac(k)
        if k == 1:
            return self
        if k == -1:
            return -self
        if not k:
            return Matrix.zeros(self.rows, self.cols)
        lines = [{j: _canon(k * x) for j, x in line.items()} for line in self._lines]
        return _wrap(self.cols, lines, (type(k) is int and self._integral) or None)

    def __add__(self, other: "Matrix") -> "Matrix":
        if self.shape != other.shape:
            raise DimensionError(f"cannot add {self.shape} and {other.shape}")
        out = []
        for line, more in zip(self._lines, other._lines):
            if more:
                line = dict(line)
                for j, y in more.items():
                    v = _canon(line.get(j, 0) + y)
                    if v:
                        line[j] = v
                    else:
                        del line[j]
            out.append(line)
        return _wrap(self.cols, out, (self._integral and other._integral) or None)

    def __sub__(self, other: "Matrix") -> "Matrix":
        return self + -other

    def __neg__(self) -> "Matrix":
        return _wrap(self.cols, [{j: -x for j, x in line.items()} for line in self._lines],
                     self._integral)

    def transpose(self) -> "Matrix":
        out = [{} for _ in range(self.cols)]
        for i, line in enumerate(self._lines):
            for j, x in line.items():
                out[j][i] = x
        return _wrap(self.rows, out, self._integral)

    def hstack(self, other: "Matrix") -> "Matrix":
        if self.rows != other.rows:
            raise DimensionError("hstack row mismatch")
        shift, out = self.cols, []
        for line, more in zip(self._lines, other._lines):
            if more:
                line = dict(line)
                for j, x in more.items():
                    line[shift + j] = x
            out.append(line)
        return _wrap(shift + other.cols, out, self._integral and other._integral)

    def vstack(self, other: "Matrix") -> "Matrix":
        if self.cols != other.cols:
            raise DimensionError("vstack column mismatch")
        return _wrap(self.cols, self._lines + other._lines, self._integral and other._integral)

    def take_rows(self, idx: Sequence[int]) -> "Matrix":
        lines = self._lines
        return _wrap(self.cols, [lines[i] for i in idx], self._integral or None)

    def take_columns(self, idx: Sequence[int]) -> "Matrix":
        return _wrap(len(idx), [{k: line[j] for k, j in enumerate(idx) if j in line}
                                for line in self._lines], self._integral or None)

    def is_zero(self) -> bool:
        return not any(self._lines)

    # -- plumbing ----------------------------------------------------------

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Matrix)
            and self.shape == other.shape
            and self._lines == other._lines
        )

    def __hash__(self) -> int:
        return hash((self.rows, self.cols,
                     tuple([frozenset(line.items()) for line in self._lines])))

    def __repr__(self) -> str:
        if self.rows == 0 or self.cols == 0:
            return f"Matrix({self.rows}x{self.cols})"
        body = "; ".join(" ".join(str(x) for x in r) for r in self.entries())
        return f"Matrix[{body}]"


def hstack_all(mats: Sequence[Matrix], rows: int = 0) -> Matrix:
    """Horizontal concatenation; `rows` disambiguates the empty list."""
    if not mats:
        return Matrix.zeros(rows, 0)
    out = mats[0]
    for m in mats[1:]:
        out = out.hstack(m)
    return out


# ---------------------------------------------------------------------------
# Elimination core
# ---------------------------------------------------------------------------

def _integer_rows(m: Matrix) -> Sequence[dict]:
    """m's rows as ``{column: int}`` dicts of their nonzeros, each scaled by
    the lcm of its denominators (which preserves the row space).  Integral
    rows are m's own dicts."""
    if m._integral:
        return m._lines
    out = []
    for row in m._lines:
        dens = [x.denominator for x in row.values() if type(x) is not int]
        if dens:
            mult = lcm(*dens)
            row = {j: x.numerator * (mult // x.denominator) for j, x in row.items()}
        out.append(row)
    return out


def _bareiss_echelon(rows: Sequence[dict], cols: int) -> tuple:
    """Sparse fraction-free echelon of integer rows: ``(pivots, echelon)``.

    ``rows`` are ``{column: int}`` dicts of nonzeros and are not modified.
    Step k takes the smallest leading column c of the remaining rows as its
    pivot column, and as pivot row the first row, in order of arrival, that
    leads at c; every other row leading at c gets Bareiss' two-row update
    with exact division by the previous pivot.  ``echelon[k]`` is the pivot
    row of step k as it stood then.  A row leading further right is not
    touched: its true value is its stored value times the current pivot over
    the pivot when it was stored, and it is brought up to date (exactly) only
    when it leads.  Every entry is a minor of the input, so each division is
    exact; a remainder raises InternalError.
    """
    by_lead = {}
    for row in rows:
        if row:
            by_lead.setdefault(min(row), []).append((1, row))
    pivots, echelon = [], []
    prev = 1
    for c in range(cols):
        bucket = by_lead.pop(c, None)
        if bucket is None:
            continue
        lifted = []
        for stored_at, row in bucket:
            if stored_at != prev:
                row = _rescale(row, prev, stored_at)
            lifted.append(row)
        top = lifted[0]
        piv = top[c]
        for row in lifted[1:]:
            new = {j: piv * x for j, x in row.items()}
            _subtract(new, row[c], top)
            _divide_exactly(new, prev, "Bareiss exact-division invariant broken")
            if new:
                by_lead.setdefault(min(new), []).append((piv, new))
        pivots.append(c)
        echelon.append(top)
        prev = piv
    return pivots, echelon


def _subtract(acc: dict, f: int, row: dict):
    """``acc -= f * row`` in place; entries that become zero are removed."""
    for j, y in row.items():
        v = acc.get(j, 0) - f * y
        if v:
            acc[j] = v
        else:
            del acc[j]


def _divide_exactly(acc: dict, d: int, invariant: str):
    """Divide each entry of ``acc`` by ``d`` in place; a remainder breaks
    ``invariant`` and raises InternalError."""
    if d != 1:
        for j, v in acc.items():
            q, rem = divmod(v, d)
            if rem:
                raise InternalError(invariant)
            acc[j] = q


def _rescale(row: dict, num: int, den: int) -> dict:
    """``row * num / den``, each quotient exact (it is a Bareiss minor)."""
    q, rem = divmod(num, den)
    if not rem:
        return {j: x * q for j, x in row.items()}
    out = {}
    for j, x in row.items():
        q, rem = divmod(x * num, den)
        if rem:
            raise InternalError("Bareiss exact-division invariant broken")
        out[j] = q
    return out


def rref(m: Matrix) -> tuple:
    """Reduced row echelon form with deterministic first-nonzero pivots.

    Returns ``(R, pivots)`` where R is the RREF as a Matrix and pivots the
    tuple of pivot column indices in order.
    """
    pivots, echelon = _bareiss_echelon(_integer_rows(m), m.cols)
    m._pivots = pivots = tuple(pivots)
    rank = len(pivots)
    # Back-substitute upward on the integer pivot rows E_i.  Their pivot
    # columns form an upper triangular T with diagonal d_i; with D the last
    # pivot, F = D * RREF solves T F = D E and is integral (its entries are
    # minors, by Cramer's rule), so row i is (D E_i - sum_{j>i} T_ij F_j) / d_i
    # with exact division.  F_last = E_last.
    D = echelon[-1][pivots[-1]] if rank else 1
    where = {c: i for i, c in enumerate(pivots)}
    reduced = echelon[:]
    for i in range(rank - 2, -1, -1):
        e = echelon[i]
        acc = {j: D * x for j, x in e.items()}
        for c, f in e.items():
            r = where.get(c)
            if r is not None and r > i:
                _subtract(acc, f, reduced[r])
        _divide_exactly(acc, e[pivots[i]], "back-substitution left a remainder")
        reduced[i] = acc
    rows = reduced
    if D != 1:
        rows = []
        for f in reduced:
            line = {}
            for j, x in f.items():
                q, rem = divmod(x, D)
                line[j] = Fraction(x, D) if rem else q
            rows.append(line)
    rows += [{}] * (m.rows - rank)
    return _wrap(m.cols, rows, D == 1 or None), pivots


def pivot_columns(m: Matrix) -> tuple:
    """The pivot columns of m's echelon form, memoized on m: one elimination
    at most, and no back-substitution."""
    if m._pivots is None:
        m._pivots = tuple(_bareiss_echelon(_integer_rows(m), m.cols)[0])
    return m._pivots


def rank(m: Matrix) -> int:
    """Exact rank."""
    return len(pivot_columns(m))


def kernel_basis(m: Matrix) -> Matrix:
    """Columns form a deterministic basis of ker(m) in Q^cols.

    Free coordinates are set to 1 one at a time, in column order; pivot
    coordinates are filled from the RREF.  ``m * kernel_basis(m) = 0``.
    """
    R, pivots = rref(m)
    pivset = set(pivots)
    free = {j: k for k, j in enumerate([j for j in range(m.cols) if j not in pivset])}
    if not free:
        return Matrix.zeros(m.cols, 0)
    out = [{free[j]: 1} if j in free else None for j in range(m.cols)]
    for line, pc in zip(R._lines, pivots):
        out[pc] = {free[j]: -x for j, x in line.items() if j in free}
    return _wrap(len(free), out, R._integral)


def image_basis(m: Matrix) -> Matrix:
    """The pivot columns of m — a deterministic basis of im(m)."""
    return m.take_columns(list(pivot_columns(m)))


def cokernel_projection(m: Matrix) -> Matrix:
    """A surjection Q^rows -> Q^(rows-rank) whose kernel is exactly im(m).

    Rows are a deterministic basis of the left null space of m.
    """
    return kernel_basis(m.transpose()).transpose()


def solve(m: Matrix, b: Matrix) -> Optional[Matrix]:
    """One exact solution X of m X = b (free coordinates 0), or None."""
    if b.rows != m.rows:
        raise DimensionError(f"solve: {m.shape} vs rhs {b.shape}")
    R, pivots = rref(m.hstack(b))
    if any(p >= m.cols for p in pivots):
        return None
    n = m.cols
    out = [{}] * n
    for line, pc in zip(R._lines, pivots):
        out[pc] = {j - n: x for j, x in line.items() if j >= n}
    return _wrap(b.cols, out, R._integral or None)


def inverse(m: Matrix) -> Optional[Matrix]:
    """Exact inverse of a square matrix; None if not square, or if singular
    (then ``m X = I`` has no solution)."""
    if m.rows != m.cols:
        return None
    return solve(m, Matrix.identity(m.rows))


def left_inverse(k: Matrix) -> Matrix:
    """Deterministic left inverse of a full-column-rank matrix.

    Uses the pivot rows (first set of rows that is invertible, in row order),
    which are the pivot columns of k's transpose: the result s satisfies
    s*k = I and kills the complementary coordinate subspace spanned by the
    non-pivot rows.
    """
    return right_inverse(k.transpose()).transpose()


def right_inverse(c: Matrix) -> Matrix:
    """Deterministic right inverse of a full-row-rank matrix (pivot columns)."""
    if c.rows == 0:
        return Matrix.zeros(c.cols, 0)
    pivots = pivot_columns(c)
    if len(pivots) != c.rows:
        raise DimensionError("right_inverse: matrix does not have full row rank")
    inv = inverse(c.take_columns(list(pivots)))
    return _selection(pivots, c.cols).transpose() * inv


def _selection(idx: Sequence[int], n: int) -> Matrix:
    """The rows e_i (i in ``idx``, in order) of the n x n identity."""
    return _wrap(n, [{i: 1} for i in idx], True)


def adjoint_pushforward(r: Matrix, q_source: Matrix,
                        q_target_inverse: Optional[Matrix]) -> Matrix:
    """Adjoint g of r under two perfect pairings, given ``inverse(q_target)``.

    Defining identity (exact): ``g.T * q_target == q_source * r``, i.e.
    <g a, b>_target = <a, r b>_source for all coordinate vectors a, b.
    Raises PairingNotPerfect if the inverse is None (singular target) or the
    source pairing is not square, DimensionError on shape mismatch.

    The engine does not call it: ``wss.gysin_complex`` writes its spots in
    the basis dual to the restriction spots, where the pushforward is the
    transposed restriction and only Y's pairing is inverted.  It is kept as
    the independent slot-basis reference, one call per edge, that the tests
    compare the Gysin complexes against, and because the benchmark tracer
    (``perfbench/tracing.py``) patches it by name and counts its calls.
    """
    if q_target_inverse is None:
        raise PairingNotPerfect("target pairing is singular")
    if q_source.rows != q_source.cols:
        raise PairingNotPerfect(f"source pairing must be square, got {q_source.shape}")
    if q_source.cols != r.rows or q_target_inverse.rows != r.cols:
        raise DimensionError(
            f"adjoint: restriction {r.shape} incompatible with pairings "
            f"{q_source.shape}, {q_target_inverse.shape}"
        )
    return ((q_source * r) * q_target_inverse).transpose()
