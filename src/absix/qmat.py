"""Exact linear algebra over the rationals.

Scalars are ``fractions.Fraction`` values (always stored reduced, with
positive denominator — the stdlib guarantees that normal form).  Matrices are
immutable.  Rank-revealing computations run fraction-free: each row is first
cleared to integers, then eliminated Bareiss-style (two-row integer updates
with exact division by the previous pivot) so intermediate entries stay the
size of minors instead of exploding.  ``rref`` then back-substitutes upward
on those integer pivot rows, again with exact division, to ``D * RREF`` (``D``
the last pivot) and builds every entry once as ``Fraction(x, D)``, so no
``Fraction`` arithmetic runs inside the elimination.  The pivot is always the
first nonzero entry in column order, and the reduced row echelon form is
unique, which makes every echelon form — and therefore every returned basis —
deterministic and byte-reproducible.

The matrix product skips zeros: the nonzero entries of each row of the right
factor are listed once, and each nonzero entry of a left row adds its
products into one accumulator row.  Engine matrices (pairings, restrictions,
selection and block matrices) are mostly zeros, so this does a small share
of the dense product's multiply-adds and returns the same exact sums.

Trust boundary: the public constructors (``Matrix(rows, cols, data)``,
``from_rows``, ``column``, and the shapes given to ``zeros``/``identity``)
check the shape and every entry.  An entry is a ``Fraction``, an ``int``
(not ``bool``) or a string in the strict grammar ``-?[0-9]+(/[0-9]+)?`` that
the atlas format also uses; anything else is a ``DimensionError``.  Every
matrix this module computes is built from rows that are already tuples of
``Fraction`` of the declared shape, so it is wrapped without checking them
again.

No floating point enters anywhere.
"""

from __future__ import annotations

import re
from fractions import Fraction
from math import lcm
from typing import Iterable, Optional, Sequence

from .errors import DimensionError, InternalError, PairingNotPerfect

#: Exact scalar type used throughout the engine.
Scalar = Fraction

_ZERO = Fraction(0)
_ONE = Fraction(1)

_RATIONAL = re.compile(r"(-?[0-9]+)(?:/([0-9]+))?")


def _parse_rational(text: str) -> Fraction:
    """A string in the grammar ``-?[0-9]+(/[0-9]+)?`` as a Fraction.

    Other spellings, a zero denominator and integers past the interpreter's
    digit limit raise DimensionError.
    """
    m = _RATIONAL.fullmatch(text)
    if m is None:
        raise DimensionError(f"bad rational {text!r}: expected an integer or p/q")
    p, q = m.groups()
    try:
        return Fraction(int(p), int(q)) if q else Fraction(int(p))
    except (ValueError, ZeroDivisionError) as exc:  # zero denominator, digit limit
        raise DimensionError(f"bad rational {text!r}: {exc}") from None


def _frac(x) -> Fraction:
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int) and not isinstance(x, bool):
        return Fraction(x)
    if isinstance(x, str):
        return _parse_rational(x)
    raise DimensionError(
        f"expected rational: an int, a Fraction or a p/q string, got {type(x).__name__}"
    )


def _check_shape(rows: int, cols: int):
    if rows < 0 or cols < 0:
        raise DimensionError("negative matrix dimensions")


def _wrap(rows: int, cols: int, data: tuple) -> "Matrix":
    """A Matrix on ``data``, which must already be a ``rows``-tuple of
    ``cols``-tuples of Fraction: nothing is checked or copied."""
    m = object.__new__(Matrix)
    m.rows = rows
    m.cols = cols
    m._data = data
    return m


class Matrix:
    """Immutable matrix of Fractions; supports zero-sized shapes."""

    __slots__ = ("rows", "cols", "_data")

    def __init__(self, rows: int, cols: int, data: Iterable[Iterable]):
        _check_shape(rows, cols)
        tup = tuple(tuple(map(_frac, row)) for row in data)
        if len(tup) != rows or any(len(r) != cols for r in tup):
            raise DimensionError(
                f"expected {rows}x{cols} data, got rows of lengths {[len(r) for r in tup]}"
            )
        self.rows = rows
        self.cols = cols
        self._data = tup

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
        return _wrap(rows, cols, ((_ZERO,) * cols,) * rows)

    @classmethod
    def identity(cls, n: int) -> "Matrix":
        _check_shape(n, n)
        return _wrap(n, n, tuple(tuple(_ONE if i == j else _ZERO for j in range(n))
                                 for i in range(n)))

    @classmethod
    def column(cls, entries: Sequence) -> "Matrix":
        return cls(len(entries), 1, ((x,) for x in entries))

    # -- access ------------------------------------------------------------

    def __getitem__(self, key) -> Fraction:
        i, j = key
        return self._data[i][j]

    def row(self, i: int) -> tuple:
        return self._data[i]

    @property
    def shape(self) -> tuple:
        return (self.rows, self.cols)

    def entries(self) -> tuple:
        return self._data

    def to_lists(self) -> list:
        return [list(r) for r in self._data]

    # -- algebra -----------------------------------------------------------

    def __mul__(self, other: "Matrix") -> "Matrix":
        if not isinstance(other, Matrix):
            return NotImplemented
        if self.cols != other.rows:
            raise DimensionError(f"cannot multiply {self.shape} by {other.shape}")
        ocols = other.cols
        nonzero = [[(j, b) for j, b in enumerate(row) if b] for row in other._data]
        out = []
        for ri in self._data:
            acc = [_ZERO] * ocols
            for a, pairs in zip(ri, nonzero):
                if a:
                    for j, b in pairs:
                        acc[j] += a * b
            out.append(tuple(acc))
        return _wrap(self.rows, ocols, tuple(out))

    def scale(self, k) -> "Matrix":
        k = _frac(k)
        if k == 1:
            return self
        if k == -1:
            return -self
        return _wrap(self.rows, self.cols, tuple(tuple([k * x for x in r]) for r in self._data))

    def __add__(self, other: "Matrix") -> "Matrix":
        if self.shape != other.shape:
            raise DimensionError(f"cannot add {self.shape} and {other.shape}")
        return _wrap(self.rows, self.cols, tuple(
            tuple([a + b for a, b in zip(r1, r2)]) for r1, r2 in zip(self._data, other._data)
        ))

    def __sub__(self, other: "Matrix") -> "Matrix":
        return self + -other

    def __neg__(self) -> "Matrix":
        return _wrap(self.rows, self.cols, tuple(tuple([-x for x in r]) for r in self._data))

    def transpose(self) -> "Matrix":
        return _wrap(self.cols, self.rows,
                     tuple(zip(*self._data)) if self.rows else ((),) * self.cols)

    def hstack(self, other: "Matrix") -> "Matrix":
        if self.rows != other.rows:
            raise DimensionError("hstack row mismatch")
        return _wrap(self.rows, self.cols + other.cols,
                     tuple(r1 + r2 for r1, r2 in zip(self._data, other._data)))

    def vstack(self, other: "Matrix") -> "Matrix":
        if self.cols != other.cols:
            raise DimensionError("vstack column mismatch")
        return _wrap(self.rows + other.rows, self.cols, self._data + other._data)

    def take_rows(self, idx: Sequence[int]) -> "Matrix":
        return _wrap(len(idx), self.cols, tuple([self._data[i] for i in idx]))

    def take_columns(self, idx: Sequence[int]) -> "Matrix":
        return _wrap(self.rows, len(idx),
                     tuple(tuple([r[j] for j in idx]) for r in self._data))

    def is_zero(self) -> bool:
        return all(x == 0 for r in self._data for x in r)

    # -- plumbing ----------------------------------------------------------

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Matrix)
            and self.shape == other.shape
            and self._data == other._data
        )

    def __hash__(self) -> int:
        return hash((self.rows, self.cols, self._data))

    def __repr__(self) -> str:
        if self.rows == 0 or self.cols == 0:
            return f"Matrix({self.rows}x{self.cols})"
        body = "; ".join(" ".join(str(x) for x in r) for r in self._data)
        return f"Matrix[{body}]"


def hstack_all(mats: Sequence[Matrix], rows: int = 0) -> Matrix:
    """Horizontal concatenation; `rows` disambiguates the empty list."""
    if not mats:
        return Matrix.zeros(rows, 0)
    out = mats[0]
    for m in mats[1:]:
        out = out.hstack(m)
    return out


def vstack_all(mats: Sequence[Matrix], cols: int = 0) -> Matrix:
    if not mats:
        return Matrix.zeros(0, cols)
    out = mats[0]
    for m in mats[1:]:
        out = out.vstack(m)
    return out


# ---------------------------------------------------------------------------
# Elimination core
# ---------------------------------------------------------------------------

def _integer_rows(m: Matrix) -> list:
    """Scale each row by the lcm of its denominators (preserves row space)."""
    out = []
    for row in m.entries():
        mult = lcm(*(x.denominator for x in row))
        out.append([x.numerator * (mult // x.denominator) for x in row])
    return out


def _bareiss_echelon(work: list, cols: int) -> list:
    """In-place fraction-free echelon; returns the pivot column list.

    Division by the previous pivot is exact (entries are minors of the
    integerized input); checked via divmod.
    """
    pivots = []
    nrows = len(work)
    r = 0
    prev = 1
    for c in range(cols):
        sel = None
        for i in range(r, nrows):
            if work[i][c]:
                sel = i
                break
        if sel is None:
            continue
        if sel != r:
            work[r], work[sel] = work[sel], work[r]
        piv = work[r][c]
        for i in range(r + 1, nrows):
            wi = work[i]
            f = wi[c]
            if f == 0 and piv == prev:
                continue
            new = [0] * cols
            for k in range(c, cols):
                num = piv * wi[k] - f * work[r][k]
                q, rem = divmod(num, prev)
                if rem:
                    raise InternalError("Bareiss exact-division invariant broken")
                new[k] = q
            work[i] = new
        prev = piv
        pivots.append(c)
        r += 1
    return pivots


def rref(m: Matrix) -> tuple:
    """Reduced row echelon form with deterministic first-nonzero pivots.

    Returns ``(R, pivots)`` where R is the RREF as a Matrix and pivots the
    tuple of pivot column indices in order.
    """
    work = _integer_rows(m)
    pivots = _bareiss_echelon(work, m.cols)
    rank = len(pivots)
    # Back-substitute upward on the integer pivot rows E_i.  Their pivot
    # columns form an upper triangular T with diagonal d_i; with D the last
    # pivot, F = D * RREF solves T F = D E and is integral (its entries are
    # minors, by Cramer's rule), so row i is (D E_i - sum_{j>i} T_ij F_j) / d_i
    # with exact division, and each entry is built once as Fraction(x, D).
    D = work[rank - 1][pivots[rank - 1]] if rank else 1
    for i in range(rank - 2, -1, -1):
        wi = work[i]
        acc = [D * x for x in wi]
        for j in range(i + 1, rank):
            f = wi[pivots[j]]
            if f:
                acc = [a - f * b if b else a for a, b in zip(acc, work[j])]
        d = wi[pivots[i]]
        if d != 1:
            for k, a in enumerate(acc):
                q, rem = divmod(a, d)
                if rem:
                    raise InternalError("back-substitution left a remainder")
                acc[k] = q
        work[i] = acc
    rows = tuple(tuple([Fraction(x, D) if x else _ZERO for x in work[i]]) for i in range(rank))
    rows += ((_ZERO,) * m.cols,) * (m.rows - rank)
    return _wrap(m.rows, m.cols, rows), tuple(pivots)


def rank(m: Matrix) -> int:
    """Exact rank."""
    work = _integer_rows(m)
    return len(_bareiss_echelon(work, m.cols))


def kernel_basis(m: Matrix) -> Matrix:
    """Columns form a deterministic basis of ker(m) in Q^cols.

    Free coordinates are set to 1 one at a time, in column order; pivot
    coordinates are filled from the RREF.  ``m * kernel_basis(m) = 0``.
    """
    R, pivots = rref(m)
    pivset = set(pivots)
    free = [j for j in range(m.cols) if j not in pivset]
    cols = []
    for f in free:
        v = [_ZERO] * m.cols
        v[f] = _ONE
        for i, pc in enumerate(pivots):
            v[pc] = -R[i, f]
        cols.append(v)
    return _wrap(m.cols, len(cols), tuple(zip(*cols))) if cols else Matrix.zeros(m.cols, 0)


def image_basis(m: Matrix) -> Matrix:
    """The pivot columns of m — a deterministic basis of im(m)."""
    _, pivots = rref(m)
    return m.take_columns(list(pivots))


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
    out = [(_ZERO,) * b.cols] * m.cols
    for i, pc in enumerate(pivots):
        out[pc] = R.row(i)[m.cols:]
    return _wrap(m.cols, b.cols, tuple(out))


def inverse(m: Matrix) -> Optional[Matrix]:
    """Exact inverse of a square matrix, or None if singular."""
    if m.rows != m.cols:
        return None
    R, pivots = rref(m.hstack(Matrix.identity(m.rows)))
    if len(pivots) != m.rows or any(p >= m.cols for p in pivots):
        return None
    return _wrap(m.rows, m.rows, tuple([row[m.cols:] for row in R.entries()]))


def left_inverse(k: Matrix) -> Matrix:
    """Deterministic left inverse of a full-column-rank matrix.

    Uses the pivot rows (first set of rows that is invertible, in row order):
    the result s satisfies s*k = I and kills the complementary coordinate
    subspace spanned by the non-pivot rows.
    """
    if k.cols == 0:
        return Matrix.zeros(0, k.rows)
    _, pivrows = rref(k.transpose())
    sub = k.take_rows(list(pivrows))
    inv = inverse(sub)
    if inv is None:
        raise DimensionError("left_inverse: matrix does not have full column rank")
    sel = _wrap(k.cols, k.rows,
                tuple(tuple(_ONE if j == pivrows[i] else _ZERO for j in range(k.rows))
                      for i in range(k.cols)))
    return inv * sel


def right_inverse(c: Matrix) -> Matrix:
    """Deterministic right inverse of a full-row-rank matrix (pivot columns)."""
    if c.rows == 0:
        return Matrix.zeros(c.cols, 0)
    _, pivots = rref(c)
    if len(pivots) != c.rows:
        raise DimensionError("right_inverse: matrix does not have full row rank")
    inv = inverse(c.take_columns(list(pivots)))
    emb = _wrap(c.cols, c.rows,
                tuple(tuple(_ONE if pivots[j] == i else _ZERO for j in range(c.rows))
                      for i in range(c.cols)))
    return emb * inv


def adjoint_pushforward(r: Matrix, q_source: Matrix,
                        q_target_inverse: Optional[Matrix]) -> Matrix:
    """Adjoint g of r under two perfect pairings, given ``inverse(q_target)``.

    Defining identity (exact): ``g.T * q_target == q_source * r``, i.e.
    <g a, b>_target = <a, r b>_source for all coordinate vectors a, b.
    Raises PairingNotPerfect if the inverse is None (singular target) or the
    source pairing is not square, DimensionError on shape mismatch.
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
