"""Exact linear algebra against a naive Gauss-Jordan oracle.

The oracle below is written independently of the library (plain textbook
row reduction over Fraction, no Bareiss, no pivot tricks) so agreement is
meaningful.
"""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from absix import Matrix
from absix.errors import DimensionError, InternalError, PairingNotPerfect
from absix.qmat import (
    _rescale,
    adjoint_pushforward,
    cokernel_projection,
    hstack_all,
    image_basis,
    inverse,
    kernel_basis,
    left_inverse,
    rank,
    rref,
    right_inverse,
    solve,
)


# ---------------------------------------------------------------------------
# Oracle: plain Gauss-Jordan over Fraction
# ---------------------------------------------------------------------------

def oracle_rref(rows):
    """Reduced row echelon form and pivot columns, textbook style."""
    m = [list(r) for r in rows]
    nrows, ncols = len(m), len(m[0]) if m else 0
    pivots = []
    r = 0
    for c in range(ncols):
        pivot = next((i for i in range(r, nrows) if m[i][c] != 0), None)
        if pivot is None:
            continue
        m[r], m[pivot] = m[pivot], m[r]
        scale = m[r][c]
        m[r] = [x / scale for x in m[r]]
        for i in range(nrows):
            if i != r and m[i][c] != 0:
                factor = m[i][c]
                m[i] = [x - factor * y for x, y in zip(m[i], m[r])]
        pivots.append(c)
        r += 1
        if r == nrows:
            break
    return m, pivots


def oracle_kernel(rows, ncols):
    """Kernel basis columns from the oracle RREF (one per free column)."""
    red, pivots = oracle_rref(rows)
    free = [c for c in range(ncols) if c not in pivots]
    basis = []
    for f in free:
        v = [Fraction(0)] * ncols
        v[f] = Fraction(1)
        for r, c in enumerate(pivots):
            v[c] = -red[r][f]
        basis.append(v)
    return basis


fractions = st.fractions(
    min_value=-9, max_value=9, max_denominator=9
)


@st.composite
def matrices(draw, max_dim=5):
    rows = draw(st.integers(min_value=0, max_value=max_dim))
    cols = draw(st.integers(min_value=0, max_value=max_dim))
    data = draw(
        st.lists(
            st.lists(fractions, min_size=cols, max_size=cols),
            min_size=rows, max_size=rows,
        )
    )
    return Matrix(rows, cols, data)


def same_column_span(a: Matrix, b: Matrix) -> bool:
    if a.cols != b.cols and rank(a) != rank(b):
        return False
    joint = rank(a.hstack(b)) if a.cols + b.cols else 0
    return joint == rank(a) == rank(b)


# ---------------------------------------------------------------------------
# Agreement with the oracle
# ---------------------------------------------------------------------------

@given(matrices())
@settings(max_examples=120, deadline=None)
def test_rref_matches_oracle(m):
    red, pivots = rref(m)
    want_rows, want_pivots = oracle_rref(m.to_lists())
    assert list(pivots) == want_pivots
    if m.rows:
        assert red.to_lists() == want_rows


@given(matrices())
@settings(max_examples=120, deadline=None)
def test_rank_matches_oracle_and_transpose(m):
    _, pivots = oracle_rref(m.to_lists())
    assert rank(m) == len(pivots)
    assert rank(m.transpose()) == len(pivots)


@given(matrices())
@settings(max_examples=120, deadline=None)
def test_kernel_basis_matches_oracle(m):
    k = kernel_basis(m)
    assert k.rows == m.cols
    assert (m * k).is_zero()
    assert rank(k) == k.cols == m.cols - rank(m)
    oracle = oracle_kernel(m.to_lists(), m.cols)
    if oracle:
        want = Matrix(m.cols, len(oracle), [list(col) for col in zip(*oracle)])
        assert same_column_span(k, want)


@given(matrices())
@settings(max_examples=100, deadline=None)
def test_image_basis_spans_the_column_space(m):
    b = image_basis(m)
    assert b.rows == m.rows and b.cols == rank(m)
    assert rank(b) == b.cols
    if m.cols:
        assert same_column_span(b, m) or rank(b.hstack(m)) == rank(b)


@given(matrices())
@settings(max_examples=100, deadline=None)
def test_cokernel_projection_kills_image_and_is_onto(m):
    c = cokernel_projection(m)
    assert c.cols == m.rows
    assert c.rows == m.rows - rank(m)
    assert (c * m).is_zero()
    assert rank(c) == c.rows


@given(matrices())
@settings(max_examples=100, deadline=None)
def test_solve_recovers_constructed_solutions(m):
    if m.cols:
        x = Matrix(m.cols, 1, [[Fraction(i - 1, 2)] for i in range(m.cols)])
        b = m * x
        got = solve(m, b)
        assert got is not None
        assert m * got == b


@given(matrices())
@settings(max_examples=80, deadline=None)
def test_rref_invariant_under_row_scaling(m):
    scaled = Matrix(
        m.rows, m.cols,
        [[Fraction(3 + i) * x for x in m.row(i)] for i in range(m.rows)],
    )
    assert rref(m) == rref(scaled)


# ---------------------------------------------------------------------------
# Determinism and inverses
# ---------------------------------------------------------------------------

def test_kernel_basis_is_deterministic_and_reduced():
    m = Matrix(2, 4, [[1, 2, 0, -1], [0, 0, 1, 4]])
    k = kernel_basis(m)
    assert k == kernel_basis(Matrix(2, 4, m.to_lists()))
    # free columns carry an identity block (RREF-style kernel)
    assert k.to_lists() == [
        [Fraction(-2), Fraction(1)],
        [Fraction(1), Fraction(0)],
        [Fraction(0), Fraction(-4)],
        [Fraction(0), Fraction(1)],
    ]


def test_inverse_roundtrip_and_singular():
    m = Matrix(3, 3, [[2, 1, 0], [0, -1, 3], [1, 0, 5]])
    inv = inverse(m)
    assert inv is not None
    assert m * inv == Matrix.identity(3)
    assert inv * m == Matrix.identity(3)
    assert inverse(Matrix(2, 2, [[1, 2], [2, 4]])) is None
    assert inverse(Matrix(2, 3, [[1, 0, 0], [0, 1, 0]])) is None
    assert inverse(Matrix.zeros(0, 0)) == Matrix.zeros(0, 0)


def test_one_sided_inverses():
    k = Matrix(3, 2, [[1, 1], [0, 2], [1, 0]])
    li = left_inverse(k)
    assert li * k == Matrix.identity(2)
    c = Matrix(2, 3, [[1, 0, 1], [0, 1, -1]])
    ri = right_inverse(c)
    assert c * ri == Matrix.identity(2)


def test_solve_unsolvable_returns_none():
    m = Matrix(2, 1, [[1], [1]])
    b = Matrix(2, 1, [[1], [0]])
    assert solve(m, b) is None


def test_stacking_helpers():
    a = Matrix(2, 1, [[1], [2]])
    b = Matrix(2, 2, [[3, 4], [5, 6]])
    assert hstack_all([a, b], rows=2).to_lists() == [[1, 3, 4], [2, 5, 6]]
    assert hstack_all([], rows=3).shape == (3, 0)


def test_matrix_shape_errors():
    with pytest.raises(DimensionError):
        Matrix(2, 2, [[1, 2], [3]])
    with pytest.raises(DimensionError):
        Matrix(1, 1, [[1.5]])
    with pytest.raises(DimensionError):
        Matrix(1, 2, [[1, 2]]) * Matrix(1, 2, [[1, 2]])


def test_public_constructors_check_shapes_and_entries():
    for build in (lambda: Matrix(-1, 2, []), lambda: Matrix(2, -1, [[], []]),
                  lambda: Matrix.zeros(-1, 2), lambda: Matrix.zeros(2, -1),
                  lambda: Matrix.identity(-1),
                  lambda: Matrix(2, 2, [[1, 2], [3]]), lambda: Matrix.from_rows([[1, 2], [3]]),
                  lambda: Matrix(2, 1, [[1]]), lambda: Matrix.from_rows([[1.5]])):
        with pytest.raises(DimensionError):
            build()
    accepted = Matrix.from_rows([["3/4", "-2", "0", "-0", "007", "6/8"],
                                 [1, -5, Fraction(1, 3), "10/1", "-1/2", 2]])
    assert accepted.to_lists() == [
        [Fraction(3, 4), -2, 0, 0, 7, Fraction(3, 4)],
        [1, -5, Fraction(1, 3), 10, Fraction(-1, 2), 2],
    ]
    _assert_canonical(accepted)


def _assert_canonical(m: Matrix):
    """Each stored entry is an int (never a bool) when integral and otherwise
    a Fraction with denominator > 1; ``to_lists()`` and ``m[i, j]`` give
    Fractions equal to the stored entries."""
    lists = m.to_lists()
    for i, row in enumerate(m.entries()):
        for j, x in enumerate(row):
            assert type(x) is int or (type(x) is Fraction and x.denominator > 1), (i, j, x)
            assert type(lists[i][j]) is Fraction and lists[i][j] == x, (i, j)
            assert type(m[i, j]) is Fraction and m[i, j] == x, (i, j)


# The atlas format's grammar, -?[0-9]+(/[0-9]+)?, is the only string form.
@pytest.mark.parametrize("value", ["1e3", " 2 ", "1_000", "1.5", True, False, "+2", "2/",
                                   "1/-2", "1/0", "\u0662", "", 1.0, None,
                                   pytest.param("1" * 5000, id="past-the-digit-limit")])
def test_entries_outside_the_strict_grammar_are_rejected(value):
    with pytest.raises(DimensionError):
        Matrix.from_rows([[value]])
    with pytest.raises(DimensionError):
        Matrix(1, 1, [[value]])


# ---------------------------------------------------------------------------
# Adjoint pushforward
# ---------------------------------------------------------------------------

def _rand_perfect(seed, n):
    rng = random.Random(seed)
    while True:
        m = Matrix(n, n, [[Fraction(rng.randint(-3, 3)) for _ in range(n)]
                          for _ in range(n)])
        if rank(m) == n:
            return m


@given(st.integers(min_value=0, max_value=4), st.integers(min_value=0, max_value=4),
       st.integers(min_value=0, max_value=10_000))
@settings(max_examples=100, deadline=None)
def test_adjoint_pushforward_satisfies_the_adjunction(na, nb, seed):
    """g = q_src r q_tgt^{-1} transposed, i.e. g^T q_tgt = q_src r exactly."""
    rng = random.Random(seed)
    q_src = _rand_perfect(seed + 1, na)
    q_tgt = _rand_perfect(seed + 2, nb)
    r = Matrix(na, nb, [[Fraction(rng.randint(-3, 3)) for _ in range(nb)]
                        for _ in range(na)])
    g = adjoint_pushforward(r, q_src, inverse(q_tgt))
    assert g.transpose() * q_tgt == q_src * r
    assert rank(g) == rank(r)


def test_adjoint_pushforward_rejects_singular_pairing():
    r = Matrix(1, 1, [[1]])
    singular = Matrix(1, 1, [[0]])
    with pytest.raises(PairingNotPerfect):
        adjoint_pushforward(r, Matrix(1, 1, [[1]]), inverse(singular))


# ---------------------------------------------------------------------------
# Sparse and large-entry draws against the oracles
# ---------------------------------------------------------------------------

def oracle_product(a: Matrix, b: Matrix):
    """Textbook triple loop, every term summed."""
    out = [[Fraction(0)] * b.cols for _ in range(a.rows)]
    for i in range(a.rows):
        for j in range(b.cols):
            for k in range(a.cols):
                out[i][j] += a[i, k] * b[k, j]
    return out


def oracle_inverse(m: Matrix):
    n = m.rows
    red, pivots = oracle_rref([list(r) + [Fraction(int(i == j)) for j in range(n)]
                               for i, r in enumerate(m.to_lists())])
    if pivots != list(range(n)):
        return None
    return [row[n:] for row in red]


def oracle_solve(m: Matrix, b: Matrix):
    red, pivots = oracle_rref([r1 + r2 for r1, r2 in zip(m.to_lists(), b.to_lists())])
    if any(p >= m.cols for p in pivots):
        return None
    out = [[Fraction(0)] * b.cols for _ in range(m.cols)]
    for i, p in enumerate(pivots):
        out[p] = red[i][m.cols:]
    return out


# name -> (largest side, share of zeros, numerator bits, denominator bits)
FAMILIES = {
    "sparse": (10, (0.7, 0.9), 4, 3),
    "large": (8, (0.0, 0.0), 200, 100),
}


def _entry(rng, zeros, num_bits, den_bits):
    if rng.random() < zeros:
        return Fraction(0)
    return Fraction(rng.randint(-(1 << num_bits), 1 << num_bits),
                    rng.randint(1, 1 << den_bits))


def _draw(rng, rows, cols, family, rank_below=None):
    """A seeded draw; with ``rank_below``, a product through a thinner middle."""
    _, (lo, hi), num_bits, den_bits = FAMILIES[family]
    zeros = rng.uniform(lo, hi)
    if rank_below is not None:
        inner = rng.randint(0, max(rank_below - 1, 0))
        return _draw(rng, rows, inner, family) * _draw(rng, inner, cols, family)
    return Matrix(rows, cols, [[_entry(rng, zeros, num_bits, den_bits)
                                for _ in range(cols)] for _ in range(rows)])


def _check_against_oracles(m: Matrix, other: Matrix, square: Matrix, rhss):
    assert (m * other).to_lists() == oracle_product(m, other)
    red, pivots = rref(m)
    want_rows, want_pivots = oracle_rref(m.to_lists())
    assert list(pivots) == want_pivots
    if m.rows:
        assert red.to_lists() == want_rows
    want_kernel = oracle_kernel(m.to_lists(), m.cols)
    k = kernel_basis(m)
    assert k.shape == (m.cols, len(want_kernel))
    assert [list(c) for c in zip(*k.to_lists())] == want_kernel
    inv = inverse(square)
    want_inv = oracle_inverse(square)
    assert (inv is None) == (want_inv is None)
    if inv is not None:
        assert inv.to_lists() == want_inv
    for rhs in rhss:
        got = solve(m, rhs)
        want = oracle_solve(m, rhs)
        assert (got is None) == (want is None)
        if got is not None:
            assert got.to_lists() == want


SEEDED_DRAWS = pytest.mark.parametrize(
    "family, seed, deficient",
    [("sparse", s, s % 3 == 0) for s in range(60)]
    + [("large", s, s % 3 == 0) for s in range(20)],
)


def _seeded_case(family, seed, deficient):
    """(m, other, square, rhss): a matrix, a right factor, a square and two rhs."""
    rng = random.Random(7000 + seed)
    side = FAMILIES[family][0]
    rows, cols, extra = (rng.randint(0, side) for _ in range(3))
    n = rng.randint(0, side)
    m = _draw(rng, rows, cols, family, min(rows, cols) if deficient else None)
    square = _draw(rng, n, n, family, n if deficient else None)
    if deficient:
        assert rank(m) < max(min(rows, cols), 1) and rank(square) < max(n, 1)
    # A consistent right-hand side, and an arbitrary one.
    rhss = (m * _draw(rng, cols, 2, family), _draw(rng, rows, extra, family))
    return m, _draw(rng, cols, extra, family), square, rhss


@SEEDED_DRAWS
def test_kernels_match_oracles_on_sparse_and_large_draws(family, seed, deficient):
    _check_against_oracles(*_seeded_case(family, seed, deficient))


def _assert_checked(m: Matrix):
    """``m`` holds tuple rows of canonical entries in its declared shape."""
    data = m.entries()
    assert type(data) is tuple and len(data) == m.rows
    for row in data:
        assert type(row) is tuple and len(row) == m.cols
    lines = m.sparse_rows()
    assert type(lines) is tuple and len(lines) == m.rows
    for line in lines:
        assert all(0 <= j < m.cols and x for j, x in line.items()), line
    assert m._integral == all(type(x) is int for line in lines for x in line.values())
    _assert_canonical(m)
    assert m == Matrix(m.rows, m.cols, m.to_lists())
    if m.rows:
        assert m == Matrix.from_rows(m.to_lists())


@SEEDED_DRAWS
def test_every_result_holds_checked_rows(family, seed, deficient):
    m, other, square, rhss = _seeded_case(family, seed, deficient)
    rng = random.Random(seed)
    rows = [rng.randrange(m.rows) for _ in range(3)] if m.rows else []
    cols = [rng.randrange(m.cols) for _ in range(3)] if m.cols else []
    results = [
        m * other, m + m, m - m.scale(3), m.scale(1), m.scale(-1), m.scale(Fraction(-2, 3)),
        -m, m.transpose(), m.hstack(rhss[1]), m.vstack(m), m.take_rows(rows),
        m.take_columns(cols), rref(m)[0], kernel_basis(m), image_basis(m),
        cokernel_projection(m), Matrix.zeros(m.rows, m.cols),
        Matrix.identity(m.cols), hstack_all([m, m], m.rows), Matrix.zeros(0, m.cols),
    ]
    results.append(left_inverse(kernel_basis(m)))
    results.append(right_inverse(cokernel_projection(m)))
    inv = inverse(square)
    if inv is not None:
        results.append(inv)
    results += [x for x in (solve(m, b) for b in rhss) if x is not None]
    for result in results:
        _assert_checked(result)


@pytest.mark.parametrize("shape", [(0, 0), (0, 3), (3, 0), (1, 1)])
def test_kernels_on_zero_sized_and_zero_shapes(shape):
    rows, cols = shape
    m = Matrix.zeros(rows, cols)
    other = Matrix.zeros(cols, 2)
    _check_against_oracles(m, other, Matrix.zeros(rows, rows), [Matrix.zeros(rows, 1)])
    assert (m * other).shape == (rows, 2)
    assert rank(m) == 0
    assert kernel_basis(m) == Matrix.identity(cols)


def test_an_inexact_bareiss_rescaling_is_an_internal_error():
    assert _rescale({0: 4, 3: -6}, 3, 2) == {0: 6, 3: -9}
    with pytest.raises(InternalError):
        _rescale({0: 4, 3: -5}, 3, 2)


def test_full_rank_is_invertibility_on_square_draws():
    """Perfection of a pairing is checked by rank alone: on square matrices
    ``rank(m) == m.rows`` exactly when ``inverse(m)`` exists."""
    rng = random.Random(4242)
    singular = invertible = 0
    for i in range(240):
        n = i % 6  # 0x0 included
        family = "sparse" if i % 4 else "large"
        m = _draw(rng, n, n, family, n if i % 3 == 0 else None)
        full = rank(m) == n
        assert full == (inverse(m) is not None), m
        singular += not full
        invertible += full
    assert singular >= 50 and invertible >= 50


def _same_matrix(a: Matrix, b: Matrix):
    assert a == b and hash(a) == hash(b) and len({a, b}) == 1


def test_one_matrix_built_by_several_routes_is_equal_and_hashes_alike():
    target = Matrix.from_rows([[1, 0, Fraction(1, 2)], [0, 0, 0], [3, -1, 0]])
    perm = Matrix.from_rows([[0, 0, 1], [1, 0, 0], [0, 1, 0]])
    routes = [
        Matrix(3, 3, [["1", 0, "2/4"], [0, "-0", 0], [Fraction(3), "-1", 0]]),
        target * perm * perm.transpose(),
        Matrix.from_rows([[1, 1, 0], [0, 0, 0], [0, 0, 1]])
        * Matrix.from_rows([[0, 0, Fraction(1, 2)], [1, 0, 0], [3, -1, 0]]),
        target.transpose().transpose(),
        target.hstack(Matrix.identity(3)).take_columns([0, 1, 2]),
        perm.hstack(target).take_columns([3, 4, 5]),
        target + Matrix.zeros(3, 3),
    ]
    for m in routes:
        _same_matrix(m, target)
    # the routes store the nonzeros of a row in different orders
    assert len({tuple([tuple(line) for line in m.sparse_rows()]) for m in routes}) > 1
    reduced, _ = rref(target)
    expected = Matrix.from_rows(oracle_rref(target.to_lists())[0])
    _same_matrix(reduced, expected)
    assert Matrix.from_rows([[Fraction(4, 2)]]) == Matrix.from_rows([[2]])
    assert Matrix.zeros(2, 3) != Matrix.zeros(3, 2) and Matrix.zeros(0, 2) != Matrix.zeros(0, 3)


def test_kernels_leave_shared_zero_and_identity_rows_unchanged():
    zeros, ident = Matrix.zeros(3, 3), Matrix.identity(3)
    assert zeros.sparse_rows()[0] is zeros.sparse_rows()[2]  # one shared empty row
    before = [[dict(line) for line in m.sparse_rows()] for m in (zeros, ident)]
    m = Matrix.from_rows([[1, 2, 0], [0, 1, 3], [4, 0, Fraction(1, 2)]])
    for a in (zeros, ident):
        for result in (a * m, m * a, a * a, rref(a)[0], inverse(a), kernel_basis(a),
                       a.transpose(), solve(ident, a), a.hstack(m), a.vstack(m)):
            assert result is None or result.transpose().transpose() == result
    after = [[dict(line) for line in m.sparse_rows()] for m in (zeros, ident)]
    assert after == before == [[{}, {}, {}], [{0: 1}, {1: 1}, {2: 1}]]
    assert Matrix.zeros(3, 3).is_zero() and Matrix.identity(3) == ident
