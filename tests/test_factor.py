"""Canonical kernel/image/cokernel factorization and versal splittings."""

from random import Random

import pytest

from absix import Matrix, factor, qmat
from absix.errors import InternalError, NotIdempotent, PreconditionViolated
from absix.factor import (
    _extend_to_basis,
    ch_factorization,
    idempotent_kernel,
    versal_embed,
)
from absix.hodgecore import (
    ZERO_OBJECT,
    PureMorphism,
    PureObject,
    direct_sum_all,
    from_hodge_numbers,
)
from absix.qmat import cokernel_projection, image_basis, inverse, kernel_basis, rank, solve
from absix.absic import absolute_ic
from absix.corpus import builtin
from absix.wss import u_map

from synth import (
    rand_block,
    rand_invertible,
    random_idempotent_blocks,
    random_morphism,
    random_versal_instance,
)


def _span_equal(a: Matrix, b: Matrix) -> bool:
    """Column spans agree: stacking side by side does not raise the rank."""
    joined = a.hstack(b)
    return rank(a) == rank(b) == rank(joined)


# ---------------------------------------------------------------------------
# ch_factorization
# ---------------------------------------------------------------------------

def test_ch_factorization_on_random_morphisms():
    rng = Random(2024)
    for _ in range(60):
        v = random_morphism(rng)
        dec = ch_factorization(v)
        # Monomorphism into CH(v), epimorphism out of it, recovering v.
        assert dec.i_ch.is_injective()
        assert dec.pi_ch.is_surjective()
        assert dec.pi_ch.compose(dec.i_ch) == v
        # Part dimensions agree with independent rank computations per label.
        for lab in v.labels():
            m = v.block(lab)
            r = rank(m)
            assert dec.image_part.count(lab) == r
            assert dec.kernel_part.count(lab) == m.cols - r
            assert dec.cokernel_part.count(lab) == m.rows - r
        assert dec.total.dim == (
            dec.kernel_part.dim + dec.image_part.dim + dec.cokernel_part.dim
        )


def test_ch_factorization_of_zero_and_identity():
    v0 = PureMorphism.zero(PureObject(2, ((1, 1), (1, 1))),
                           PureObject(2, ((1, 1),)))
    dec = ch_factorization(v0)
    assert dec.image_part.dim == 0
    assert dec.kernel_part.dim == 2
    assert dec.cokernel_part.dim == 1

    idm = PureMorphism.identity(from_hodge_numbers(2, {(1, 1): 2, (0, 2): 1}))
    dec = ch_factorization(idm)
    assert dec.kernel_part.dim == 0 and dec.cokernel_part.dim == 0
    assert dec.image_part == idm.source


def _ch_morphisms(corpus) -> list:
    """Every corpus u_n, then the seeded morphisms of the random test above."""
    rng = Random(2024)
    return ([u_map(a, n) for a in corpus.values() for n in range(2 * a.dimension + 1)]
            + [random_morphism(rng) for _ in range(60)])


def test_ch_factorization_eliminates_each_block_twice(monkeypatch, corpus):
    """Two eliminations build each block (rref and the pivots of its
    transpose); the invariant ranks of its i_ch and pi_ch blocks take two
    more, counted apart."""
    morphisms = _ch_morphisms(corpus)
    counted, in_rank = {False: 0, True: 0}, [False]
    echelon, block_rank = qmat._bareiss_echelon, factor.rank

    def counting_echelon(work, cols):
        counted[in_rank[0]] += 1
        return echelon(work, cols)

    def flagged_rank(m):
        in_rank[0] = True
        try:
            return block_rank(m)
        finally:
            in_rank[0] = False

    monkeypatch.setattr(qmat, "_bareiss_echelon", counting_echelon)
    monkeypatch.setattr(factor, "rank", flagged_rank)
    for v in morphisms:
        counted[False] = counted[True] = 0
        ch_factorization(v)
        assert counted == {False: 2 * len(v.labels()), True: 2 * len(v.labels())}, v


def test_ch_blocks_agree_with_the_qmat_helpers(corpus):
    for v in _ch_morphisms(corpus):
        dec = ch_factorization(v)
        for lab in v.labels():
            m = v.block(lab)
            k = dec.kernel_part.count(lab)
            r = dec.image_part.count(lab)
            c = dec.cokernel_part.count(lab)
            i_b, pi_b = dec.i_ch.block(lab), dec.pi_ch.block(lab)
            B = pi_b.take_columns(range(k, k + r))
            assert B == image_basis(m)
            assert i_b.take_rows(range(k, k + r)) == solve(B, m)
            assert i_b.take_rows(range(k)) * kernel_basis(m) == Matrix.identity(k)
            tT = pi_b.take_columns(range(k + r, k + r + c))
            assert cokernel_projection(m) * tT == Matrix.identity(c)


def _extend_greedily(current: Matrix, candidates: Matrix) -> Matrix:
    """Reference: append each candidate column that raises the rank."""
    picked, have = [], current
    for j in range(candidates.cols):
        trial = have.hstack(candidates.take_columns([j]))
        if rank(trial) > rank(have):
            have = trial
            picked.append(j)
    return candidates.take_columns(picked)


def test_extend_to_basis_matches_the_greedy_loop():
    rng = Random(3000)
    for _ in range(300):
        rows = rng.randint(0, 4)
        current = rand_block(rng, rows, rng.randint(0, 3))
        cols = [current.take_columns([j]) for j in range(current.cols)]
        for _ in range(rng.randint(0, 5)):
            kind = rng.randint(0, 2)
            if kind == 0 or not cols:  # a fresh column, likely independent
                col = rand_block(rng, rows, 1)
            elif kind == 1:  # a zero column
                col = Matrix.zeros(rows, 1)
            else:  # a combination of earlier columns
                col = rng.choice(cols).scale(rng.randint(-2, 2)) + rng.choice(cols)
            cols.append(col)
        candidates = qmat.hstack_all(cols[current.cols:], rows=rows)
        assert _extend_to_basis(current, candidates) == _extend_greedily(current, candidates)


# ---------------------------------------------------------------------------
# versal_embed
# ---------------------------------------------------------------------------

def _assert_versal(v, h, j, p, dec):
    """Every identity of the splitting, asserted from the outside, and the
    same splitting on a second call."""
    iota, q, h_prime = versal_embed(v, h, j, p, dec)
    assert q.compose(iota) == PureMorphism.identity(dec.total)
    assert iota.compose(dec.i_ch) == j
    assert p.compose(iota) == dec.pi_ch
    assert q.compose(j) == dec.i_ch
    assert dec.pi_ch.compose(q) == p
    # h decomposes as CH(v) plus the complement.
    assert h_prime.dim == h.dim - dec.total.dim
    combined = dict(dec.total.hodge_numbers())
    for lab, k in h_prime.hodge_numbers().items():
        combined[lab] = combined.get(lab, 0) + k
    assert combined == h.hodge_numbers()
    again = versal_embed(v, h, j, p, dec)
    assert again[0] == iota and again[1] == q


def _block_diagonal(*blocks: Matrix) -> Matrix:
    n, rows = sum(b.cols for b in blocks), []
    for b in blocks:
        rows += [[0] * len(rows) + list(b.row(i)) + [0] * (n - len(rows) - b.cols)
                 for i in range(b.rows)]
    return Matrix(n, n, rows)


def _conjugated(dec, rng: Random):
    """The same decomposition in other bases of its kernel and image parts:
    i_ch' = T i_ch and pi_ch' = pi_ch T^-1 with T = diag(A, C, I) per label."""
    i_blocks, pi_blocks = {}, {}
    for lab in dec.total.labels():
        k, r, c = (part.count(lab) for part in
                   (dec.kernel_part, dec.image_part, dec.cokernel_part))
        t = _block_diagonal(rand_invertible(rng, k), rand_invertible(rng, r),
                            Matrix.identity(c))
        i_blocks[lab] = t * dec.i_ch.block(lab)
        pi_blocks[lab] = dec.pi_ch.block(lab) * inverse(t)
    return type(dec)(dec.kernel_part, dec.image_part, dec.cokernel_part, dec.total,
                     PureMorphism(dec.i_ch.source, dec.total, i_blocks),
                     PureMorphism(dec.total, dec.pi_ch.target, pi_blocks))


def test_versal_embed_identities_on_random_instances():
    rng = Random(51)
    for _ in range(40):
        _assert_versal(*random_versal_instance(rng))


def test_versal_embed_at_weights_zero_to_four():
    rng = Random(52)
    for weight in range(5):
        for _ in range(20):
            _assert_versal(*random_versal_instance(rng, weight))


def test_versal_embed_on_non_canonical_decompositions():
    rng = Random(53)
    for _ in range(60):
        v, h, j, p, dec = random_versal_instance(rng, rng.randint(0, 4))
        _assert_versal(v, h, j, p, _conjugated(dec, rng))


def test_versal_embed_on_a_label_only_in_h():
    h = from_hodge_numbers(2, {(1, 1): 2, (0, 2): 1})
    v = PureMorphism.zero(ZERO_OBJECT, ZERO_OBJECT)
    dec = ch_factorization(v)
    iota, q, h_prime = versal_embed(v, h, PureMorphism.zero(ZERO_OBJECT, h),
                                    PureMorphism.zero(h, ZERO_OBJECT), dec)
    assert h_prime == h
    assert iota == PureMorphism.zero(dec.total, h)
    assert q == PureMorphism.zero(h, dec.total)


def test_versal_embed_rejects_malformed_decompositions():
    # v = 0 on one (1, 1) slot, through h = two (1, 1) slots.
    lab = (1, 1)
    s = from_hodge_numbers(2, {lab: 1})
    h = from_hodge_numbers(2, {lab: 2})
    v = PureMorphism.zero(s, s)
    j = PureMorphism(s, h, {lab: Matrix.from_rows([[1], [0]])})
    p = PureMorphism(h, s, {lab: Matrix.from_rows([[0, 1]])})
    dec = ch_factorization(v)

    def replaced(i_ch=None, pi_ch=None):
        return type(dec)(
            dec.kernel_part, dec.image_part, dec.cokernel_part, dec.total,
            PureMorphism(s, dec.total, {lab: Matrix.from_rows(i_ch)}) if i_ch else dec.i_ch,
            PureMorphism(dec.total, s, {lab: Matrix.from_rows(pi_ch)}) if pi_ch else dec.pi_ch)

    versal_embed(v, h, j, p, dec)
    for bad in (replaced([[1], [1]], [[1, -1]]),  # mono and epi, not in CH form
                replaced(pi_ch=[[0, 0]]),         # pi_ch not epi
                replaced(i_ch=[[0], [0]])):       # i_ch not mono
        assert bad.pi_ch.compose(bad.i_ch) == v
        with pytest.raises(PreconditionViolated):
            versal_embed(v, h, j, p, bad)
    # Mono with zero cokernel rows, epi with zero kernel columns, but parts
    # larger than ker, im and coker of v.
    total = direct_sum_all([s, s, s])
    oversized = type(dec)(s, s, s, total,
                          PureMorphism(s, total, {lab: Matrix.from_rows([[1], [0], [0]])}),
                          PureMorphism(total, s, {lab: Matrix.from_rows([[0, 1, 0]])}))
    with pytest.raises(PreconditionViolated):
        versal_embed(v, h, j, p, oversized)


def test_versal_embed_preconditions():
    rng = Random(9)
    v, h, j, p, dec = random_versal_instance(rng)
    wrong_v = random_morphism(Random(10))
    with pytest.raises(PreconditionViolated):
        versal_embed(wrong_v, h, j, p, dec)
    # A non-injective j must be rejected.
    zero_j = PureMorphism.zero(v.source, h)
    if v.source.dim:
        with pytest.raises(PreconditionViolated):
            versal_embed(v, h, zero_j, p, dec)
    # p . j must equal v: doubling p breaks it unless everything is zero.
    twice = PureMorphism(h, v.target,
                         {lab: p.block(lab).scale(2) for lab in p.labels()})
    if not v.is_zero():
        with pytest.raises(PreconditionViolated):
            versal_embed(v, h, j, twice, dec)


def test_versal_embed_rejects_foreign_decomposition():
    v, h, j, p, dec = random_versal_instance(Random(77))
    other = ch_factorization(random_morphism(Random(78)))
    with pytest.raises(PreconditionViolated):
        versal_embed(v, h, j, p, other)


# ---------------------------------------------------------------------------
# idempotent_kernel
# ---------------------------------------------------------------------------

def test_idempotent_kernel_matches_elimination_oracle():
    rng = Random(303)
    for _ in range(60):
        a, b, d = random_idempotent_blocks(rng)
        full = a.hstack(b).vstack(Matrix.zeros(d.rows, a.cols).hstack(d))
        got = idempotent_kernel(a, b, d)
        assert (full * got).is_zero()
        assert rank(got) == got.cols
        reference = kernel_basis(full)
        assert got.cols == reference.cols
        assert _span_equal(got, reference)


def test_idempotent_kernel_rejects_bad_blocks():
    with pytest.raises(NotIdempotent):
        idempotent_kernel(Matrix(1, 2, [[1, 0]]), Matrix(1, 1, [[0]]),
                          Matrix(1, 1, [[1]]))
    # Non-idempotent diagonal block.
    with pytest.raises(NotIdempotent):
        idempotent_kernel(Matrix(1, 1, [[2]]), Matrix(1, 1, [[0]]),
                          Matrix(1, 1, [[1]]))
    # Idempotent diagonals but the mixed relation fails.
    a = Matrix(1, 1, [[1]])
    d = Matrix(1, 1, [[1]])
    bad_b = Matrix(1, 1, [[1]])  # a*b + b*d = 2b != b
    with pytest.raises(NotIdempotent):
        idempotent_kernel(a, bad_b, d)
    # Off-diagonal block of the wrong shape.
    with pytest.raises(NotIdempotent):
        idempotent_kernel(Matrix(2, 2, [[1, 0], [0, 1]]),
                          Matrix(1, 1, [[0]]), Matrix(1, 1, [[1]]))


def test_idempotent_kernel_block_shape():
    rng = Random(12)
    a, b, d = random_idempotent_blocks(rng)
    got = idempotent_kernel(a, b, d)
    assert got.rows == a.rows + d.rows
    assert got.cols == (a.cols - rank(a)) + (d.cols - rank(d))


def test_corrupted_factorization_exits_3(monkeypatch):
    """A wrong rref row breaks pi_ch . i_ch = u_2 on P^2 minus a point, whose
    u_2 has rank one; the check is a raise, so it holds under python -O.
    Only ``absolute_ic`` builds the factorization: no CLI request does, and
    an InternalError is what ``main`` turns into exit code 3."""
    real = factor.rref

    def corrupted(m):
        R, pivots = real(m)
        lines = [dict(line) for line in R.sparse_rows()]
        if pivots:
            lines[0] = {j: 2 * x for j, x in lines[0].items()}
        return qmat._wrap(R.cols, lines), pivots

    monkeypatch.setattr(factor, "rref", corrupted)
    with pytest.raises(InternalError, match="^canonical factorization must recover v$"):
        absolute_ic(builtin("points_in_proper"))
