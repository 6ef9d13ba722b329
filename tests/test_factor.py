"""Canonical kernel/image/cokernel factorization and versal splittings."""

from random import Random

import pytest

from absix import Matrix
from absix.errors import NotIdempotent, PreconditionViolated
from absix.factor import (
    ch_factorization,
    idempotent_kernel,
    versal_embed,
)
from absix.hodgecore import PureMorphism, PureObject, from_hodge_numbers
from absix.qmat import kernel_basis, rank

from synth import (
    rand_block,
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


# ---------------------------------------------------------------------------
# versal_embed
# ---------------------------------------------------------------------------

def test_versal_embed_identities_on_random_instances():
    rng = Random(51)
    for _ in range(40):
        v, h, j, p, dec = random_versal_instance(rng)
        iota, q, h_prime = versal_embed(v, h, j, p, dec)
        # Re-assert every identity from the outside.
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
