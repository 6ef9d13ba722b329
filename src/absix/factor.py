"""Canonical mono/epi factorization through kernel + image + cokernel.

For a morphism v: S -> T of pure objects, the canonical object

    CH(v) = ker(v) (+) im(v) (+) coker(v)

sits in a factorization  v = piCH . iCH  with iCH: S -> CH(v) injective and
piCH: CH(v) -> T surjective.  Concretely, per (p, q) block:

    iCH  = (s, q, 0)   s: a left inverse of ker(v) -> S, q: S ->> im(v)
    piCH = (0, i, t)   i: im(v) -> T the inclusion, t: a right inverse of
                       T ->> coker(v)

All choices are the deterministic pivot-order ones from :mod:`absix.qmat`,
so repeated runs produce identical matrices.

CH(v) is versal for such factorizations: whenever v = p . j with j mono and
p epi through some pure h, there is an embedding iota: CH(v) -> h and a
retraction q: h -> CH(v) with q . iota = id, both compatible with the two
factorizations, exhibiting h as CH(v) (+) hPrime.  ``versal_embed`` computes
that data exactly.

``idempotent_kernel`` handles the block-triangular idempotent case: for
e = [[A, B], [0, D]] idempotent, a kernel embedding is assembled directly
from kernel bases of A and D, no elimination on e itself.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import InternalError, NotIdempotent, PreconditionViolated
from .hodgecore import (
    PureMorphism,
    PureObject,
    ZERO_OBJECT,
    direct_sum_all,
    from_hodge_numbers,
)
from .qmat import (
    Matrix,
    cokernel_projection,
    hstack_all,
    image_basis,
    inverse,
    kernel_basis,
    left_inverse,
    rank,
    right_inverse,
    solve,
    vstack_all,
)


@dataclass(frozen=True)
class ChDecomposition:
    """CH(v) with its canonical factorization v = pi_ch . i_ch."""

    kernel_part: PureObject
    image_part: PureObject
    cokernel_part: PureObject
    total: PureObject
    i_ch: PureMorphism
    pi_ch: PureMorphism


def _part_dims(v: PureMorphism) -> tuple:
    """Per-label (kernel, image, cokernel) dimensions of a morphism."""
    kerd, imd, cokd = {}, {}, {}
    for lab in v.labels():
        m = v.block(lab)
        r = rank(m)
        if m.cols - r:
            kerd[lab] = m.cols - r
        if r:
            imd[lab] = r
        if m.rows - r:
            cokd[lab] = m.rows - r
    return kerd, imd, cokd


def _weight_of(v: PureMorphism) -> int:
    if not v.source.is_zero:
        return v.source.weight
    return v.target.weight


def ch_factorization(v: PureMorphism) -> ChDecomposition:
    """The canonical factorization of v through CH(v), blockwise pivot-order."""
    kerd, imd, cokd = _part_dims(v)
    w = _weight_of(v)
    kernel_part = from_hodge_numbers(w, kerd) if kerd else ZERO_OBJECT
    image_part = from_hodge_numbers(w, imd) if imd else ZERO_OBJECT
    cokernel_part = from_hodge_numbers(w, cokd) if cokd else ZERO_OBJECT
    total = direct_sum_all([kernel_part, image_part, cokernel_part])

    i_blocks, pi_blocks = {}, {}
    for lab in v.labels():
        m = v.block(lab)
        k = kerd.get(lab, 0)
        r = imd.get(lab, 0)
        c = cokd.get(lab, 0)
        s_dim, t_dim = m.cols, m.rows
        if k + r + c == 0:
            continue
        K = kernel_basis(m)                       # s_dim x k
        B = image_basis(m)                        # t_dim x r
        C = cokernel_projection(m)                # c x t_dim
        sS = left_inverse(K)                      # k x s_dim, sS*K = I
        coords = solve(B, m)                      # r x s_dim, B*coords = m
        if coords is None or B * coords != m:
            raise InternalError("the image basis must reproduce the block")
        tT = right_inverse(C)                     # t_dim x c, C*tT = I
        i_blocks[lab] = vstack_all(
            [sS, coords, Matrix.zeros(c, s_dim)], cols=s_dim
        )
        pi_blocks[lab] = hstack_all(
            [Matrix.zeros(t_dim, k), B, tT], rows=t_dim
        )

    i_ch = PureMorphism(v.source, total, i_blocks)
    pi_ch = PureMorphism(total, v.target, pi_blocks)
    if pi_ch.compose(i_ch) != v:
        raise InternalError("canonical factorization must recover v")
    if i_ch.rank() != v.source.dim:
        raise InternalError("i_ch must be injective")
    if pi_ch.rank() != v.target.dim:
        raise InternalError("pi_ch must be surjective")
    return ChDecomposition(kernel_part, image_part, cokernel_part, total, i_ch, pi_ch)


def _extend_to_basis(current: Matrix, candidates: Matrix) -> Matrix:
    """Greedily append candidate columns that raise the rank (pivot order)."""
    picked = []
    have = current
    r = rank(have)
    for j in range(candidates.cols):
        col = candidates.take_columns([j])
        trial = have.hstack(col)
        tr = rank(trial)
        if tr > r:
            have, r = trial, tr
            picked.append(j)
    return candidates.take_columns(picked)


def _versal_block(vb: Matrix, jb: Matrix, pb: Matrix,
                  i_chb: Matrix, pi_chb: Matrix, k: int, r: int, c: int) -> tuple:
    """Per-label versal embedding; returns (iota_block, q_block).

    Shapes: vb t x s, jb h x s, pb t x h; i_chb (k+r+c) x s with rows split
    (s-part k, coords-part r, zeros c); pi_chb t x (k+r+c) with columns split
    (zeros k, image basis r, right-inverse c).
    """
    s_dim, h_dim, t_dim = vb.cols, jb.rows, vb.rows
    sS = i_chb.take_rows(range(k))                       # k x s
    B = pi_chb.take_columns(range(k, k + r))             # t x r
    tT = pi_chb.take_columns(range(k + r, k + r + c))    # t x c

    # Kernel basis of v compatible with the decomposition's left inverse:
    # sS * K = I.
    K0 = kernel_basis(vb)                                # s x k
    if k:
        M = inverse(sS * K0)
        if M is None:
            raise PreconditionViolated(
                "decomposition's kernel retraction is singular on ker(v)"
            )
        K = K0 * M
    else:
        K = K0

    jK = jb * K                                          # h x k
    Kp = kernel_basis(pb)                                # h x (h - t)
    H1 = _extend_to_basis(jK, Kp)                        # complement of j(ker v) in ker p
    h1 = H1.cols
    theta = hstack_all([jb, H1], rows=h_dim)
    H2 = _extend_to_basis(theta, Matrix.identity(h_dim))
    h2 = H2.cols
    theta = theta.hstack(H2)                             # h x h, invertible
    theta_inv = inverse(theta)
    if theta_inv is None:
        raise InternalError("theta = [j | H1 | H2] must be invertible")

    # Retraction of H onto ker(p) = j(ker v) (+) H1 (coordinates in that basis),
    # written in the decomposition H = im(j) (+) H1 (+) H2.
    top = hstack_all([sS, Matrix.zeros(k, h1), Matrix.zeros(k, h2)], rows=k)
    mid = hstack_all(
        [Matrix.zeros(h1, s_dim), Matrix.identity(h1), Matrix.zeros(h1, h2)], rows=h1
    )
    s_H = vstack_all([top, mid], cols=s_dim + h1 + h2) * theta_inv  # (k+h1) x h

    W = kernel_basis(s_H)                                # h x t: lifts T into H
    if W.cols != t_dim:
        raise InternalError("complement of ker(p) must have dimension rank(p)")
    pW_inv = inverse(pb * W)
    if pW_inv is None:
        raise InternalError("p must be invertible on the complement of ker(p)")
    lift = W * pW_inv                                    # h x t with p*lift = I

    iota_b = hstack_all([jK, lift * B, lift * tT], rows=h_dim)

    psi = hstack_all([jK, H1, W], rows=h_dim)            # h x h
    psi_inv = inverse(psi)
    if psi_inv is None:
        raise InternalError("psi = [j(ker v) | H1 | W] must be invertible")
    ker_coords = psi_inv.take_rows(range(k))             # k x h
    bt = B.hstack(tT)                                    # t x (r + c)
    bt_inv = inverse(bt)
    if bt_inv is None:
        raise InternalError("image (+) complement must span the target")
    q_b = vstack_all([ker_coords, bt_inv * pb], cols=h_dim)
    return iota_b, q_b


def versal_embed(v: PureMorphism, h: PureObject, j: PureMorphism,
                 p: PureMorphism, dec: ChDecomposition) -> tuple:
    """Split a factorization v = p . j (j mono, p epi) through CH(v).

    Returns ``(iota, q, h_prime)`` with iota: CH(v) -> h, q: h -> CH(v),
    q . iota = id, iota . i_ch = j, p . iota = pi_ch, q . j = i_ch,
    pi_ch . q = p; h_prime carries the complementary Hodge numbers, so
    h = CH(v) (+) h_prime.
    """
    if j.source != v.source or p.target != v.target:
        raise PreconditionViolated("factorization endpoints do not match v")
    if j.target != h or p.source != h:
        raise PreconditionViolated("middle object of the factorization must be h")
    if not j.is_injective():
        raise PreconditionViolated("j is not injective")
    if not p.is_surjective():
        raise PreconditionViolated("p is not surjective")
    if p.compose(j) != v:
        raise PreconditionViolated("p . j differs from v")
    if dec.pi_ch.compose(dec.i_ch) != v:
        raise PreconditionViolated("decomposition does not factor v")

    iota_blocks, q_blocks, prime_dims = {}, {}, {}
    labels = sorted(set(v.labels()) | set(h.labels()))
    for lab in labels:
        k = dec.kernel_part.count(lab)
        r = dec.image_part.count(lab)
        c = dec.cokernel_part.count(lab)
        h_dim = h.count(lab)
        iota_b, q_b = _versal_block(
            v.block(lab), j.block(lab), p.block(lab),
            dec.i_ch.block(lab), dec.pi_ch.block(lab), k, r, c,
        )
        iota_blocks[lab] = iota_b
        q_blocks[lab] = q_b
        extra = h_dim - (k + r + c)
        if extra < 0:
            raise InternalError(f"CH(v) does not fit in h at label {lab}")
        if extra:
            prime_dims[lab] = extra

    iota = PureMorphism(dec.total, h, iota_blocks)
    q = PureMorphism(h, dec.total, q_blocks)
    h_prime = (
        from_hodge_numbers(_weight_of(j), prime_dims) if prime_dims else ZERO_OBJECT
    )

    # The versal identities hold exactly; verify all five.
    if q.compose(iota) != PureMorphism.identity(dec.total):
        raise InternalError("versal identity q . iota = id fails")
    if iota.compose(dec.i_ch) != j:
        raise InternalError("versal identity iota . i_ch = j fails")
    if p.compose(iota) != dec.pi_ch:
        raise InternalError("versal identity p . iota = pi_ch fails")
    if q.compose(j) != dec.i_ch:
        raise InternalError("versal identity q . j = i_ch fails")
    if dec.pi_ch.compose(q) != p:
        raise InternalError("versal identity pi_ch . q = p fails")
    return iota, q, h_prime


def idempotent_kernel(a: Matrix, b: Matrix, d: Matrix) -> Matrix:
    """Kernel embedding for the idempotent block matrix e = [[a, b], [0, d]].

    Requires exactly a*a = a, d*d = d and a*b + b*d = b (equivalent to e
    being idempotent).  The returned matrix has full column rank, satisfies
    e * result = 0, and its column count is dim ker(e): columns are
    (x, 0) for x in ker(a) and (-b y, y) for y in ker(d).
    """
    if a.rows != a.cols or d.rows != d.cols:
        raise NotIdempotent("diagonal blocks must be square")
    if b.rows != a.rows or b.cols != d.cols:
        raise NotIdempotent(f"off-diagonal block {b.shape} does not fit "
                            f"{a.shape} and {d.shape}")
    if a * a != a or d * d != d or a * b + b * d != b:
        raise NotIdempotent("blocks do not satisfy the idempotency relations")
    ka = kernel_basis(a)
    kd = kernel_basis(d)
    top = hstack_all([ka, -(b * kd)], rows=a.rows)
    bottom = hstack_all([Matrix.zeros(d.rows, ka.cols), kd], rows=d.rows)
    return top.vstack(bottom)
