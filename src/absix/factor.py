"""Canonical mono/epi factorization through kernel + image + cokernel.

For a morphism v: S -> T of pure objects, the canonical object

    CH(v) = ker(v) (+) im(v) (+) coker(v)

sits in a factorization  v = piCH . iCH  with iCH: S -> CH(v) injective and
piCH: CH(v) -> T surjective.  Concretely, per (p, q) block m (t x s) of rank
r, with R = rref(m), pivot columns P, free columns F and free rows G (the
non-pivot columns of m's transpose):

    iCH  = (s, q, 0)   s = the rows e_f (f in F), a left inverse of
                       kernel_basis(m); q = R[:r]: S ->> im(v)
    piCH = (0, i, t)   i = the columns P of m, the inclusion im(v) -> T;
                       t = the columns e_g (g in G), a right inverse of
                       cokernel_projection(m)

q holds the coordinates of m in the basis i, since m = i * R[:r].  So each
block is eliminated twice, once for rref(m) and once for the pivots of its
transpose, and repeated runs produce identical matrices.

The parts alone need only r: ``ch_parts`` reads k = s - r, r and c = t - r
off the rank of each block, which is all a report prints of CH(u_n).

CH(v) is versal for such factorizations: whenever v = p . j with j mono and
p epi through some pure h, there is an embedding iota: CH(v) -> h and a
retraction q: h -> CH(v) with q . iota = id, both compatible with the two
factorizations, exhibiting h as CH(v) (+) hPrime.  ``versal_embed`` reads
them off the decomposition, per label: M, the first k + r rows of iCH, is
invertible, and with p+ = right_inverse(p) and t the cokernel columns of
piCH,

    iota = [ j M^-1 | p+ t ]       q = the first k + r + c rows of [iota | H1]^-1

where H1 completes j(ker v), the first k columns of iota, to a basis of
ker(p).  Then iota . iCH = j and p . iota = piCH; [iota | H1] is a basis of
h, since p maps it onto [0 | B | t | 0] with [B | t] invertible.

``idempotent_kernel`` handles the block-triangular idempotent case: for
e = [[A, B], [0, D]] idempotent, a kernel embedding is assembled directly
from kernel bases of A and D, no elimination on e itself.
"""

from __future__ import annotations

from .errors import InternalError, NotIdempotent, PreconditionViolated
from .hodgecore import (
    PureMorphism,
    PureObject,
    direct_sum_all,
    from_hodge_numbers,
)
from .qmat import (
    Matrix,
    _wrap,
    hstack_all,
    inverse,
    kernel_basis,
    pivot_columns,
    rank,
    right_inverse,
    rref,
)
from .record import Record


class ChParts(Record):
    """The kernel, image and cokernel parts of CH(v) and their sum ``total``."""

    __slots__ = _fields = ("kernel_part", "image_part", "cokernel_part", "total")


def ch_parts(v: PureMorphism) -> ChParts:
    """CH(v)'s parts from the rank r of each t x s label block of v:
    s - r, r and t - r.  Only the stored blocks are ranked; a label v does
    not store has r = 0, and s and t are read off its ends."""
    kerd, imd, cokd = {}, {}, {}
    for lab in v.labels():
        m = v.stored_block(lab)
        r = rank(m) if m is not None else 0
        kerd[lab], imd[lab], cokd[lab] = v.source.count(lab) - r, r, v.target.count(lab) - r
    w = (v.target if v.source.is_zero else v.source).weight
    parts = [from_hodge_numbers(w, dims) for dims in (kerd, imd, cokd)]
    return ChParts(*parts, direct_sum_all(parts))


class ChDecomposition(Record):
    """CH(v) with its canonical factorization v = pi_ch . i_ch.

    Per label, the rows of the i_ch block and the columns of the pi_ch block
    come in kernel, image, cokernel order.  The kernel rows of i_ch select the
    free (non-pivot) source coordinates of the block; the cokernel columns of
    pi_ch are the unit vectors at the non-pivot columns of its transpose.
    """

    __slots__ = _fields = ("kernel_part", "image_part", "cokernel_part", "total",
                           "i_ch", "pi_ch")


def ch_factorization(v: PureMorphism) -> ChDecomposition:
    """The canonical factorization of v through CH(v), blockwise pivot-order
    (see the module docstring for the choice of each block).  Each block of
    i_ch and pi_ch is built in one pass from the rref rows, the pivot
    columns and the cofree rows, and checked where it is built; the parts
    are ``ch_parts(v)``, whose ranks the rref of each block memoized."""
    i_blocks, pi_blocks = {}, {}
    for lab in v.labels():
        m = v.block(lab)
        t_dim, s_dim = m.shape
        R, pivots = rref(m)
        pivcols, pivrows = set(pivots), set(pivot_columns(m.transpose()))
        free = [j for j in range(s_dim) if j not in pivcols]
        cofree = [i for i in range(t_dim) if i not in pivrows]
        k, r, c = len(free), len(pivots), len(cofree)
        i_blocks[lab] = i_b = _wrap(s_dim, [{f: 1} for f in free]
                                    + list(R.sparse_rows()[:r]) + [{}] * c)
        place = {p: k + n for n, p in enumerate(pivots)}
        unit = {g: k + r + n for n, g in enumerate(cofree)}
        pi_lines = [{place[j]: x for j, x in row.items() if j in place}
                    for row in m.sparse_rows()]
        for g, n in unit.items():
            pi_lines[g][n] = 1
        pi_blocks[lab] = pi_b = _wrap(k + r + c, pi_lines)
        # pi_b . i_b = i . q, so this also checks m = i . q
        if pi_b * i_b != m:
            raise InternalError("canonical factorization must recover v")
        if rank(i_b) != s_dim:
            raise InternalError("i_ch must be injective")
        if rank(pi_b) != t_dim:
            raise InternalError("pi_ch must be surjective")

    parts = ch_parts(v)
    i_ch = PureMorphism(v.source, parts.total, i_blocks)
    pi_ch = PureMorphism(parts.total, v.target, pi_blocks)
    return ChDecomposition(*parts._values(), i_ch, pi_ch)


def _extend_to_basis(current: Matrix, candidates: Matrix) -> Matrix:
    """The candidate columns outside the span of ``current`` and the earlier
    candidates: the candidate pivot columns of ``[current | candidates]``."""
    n = current.cols
    return candidates.take_columns(
        [p - n for p in pivot_columns(current.hstack(candidates)) if p >= n])


def _versal_block(jb: Matrix, pb: Matrix, i_chb: Matrix, pi_chb: Matrix,
                  k: int, r: int, c: int) -> tuple:
    """Per-label versal embedding, as in the module docstring; returns
    (iota_block, q_block).  Shapes: jb h x s, pb t x h, i_chb (k+r+c) x s,
    pi_chb t x (k+r+c)."""
    iota_b = (jb * inverse(i_chb.take_rows(range(k + r)))).hstack(
        right_inverse(pb) * pi_chb.take_columns(range(k + r, k + r + c)))
    H1 = _extend_to_basis(iota_b.take_columns(range(k)), kernel_basis(pb))
    basis_inv = inverse(iota_b.hstack(H1))
    if basis_inv is None:
        raise InternalError("[iota | H1] must be invertible")
    return iota_b, basis_inv.take_rows(range(k + r + c))


def versal_embed(v: PureMorphism, h: PureObject, j: PureMorphism,
                 p: PureMorphism, dec: ChDecomposition) -> tuple:
    """Split a factorization v = p . j (j mono, p epi) through CH(v).

    Returns ``(iota, q, h_prime)`` with iota: CH(v) -> h, q: h -> CH(v),
    q . iota = id, iota . i_ch = j, p . iota = pi_ch, q . j = i_ch,
    pi_ch . q = p; h_prime carries the complementary Hodge numbers, so
    h = CH(v) (+) h_prime.  ``dec`` must be in kernel, image, cokernel form:
    i_ch mono with zero cokernel rows, pi_ch epi with zero kernel columns.
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
    if not dec.i_ch.is_injective() or not dec.pi_ch.is_surjective():
        raise PreconditionViolated("decomposition is not mono followed by epi")

    iota_blocks, q_blocks, prime_dims = {}, {}, {}
    # j mono and p epi put every label of v in h.
    labels = sorted(set(h.labels()) | set(dec.total.labels()))
    for lab in labels:
        k = dec.kernel_part.count(lab)
        r = dec.image_part.count(lab)
        c = dec.cokernel_part.count(lab)
        i_chb, pi_chb = dec.i_ch.block(lab), dec.pi_ch.block(lab)
        if (i_chb.shape != (k + r + c, k + r) or pi_chb.shape != (r + c, k + r + c)
                or not i_chb.take_rows(range(k + r, k + r + c)).is_zero()
                or not pi_chb.take_columns(range(k)).is_zero()):
            raise PreconditionViolated(
                f"decomposition is not in kernel, image, cokernel form at label {lab}")
        iota_blocks[lab], q_blocks[lab] = _versal_block(
            j.block(lab), p.block(lab), i_chb, pi_chb, k, r, c)
        extra = h.count(lab) - (k + r + c)
        if extra:
            prime_dims[lab] = extra

    iota = PureMorphism(dec.total, h, iota_blocks)
    q = PureMorphism(h, dec.total, q_blocks)
    h_prime = from_hodge_numbers(h.weight, prime_dims)

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
