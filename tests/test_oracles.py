"""Oracles that need no frozen value: symmetries the answers must have.

Duality for ``u_n : Gr^W_n H^n_c(X) -> Gr^W_n H^n(X)``.  On a smooth X of
dimension d, Poincare duality pairs H^n_c with H^(2d-n) and takes ``u_n`` to
the transpose of ``u_(2d-n)``, with Hodge labels mirrored by
(p, q) -> (d-p, d-q).  So in the CH factorization of ``u_n``, the image part
mirrors the image part of ``u_(2d-n)``, and the kernel part mirrors the
cokernel part of ``u_(2d-n)``.  Nothing in the engine computes ``u_(2d-n)``
from ``u_n``: each degree is eliminated on its own.
"""

from random import Random

import pytest

from absix.absic import ch_at
from absix.corpus import builtin

from conftest import CORPUS_NAMES
from synth import kunneth, random_atlas

PRODUCTS = (
    ("gm", "gm"),
    ("a1", "gm_times_a1"),
    ("gm", "gm_times_a1"),
    ("surface_resolution", "gm"),
    ("smooth_divisor_ample", "a1"),
)


def _mirrored(numbers: dict, d: int) -> dict:
    return {(d - p, d - q): k for (p, q), k in numbers.items()}


def _check_u_duality(a):
    d = a.dimension
    for n in range(2 * d + 1):
        here, there = ch_at(a, n), ch_at(a, 2 * d - n)
        assert here.image_part.hodge_numbers() == _mirrored(
            there.image_part.hodge_numbers(), d), ("image", n)
        assert here.kernel_part.hodge_numbers() == _mirrored(
            there.cokernel_part.hodge_numbers(), d), ("kernel", n)


@pytest.mark.parametrize("name", CORPUS_NAMES)
def test_u_duality_on_the_corpus(name):
    _check_u_duality(builtin(name))


@pytest.mark.parametrize("seed", range(12))
def test_u_duality_on_random_atlases(seed):
    _check_u_duality(random_atlas(Random(seed)))


@pytest.mark.parametrize("left, right", PRODUCTS)
def test_u_duality_on_kunneth_products(left, right):
    _check_u_duality(kunneth(builtin(left), builtin(right)))


def test_the_duality_pairs_kernel_with_cokernel():
    """On G_m, u_0 is 0 -> Q(0) and u_2 is Q(-1) -> 0: the kernel of u_2
    mirrors the cokernel of u_0, and not its kernel, which is zero."""
    a = builtin("gm")
    assert ch_at(a, 2).kernel_part.hodge_numbers() == {(1, 1): 1}
    assert ch_at(a, 0).cokernel_part.hodge_numbers() == {(0, 0): 1}
    assert ch_at(a, 0).kernel_part.hodge_numbers() == {}
