"""Seeded breadth tests across randomly assembled groups and levels.

Each case runs the independent double count, the unimodularity of the
generator matrix, and (for primitive twists) the agreement of the two
structure-constant routes.  Failures would print the offending recipe.
"""

import random

from vkt.checks import check_delta_identity
from vkt.fusion import (
    FusionRing,
    mult_by_U_matrix,
    structure_constants_via_characters,
    verlinde_classes,
)
from vkt.rootdata import root_datum_from_spec
from vkt.twist import twisting_from_level
from vkt.zlattice import IntMatrix


def random_recipe(rng):
    factors = []
    budget = rng.randint(1, 2)
    for _ in range(budget):
        factors.append(rng.choice(["SU(2)", "SU(3)", "Sp(2)", "U(1)"]))
    name = " x ".join(factors)
    rd = root_datum_from_spec(name)
    levels = tuple(rng.choice([1, 2, 3, 4, -2]) for _ in rd.factors)
    torus_rank = len(rd.torus_indices)
    torus = None
    if torus_rank:
        diag = [rng.choice([1, 2, 3, 4]) for _ in range(torus_rank)]
        torus = [[diag[i] if i == j else 0 for j in range(torus_rank)]
                 for i in range(torus_rank)]
        if torus_rank == 2 and rng.random() < 0.5:
            torus[0][1] = torus[1][0] = 1
    eps = tuple(rng.choice([0, 0, 0, 1]) for _ in range(rd.rank))
    # keep the grading Weyl-invariant: zero it on the simple blocks
    eps = tuple(0 if i not in rd.torus_indices else e for i, e in enumerate(eps))
    return name, rd, levels, torus, eps


def test_randomized_cross_checks():
    rng = random.Random(314159)
    for trial in range(25):
        name, rd, levels, torus, eps = random_recipe(rng)
        tau = twisting_from_level(rd, levels, torus_block=torus, eps=eps)
        if tau.order_F() > 400:
            continue
        recipe = (name, levels, torus, eps)
        ring = FusionRing(rd, tau)
        assert len(ring.basis) == len(verlinde_classes(tau)), recipe
        if ring.basis:
            assert mult_by_U_matrix(ring).determinant() in (1, -1), recipe
        if tau.is_primitive() and 0 < len(ring.basis) <= 12:
            reflect = ring.structure_constants()
            chars = structure_constants_via_characters(ring)
            assert reflect == chars, recipe


def test_delta_identity_with_grading():
    # the averaged-pairing identity and its Weyl-regular restriction hold
    # with a nonzero grading vector as well; SU(2) 2 and 3 with eps = 1 and
    # SU(2) x U(1) 2 with eps = (1, *) keep surviving orbits that are not
    # free, whose regular-only pairing is 0
    cases = [
        ("SU(2)", (4,), None, (1,)),
        ("U(1)", (), [[4]], (1,)),
        ("SU(2)", (2,), None, (1,)),
        ("SU(2)", (3,), None, (1,)),
        ("SU(2) x U(1)", (2,), [[2]], (1, 0)),
        ("SU(2) x U(1)", (2,), [[2]], (1, 1)),
        ("SU(2) x U(1)", (2,), [[-2]], (1, 0)),
        ("SU(2) x U(1)", (2,), [[-2]], (1, 1)),
    ]
    for name, levels, torus, eps in cases:
        rd = root_datum_from_spec(name)
        tau = twisting_from_level(rd, levels, torus_block=torus, eps=eps)
        result = check_delta_identity(FusionRing(rd, tau))
        assert result["passed"], (name, levels, torus, eps, result["detail"])


def test_explicit_b_matrix_pipeline():
    # a hand-assembled equivariant b that is not of level form: level kappa
    # on the simple block plus an even torus block with no coupling
    from vkt.twist import Twisting
    rd = root_datum_from_spec("SU(2) x U(1)")
    b = IntMatrix.from_rows([[6, 0], [0, 4]])
    tau = Twisting(rd, b, eps=(0, 1))
    ring = FusionRing(rd, tau)
    assert len(ring.basis) == len(verlinde_classes(tau)) == 2 * 4
    assert mult_by_U_matrix(ring).determinant() in (1, -1)
