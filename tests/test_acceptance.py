"""Acceptance suite: one test per criterion, each printing a PASS line.

Everything here is exact arithmetic; the only tolerances are the wall-clock
bounds stated alongside the criteria.  Run with `pytest -s tests/test_acceptance.py`
to see the per-criterion lines.
"""

import time

from vkt.checks import (
    check_algebra_axioms,
    check_annihilation,
    check_delta_identity,
    check_stabilizers,
)
from vkt.fusion import (
    FusionRing,
    KClass,
    equivariant_function,
    mult_by_U_matrix,
    structure_constants_via_characters,
    torus_pushforward,
    verlinde_classes,
)
from vkt.mvlaurent import mv_s3, mv_su2, mv_u1, su2_quotient_product
from vkt.rootdata import root_datum_from_spec
from vkt.twist import twisting_from_level


def _ring(name, levels=(), torus=None, eps=None):
    rd = root_datum_from_spec(name)
    tau = twisting_from_level(rd, levels, torus_block=torus, eps=eps)
    return FusionRing(rd, tau)


# the shared group/level grid for criteria 4-7
GRID = [
    ("SU(2)", (3,), None),
    ("SU(2)", (5,), None),
    ("SU(2)", (8,), None),
    ("SU(3)", (4,), None),
    ("SU(3)", (5,), None),
    ("SU(3)", (6,), None),
    ("U(1)^2", (), [[2, 0], [0, 2]]),
    ("U(1)^2", (), [[2, 1], [1, 2]]),
    ("U(1)^2", (), [[3, 1], [1, 2]]),
    ("SU(2) x U(1)", (2,), [[2]]),
    ("SU(2) x U(1)", (3,), [[4]]),
    ("SU(2) x U(1)", (4,), [[2]]),
    ("Spin(5)", (4,), None),
    ("Spin(5)", (5,), None),
    ("Spin(5)", (6,), None),
]


def grid_rings():
    return [(name, levels, torus, _ring(name, levels, torus))
            for name, levels, torus in GRID]


def test_criterion_1_su2_family():
    worst = 0.0
    for n in range(2, 13):
        t0 = time.monotonic()
        ring = _ring("SU(2)", (n,))
        assert len(ring.basis) == n - 1

        # independent Laurent-algebra model of the quotient ring
        mv = mv_su2(n)
        assert mv.rank == n - 1
        assert mv.kernel_rank == 0

        nc = ring.structure_constants()
        for a in range(n - 1):
            for b in range(n - 1):
                quotient = su2_quotient_product(a, b, n)
                assert dict(enumerate(nc[a][b])) == {
                    c: quotient.get(c, 0) for c in range(n - 1)}, (n, a, b)

        oracle = structure_constants_via_characters(ring)
        assert [list(map(tuple, r)) for r in nc] == [list(map(tuple, r)) for r in oracle]
        worst = max(worst, time.monotonic() - t0)
        assert time.monotonic() - t0 < 1.0, f"twist {n} exceeded 1s"
    print(f"\nCRITERION 1 (SU(2) family, twists 2..12): PASS "
          f"(worst per-twist time {worst:.2f}s)")


def test_criterion_2_u1_family():
    for n in range(1, 11):
        for eps in (0, 1):
            rd = root_datum_from_spec("U(1)")
            tau = twisting_from_level(rd, (), torus_block=[[n]], eps=(eps,))
            ring = FusionRing(rd, tau)
            assert len(ring.basis) == n
            report = mv_u1(n, eps)
            assert report.rank == n
            assert report.kernel_rank == 0

            # the relation (-1)^eps L^n = 1 through the orbit pipeline: the
            # class of L^n is the unit class with sign (-1)^eps
            sign = -1 if eps else 1
            assert torus_pushforward(tau, (n,)) == KClass({(0,): sign})
            assert report.details["exponent_reduction"][str(n)] == [0, sign]

            # pushforward images match the signed-coset formula term by term
            for lam in (0, 1, 3):
                kc = torus_pushforward(tau, (lam,))
                fn = equivariant_function(tau, kc)
                for k in range(-3 * n - 2, 3 * n + 3):
                    expected = 0
                    if (k - lam) % n == 0:
                        expected = sign ** abs((k - lam) // n)
                    assert fn((k,)) == expected, (n, eps, lam, k)
    print("\nCRITERION 2 (U(1) family, twists 1..10, both gradings): PASS")


def test_criterion_3_s3():
    k0, k1 = mv_s3(0)
    assert k0.free_rank == 1 and not k0.invariant_factors
    assert k1.free_rank == 1 and not k1.invariant_factors
    for n in range(1, 21):
        k0, k1 = mv_s3(n)
        assert k0.free_rank == 0 and not k0.invariant_factors
        if n == 1:
            assert k1.order() == 1
        else:
            assert k1.invariant_factors == (n,) and k1.free_rank == 0
    print("\nCRITERION 3 (three-sphere, twists 0..20): PASS")


def test_criterion_4_double_count():
    t0 = time.monotonic()
    counts = []
    for name, levels, torus, ring in grid_rings():
        basis = len(ring.basis)
        classes = len(verlinde_classes(ring.tau))
        assert basis == classes, (name, levels, torus)
        counts.append((name, levels, basis))
    elapsed = time.monotonic() - t0
    assert elapsed < 5.0, f"double count took {elapsed:.2f}s"
    print(f"\nCRITERION 4 (double count on {len(counts)} group/levels): PASS "
          f"({elapsed:.2f}s)")


def test_criterion_5_ideal_annihilation():
    found = 0
    for name, levels, torus, ring in grid_rings():
        result = check_annihilation(ring, bound=8)
        assert result["passed"], (name, levels, result["detail"])
        found += result["detail"]["ideal_weights"]
    # the window must actually catch vanishing characters, not pass vacuously
    assert found > 0
    print(f"\nCRITERION 5 (ideal annihilation on the grid, "
          f"{found} vanishing weights found): PASS")


def test_criterion_6_cyclic_generator():
    for name, levels, torus, ring in grid_rings():
        if not ring.basis:
            continue
        det = mult_by_U_matrix(ring).determinant()
        assert det in (1, -1), (name, levels, det)
    print("\nCRITERION 6 (generator matrix unimodular on the grid): PASS")


def test_criterion_7_distribution_identity():
    for name, levels, torus, ring in grid_rings():
        result = check_delta_identity(ring)
        assert result["passed"], (name, levels, result["detail"])
    print("\nCRITERION 7 (averaged pairing identity, exact): PASS")


def test_criterion_8_affine_stabilizers():
    t0 = time.monotonic()
    for name in ("SU(3)", "Spin(5)"):
        ring = _ring(name, (2,))
        result = check_stabilizers(ring, trials=50)
        assert result["passed"], (name, result["detail"])
    elapsed = time.monotonic() - t0
    assert elapsed < 10.0
    print(f"\nCRITERION 8 (reflection stabilizers, 50 points each): PASS "
          f"({elapsed:.2f}s)")


def test_criterion_9_algebra_axioms():
    cases = [("SU(2)", n) for n in range(2, 9)] + [("SU(3)", n) for n in range(2, 7)]
    for name, n in cases:
        ring = _ring(name, (n,))
        result = check_algebra_axioms(ring)
        assert result["passed"], (name, n, result["detail"])
        nc = ring.structure_constants()
        for row in nc:
            for cell in row:
                assert all(v >= 0 for v in cell)
    print("\nCRITERION 9 (fusion algebra axioms, SU(2) <= 8 and SU(3) <= 6): PASS")
