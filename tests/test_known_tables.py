"""Frozen fusion tables for small well-known theories.

These values are standard and widely tabulated; they give the pipeline a
ground truth that is independent of both internal routes (orbit reduction
and character solving).
"""

import random

import pytest

from vkt.checks import check_orbit_constancy
from vkt.fusion import FusionRing, fusion_product
from vkt.rootdata import RootDatum, root_datum_from_spec, weyl_dimension
from vkt.twist import shift_by_dual_coxeter, twisting_from_level

from test_kernel import refuse_weyl_enumeration


def ring_at_loop_level(name, level, torus=None):
    rd = root_datum_from_spec(name) if isinstance(name, str) else RootDatum.from_cartan(name)
    levels = shift_by_dual_coxeter(rd, (level,) * len(rd.factors))
    return FusionRing(rd, twisting_from_level(rd, levels, torus_block=torus))


def product_on_weights(ring, wa, wb):
    """Fusion product looked up by transversal highest weights, returned as
    {highest weight: coefficient}."""
    a = ring.transversal.index(wa)
    b = ring.transversal.index(wb)
    coeffs = ring.basis_coefficients(fusion_product(ring, a, b))
    return {ring.transversal[c]: v for c, v in enumerate(coeffs) if v}


def test_su2_level2_is_ising():
    ring = ring_at_loop_level("SU(2)", 2)
    one, sigma, psi = (0,), (1,), (2,)
    assert set(ring.transversal) == {one, sigma, psi}
    assert product_on_weights(ring, sigma, sigma) == {one: 1, psi: 1}
    assert product_on_weights(ring, sigma, psi) == {sigma: 1}
    assert product_on_weights(ring, psi, psi) == {one: 1}


def test_su2_level3_table():
    ring = ring_at_loop_level("SU(2)", 3)
    r0, r1, r2, r3 = (0,), (1,), (2,), (3,)
    assert product_on_weights(ring, r1, r1) == {r0: 1, r2: 1}
    assert product_on_weights(ring, r1, r2) == {r1: 1, r3: 1}
    assert product_on_weights(ring, r1, r3) == {r2: 1}
    assert product_on_weights(ring, r2, r2) == {r0: 1, r2: 1}
    assert product_on_weights(ring, r2, r3) == {r1: 1}
    assert product_on_weights(ring, r3, r3) == {r0: 1}


def test_su3_level1_is_z3():
    ring = ring_at_loop_level("SU(3)", 1)
    one, f, fbar = (0, 0), (1, 0), (0, 1)
    assert set(ring.transversal) == {one, f, fbar}
    assert product_on_weights(ring, f, f) == {fbar: 1}
    assert product_on_weights(ring, f, fbar) == {one: 1}
    assert product_on_weights(ring, fbar, fbar) == {f: 1}


def test_su3_level2_table_spot():
    ring = ring_at_loop_level("SU(3)", 2)
    assert len(ring.basis) == 6
    one, f = (0, 0), (1, 0)
    # 3 x 3 = 3bar + 6 survives untruncated at level 2
    assert product_on_weights(ring, f, f) == {(0, 1): 1, (2, 0): 1}
    # adjoint squared: both decuplets land on the affine wall and die, and
    # the 27 reflects onto the adjoint with a minus sign, cancelling one of
    # the two adjoint copies: 8 x 8 -> 1 + 8
    adj = (1, 1)
    assert product_on_weights(ring, adj, adj) == {one: 1, adj: 1}


def test_spin5_level1_is_ising():
    ring = ring_at_loop_level("Spin(5)", 1)
    one, vector, spinor = (0, 0), (1, 0), (0, 1)
    assert set(ring.transversal) == {one, vector, spinor}
    assert product_on_weights(ring, spinor, spinor) == {one: 1, vector: 1}
    assert product_on_weights(ring, spinor, vector) == {spinor: 1}
    assert product_on_weights(ring, vector, vector) == {one: 1}


def assert_fibonacci(ring):
    # two classes, 1 and t, with t x t = 1 + t
    one = (0,) * ring.rd.rank
    assert len(ring.basis) == 2 and one in ring.transversal
    t = next(w for w in ring.transversal if w != one)
    assert product_on_weights(ring, one, one) == {one: 1}
    assert product_on_weights(ring, one, t) == {t: 1}
    assert product_on_weights(ring, t, t) == {one: 1, t: 1}
    return t


def test_g2_level1_is_fibonacci():
    # both orders of the simple roots; t is the 7-dimensional representation,
    # the fundamental weight of the short simple root (a[1][0] = -3 makes
    # the second root short)
    for cartan, t in (([[2, -1], [-3, 2]], (0, 1)), ([[2, -3], [-1, 2]], (1, 0))):
        assert assert_fibonacci(ring_at_loop_level(cartan, 1)) == t


F4 = [[2, -1, 0, 0], [-1, 2, -2, 0], [0, -1, 2, -1], [0, 0, -1, 2]]


def test_f4_level1_is_fibonacci():
    # |F| = 40000 cosets for a 2-element ring; t is the 26-dimensional
    # representation, at the short end of the Dynkin diagram
    ring = ring_at_loop_level(F4, 1)
    assert ring.tau.order_F() == 40000
    assert ring.rd.factors[0].name == "F4"
    assert assert_fibonacci(ring) == (1, 0, 0, 0)


def cartan_e(n):
    """The Cartan matrix of E_n in Bourbaki order: the chain 1-3-4-...-n,
    with node 2 attached to node 4."""
    a = [[2 * (i == j) for j in range(n)] for i in range(n)]
    for i, j in [(1, 3), (2, 4)] + [(k, k + 1) for k in range(3, n)]:
        a[i - 1][j - 1] = a[j - 1][i - 1] = -1
    return a


def weights_by_dimension(ring):
    return {weyl_dimension(ring.rd, w): w for w in ring.transversal}


# |W| is 51 840 for E6, 2 903 040 for E7 and 696 729 600 for E8: these rings
# are built with weyl_group_elements refusing every call

def test_e6_level1_is_z3(monkeypatch):
    refuse_weyl_enumeration(monkeypatch)
    ring = ring_at_loop_level(cartan_e(6), 1)
    assert ring.rd.factors[0].name == "E6"
    one, f, fbar = (0,) * 6, (0, 0, 0, 0, 0, 1), (1, 0, 0, 0, 0, 0)
    assert set(ring.transversal) == {one, f, fbar}
    assert product_on_weights(ring, f, f) == {fbar: 1}
    assert product_on_weights(ring, f, fbar) == {one: 1}
    assert product_on_weights(ring, fbar, fbar) == {f: 1}


def test_e7_level1_is_z2(monkeypatch):
    refuse_weyl_enumeration(monkeypatch)
    ring = ring_at_loop_level(cartan_e(7), 1)
    assert ring.rd.factors[0].name == "E7"
    dims = weights_by_dimension(ring)
    assert sorted(dims) == [1, 56]
    assert product_on_weights(ring, dims[56], dims[56]) == {dims[1]: 1}


def test_e8_level1_is_the_one_element_ring(monkeypatch):
    refuse_weyl_enumeration(monkeypatch)
    ring = ring_at_loop_level(cartan_e(8), 1)
    assert ring.rd.factors[0].name == "E8"
    assert ring.transversal == ((0,) * 8,)
    assert ring.structure_constants() == [[(1,)]]


def test_e8_level2_is_ising(monkeypatch):
    refuse_weyl_enumeration(monkeypatch)
    ring = ring_at_loop_level(cartan_e(8), 2)
    dims = weights_by_dimension(ring)
    assert sorted(dims) == [1, 248, 3875]
    one, sigma, psi = dims[1], dims[248], dims[3875]
    assert product_on_weights(ring, sigma, sigma) == {one: 1, psi: 1}
    assert product_on_weights(ring, sigma, psi) == {sigma: 1}
    assert product_on_weights(ring, psi, psi) == {one: 1}


@pytest.mark.parametrize("cartan", [F4, cartan_e(6), cartan_e(7), cartan_e(8)],
                         ids=["F4", "E6", "E7", "E8"])
def test_orbit_constancy_draws_words_not_weyl_elements(monkeypatch, cartan):
    # E7 and E8 are past the enumeration cap; random words need no W
    refuse_weyl_enumeration(monkeypatch)
    ring = ring_at_loop_level(cartan, 1)
    assert check_orbit_constancy(ring) == {"name": "orbit_constancy", "passed": True,
                                           "detail": {"trials": 40, "failures": []}}


def test_su2_level4_table_spot():
    ring = ring_at_loop_level("SU(2)", 4)
    r1, r2 = (1,), (2,)
    # the middle field generates a tau-like channel: r2 x r2 = 1 + r2 + r4
    assert product_on_weights(ring, r2, r2) == {(0,): 1, (2,): 1, (4,): 1}
    assert product_on_weights(ring, r1, r1) == {(0,): 1, (2,): 1}


def test_quantum_dimension_consistency_su2():
    # the basis sizes along the level ladder match the loop-group state count
    for k in range(1, 9):
        ring = ring_at_loop_level("SU(2)", k)
        assert len(ring.basis) == k + 1


def test_random_products_stay_in_alphabet():
    rng = random.Random(2718)
    ring = ring_at_loop_level("SU(3)", 3)
    n = len(ring.basis)
    for _ in range(30):
        a, b = rng.randrange(n), rng.randrange(n)
        coeffs = ring.basis_coefficients(fusion_product(ring, a, b))
        assert all(v >= 0 for v in coeffs)
        assert sum(coeffs) >= 1
