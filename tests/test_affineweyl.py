import random
from fractions import Fraction

import pytest

from vkt.affineweyl import (
    AffineElement,
    Alcove,
    act,
    affine_compose,
    affine_identity,
    box_reduce,
    enumerate_basis_orbits,
    generated_subgroup,
    geometric_stabilizer_brute,
    orbit_normal_form,
    sign_character,
    stabilizer_generators,
    zero_criterion_discrepancies,
)
from vkt.errors import InvariantError
from vkt.rootdata import root_datum_from_spec, vec_add, weyl_group_elements
from vkt.twist import twisting_from_level


def su2(n, eps=(0,)):
    rd = root_datum_from_spec("SU(2)")
    return rd, twisting_from_level(rd, (n,), eps=eps)


def u1(n, eps=(0,)):
    rd = root_datum_from_spec("U(1)")
    return rd, twisting_from_level(rd, (), torus_block=[[n]], eps=eps)


def su3(n):
    rd = root_datum_from_spec("SU(3)")
    return rd, twisting_from_level(rd, (n,))


def test_act_examples():
    rd, tau = su2(3)
    e = affine_identity(rd)
    assert act(rd, tau, e, (7,)) == (7,)
    s = weyl_group_elements(rd)[1]
    assert act(rd, tau, AffineElement((1,), rd.identity_element), (1,)) == (7,)
    assert act(rd, tau, AffineElement((0,), s), (5,)) == (-5,)


def test_sign_character():
    rd, tau = su2(3)
    s = weyl_group_elements(rd)[1]
    assert sign_character(tau, affine_identity(rd)) == 1
    assert sign_character(tau, AffineElement((0,), s)) == -1
    rdu, tauu = u1(4, eps=(1,))
    assert sign_character(tauu, AffineElement((1,), rdu.identity_element)) == -1
    assert sign_character(tauu, AffineElement((2,), rdu.identity_element)) == 1


def test_sign_character_is_homomorphism():
    rd, tau = su3(3)
    rng = random.Random(5)
    ws = weyl_group_elements(rd)
    for _ in range(30):
        g1 = AffineElement((rng.randint(-2, 2), rng.randint(-2, 2)), rng.choice(ws))
        g2 = AffineElement((rng.randint(-2, 2), rng.randint(-2, 2)), rng.choice(ws))
        comp = affine_compose(rd, g1, g2)
        assert sign_character(tau, comp) == sign_character(tau, g1) * sign_character(tau, g2)


def test_compose_acts_correctly():
    rd, tau = su3(2)
    rng = random.Random(17)
    ws = weyl_group_elements(rd)
    for _ in range(25):
        g1 = AffineElement((rng.randint(-2, 2), rng.randint(-2, 2)), rng.choice(ws))
        g2 = AffineElement((rng.randint(-2, 2), rng.randint(-2, 2)), rng.choice(ws))
        lam = (rng.randint(-5, 5), rng.randint(-5, 5))
        assert act(rd, tau, affine_compose(rd, g1, g2), lam) == \
            act(rd, tau, g1, act(rd, tau, g2, lam))


def test_box_reduce():
    rd, tau = su2(5)
    red, pi = box_reduce(tau, (23,))
    assert red == (3,)
    assert (23 + 10 * pi[0],) == red


def test_orbit_normal_form_su2_twist5():
    rd, tau = su2(5)
    red = orbit_normal_form(rd, tau, (7,))
    assert red.representative == (3,)
    assert red.sign == -1

    assert orbit_normal_form(rd, tau, (5,)).is_zero
    assert orbit_normal_form(rd, tau, (0,)).is_zero
    assert orbit_normal_form(rd, tau, (10,)).is_zero

    fixed = orbit_normal_form(rd, tau, (2,))
    assert fixed.representative == (2,)
    assert fixed.sign == 1


def test_orbit_constancy_property():
    rd, tau = su3(4)
    rng = random.Random(23)
    ws = weyl_group_elements(rd)
    for _ in range(25):
        lam = (rng.randint(-8, 8), rng.randint(-8, 8))
        base = orbit_normal_form(rd, tau, lam)
        g = AffineElement((rng.randint(-2, 2), rng.randint(-2, 2)), rng.choice(ws))
        moved = orbit_normal_form(rd, tau, act(rd, tau, g, lam))
        if base.is_zero:
            assert moved.is_zero
        else:
            assert moved.representative == base.representative
            assert moved.sign == base.sign * sign_character(tau, g)


def test_zero_iff_not_free_when_ungraded():
    for rd, tau in (su2(4), su3(3), u1(5)):
        from vkt.zlattice import coset_representatives
        for lam in coset_representatives(tau.b):
            red = orbit_normal_form(rd, tau, lam)
            # lam is fixed by (pi, w) iff b^-1 lam is fixed geometrically
            x = [Fraction(c, tau.det_b) for c in tau.adj_apply(lam)]
            free = len(geometric_stabilizer_brute(rd, x)) == 1
            assert red.is_zero == (not free)
            assert rd.is_regular(tau.adj_apply(lam), tau.det_b) == free
        assert zero_criterion_discrepancies(rd, tau) == []


def test_a_free_zero_orbit_is_refused(monkeypatch):
    # ZERO needs a sign -1 stabilizer element, so a free orbit read as ZERO
    # is a defect, not a discrepancy
    rd, tau = su3(5)
    monkeypatch.setattr(Alcove, "is_zero", lambda self, point: True)
    with pytest.raises(InvariantError, match="trivial stabilizer"):
        zero_criterion_discrepancies(rd, tau)


def test_graded_su2_discrepancy_is_flagged():
    rd, tau = su2(4, eps=(1,))
    disc = zero_criterion_discrepancies(rd, tau)
    assert len(disc) == 1
    assert disc[0]["survives"] and not disc[0]["free"]
    # the flagged orbit is the one through 4*omega, pinned by an affine
    # reflection whose grading sign cancels the determinant
    assert disc[0]["orbit"] == [4]


def test_enumerate_basis_orbits_su2():
    for n in range(2, 9):
        rd, tau = su2(n)
        reps = enumerate_basis_orbits(rd, tau)
        assert reps == [(k,) for k in range(1, n)]


def test_enumerate_basis_orbits_u1():
    for n in range(1, 7):
        for eps in ((0,), (1,)):
            rd, tau = u1(n, eps)
            reps = enumerate_basis_orbits(rd, tau)
            assert len(reps) == n
            assert reps == [(k,) for k in range(n)]


def test_enumerate_basis_orbits_su3_twist4():
    rd, tau = su3(4)
    assert len(enumerate_basis_orbits(rd, tau)) == 3


def test_stabilizer_generators_trivial_point():
    rd = root_datum_from_spec("SU(3)")
    x = (Fraction(3, 7), Fraction(5, 11))
    assert stabilizer_generators(rd, x) == []
    assert len(geometric_stabilizer_brute(rd, x)) == 1


def test_stabilizer_generators_origin():
    rd = root_datum_from_spec("SU(2)")
    gens = stabilizer_generators(rd, (Fraction(0),))
    assert len(gens) == 1
    assert gens[0].translation == (0,)
    assert gens[0].weyl.determinant == -1


def test_stabilizer_alcove_vertex_su3():
    rd = root_datum_from_spec("SU(3)")
    x = (Fraction(1, 3), Fraction(2, 3))  # a vertex of the fundamental alcove
    gens = stabilizer_generators(rd, x)
    group = generated_subgroup(rd, gens)
    assert len(group) == 6
    brute = geometric_stabilizer_brute(rd, x)
    assert len(brute) == 6
    for g in group:
        # the geometric action x -> w(x) + pi fixes x
        assert vec_add(g.weyl.apply_coweight(x), g.translation) == x


def test_stabilizer_generators_match_brute_force():
    rng = random.Random(41)
    for name in ("SU(3)", "Spin(5)"):
        rd = root_datum_from_spec(name)
        for _ in range(20):
            if rng.random() < 0.5:
                x = (Fraction(rng.randint(0, 6), rng.choice([1, 2, 3, 6])),
                     Fraction(rng.randint(0, 6), rng.choice([1, 2, 3, 6])))
            else:
                x = (Fraction(rng.randint(0, 30), rng.randint(1, 12)),
                     Fraction(rng.randint(0, 30), rng.randint(1, 12)))
            gens = stabilizer_generators(rd, x)
            group = generated_subgroup(rd, gens)
            brute = geometric_stabilizer_brute(rd, x)
            key = lambda e: (e.translation, e.weyl.matrix.entries)
            assert sorted(map(key, group)) == sorted(map(key, brute))
