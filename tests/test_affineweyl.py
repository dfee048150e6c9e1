import random
from fractions import Fraction
from itertools import product

import pytest

from vkt.affineweyl import (
    AffineElement,
    Alcove,
    act,
    alcove,
    box_reduce,
    enumerate_basis_orbits,
    generated_subgroup,
    geometric_stabilizer_brute,
    orbit_normal_form,
    sign_character,
    stabilizer_generators,
    zero_criterion_discrepancies,
)
from vkt.checks import check_orbit_constancy
from vkt.errors import InvariantError
from vkt.fusion import FusionRing
from vkt.rootdata import (
    RootDatum,
    WeylElement,
    closure,
    dot,
    root_datum_from_spec,
    vec_add,
    weyl_group_elements,
)
from vkt.twist import shift_by_dual_coxeter, twisting_from_level
from vkt.zlattice import IntMatrix

from test_datum_oracles import (
    F4_CARTAN,
    G2_CARTAN,
    matrix_generated_subgroup,
    matrix_stabilizer_brute,
)
from test_kernel import GRID, WALK_EXTRA, fraction_adjugate, grid_twistings
from test_known_tables import cartan_e
from test_zlattice import matrix_coset_representatives


def affine_identity(rd):
    return AffineElement((0,) * rd.rank, rd.identity_element)


def affine_compose(g1, g2):
    """(pi1, w1)(pi2, w2) = (pi1 + w1 pi2, w1 w2), the word written out
    rather than shortest."""
    w1, w2 = g1.weyl, g2.weyl
    return AffineElement(
        vec_add(g1.translation, w1.apply_coweight(g2.translation)),
        WeylElement(w1.matrix * w2.matrix, w1.comatrix * w2.comatrix,
                    w1.word + w2.word, w1.determinant * w2.determinant))


def affine_closure(rd, generators):
    """The affine elements generated by the given ones, closed breadth-first."""
    key = lambda g: (g.translation, g.weyl.matrix)
    elems = {key(affine_identity(rd)): affine_identity(rd)}
    frontier = list(elems.values())
    while frontier:
        nxt = []
        for g in frontier:
            for h in generators:
                comp = affine_compose(h, g)
                if key(comp) not in elems:
                    elems[key(comp)] = comp
                    nxt.append(comp)
        frontier = nxt
    return list(elems.values())


def as_points(rd, matrices):
    """Weyl-group matrices, each named by its point w(2 rho)."""
    return {w.apply(rd.rho2) for w in matrices}


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
    assert act(tau, e, (7,)) == (7,)
    s = weyl_group_elements(rd)[1]
    assert act(tau, AffineElement((1,), rd.identity_element), (1,)) == (7,)
    assert act(tau, AffineElement((0,), s), (5,)) == (-5,)


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
        comp = affine_compose(g1, g2)
        assert sign_character(tau, comp) == sign_character(tau, g1) * sign_character(tau, g2)


def test_compose_acts_correctly():
    rd, tau = su3(2)
    rng = random.Random(17)
    ws = weyl_group_elements(rd)
    for _ in range(25):
        g1 = AffineElement((rng.randint(-2, 2), rng.randint(-2, 2)), rng.choice(ws))
        g2 = AffineElement((rng.randint(-2, 2), rng.randint(-2, 2)), rng.choice(ws))
        lam = (rng.randint(-5, 5), rng.randint(-5, 5))
        assert act(tau, affine_compose(g1, g2), lam) == \
            act(tau, g1, act(tau, g2, lam))


def test_box_reduce():
    rd, tau = su2(5)
    red, pi = box_reduce(tau, (23,))
    assert red == (3,)
    assert (23 + 10 * pi[0],) == red


def test_orbit_normal_form_su2_twist5():
    rd, tau = su2(5)
    red = orbit_normal_form(tau, (7,))
    assert red.representative == (3,)
    assert red.sign == -1

    assert orbit_normal_form(tau, (5,)).is_zero
    assert orbit_normal_form(tau, (0,)).is_zero
    assert orbit_normal_form(tau, (10,)).is_zero

    fixed = orbit_normal_form(tau, (2,))
    assert fixed.representative == (2,)
    assert fixed.sign == 1


def test_orbit_constancy_property():
    rd, tau = su3(4)
    rng = random.Random(23)
    ws = weyl_group_elements(rd)
    for _ in range(25):
        lam = (rng.randint(-8, 8), rng.randint(-8, 8))
        base = orbit_normal_form(tau, lam)
        g = AffineElement((rng.randint(-2, 2), rng.randint(-2, 2)), rng.choice(ws))
        moved = orbit_normal_form(tau, act(tau, g, lam))
        if base.is_zero:
            assert moved.is_zero
        else:
            assert moved.representative == base.representative
            assert moved.sign == base.sign * sign_character(tau, g)


@pytest.mark.parametrize("name, levels, torus, eps", [
    ("SU(3)", (5,), None, None),
    ("Spin(5)", (4,), None, None),
    ("SU(2) x U(1)", (3,), [[4]], (0, 1)),
])
def test_orbit_check_catches_a_flipped_wall_sign(name, levels, torus, eps):
    # the check moves weights by words in the simple reflections, read off
    # the roots: a wrong sign on a simple wall or the affine wall shows
    rd = root_datum_from_spec(name)
    ring = FusionRing(rd, twisting_from_level(rd, levels, torus_block=torus, eps=eps))
    assert check_orbit_constancy(ring)["passed"]
    walls = alcove(ring.tau)
    for k in range(len(walls.signs)):
        walls.signs[k] = -walls.signs[k]
        walls._reduced.clear()
        assert not check_orbit_constancy(ring)["passed"], (name, k)
        walls.signs[k] = -walls.signs[k]
        walls._reduced.clear()


def test_zero_iff_not_free_when_ungraded():
    for rd, tau in (su2(4), su3(3), u1(5)):
        for lam in matrix_coset_representatives(tau.b):
            red = orbit_normal_form(tau, lam)
            # lam is fixed by (pi, w) iff b^-1 lam is fixed geometrically
            x = [Fraction(c, tau.det_b) for c in tau.adj_apply(lam)]
            free = len(geometric_stabilizer_brute(rd, x)) == 1
            assert red.is_zero == (not free)
            assert rd.is_regular(tau.adj_apply(lam), tau.det_b) == free
        assert zero_criterion_discrepancies(tau) == []


def test_a_free_zero_orbit_is_refused(monkeypatch):
    # ZERO needs a sign -1 stabilizer element, so a free orbit read as ZERO
    # is a defect, not a discrepancy
    rd, tau = su3(5)
    monkeypatch.setattr(Alcove, "reduce", lambda self, lam: (lam, 0))
    with pytest.raises(InvariantError, match="trivial stabilizer"):
        zero_criterion_discrepancies(tau)


def test_graded_su2_discrepancy_is_flagged():
    rd, tau = su2(4, eps=(1,))
    disc = zero_criterion_discrepancies(tau)
    assert len(disc) == 1
    assert disc[0]["survives"] and not disc[0]["free"]
    # the flagged orbit is the one through 4*omega, pinned by an affine
    # reflection whose grading sign cancels the determinant
    assert disc[0]["orbit"] == [4]


def test_enumerate_basis_orbits_su2():
    for n in range(2, 9):
        rd, tau = su2(n)
        reps = enumerate_basis_orbits(tau)
        assert reps == [(k,) for k in range(1, n)]


def test_enumerate_basis_orbits_u1():
    for n in range(1, 7):
        for eps in ((0,), (1,)):
            rd, tau = u1(n, eps)
            reps = enumerate_basis_orbits(tau)
            assert len(reps) == n
            assert reps == [(k,) for k in range(n)]


def test_enumerate_basis_orbits_su3_twist4():
    rd, tau = su3(4)
    assert len(enumerate_basis_orbits(tau)) == 3


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
    group = affine_closure(rd, gens)
    assert len(group) == 6
    assert matrix_generated_subgroup(rd, gens) == {g.weyl.matrix for g in group}
    brute = matrix_stabilizer_brute(rd, x)
    assert len(brute) == 6
    points = as_points(rd, (g.weyl.matrix for g in group))
    assert generated_subgroup(rd, gens) == geometric_stabilizer_brute(rd, x) == points
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
            group = affine_closure(rd, gens)
            brute = matrix_stabilizer_brute(rd, x)
            key = lambda e: (e.translation, e.weyl.matrix.entries)
            assert sorted(map(key, group)) == sorted(map(key, brute))
            # the Weyl parts alone determine a stabilizer
            weyl_parts = matrix_generated_subgroup(rd, gens)
            assert len(weyl_parts) == len(group)
            assert weyl_parts == {g.weyl.matrix for g in group}
            # and so do their points w(2 rho)
            points = as_points(rd, (g.weyl.matrix for g in group))
            assert len(points) == len(group)
            assert generated_subgroup(rd, gens) == geometric_stabilizer_brute(rd, x) == points


def test_stabilizer_points_match_the_matrix_oracles():
    # w -> w(2 rho) is injective, so the point sets are the matrix sets; the
    # points are drawn as check_stabilizers draws them, fewer on F4, whose
    # matrix closure is the slow side, plus two F4 points with stabilizers
    # of order 384 and 96
    rng = random.Random(5)
    half = Fraction(1, 2)
    data = [(root_datum_from_spec(name), 40, []) for name in
            ("SU(2)", "SU(3)", "Spin(5)", "Sp(3)", "SU(2) x U(1)", "U(1)^2")]
    data += [(RootDatum.from_cartan(G2_CARTAN), 40, []),
             (RootDatum.from_cartan(F4_CARTAN), 12, [(half, 0, 0, 0), (0, 0, half, 0)]),
             (RootDatum.from_root_data(2, [(1, -1)], [(1, -1)]), 40, [])]
    for rd, trials, fixed in data:
        drawn = [tuple(Fraction(rng.randint(0, 24), rng.randint(1, 12)) for _ in range(rd.rank))
                 for _ in range(trials)]
        for x in drawn + fixed:
            gens = stabilizer_generators(rd, x)
            brute = geometric_stabilizer_brute(rd, x)
            weyl_parts = matrix_generated_subgroup(rd, gens)
            assert brute == as_points(rd, (e.weyl.matrix for e in matrix_stabilizer_brute(rd, x))), x
            assert generated_subgroup(rd, gens) == as_points(rd, weyl_parts), x
            assert len(brute) == len(weyl_parts), x


def test_stabilizer_reflections_match_their_words():
    # s_alpha for every positive root: the matrix is lam -> lam - <lam,
    # alpha^vee> alpha, the word's simple reflections multiply to it on
    # weights and coweights, and the word is a palindrome w s_j w^-1
    for name in ("SU(3)", "SU(4)", "Spin(7)", "Sp(3)", "SU(2) x U(1)"):
        rd = root_datum_from_spec(name)
        gens = stabilizer_generators(rd, (Fraction(0),) * rd.rank)
        assert len(gens) == len(rd.positive_root_pairs)
        for g, (alpha, coalpha) in zip(gens, rd.positive_root_pairs):
            w = g.weyl
            assert g.translation == (0,) * rd.rank
            assert w.word == w.word[::-1] and len(w.word) % 2 == 1
            mat, comat = IntMatrix.identity(rd.rank), IntMatrix.identity(rd.rank)
            for i in w.word:
                mat, comat = mat * rd.generators[i].matrix, comat * rd.generators[i].comatrix
            assert (w.matrix, w.comatrix, w.determinant) == (mat, comat, -1)
            assert w.apply(alpha) == tuple(-a for a in alpha)
            assert w.apply_coweight(coalpha) == tuple(-c for c in coalpha)


def closed_alcove_scan(tau):
    """Every lattice point of the closed alcove with free coordinates in
    [0, 1)^r, by a scan in the coordinates y = M lam of the rows M: the
    simple coroots, then the free rows.  The pairings a (a_i >= 0 and
    2 <lam, theta^vee> <= 2 |l_theta| on each factor, a down-set) are
    closed from 0 under a_i -> a_i + 1, the free numerators run over the
    integers with floor(h / det b) = 0, and y is kept when adj(M) y is
    divisible by det M."""
    rd, d = tau.rd, tau.det_b
    m = IntMatrix.from_rows([tuple(cv) for cv in rd.simple_coroots] + alcove(tau).free_rows)
    det, adj = m.determinant(), fraction_adjugate(m)
    sign = 1 if det > 0 else -1
    walls = []                   # (theta^vee adj(M), 2 |l_theta|): det M <lam, theta^vee>
    for f in rd.factors:
        cotheta = f.highest_root[1]
        walls.append(([dot(cotheta, [row[k] for row in adj]) for k in range(rd.rank)],
                      abs(dot(tau.apply_b(cotheta), cotheta))))
    n, r = len(rd.simple_coroots), rd.rank - len(rd.simple_coroots)

    def inside(a):
        y = a + (0,) * r
        return all(2 * sign * dot(row, y) <= bound * abs(det) for row, bound in walls)

    def up(a):
        return [b for b in (a[:i] + (a[i] + 1,) + a[i + 1:] for i in range(n)) if inside(b)]

    numerators = range(0, d) if d > 0 else range(d + 1, 1)
    out = []
    for a in closure([(0,) * n], up):
        for h in product(numerators, repeat=r):
            v = [dot(row, a + h) for row in adj]
            if all(x % det == 0 for x in v):
                out.append(tuple(x // det for x in v))
    return out


def test_alcove_points_are_the_closed_alcove_scan_off_the_simple_walls():
    # Alcove.points yields each point of the closed alcove strictly inside
    # the simple walls once; those it leaves out lie on a simple wall of
    # sign -1, so their orbits are ZERO and no basis element is lost.  E8
    # at loop levels 1 and 2 has 25 080 and 30 031 closed-alcove points
    e8 = RootDatum.from_cartan(cartan_e(8))
    cases = list(grid_twistings(GRID + WALK_EXTRA)) + [
        ("E8", e8, twisting_from_level(e8, shift_by_dual_coxeter(e8, (k,)))) for k in (1, 2)]
    sizes = []
    for name, rd, tau in cases:
        alc = Alcove(tau)
        got = list(alc.points())
        scan = closed_alcove_scan(tau)
        want = [p for p in scan if all(dot(p, cv) >= 1 for cv in rd.simple_coroots)]
        assert len(got) == len(set(got)) and sorted(got) == sorted(want), (name, tau.eps)
        assert all(alc.reduce(p)[1] == 0 for p in set(scan) - set(want)), (name, tau.eps)
        assert len(scan) == len(set(scan)), (name, tau.eps)
        sizes.append(len(scan))
    assert sizes[-2:] == [25080, 30031]
