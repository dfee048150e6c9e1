from fractions import Fraction

import pytest

from vkt.errors import Degenerate, InvariantError, NotEquivariant
from vkt.rootdata import root_datum_from_spec, weyl_group_elements
from vkt.twist import Twisting, f_epsilon_points, shift_by_dual_coxeter, twisting_from_level
from vkt.zlattice import IntMatrix


def su2_twist(n, eps=(0,)):
    rd = root_datum_from_spec("SU(2)")
    return rd, twisting_from_level(rd, (n,), eps=eps)


def u1_twist(n, eps=(0,)):
    rd = root_datum_from_spec("U(1)")
    return rd, twisting_from_level(rd, (), torus_block=[[n]], eps=eps)


def test_su2_level_assembly():
    rd, tau = su2_twist(3)
    # b(alpha_vee) = 3 * alpha = 6 * omega
    assert tau.apply_b((1,)) == (6,)
    assert tau.order_F() == 6
    assert tau.f_group.invariant_factors == (6,)


def test_u1_level_assembly():
    rd, tau = u1_twist(4, eps=(1,))
    assert tau.b.to_rows() == [[4]]
    assert tau.lambda_eps == (Fraction(1, 2),)
    assert tau.order_F() == 4


def test_shift_by_dual_coxeter():
    rd = root_datum_from_spec("SU(2)")
    assert shift_by_dual_coxeter(rd, (3,)) == (5,)
    rd3 = root_datum_from_spec("SU(3)")
    assert shift_by_dual_coxeter(rd3, (0,)) == (3,)
    u1 = root_datum_from_spec("U(1)")
    assert shift_by_dual_coxeter(u1, ()) == ()
    spin7 = root_datum_from_spec("Spin(7)")
    assert shift_by_dual_coxeter(spin7, (1,)) == (6,)


def test_degenerate_rejected():
    rd = root_datum_from_spec("SU(2)")
    with pytest.raises(Degenerate):
        twisting_from_level(rd, (0,))
    u1 = root_datum_from_spec("U(1)")
    with pytest.raises(Degenerate):
        twisting_from_level(u1, (), torus_block=[[0]])
    with pytest.raises(Degenerate):
        twisting_from_level(u1, ())  # torus block required


def test_not_equivariant_rejected():
    rd = root_datum_from_spec("SU(2) x U(1)")
    # an off-diagonal entry couples the factors and breaks W-equivariance
    b = IntMatrix.from_rows([[2, 1], [1, 2]])
    with pytest.raises(NotEquivariant):
        Twisting(rd, b)
    with pytest.raises(NotEquivariant):
        twisting_from_level(rd, (1,), torus_block=[[2]], eps=(0,))  # bad eps length


def test_an_empty_grading_is_not_zero():
    rd = root_datum_from_spec("SU(2) x U(1)")
    b = IntMatrix.from_rows([[6, 0], [0, 4]])
    assert Twisting(rd, b).eps == (0, 0)
    with pytest.raises(NotEquivariant, match="length must equal the rank"):
        Twisting(rd, b, eps=())


@pytest.mark.parametrize("levels", [(Fraction(7, 2),), (2.9,), (Fraction(-1, 3),)])
def test_a_non_integral_level_is_refused(levels):
    # int() truncated these: 7/2 built b = [[6]] and 2.9 read as level 2
    rd = root_datum_from_spec("SU(2)")
    with pytest.raises(ValueError, match="non-integral level"):
        twisting_from_level(rd, levels)
    assert twisting_from_level(rd, (Fraction(8, 2),)).b == twisting_from_level(rd, (4,)).b


def test_a_non_integral_loop_level_is_refused():
    rd = root_datum_from_spec("SU(2)")
    with pytest.raises(ValueError, match="non-integral level"):
        shift_by_dual_coxeter(rd, (Fraction(3, 2),))
    assert shift_by_dual_coxeter(rd, (Fraction(6, 2),)) == (5,)


def test_a_non_integral_grading_entry_is_refused():
    # int(e) % 2 read 3/2 as 1
    rd = root_datum_from_spec("SU(2) x U(1)")
    b = IntMatrix.from_rows([[6, 0], [0, 4]])
    with pytest.raises(ValueError, match="non-integral grading entry"):
        Twisting(rd, b, eps=(0, Fraction(3, 2)))
    assert Twisting(rd, b, eps=(0, Fraction(-2, 2))).eps == (0, 1)


def test_asymmetric_torus_block_rejected():
    rd = root_datum_from_spec("U(1)^2")
    with pytest.raises(NotEquivariant):
        twisting_from_level(rd, (), torus_block=[[1, 2], [0, 1]])


def test_explicit_twisting_matches_level_form():
    rd = root_datum_from_spec("SU(2)")
    tau = Twisting(rd, IntMatrix.from_rows([[10]]))
    assert tau.order_F() == 10
    assert tau.is_primitive()


def test_f_epsilon_points_su2():
    rd, tau = su2_twist(3)
    pts = f_epsilon_points(tau)
    assert pts == [(Fraction(j, 6),) for j in range(6)]


def test_f_epsilon_points_u1():
    rd, tau = u1_twist(5)
    assert f_epsilon_points(tau) == [(Fraction(j, 5),) for j in range(5)]
    rd, tau = u1_twist(2, eps=(1,))
    assert f_epsilon_points(tau) == [(Fraction(1, 4),), (Fraction(3, 4),)]


def test_f_epsilon_points_solve_exactly():
    for name, levels, torus, eps in [
        ("SU(3)", (2,), None, (0, 0)),
        ("Spin(5)", (1,), None, (0, 0)),
        ("SU(2) x U(1)", (2,), [[3]], (0, 1)),
        ("U(1)^2", (), [[2, 1], [1, 2]], (1, 0)),
    ]:
        rd = root_datum_from_spec(name)
        tau = twisting_from_level(rd, levels, torus_block=torus, eps=eps)
        pts = f_epsilon_points(tau)
        assert len(pts) == tau.order_F()
        for x in pts:
            img = tau.b.apply(x)
            assert all((a - l) % 1 == 0 for a, l in zip(img, tau.lambda_eps))


def test_weyl_permutes_f_epsilon_points():
    for name, levels, torus, eps in [
        ("SU(2)", (4,), None, (0,)),
        ("SU(3)", (2,), None, (0, 0)),
        ("Spin(5)", (2,), None, (0, 0)),
    ]:
        rd = root_datum_from_spec(name)
        tau = twisting_from_level(rd, levels, torus_block=torus, eps=eps)
        pts = set(f_epsilon_points(tau))
        for w in weyl_group_elements(rd):
            moved = {tuple(Fraction(c) % 1 for c in w.apply_coweight(x)) for x in pts}
            assert moved == pts


def test_primitivity_normal_form():
    rd = root_datum_from_spec("SU(2)")
    assert twisting_from_level(rd, (5,)).is_primitive()
    assert not twisting_from_level(rd, (5,), eps=(1,)).is_primitive()
    u1 = root_datum_from_spec("U(1)")
    assert twisting_from_level(u1, (), torus_block=[[4]]).is_primitive()
    assert not twisting_from_level(u1, (), torus_block=[[3]]).is_primitive()
    mixed = root_datum_from_spec("SU(2) x U(1)")
    assert twisting_from_level(mixed, (2,), torus_block=[[2]]).is_primitive()
    # explicit non-level-form (but still equivariant) b on SU(2): 3 * kappa + odd?
    tau = Twisting(u1, IntMatrix.from_rows([[7]]))
    assert not tau.is_primitive()


def test_degree_parity():
    cases = {"SU(2)": 1, "SU(3)": 0, "SU(2) x U(1)": 0, "Spin(7)": 1}
    for name, parity in cases.items():
        rd = root_datum_from_spec(name)
        levels = (2,) * len(rd.factors)
        torus = IntMatrix.identity(len(rd.torus_indices)).to_rows() if rd.torus_indices else None
        tau = twisting_from_level(rd, levels, torus_block=torus)
        assert tau.degree_parity() == parity


def test_describe():
    rd, tau = su2_twist(5)
    d = tau.describe()
    assert d["order_F"] == 10
    assert d["levels"] == [5]
    assert d["primitive"] is True


def test_f_epsilon_count_is_checked_without_assert(monkeypatch):
    # an explicit error, so the check survives python -O
    rd = root_datum_from_spec("SU(2)")
    tau = twisting_from_level(rd, (3,))
    monkeypatch.setattr(tau, "order_F", lambda: 7)
    with pytest.raises(InvariantError):
        f_epsilon_points(tau)


def test_a_short_regular_orbit_is_refused(monkeypatch):
    # a root test that passed a singular point would give an orbit of fewer
    # than |W| points; the simple-reflection closure catches it
    rd = root_datum_from_spec("SU(3)")
    tau = twisting_from_level(rd, (5,))
    monkeypatch.setattr(rd, "is_regular", lambda v, d: True)
    with pytest.raises(InvariantError, match=r"expected \|W\| = 6"):
        tau.verlinde_lifts()
