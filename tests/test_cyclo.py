import cmath
import random
from fractions import Fraction
from math import lcm

import vkt.cyclo
import vkt.fieldsolve
from vkt.cyclo import (
    CyclotomicInt,
    character_bins,
    cyclotomic_modulus,
    cyclotomic_polynomial,
    eval_character_at_point,
    poly_divmod_exact,
    poly_mul,
)
from vkt.fieldsolve import FieldElement, invert_field_matrix
from vkt.rootdata import root_datum_from_spec


def root_power(order, power):
    """zeta_order ** power."""
    return CyclotomicInt(order, (0,) * (power % order) + (1,))


def to_complex(a):
    """The floating-point value of a CyclotomicInt, for numerical shadows."""
    z = cmath.exp(2j * cmath.pi / a.order)
    return sum(c * z ** i for i, c in enumerate(a.coeffs))


def test_cyclotomic_small_orders():
    assert cyclotomic_polynomial(1) == (-1, 1)
    assert cyclotomic_polynomial(2) == (1, 1)
    assert cyclotomic_polynomial(3) == (1, 1, 1)
    assert cyclotomic_polynomial(4) == (1, 0, 1)
    assert cyclotomic_polynomial(6) == (1, -1, 1)
    assert cyclotomic_polynomial(12) == (1, 0, -1, 0, 1)


def test_cyclotomic_product_is_xm_minus_1():
    for m in (1, 2, 6, 10, 12, 30):
        prod = (1,)
        for d in range(1, m + 1):
            if m % d == 0:
                prod = poly_mul(prod, cyclotomic_polynomial(d))
        assert prod == tuple([-1] + [0] * (m - 1) + [1])


def test_degree_is_euler_phi():
    def phi(m):
        return sum(1 for k in range(1, m + 1) if _gcd(k, m) == 1)

    for m in range(1, 40):
        assert len(cyclotomic_polynomial(m)) - 1 == phi(m)


def _gcd(a, b):
    while b:
        a, b = b, a % b
    return a


def test_root_power_identities():
    z = root_power(5, 1)
    acc = CyclotomicInt.integer(1)
    total = CyclotomicInt.zero()
    for _ in range(5):
        total = total + acc
        acc = acc * z
    assert total.is_zero()  # 1 + z + z^2 + z^3 + z^4 = 0
    assert acc == 1  # z^5 = 1


def test_minus_one_and_order_mixing():
    assert root_power(2, 1) == CyclotomicInt.integer(-1)
    assert root_power(6, 2) == root_power(3, 1)
    s = root_power(6, 1) + root_power(6, 5)
    assert s == 1  # 2*cos(pi/3)


def test_ring_matches_complex_shadow():
    rng = random.Random(11)
    for _ in range(40):
        m1 = rng.choice([2, 3, 4, 6, 8, 12])
        m2 = rng.choice([2, 3, 4, 6, 8, 12])
        a = CyclotomicInt(m1, [rng.randint(-3, 3) for _ in range(m1)])
        b = CyclotomicInt(m2, [rng.randint(-3, 3) for _ in range(m2)])
        for exact, approx in (
            (a + b, to_complex(a) + to_complex(b)),
            (a * b, to_complex(a) * to_complex(b)),
            (a - b, to_complex(a) - to_complex(b)),
        ):
            assert abs(to_complex(exact) - approx) < 1e-9


def test_is_zero_exact():
    # zeta_8^2 - i = 0 exactly
    a = root_power(8, 2) - root_power(4, 1)
    assert a.is_zero()
    b = root_power(8, 1) - root_power(4, 1)
    assert not b.is_zero()


def eval_weight_at_point(rd, weight, point):
    """The value of the character `weight` at the rational torus point,
    exactly: exp(2 pi i <weight, point>) as a root of unity, by
    character_bins at the point's lift y/m, m its least common denominator."""
    point = [Fraction(c) for c in point]
    m = lcm(*(c.denominator for c in point))
    y = [c.numerator * (m // c.denominator) for c in point]
    return CyclotomicInt(m, character_bins([{rd.check_weight(weight): 1}], y, m)[0])


def test_eval_weight_trivial_and_u1():
    u1 = root_datum_from_spec("U(1)")
    assert eval_weight_at_point(u1, (0,), (Fraction(1, 3),)) == 1
    assert eval_weight_at_point(u1, (1,), (Fraction(1, 4),)) == root_power(4, 1)


def test_eval_weight_su2():
    su2 = root_datum_from_spec("SU(2)")
    # <2 omega, (1/6) alpha_vee> = 1/3
    v = eval_weight_at_point(su2, (2,), (Fraction(1, 6),))
    assert v == root_power(6, 2)
    assert v == root_power(3, 1)


def test_eval_character_su2():
    su2 = root_datum_from_spec("SU(2)")
    x = (Fraction(1, 4),)
    assert eval_character_at_point(su2, (0,), x) == 1
    assert eval_character_at_point(su2, (1,), x).is_zero()  # i + (-i)
    # rho_4 vanishes at the twist-5 points j/10, j = 1..4
    for j in range(1, 5):
        val = eval_character_at_point(su2, (4,), (Fraction(j, 10),))
        assert val.is_zero()
    assert not eval_character_at_point(su2, (1,), (Fraction(1, 10),)).is_zero()


def test_eval_character_weyl_invariant_in_x():
    rd = root_datum_from_spec("SU(3)")
    from vkt.rootdata import weyl_group_elements
    x = (Fraction(1, 5), Fraction(2, 7))
    base = eval_character_at_point(rd, (1, 1), x)
    for w in weyl_group_elements(rd):
        wx = w.apply_coweight(x)
        assert eval_character_at_point(rd, (1, 1), wx) == base


def test_eval_character_numerical_shadow():
    rd = root_datum_from_spec("Spin(5)")
    x = (Fraction(1, 7), Fraction(2, 5))
    exact = to_complex(eval_character_at_point(rd, (1, 1), x))
    from vkt.rootdata import weight_multiplicities
    approx = sum(m * cmath.exp(2j * cmath.pi * (nu[0] * (1 / 7) + nu[1] * (2 / 5)))
                 for nu, m in weight_multiplicities(rd, (1, 1)).items())
    assert abs(exact - approx) < 1e-9


def test_weight_combination():
    # the weight system of chi_4 - chi_0 on SU(2), at x = 1/10 lifted to y = 1 at order 10
    su2 = root_datum_from_spec("SU(2)")
    system = {(4,): 1, (2,): 1, (0,): 0, (-2,): 1, (-4,): 1}
    bins = character_bins([system], (1,), 10)[0]
    assert bins == [0, 0, 1, 0, 1, 0, 1, 0, 1, 0]
    x = (Fraction(1, 10),)
    direct = eval_character_at_point(su2, (4,), x) - eval_character_at_point(su2, (0,), x)
    assert CyclotomicInt(10, bins) == direct
    # the same point lifted at a multiple order gives the same value
    assert CyclotomicInt(20, character_bins([system], (2,), 20)[0]) == direct


def test_poly_divmod_exact():
    # (x^2+1)(x+2) + 3 = x^3 + 2x^2 + x + 5
    p = (5, 1, 2, 1)
    q, r = poly_divmod_exact(p, (1, 0, 1))
    assert q == (2, 1)
    assert r == (3,)


def test_solve_field_system():
    # over Q(zeta_4): [[1, i], [i, 1]] x = [1 + 2i, 2 + i] has solution (1, 2)
    i = root_power(4, 1)
    one = CyclotomicInt.integer(1)
    two = CyclotomicInt.integer(2)
    inverse = invert_field_matrix([[one, i], [i, one]], 4)
    rhs = [FieldElement.from_cyclotomic(v, 4) for v in (one + two * i, two + i)]
    sol = [row[0] * rhs[0] + row[1] * rhs[1] for row in inverse]
    assert [x.as_rational() for x in sol] == [1, 2]


def test_cyclotomic_modulus_is_a_ring_map_above_twice_the_bound():
    for m in (1, 2, 3, 4, 8, 15, 24, 32, 105):
        phi = cyclotomic_polynomial(m)
        for bound in (1, 10 ** 6, 3 ** 60):
            modulus, powers = cyclotomic_modulus(m, bound)
            t = powers[1] if m > 1 else modulus + 1      # Phi_1(t) = t - 1
            assert powers == [pow(t, j, modulus) for j in range(m)]
            k = t.bit_length() - 1
            assert t == 1 << k and k >= 1
            # Phi_m(omega) = 0 and omega^m = 1 in Z/N, with omega = t
            assert sum(c * pow(t, i, modulus) for i, c in enumerate(phi)) % modulus == 0
            assert pow(t, m, modulus) == 1 % modulus
            assert modulus > 2 * bound
            # t is the least power of two that clears 2B
            if k > 1:
                assert sum(c * (t // 2) ** i for i, c in enumerate(phi)) <= 2 * bound
            assert modulus % 2 == 1      # so a balanced residue is never a tie


def test_character_bins_pair_each_weight_once():
    # one bin list per system; a weight shared by two systems counts in both
    su2 = root_datum_from_spec("SU(2)")
    systems = [{(1,): 1, (-1,): 1}, {(2,): 1, (0,): 1, (-2,): 1}, {(1,): 2}]
    assert character_bins(systems, (1,), 4) == [
        [0, 1, 0, 1], [1, 0, 2, 0], [0, 2, 0, 0]]
    bins = character_bins(systems, (1,), 8)
    for lam, row in (((1,), bins[0]), ((2,), bins[1])):
        assert CyclotomicInt(8, row) == eval_character_at_point(su2, lam, (Fraction(1, 8),))


def test_field_solver_is_reachable_from_cyclo():
    # the benchmark's tracer resolves vkt.cyclo.invert_field_matrix by name
    assert vkt.cyclo.invert_field_matrix is vkt.fieldsolve.invert_field_matrix
    assert vkt.cyclo.FieldElement is vkt.fieldsolve.FieldElement
