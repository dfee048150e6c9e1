import os
import random
import re
import subprocess
import sys
from fractions import Fraction
from math import gcd, lcm
from pathlib import Path

import pytest

import vkt.cyclo
import vkt.fieldsolve
import vkt.fusion
from vkt.affineweyl import OrbitReduction
from vkt.checks import check_f_epsilon
from vkt.cli import JobSpec, build_root_datum, build_twisting
from vkt.errors import InvariantError, NotATorus, NotPrimitive
from vkt.fieldsolve import FieldElement, invert_field_matrix
from vkt.fusion import (
    FusionRing,
    KClass,
    class_from_weight,
    delta_eval,
    dominant_weights_up_to,
    equivariant_function,
    fusion_product,
    module_action,
    mult_by_U_matrix,
    structure_constants_via_characters,
    torus_pushforward,
    verlinde_classes,
    verlinde_ideal_member,
)
from vkt.rootdata import closure, root_datum_from_spec, simple_reflections_mod
from vkt.twist import twisting_from_level

from test_kernel import fraction_character, fraction_verlinde_classes
from test_zlattice import matrix_coset_representatives


def su2_ring(n, eps=(0,)):
    rd = root_datum_from_spec("SU(2)")
    tau = twisting_from_level(rd, (n,), eps=eps)
    return FusionRing(rd, tau)


def u1_ring(n, eps=(0,)):
    rd = root_datum_from_spec("U(1)")
    tau = twisting_from_level(rd, (), torus_block=[[n]], eps=eps)
    return FusionRing(rd, tau)


def test_verlinde_classes_su2():
    ring = su2_ring(5)
    classes = verlinde_classes(ring.tau)
    assert [vc.point for vc in classes] == [(Fraction(j, 10),) for j in range(1, 5)]
    assert all(vc.orbit_size == 2 for vc in classes)


def test_verlinde_classes_u1():
    ring = u1_ring(4)
    classes = verlinde_classes(ring.tau)
    assert len(classes) == 4
    assert all(vc.orbit_size == 1 for vc in classes)


def test_double_count():
    cases = [su2_ring(3), su2_ring(7), u1_ring(6), u1_ring(3, eps=(1,))]
    rd3 = root_datum_from_spec("SU(3)")
    cases.append(FusionRing(rd3, twisting_from_level(rd3, (5,))))
    for ring in cases:
        assert len(ring.basis) == len(verlinde_classes(ring.tau))


def test_ring_refuses_a_datum_that_is_not_its_twistings():
    # the twisting's caches are keyed on the twisting alone: a foreign datum
    # must be refused before it can build the alcove or basis there
    tau = twisting_from_level(root_datum_from_spec("SU(3)"), (5,))
    with pytest.raises(ValueError, match="twisting's own"):
        FusionRing(root_datum_from_spec("U(1)^2"), tau)
    assert len(FusionRing(tau.rd, tau).basis) == 6


def test_su2_basis_and_transversal():
    ring = su2_ring(5)
    assert ring.basis == ((1,), (2,), (3,), (4,))
    assert ring.transversal == ((0,), (1,), (2,), (3,))
    assert ring.signs == (1, 1, 1, 1)
    assert ring.unit_index == 0


def test_class_from_weight_su2():
    ring = su2_ring(5)
    assert class_from_weight(ring, (0,)) == KClass({(1,): 1})
    assert class_from_weight(ring, (4,)).is_zero()
    assert class_from_weight(ring, (6,)) == KClass({(3,): -1})


def test_fusion_unit():
    for ring in (su2_ring(4), su2_ring(7), u1_ring(4)):
        for b in range(len(ring.basis)):
            prod = fusion_product(ring, ring.unit_index, b)
            assert ring.basis_coefficients(prod) == \
                [1 if c == b else 0 for c in range(len(ring.basis))]


def test_fusion_su2_twist5_examples():
    ring = su2_ring(5)
    # indices follow the transversal 0..3, so index k is the image of rho_k
    p11 = fusion_product(ring, 1, 1)
    assert ring.basis_coefficients(p11) == [1, 0, 1, 0]
    p22 = fusion_product(ring, 2, 2)
    assert ring.basis_coefficients(p22) == [1, 0, 1, 0]
    p33 = fusion_product(ring, 3, 3)
    assert ring.basis_coefficients(p33) == [1, 0, 0, 0]


def test_fusion_requires_primitive():
    ring = su2_ring(5, eps=(1,))
    with pytest.raises(NotPrimitive):
        fusion_product(ring, 0, 0)
    ring_odd = u1_ring(3)
    with pytest.raises(NotPrimitive):
        fusion_product(ring_odd, 0, 1)


def test_fusion_commutative_associative_su2():
    ring = su2_ring(6)
    n = len(ring.basis)
    nc = ring.structure_constants()
    for a in range(n):
        for b in range(n):
            assert nc[a][b] == nc[b][a]
            assert all(v >= 0 for v in nc[a][b])
    for a in range(n):
        for b in range(n):
            for c in range(n):
                left = _triple(nc, a, b, c)
                right = _triple(nc, b, c, a)
                assert left == right


def _triple(nc, a, b, c):
    # coefficients of (e_a e_b) e_c
    n = len(nc)
    out = [0] * n
    for d in range(n):
        coeff = nc[a][b][d]
        if coeff:
            for e in range(n):
                out[e] += coeff * nc[d][c][e]
    return out


def test_oracle_equivalence_small():
    rd3 = root_datum_from_spec("SU(3)")
    rings = [su2_ring(4), su2_ring(5),
             FusionRing(rd3, twisting_from_level(rd3, (4,))),
             u1_ring(4)]
    for ring in rings:
        assert ring.structure_constants() == structure_constants_via_characters(ring)


def _inverse_solve(ring):
    """The structure constants by inverting the character matrix over
    Q(zeta_m) and applying the inverse to chi_a chi_b: the solve that the
    orthogonality route replaces, kept here as its reference.  The classes
    and character values come from the Fraction oracles of test_kernel."""
    pts = [x for x, _ in fraction_verlinde_classes(ring.rd, ring.tau)]
    chars = [[fraction_character(ring.rd, lam, x) for x in pts] for lam in ring.transversal]
    n = len(chars)
    order = lcm(*(v.order for row in chars for v in row))
    inverse = invert_field_matrix([[chars[c][j] for c in range(n)] for j in range(n)], order)
    out = [[None] * n for _ in range(n)]
    for a in range(n):
        for b in range(n):
            rhs = [FieldElement.from_cyclotomic(chars[a][j] * chars[b][j], order)
                   for j in range(n)]
            coeffs = []
            for c in range(n):
                acc = FieldElement(order, ())
                for j in range(n):
                    acc = acc + inverse[c][j] * rhs[j]
                value = acc.as_rational()
                assert value.denominator == 1
                coeffs.append(int(value))
            out[a][b] = tuple(coeffs)
    return out


def _spec_ring(tmp_path, text):
    spec = tmp_path / "job.spec"
    spec.write_text(text)
    job = JobSpec.parse(spec.read_text())
    rd = build_root_datum(job)
    return FusionRing(rd, build_twisting(rd, job.twist))


def test_character_route_matches_inverse_solve(tmp_path, monkeypatch):
    g2 = 'cartan = [[2, -1], [-3, 2]]\ntwist = {{ levels = [{}], shift = "dual_coxeter" }}\n'
    rings = [_spec_ring(tmp_path, g2.format(level)) for level in (1, 2)]
    for name, levels in (("SU(3)", (5,)), ("Spin(5)", (4,)), ("Sp(2)", (4,))):
        rd = root_datum_from_spec(name)
        rings.append(FusionRing(rd, twisting_from_level(rd, levels)))
    rd = root_datum_from_spec("U(1)^2")
    rings.append(FusionRing(rd, twisting_from_level(rd, (), torus_block=[[2, 1], [1, 2]])))
    rd = root_datum_from_spec("SU(2) x U(1)")
    tau = twisting_from_level(rd, (3,), torus_block=[[4]])
    assert tau.is_primitive()
    rings.append(FusionRing(rd, tau))
    assert [len(ring.basis) for ring in rings[:2]] == [2, 4]

    expected = [_inverse_solve(ring) for ring in rings]

    def refuse(*args, **kwargs):
        raise AssertionError("the character route must not invert a matrix")

    monkeypatch.setattr(vkt.cyclo, "invert_field_matrix", refuse)
    monkeypatch.setattr(vkt.fieldsolve, "invert_field_matrix", refuse)
    for ring, want in zip(rings, expected):
        assert structure_constants_via_characters(ring) == want
        assert ring.structure_constants() == want


def test_character_route_gram_guard():
    rd = root_datum_from_spec("SU(3)")
    ring = FusionRing(rd, twisting_from_level(rd, (5,)))
    assert len(ring.transversal) > 2
    # the first basis element now carries the character of the second, so
    # two rows of the character matrix agree and orthogonality fails
    ring.transversal = (ring.transversal[1],) + ring.transversal[1:]
    with pytest.raises(InvariantError, match="Gram identity"):
        structure_constants_via_characters(ring)


def test_pairing_integrality_guard(monkeypatch):
    # without its first lift the regular part of F_eps is not Galois-stable
    rd = root_datum_from_spec("SU(3)")
    tau = twisting_from_level(rd, (5,))
    m, lifts = tau.f_epsilon(regular_only=True)
    full = tau.f_epsilon
    monkeypatch.setattr(tau, "f_epsilon",
                        lambda regular_only=False: (m, lifts[1:]) if regular_only else full())
    assert delta_eval(tau, {(0, 0): 1}, (0, 0)) == 1      # the full kernel is intact
    with pytest.raises(InvariantError, match="did not reduce to an integer"):
        delta_eval(tau, {(0, 0): 1}, (0, 0), regular_only=True)
    # nor is all of F_eps without its second lift (the first, the origin, is
    # fixed by every unit); the regular kernel built before stays as it was
    tau = twisting_from_level(rd, (5,))
    regular = vkt.fusion._pairing_kernel(tau, True)
    m, lifts = tau.f_epsilon()
    monkeypatch.setattr(tau, "f_epsilon",
                        lambda regular_only=False: (m, lifts[:1] + lifts[2:]))
    with pytest.raises(InvariantError, match="did not reduce to an integer"):
        delta_eval(tau, {(0, 0): 1}, (0, 0))
    assert vkt.fusion._pairing_kernel(tau, True) is regular


def test_pairing_galois_test_skips_only_generated_units(monkeypatch):
    # the kernel tests only the units that the units it already tested do
    # not generate; on point sets mod m it must pass exactly the sets that
    # every unit maps into themselves, and name the least unit that does not
    class Passed(Exception):
        pass

    class Coordinates:
        def __init__(self, m):
            self.factors = (m,)

        @property
        def size(self):                   # read first after the Galois test
            raise Passed

    class Lifts:
        def __init__(self, m, lifts):
            self.m, self.lifts = m, lifts

        def cached(self, key, build):
            return build()

        def f_epsilon(self, regular_only=False):
            return self.m, self.lifts

    monkeypatch.setattr(vkt.fusion, "check_pairing_budget", lambda tau: None)
    monkeypatch.setattr(vkt.fusion, "_pairing_coordinates", lambda tau: Coordinates(tau.m))
    rng = random.Random(34)
    outcomes = set()
    for m in range(1, 121):
        units = [k for k in range(1, max(m, 2)) if gcd(k, m) == 1]
        for _ in range(6):
            dim = rng.randint(1, 2)
            seeds = [tuple(rng.randrange(m) for _ in range(dim)) for _ in range(rng.randint(1, 3))]
            moves = rng.sample(units, rng.randint(0, min(3, len(units))))
            points = closure(seeds, lambda y: [tuple(k * c % m for c in y) for k in moves])
            if rng.random() < 0.3:
                points ^= {tuple(rng.randrange(m) for _ in range(dim))}
            lifts = sorted(points)
            expected = next((k for k in units[1:] if any(
                tuple(k * c % m for c in y) not in points for y in lifts)), None)
            try:
                vkt.fusion._pairing_kernel(Lifts(m, lifts), False)
            except Passed:
                found = None
            except InvariantError as err:
                found = int(re.search(r"y -> (\d+) y mod", str(err)).group(1))
            assert found == expected, (m, lifts)
            outcomes.add(expected is None)
    assert outcomes == {True, False}


GUARDS_UNDER_O = """
import sys
from vkt.errors import InvariantError
from vkt.fusion import FusionRing, delta_eval, structure_constants_via_characters
from vkt.rootdata import root_datum_from_spec
from vkt.twist import twisting_from_level

if sys.flags.optimize < 1:
    sys.exit("not run with -O")
rd = root_datum_from_spec("SU(3)")
galois = FusionRing(rd, twisting_from_level(rd, (5,)))
m, ys = galois.tau.verlinde_lifts()
# the origin of F_eps (eps = 0) is fixed by all of W, so it is not a class
galois.tau.verlinde_lifts = lambda: (m, [(0, 0)] + ys[1:])
gram = FusionRing(rd, twisting_from_level(rd, (5,)))
gram.transversal = (gram.transversal[1],) + gram.transversal[1:]
# without its first lift the regular part of F_eps is not Galois-stable
pairing = twisting_from_level(rd, (5,))
top, lifts = pairing.f_epsilon(regular_only=True)
full = pairing.f_epsilon
pairing.f_epsilon = lambda regular_only=False: (top, lifts[1:]) if regular_only else full()
# nor is all of F_eps without its second lift (the first is the origin)
whole = twisting_from_level(rd, (5,))
order, points = whole.f_epsilon()
whole.f_epsilon = lambda regular_only=False: (order, points[:1] + points[2:])
for call, message in (
        (lambda: structure_constants_via_characters(galois), "Galois"),
        (lambda: structure_constants_via_characters(gram), "Gram identity"),
        (lambda: delta_eval(pairing, {(0, 0): 1}, (0, 0), regular_only=True),
         "did not reduce to an integer"),
        (lambda: delta_eval(whole, {(0, 0): 1}, (0, 0)),
         "did not reduce to an integer")):
    try:
        call()
    except InvariantError as exc:
        if message not in str(exc):
            sys.exit(f"wrong error for the {message} guard: {exc}")
    else:
        sys.exit(f"the {message} guard did not fire")
print("guards fired")
"""


def test_character_route_guards_survive_python_O():
    src = str(Path(vkt.fusion.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    done = subprocess.run([sys.executable, "-O", "-c", GUARDS_UNDER_O], env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "guards fired"


def test_ring_invariants_are_checked_without_assert(monkeypatch):
    # explicit errors, so the checks survive python -O
    zero = OrbitReduction(representative=None, sign=0)
    monkeypatch.setattr(vkt.fusion, "orbit_normal_form", lambda *args: zero)
    with pytest.raises(InvariantError):
        su2_ring(4)


def test_f_epsilon_check_flags_a_set_the_weyl_group_does_not_preserve(monkeypatch):
    rd = root_datum_from_spec("SU(3)")
    tau = twisting_from_level(rd, (5,))
    ring = FusionRing(rd, tau)
    result = check_f_epsilon(ring)
    assert result["passed"] and result["detail"]["bad"] == []
    # drop one regular point: the simple reflections of its neighbours now
    # leave the set, though every remaining point still solves b(x) = lambda_eps
    m, lifts = tau.f_epsilon()
    k = lifts.index(tau.f_epsilon(regular_only=True)[1][0])
    kept = lifts[:k] + lifts[k + 1:]
    monkeypatch.setattr(tau, "f_epsilon", lambda regular_only=False: (m, kept))
    want = [[str(Fraction(c, m)) for c in y] for y in kept
            if lifts[k] in simple_reflections_mod(rd, y, m)]
    result = check_f_epsilon(ring)
    assert not result["passed"]
    assert len(want) == 2 and result["detail"]["bad"] == want


def test_f_epsilon_check_flags_points_off_the_grading(monkeypatch):
    # the ungraded F_0 is Weyl-stable, but no point of it solves
    # b(x) = lambda_eps for eps = 1
    rd = root_datum_from_spec("SU(2)")
    ring = FusionRing(rd, twisting_from_level(rd, (4,), eps=(1,)))
    m, lifts = twisting_from_level(rd, (4,)).f_epsilon()
    monkeypatch.setattr(ring.tau, "f_epsilon", lambda regular_only=False: (m, lifts))
    result = check_f_epsilon(ring)
    assert not result["passed"]
    assert result["detail"]["bad"] == [[str(Fraction(c, m)) for c in y] for y in lifts]


def test_verlinde_ideal_member_su2():
    ring = su2_ring(5)
    assert verlinde_ideal_member(ring, {})
    assert verlinde_ideal_member(ring, {(4,): 1})
    assert not verlinde_ideal_member(ring, {(1,): 1})
    # rho_5 reduces to -rho_3 across the affine wall, so rho_5 + rho_3 vanishes
    assert verlinde_ideal_member(ring, {(5,): 1, (3,): 1})
    assert not verlinde_ideal_member(ring, {(5,): 1, (0,): -1})


def test_ideal_candidates_reduce_to_zero():
    ring = su2_ring(5)
    gens = [lam for lam in dominant_weights_up_to(ring.rd, 9)
            if verlinde_ideal_member(ring, {lam: 1})]
    assert (4,) in gens
    for lam in gens:
        assert class_from_weight(ring, lam).is_zero() or \
            module_action(ring, {lam: 1}, KClass({ring.basis[ring.unit_index]: 1})).is_zero()


def test_module_action_kills_ideal_on_all_basis_classes():
    ring = su2_ring(5)
    for lam in dominant_weights_up_to(ring.rd, 8):
        if not verlinde_ideal_member(ring, {lam: 1}):
            continue
        for i in range(len(ring.basis)):
            img = module_action(ring, {lam: 1}, ring.class_from_index(i))
            assert img.is_zero()


def test_module_action_matches_fusion():
    rd4 = root_datum_from_spec("SU(4)")
    rings = [su2_ring(6), FusionRing(rd4, twisting_from_level(rd4, (5,)))]
    # the transversal weights of a primitive ring walk back to their labels
    # with no reflection: every distinguished sign is +1
    assert all(set(ring.signs) == {1} for ring in rings)
    for ring in rings:
        for a in range(len(ring.basis)):
            for b in range(len(ring.basis)):
                via_action = module_action(ring, {ring.transversal[a]: 1},
                                           ring.class_from_index(b))
                assert via_action == fusion_product(ring, a, b)


def test_mult_by_u_matrix():
    ring = su2_ring(5)
    m = mult_by_U_matrix(ring)
    assert m.determinant() in (1, -1)
    assert m.to_rows() == [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]]
    ring_u1 = u1_ring(5)
    mu = mult_by_U_matrix(ring_u1)
    assert mu.determinant() in (1, -1)
    rows = mu.to_rows()
    assert all(sum(abs(v) for v in row) == 1 for row in rows)


def test_delta_eval_delta_pairing():
    ring = su2_ring(5)
    rd, tau = ring.rd, ring.tau
    for g in [(0,), (1,), (3,), (7,)]:
        f = {g: 1}
        assert delta_eval(tau, f, g) == 1


def test_delta_eval_u1_coset():
    rd = root_datum_from_spec("U(1)")
    tau = twisting_from_level(rd, (), torus_block=[[3]])
    f = {(1,): 1}
    assert delta_eval(tau, f, (4,)) == 1  # L^4 = L mod the coset lattice
    assert delta_eval(tau, f, (2,)) == 0


def test_delta_eval_equivariance_and_sign():
    rd = root_datum_from_spec("U(1)")
    tau = twisting_from_level(rd, (), torus_block=[[2]], eps=(1,))
    f = {(0,): 1}
    # the graded translation flips the sign across the coset
    assert delta_eval(tau, f, (2,)) == -1
    assert delta_eval(tau, f, (4,)) == 1


def test_delta_eval_matches_equivariant_values():
    ring = su2_ring(5)
    rd, tau = ring.rd, ring.tau
    rng = random.Random(31)
    for _ in range(10):
        coeffs = {rep: rng.randint(-3, 3) for rep in ring.basis}
        kc = KClass(coeffs)
        fn = equivariant_function(tau, kc)
        f = {rep: fn(rep) for rep in
             (tuple(r) for r in matrix_coset_representatives(tau.b))}
        g = (rng.randint(-15, 15),)
        assert delta_eval(tau, f, g) == fn(g)
        assert delta_eval(tau, f, g, regular_only=True) == fn(g)


def test_torus_pushforward_u1():
    rd = root_datum_from_spec("U(1)")
    tau = twisting_from_level(rd, (), torus_block=[[4]])
    assert torus_pushforward(tau, (6,)) == KClass({(2,): 1})
    tau1 = twisting_from_level(rd, (), torus_block=[[4]], eps=(1,))
    a = torus_pushforward(tau1, (1,))
    b = torus_pushforward(tau1, (5,))
    assert a == KClass({(1,): 1})
    assert b == KClass({(1,): -1})


def test_torus_pushforward_u1_squared():
    rd = root_datum_from_spec("U(1)^2")
    tau = twisting_from_level(rd, (), torus_block=[[2, 0], [0, 2]])
    assert torus_pushforward(tau, (0, 0)) == KClass({(0, 0): 1})


def test_torus_pushforward_rejects_nontorus():
    ring = su2_ring(3)
    with pytest.raises(NotATorus):
        torus_pushforward(ring.tau, (1,))


def test_pushforward_fourier_support():
    # the image's equivariant extension has support exactly lam + b(Pi) with
    # alternating signs read off the grading
    rd = root_datum_from_spec("U(1)")
    tau = twisting_from_level(rd, (), torus_block=[[3]], eps=(1,))
    kc = torus_pushforward(tau, (1,))
    fn = equivariant_function(tau, kc)
    for k in range(-9, 10):
        expected = 0
        if (k - 1) % 3 == 0:
            expected = (-1) ** ((k - 1) // 3)
        assert fn((k,)) == expected


def test_dominant_weights_up_to():
    rd = root_datum_from_spec("SU(2)")
    assert dominant_weights_up_to(rd, 3) == [(0,), (1,), (2,), (3,)]
    rdu = root_datum_from_spec("U(1)")
    assert dominant_weights_up_to(rdu, 2) == [(-2,), (-1,), (0,), (1,), (2,)]
