"""The twisting's integer b^-1 kernel, the alcove walk, the integer F_eps
lifts and character evaluator, the per-twisting pairing caches and the
modular character route, against the computations they replaced.

The oracles below are the earlier implementations: adj(b) as det b times
the Fraction inverse of b, the cosets by b's own Smith normal form (in
test_zlattice), box reduction by the rational inverse of b and a floor,
orbit normal forms by box-reducing all |W| images of a weight, the basis
by reducing every coset of b, orbit labels as the least box point of the
orbit (one scan over W each), the F_eps points enumerated from the Smith
normal form of b with Fraction shifts, characters evaluated with
Fraction pairings at each point's own order, the averaged pairing rebuilt
in full (coset enumeration, F_eps points, rational fixed-point tests) on
every call, its kernel as one reduced sum of |F| roots of unity per
coset, the ideal test on full Freudenthal weight systems, the character
route's sums in Z[zeta_m] by Kronecker packing with a reduction mod Phi_m,
and the module action by one orbit normal form per (weight, orbit point).
None of them calls the code it checks."""

import importlib.util
import random
import sys
from fractions import Fraction
from functools import lru_cache
from itertools import product
from math import gcd, lcm
from pathlib import Path

import contextlib
import io

import pytest

import vkt
import vkt.affineweyl
import vkt.checks
import vkt.cli
import vkt.cyclo
import vkt.fusion
import vkt.rootdata
import vkt.zlattice
from vkt.affineweyl import (
    AffineElement,
    alcove,
    box_reduce,
    enumerate_basis_orbits,
    orbit_normal_form,
    sign_character,
    zero_criterion_discrepancies,
)
from vkt.checks import (
    check_algebra_axioms,
    check_annihilation,
    check_cyclic_generator,
    check_delta_identity,
    check_double_count,
    check_f_epsilon,
    check_grading_flags,
    check_oracle_equivalence,
    run_all_checks,
)
from vkt.cyclo import CyclotomicInt, character_bins, cyclotomic_polynomial, poly_divmod_exact
from vkt.errors import GroupTooLarge, InvariantError
from vkt.fusion import (
    CosetValues,
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
from vkt.rootdata import (
    RootDatum,
    dot,
    root_datum_from_spec,
    tensor_decompose,
    vec_add,
    vec_sub,
    weight_multiplicities,
    weyl_group_elements,
)
from vkt.twist import Twisting, f_epsilon_points, shift_by_dual_coxeter, twisting_from_level
from vkt.zlattice import (
    IntMatrix,
    cokernel_structure,
    inverse_rational,
    smith_coordinates,
    smith_normal_form,
)

from test_zlattice import matrix_coset_representatives

# the acceptance grid, plus the indefinite and negative-determinant forms the
# verify benchmark runs: det b = -24, -6 and 3
GRID = [
    ("SU(2)", (3,), None, None),
    ("SU(2)", (5,), None, None),
    ("SU(2)", (8,), None, None),
    ("SU(3)", (4,), None, None),
    ("SU(3)", (5,), None, None),
    ("SU(3)", (6,), None, None),
    ("U(1)^2", (), [[2, 0], [0, 2]], None),
    ("U(1)^2", (), [[2, 1], [1, 2]], None),
    ("U(1)^2", (), [[3, 1], [1, 2]], None),
    ("SU(2) x U(1)", (2,), [[2]], None),
    ("SU(2) x U(1)", (3,), [[4]], None),
    ("SU(2) x U(1)", (4,), [[2]], None),
    ("Spin(5)", (4,), None, None),
    ("Spin(5)", (5,), None, None),
    ("Spin(5)", (6,), None, None),
    ("SU(2) x U(1)", (3,), [[-4]], (0, 1)),
    ("U(1)", (), [[-6]], (1,)),
    ("U(1)^2", (), [[2, -1], [-1, 2]], None),
]


# a graded form with det b > 0 and a rank-3 form, for the F_eps builder alone
F_EPSILON_EXTRA = [
    ("SU(2) x U(1)", (3,), [[4]], (0, 1)),
    ("SU(4)", (5,), None, None),
]


# the alcove walk's own cases (GRID holds the acceptance grid, [[-4]] with
# eps = (0, 1) and [[2, -1], [-1, 2]]): negative levels, gradings that give
# the affine reflection sign +1, Sp(2) and G2, and non-split (U(2)-style)
# data whose free part is not a coordinate block
WALK_EXTRA = [
    ("SU(2)", (-2,), None, None),
    ("SU(3)", (-2,), None, None),
    ("Spin(5)", (-2,), None, None),
    ("SU(2)", (4,), None, (1,)),
    ("SU(2) x U(1)", (3,), [[4]], (0, 1)),
    ("U(1)^2", (), [[2, 1], [1, 2]], (1, 0)),
    ("Sp(2)", (5,), None, None),
    ("G2", (5,), None, None),
    ("U(2)", None, [[3, 1], [1, 3]], None),
    ("U(2)", None, [[3, -1], [-1, 3]], None),
]


# the product oracle's cases beyond the primitive part of GRID (which holds
# SU(2) x U(1) 3 with [[4]] and U(1)^2 with [[2, +-1], [+-1, 2]]): rank 3,
# Sp(2), G2 at loop levels 1-3 (twist levels 5-7) in both simple-root
# orders, and the torus form [[-4]]
PRODUCT_EXTRA = [
    ("SU(4)", (5,), None, None),
    ("Spin(7)", (6,), None, None),
    ("Sp(2)", (7,), None, None),
    ("G2", (5,), None, None),
    ("G2", (6,), None, None),
    ("G2", (7,), None, None),
    ("G2 swapped", (5,), None, None),
    ("G2 swapped", (6,), None, None),
    ("G2 swapped", (7,), None, None),
    ("SU(2) x U(1)", (3,), [[-4]], None),
]

# the character route's cases beyond the primitive part of GRID (which holds
# U(1)^2 with [[2, +-1], [+-1, 2]] and SU(2) x U(1) 3 with [[4]])
CHARACTER_EXTRA = PRODUCT_EXTRA + [("SU(3)", (9,), None, None)]

CARTAN = {"G2": [[2, -1], [-3, 2]], "G2 swapped": [[2, -3], [-1, 2]],
          "A2": [[2, -1], [-1, 2]],
          "F4": [[2, -1, 0, 0], [-1, 2, -2, 0], [0, -1, 2, -1], [0, 0, -1, 2]]}


def grid_twistings(grid=GRID):
    for name, levels, torus, eps in grid:
        if name == "U(2)":                 # the third field is b itself
            rd = RootDatum.from_root_data(2, [(1, -1)], [(1, -1)])
            yield name, rd, Twisting(rd, IntMatrix.from_rows(torus), eps)
            continue
        rd = RootDatum.from_cartan(CARTAN[name]) if name in CARTAN \
            else root_datum_from_spec(name)
        yield name, rd, twisting_from_level(rd, levels, torus_block=torus, eps=eps)


@lru_cache(maxsize=None)
def rational_inverse(b):
    return inverse_rational(b)


def fraction_adjugate(b):
    """adj(b) = det b * b^-1 by Fraction Gauss-Jordan elimination."""
    det = b.determinant()
    return tuple(tuple(int(x * det) for x in row) for row in inverse_rational(b))


def matvec_fraction(rows, vec):
    """rows: list of Fraction rows; vec: sequence of numbers."""
    return tuple(sum(r[j] * vec[j] for j in range(len(vec))) for r in rows)


def fraction_b_inverse(tau, vec):
    return matvec_fraction(rational_inverse(tau.b), vec)


def fraction_box_reduce(tau, vec):
    x = fraction_b_inverse(tau, vec)
    pi = tuple(-(xi.numerator // xi.denominator) for xi in x)
    return vec_add(vec, tau.b.apply(pi)), pi


def fraction_f_epsilon_points(rd, tau):
    # x0 = b^-1(eps/2) plus V (r_i / d_i) over the box of invariant factors d
    if rd.rank == 0:
        return [()]
    x0 = fraction_b_inverse(tau, [Fraction(e, 2) for e in tau.eps])
    snf = smith_normal_form(tau.b)
    d = snf.invariant_diagonal()
    pts = set()
    for idx in product(*(range(di) for di in d)):
        shift = snf.V.apply([Fraction(r, di) for r, di in zip(idx, d)])
        pts.add(tuple((a + b) % 1 for a, b in zip(x0, shift)))
    return sorted(pts)


def fraction_character(rd, lam, point):
    wm = weight_multiplicities(rd, lam)
    pairings = {nu: sum(Fraction(w) * x for w, x in zip(nu, point)) for nu in wm}
    m = lcm(1, *(t.denominator for t in pairings.values()))
    counts = [0] * m
    for nu, mult in wm.items():
        t = pairings[nu]
        counts[(t.numerator * (m // t.denominator)) % m] += mult
    return CyclotomicInt(m, counts)


def fraction_ideal_member(rd, class_points, combo):
    for x in class_points:
        total = CyclotomicInt.zero()
        for lam, c in sorted(combo.items()):
            total = total + fraction_character(rd, lam, x) * c
        if not total.is_zero():
            return False
    return True


def weight_system_ideal_member(ring, combo):
    """The ideal test on full weight systems: the combination's Freudenthal
    weight system binned at each class lift."""
    system = {}
    for lam, c in combo.items():
        for nu, mult in weight_multiplicities(ring.rd, lam).items():
            system[nu] = system.get(nu, 0) + c * mult
    m, ys = ring.tau.verlinde_lifts()
    return all(CyclotomicInt(m, character_bins([system], y, m)[0]).is_zero() for y in ys)


def annihilation_window(rd, tau):
    """The dominant weights of check_annihilation's default search window."""
    largest = max((abs(v) for row in tau.b.to_rows() for v in row), default=4)
    return dominant_weights_up_to(rd, min({1: 10, 2: 8}.get(rd.rank, 4), max(4, largest)))


def _order(points):
    return lcm(1, *(c.denominator for x in points for c in x))


def _fixes_point(w, x):
    return all(Fraction(c) % 1 == 0 for c in vec_sub(w.apply_coweight(x), x))


def fraction_delta_eval(rd, tau, f, g, regular_only=False):
    values = {}
    for lam, v in sorted(f.items()):
        rep, pi = fraction_box_reduce(tau, lam)
        values[rep] = tau.translation_sign(pi) * v
    reps = [fraction_box_reduce(tau, lam)[0] for lam in matrix_coset_representatives(tau.b)]
    points = fraction_f_epsilon_points(rd, tau)
    if regular_only:
        reps = [lam for lam in reps if fraction_is_free(rd, tau, lam)]
        points = fraction_regular_points(rd, tau)
    m = 1
    scaled = []
    for x in points:
        q = lcm(*[c.denominator for c in x]) if x else 1
        scaled.append((q, tuple(int(c * q) for c in x)))
        m = lcm(m, q)
    counts = [0] * m
    lifted = [(m // q, y) for q, y in scaled]
    for lam in reps:
        v = values.get(lam, 0)
        diff = vec_sub(g, lam)
        for k, y in lifted:
            counts[(dot(diff, y) * k) % m] += v
    total = CyclotomicInt(m, counts)
    assert total.is_integer()
    return Fraction(total.integer_value(), tau.order_F())


def fraction_is_free(rd, tau, lam):
    """No nontrivial (pi, w) fixes lam: b^-1(lam - w lam) is not integral
    for any w != 1."""
    return not any(
        all(x.denominator == 1 for x in fraction_b_inverse(tau, vec_sub(lam, w.apply(lam))))
        for w in weyl_group_elements(rd) if w.word)


def fraction_regular_points(rd, tau):
    others = [w for w in weyl_group_elements(rd) if w.word]
    return [x for x in fraction_f_epsilon_points(rd, tau)
            if not any(_fixes_point(w, x) for w in others)]


def fraction_verlinde_classes(rd, tau, regular=None):
    group = weyl_group_elements(rd)
    classes = {}
    for x in regular or fraction_regular_points(rd, tau):
        orbit = {tuple(Fraction(c) % 1 for c in w.apply_coweight(x)) for w in group}
        classes[min(orbit)] = len(orbit)
    return [(p, classes[p]) for p in sorted(classes)]


def scan_orbit_normal_form(rd, tau, lam):
    """(representative, sign) by box-reducing every Weyl image of lam;
    (None, 0) when two images meet with opposite signs."""
    candidates = {}
    for w in weyl_group_elements(rd):
        reduced, pi = box_reduce(tau, w.apply(lam))
        s = w.determinant * tau.translation_sign(pi)
        prev = candidates.setdefault(reduced, s)
        if prev != s:
            return None, 0
    rep = min(candidates)
    return rep, candidates[rep]


def scan_zero_criterion_discrepancies(rd, tau):
    """The discrepancy list by visiting every coset of b: freeness by the
    Fraction stabilizer scan, survival and the orbit key by the W scan."""
    out = {}
    for lam in matrix_coset_representatives(tau.b):
        rep, _ = scan_orbit_normal_form(rd, tau, lam)
        free = fraction_is_free(rd, tau, lam)
        if (rep is None) == free:
            key = rep if rep is not None else \
                min(box_reduce(tau, w.apply(lam))[0] for w in weyl_group_elements(rd))
            out[key] = {"orbit": list(key), "free": free, "survives": rep is not None}
    return [out[k] for k in sorted(out)]


def scan_label(rd, tau, point):
    """(label, g, sign): the lexicographically least box point of the orbit
    of point, the element g (first in the order of weyl_group_elements)
    taking point there, and g's sign."""
    best = None
    for w in weyl_group_elements(rd):
        reduced, pi = box_reduce(tau, w.apply(point))
        if best is None or reduced < best[0]:
            best = (reduced, AffineElement(pi, w))
    return best[0], best[1], sign_character(tau, best[1])


def scan_basis_orbits(rd, tau):
    reps = {scan_orbit_normal_form(rd, tau, lam)[0] for lam in matrix_coset_representatives(tau.b)}
    return sorted(reps - {None})


def brauer_klimyk_product(ring, a, b):
    """The product by tensor decomposition of the transversal weights, then
    the shifted orbit reduction of each summand."""
    out = {}
    for nu, mult in tensor_decompose(ring.rd, ring.transversal[a], ring.transversal[b]).items():
        for k, v in class_from_weight(ring, nu).support.items():
            out[k] = out.get(k, 0) + mult * v
    return KClass(out)


def convolution_module_action(ring, combo, kc):
    """The representation-ring action by convolution with the full weight
    system: one orbit normal form per (weight, orbit point) pair."""
    out = {}
    for lam, c in sorted(combo.items()):
        if not c:
            continue
        for nu, m in weight_multiplicities(ring.rd, lam).items():
            for rep, k in kc.items():
                red = orbit_normal_form(ring.tau, vec_add(rep, nu))
                if not red.is_zero:
                    out[red.representative] = out.get(red.representative, 0) + red.sign * c * m * k
    return KClass(out)


def fraction_transversal_weight(ring, rep):
    rd, tau = ring.rd, ring.tau
    best = None
    for w in weyl_group_elements(rd):
        for pi in product(range(-3, 4), repeat=rd.rank):
            nu = vec_add(w.apply(rep), tau.b.apply(pi))
            lam = vec_sub(nu, ring.rho_tilde)
            if rd.is_dominant(lam):
                key = (sum(abs(c) for c in fraction_b_inverse(tau, nu)), nu)
                if best is None or key < best[0]:
                    best = (key, lam)
    return best[1]


@lru_cache(maxsize=None)
def residue_bound(m):
    """The largest |coefficient| of x^j mod Phi_m over 0 <= j < m.

    A polynomial with coefficient 1-norm L has residue mod Phi_m bounded by
    L * residue_bound(m) in every coefficient."""
    phi = cyclotomic_polynomial(m)
    residue = [1] + [0] * (len(phi) - 2)     # x^0 mod Phi_m
    bound = 1
    for _ in range(m):
        top = residue[-1]                     # multiply by x, then reduce
        residue = [lower - top * p for lower, p in zip([0] + residue[:-1], phi)]
        bound = max(bound, *map(abs, residue))
    return bound


class CyclotomicPacking:
    """Kronecker packing of vectors of elements of Z[zeta_m] into one Python
    integer each.

    The coefficient of zeta_m^k in component c sits in a signed slot of
    `bits` bits at bit bits * (c + slots * k).  reduce() takes the residue
    mod Phi_m of every component at once, as the balanced remainder mod
    Phi_m(2**(slots * bits)).  Results are exact while each residue
    coefficient stays below `bound`; slots keep two spare bits above it."""

    def __init__(self, order, slots, bound):
        phi = cyclotomic_polynomial(order)
        # Phi_m(2**chunk) > 3/4 * 2**(chunk * deg) needs sum |p_i| < 2**bits / 4
        bound = max(bound, sum(map(abs, phi)))
        self.order = order
        self.bits = 8 * ((bound.bit_length() + 1) // 8 + 1)
        self.chunk = slots * self.bits           # one power of zeta_m
        self.modulus = sum(p << (self.chunk * k) for k, p in enumerate(phi))

    def pack(self, bins, slot=0):
        """sum_k bins[k] zeta_m^k, in component `slot`."""
        return sum(v << (self.chunk * k + self.bits * slot)
                   for k, v in enumerate(bins) if v)

    def reduce(self, value):
        """The packed residue mod Phi_m of every component."""
        span = self.chunk * self.order
        while value >> span not in (0, -1):      # zeta_m^m = 1
            value = (value & ((1 << span) - 1)) + (value >> span)
        r = value % self.modulus
        return r - self.modulus if 2 * r > self.modulus else r

    def integers(self, value):
        """The rational integer in each component of a reduced value, or
        None when some component is not a rational integer."""
        if value >> (self.chunk - 1) not in (0, -1):
            return None
        bits = self.bits
        half = 1 << (bits - 1)
        offset = half * (((1 << self.chunk) - 1) // ((1 << bits) - 1))
        raw = (value + offset).to_bytes(self.chunk // 8, "little")
        step = bits // 8
        return [int.from_bytes(raw[i:i + step], "little") - half
                for i in range(0, len(raw), step)]


def weyl_density(rd, y, m):
    """|Delta(x)|^2 = prod over positive roots of (2 - e^alpha - e^-alpha) at
    the torus point x = y/m, as bins modulo z^m - 1."""
    bins = [1] + [0] * (m - 1)
    for alpha in rd.positive_roots():
        e = dot(alpha, y) % m
        nxt = [2 * c for c in bins]
        for k, c in enumerate(bins):
            if c:
                nxt[(k + e) % m] -= c
                nxt[(k - e) % m] -= c
        bins = nxt
    return bins


@lru_cache(maxsize=None)
def packed_character_sums(ring):
    """(gram, sums): the exact integers sum_x d(x) chi_a conj(chi_c) and
    S_ab^c = sum_x d(x) chi_a chi_b conj(chi_c) over the Verlinde classes,
    with sums[a][b] for a <= b, by Kronecker-packed products in Z[zeta_m]
    reduced mod Phi_m; slots sized from a-priori 1-norm bounds."""
    rd, n = ring.rd, len(ring.basis)
    m, ys = ring.tau.verlinde_lifts()
    systems = [weight_multiplicities(rd, lam) for lam in ring.transversal]
    chars = []
    for system in systems:
        row = []
        for y in ys:
            bins = [0] * m
            for nu, mult in system.items():
                bins[dot(nu, y) % m] += mult
            row.append(bins)
        chars.append(row)
    density = [weyl_density(rd, y, m) for y in ys]
    # |coefficient| bounds follow the 1-norms through the three products: a
    # residue mod Phi_m has 1-norm <= deg * nu * the 1-norm it reduces
    deg, nu = len(cyclotomic_polynomial(m)) - 1, residue_bound(m)
    dim = max(sum(system.values()) for system in systems)
    dnorm = max(sum(map(abs, d)) for d in density)
    order = ring.tau.order_F()
    packing = CyclotomicPacking(m, n, max(order, nu * n * dim ** 3 * dnorm * (deg * nu) ** 2))
    pack, reduce = packing.pack, packing.reduce
    chi = [[pack(bins) for bins in row] for row in chars]           # chi[a][j]
    weighted = []                        # d(x_j) conj(chi_c(x_j)), every c
    for j in range(n):
        conj = sum(pack([chars[c][j][-k] for k in range(m)], c) for c in range(n))
        weighted.append(reduce(pack(density[j]) * conj))
    half = [[reduce(p * w) for p, w in zip(row, weighted)] for row in chi]  # chi_a d conj(chi_c)
    gram = [packing.integers(reduce(sum(half[a]))) for a in range(n)]
    sums = [[None] * n for _ in range(n)]
    for a in range(n):
        for b in range(a, n):
            sums[a][b] = packing.integers(reduce(sum(p * q for p, q in zip(chi[b], half[a]))))
    return gram, sums


def packed_structure_constants(ring):
    """N_ab^c = S_ab^c / |F| from the packed sums, after the Gram identity;
    None where a check fails."""
    n, order = len(ring.basis), ring.tau.order_F()
    gram, sums = packed_character_sums(ring)
    if gram != [[order if c == a else 0 for c in range(n)] for a in range(n)]:
        return None
    out = [[None] * n for _ in range(n)]
    for a in range(n):
        for b in range(a, n):
            row = sums[a][b]
            if row is None or any(v % order for v in row):
                return None
            out[a][b] = out[b][a] = tuple(v // order for v in row)
    return out


def test_grid_has_negative_determinants():
    dets = [tau.det_b for _, _, tau in grid_twistings()]
    assert -24 in dets and -6 in dets


def test_box_reduce_matches_fraction_oracle():
    rng = random.Random(5)
    for name, rd, tau in grid_twistings():
        for _ in range(60):
            lam = tuple(rng.randint(-40, 40) for _ in range(rd.rank))
            assert box_reduce(tau, lam) == fraction_box_reduce(tau, lam), (name, lam)


def test_integrality_test_matches_fraction_oracle():
    rng = random.Random(6)
    for name, rd, tau in grid_twistings():
        for _ in range(60):
            # half the samples lie in b(coweights), where b^-1 is integral
            pi = tuple(rng.randint(-5, 5) for _ in range(rd.rank))
            vec = tau.apply_b(pi) if rng.random() < 0.5 else \
                tuple(rng.randint(-40, 40) for _ in range(rd.rank))
            x = fraction_b_inverse(tau, vec)
            assert tau.floor_b_inverse(vec) == [c.numerator // c.denominator for c in x], \
                (name, vec)


def test_stabilizers_match_fraction_oracle():
    # the root test at b^-1 lam against the Fraction scan over W, on every coset
    for name, rd, tau in grid_twistings(GRID + WALK_EXTRA + F_EPSILON_EXTRA):
        for lam in matrix_coset_representatives(tau.b):
            lam = tuple(lam)
            assert rd.is_regular(tau.adj_apply(lam), tau.det_b) == \
                fraction_is_free(rd, tau, lam), (name, lam)


def test_zero_criterion_discrepancies_match_coset_scan_oracle():
    flagged = 0
    for name, rd, tau in grid_twistings(GRID + WALK_EXTRA + F_EPSILON_EXTRA):
        got = zero_criterion_discrepancies(tau)
        assert got == scan_zero_criterion_discrepancies(rd, tau), (name, tau.eps)
        flagged += len(got)
    assert flagged                 # the graded cases flag some orbits


def refuse_weyl_enumeration(monkeypatch):
    """Make weyl_group_elements raise in every vkt namespace that binds it."""
    def refuse(*args, **kwargs):
        raise AssertionError("weyl_group_elements was called")

    for module in list(sys.modules.values()):
        if module.__name__.split(".")[0] == "vkt" and hasattr(module, "weyl_group_elements"):
            monkeypatch.setattr(module, "weyl_group_elements", refuse)
    with pytest.raises(AssertionError):
        vkt.rootdata.weyl_group_elements(root_datum_from_spec("SU(2)"))


def test_regularity_needs_no_weyl_enumeration(monkeypatch):
    # the Verlinde classes, the regular part of F_eps, the regular pairing
    # kernel and the discrepancy list come from the root test, the simple
    # reflections and the alcove points
    def outputs(rd, tau):
        return (verlinde_classes(tau), tau.f_epsilon(regular_only=True),
                vkt.fusion._pairing_kernel(tau, True),
                zero_criterion_discrepancies(tau))

    grid = GRID + WALK_EXTRA + F_EPSILON_EXTRA
    want = [outputs(rd, tau) for _, rd, tau in grid_twistings(grid)]
    refuse_weyl_enumeration(monkeypatch)
    for (name, rd, tau), expected in zip(grid_twistings(grid), want):
        assert outputs(rd, tau) == expected, name


def test_ring_build_needs_no_weyl_enumeration(monkeypatch):
    # the basis, transversal, signs, products, shifted reductions and
    # discrepancy list read alcove points only: no orbit label needs W
    def outputs(rd, tau):
        ring = FusionRing(rd, tau)
        table = ring.structure_constants() if tau.is_primitive() else None
        classes = [class_from_weight(ring, lam) for lam in dominant_weights_up_to(rd, 3)]
        return (ring.basis, ring.transversal, ring.signs, ring.unit_index, table, classes,
                zero_criterion_discrepancies(tau))

    grid = GRID + WALK_EXTRA
    want = [outputs(rd, tau) for _, rd, tau in grid_twistings(grid)]
    refuse_weyl_enumeration(monkeypatch)
    for (name, rd, tau), expected in zip(grid_twistings(grid), want):
        assert outputs(rd, tau) == expected, (name, tau.eps)


def test_reductions_and_checks_need_no_weyl_enumeration(monkeypatch):
    # orbit reductions carry only their point and sign, so everything built
    # on them, and every check but orbit_constancy and stabilizer_reflections
    # (which draw independent group elements), runs with W refused
    def outputs(rd, tau):
        rng = random.Random(21)
        weights = [tuple(lam) for lam in tau.cosets()]
        weights += [tuple(rng.randint(-30, 30) for _ in range(rd.rank)) for _ in range(20)]
        reductions = [(red.representative, red.sign, red.is_zero)
                      for red in (orbit_normal_form(tau, lam) for lam in weights)]
        ring = FusionRing(rd, tau)
        classes = [ring.class_from_index(i) for i in range(len(ring.basis))]
        actions = [module_action(ring, {lam: 1}, kc)
                   for lam in dominant_weights_up_to(rd, 2) for kc in classes]
        values = [[equivariant_function(tau, kc)(lam) for lam in weights] for kc in classes]
        matrix = mult_by_U_matrix(ring) if ring.basis else None
        pushed = [torus_pushforward(tau, lam) for lam in weights] if rd.is_torus() else None
        checks = [check_double_count(ring), check_f_epsilon(ring), check_cyclic_generator(ring),
                  check_annihilation(ring), check_oracle_equivalence(ring),
                  check_algebra_axioms(ring), check_delta_identity(ring),
                  check_grading_flags(ring)]
        return reductions, actions, values, matrix, pushed, checks

    # |F| <= 64 keeps the graded, torus and negative-level twistings and
    # leaves out the slowest rings
    def small():
        return [case for case in grid_twistings(GRID + WALK_EXTRA) if case[2].order_F() <= 64]

    want = [outputs(rd, tau) for _, rd, tau in small()]
    refuse_weyl_enumeration(monkeypatch)
    for (name, rd, tau), expected in zip(small(), want):
        assert outputs(rd, tau) == expected, (name, tau.eps)


def test_f_epsilon_matches_snf_oracle():
    for name, rd, tau in grid_twistings(GRID + F_EPSILON_EXTRA):
        want = fraction_f_epsilon_points(rd, tau)
        m = _order(want)
        assert tau.f_epsilon() == (m, [tuple(int(c * m) for c in x) for x in want]), name
        assert f_epsilon_points(tau) == want, name
        # the regular subset keeps the order of the whole of F_eps
        regular = fraction_regular_points(rd, tau)
        assert tau.f_epsilon(regular_only=True) == \
            (m, [tuple(int(c * m) for c in x) for x in regular]), name
        # the class lifts sit at the order of the class points alone
        classes = [x for x, _ in fraction_verlinde_classes(rd, tau, regular)]
        order = _order(classes)
        assert tau.verlinde_lifts() == (order, [tuple(int(c * order) for c in x) for x in classes])


def per_coset_f_epsilon(tau):
    """(m, lifts) of F_eps with one adjugate product per coset: the lift
    sgn(det b) adj(b)(eps + 2 lam) mod 2|det b| of each coset lam of
    tau.cosets(), divided by the gcd of every coordinate with 2|det b|."""
    top = 2 * tau.order_F()
    sign = 1 if tau.det_b > 0 else -1
    raw = {tuple(sign * c % top for c in tau.adj_apply([e + 2 * x for e, x in zip(tau.eps, lam)]))
           for lam in tau.cosets()}
    assert len(raw) == tau.order_F()
    g = gcd(top, *(c for y in raw for c in y))
    return top // g, sorted(tuple(c // g for c in y) for y in raw)


# both signs of det b, graded and ungraded, ranks 1-4 and a datum given by
# its roots; F4 at loop level 1 has |F| = 40 000
F_EPSILON_BOX = [
    ("SU(2)", (4,), None, (1,)),
    ("SU(2) x U(1)", (3,), [[4]], (0, 1)),
    ("SU(2) x U(1)", (3,), [[-4]], (0, 1)),
    ("U(1)", (), [[6]], (1,)),
    ("U(1)", (), [[-6]], (1,)),
    ("U(1)^2", (), [[2, 1], [1, 2]], None),
    ("U(1)^2", (), [[2, 1], [1, 2]], (1, 0)),
    ("U(1)^2", (), [[2, -1], [-1, 2]], None),
    ("U(1)^2", (), [[2, -1], [-1, 2]], (1, 0)),
    ("SU(3)", (5,), None, None),
    ("Spin(7)", (6,), None, None),
    ("SU(4)", (8,), None, None),
    ("F4", (10,), None, None),
    ("U(2)", None, [[3, 1], [1, 3]], None),
]


def test_f_epsilon_from_the_smith_box_matches_the_per_coset_build():
    signs = set()
    for name, rd, tau in grid_twistings(F_EPSILON_BOX):
        signs.add(tau.det_b > 0)
        assert tau.f_epsilon() == per_coset_f_epsilon(tau), (name, tau.b, tau.eps)
    assert signs == {True, False}


def test_orbit_normal_form_matches_scan_oracle():
    rng = random.Random(9)
    for name, rd, tau in grid_twistings(GRID + WALK_EXTRA):
        weights = [tuple(lam) for lam in matrix_coset_representatives(tau.b)]
        weights += [tuple(rng.randint(-30, 30) for _ in range(rd.rank)) for _ in range(40)]
        for lam in weights:
            red = orbit_normal_form(tau, lam)
            rep, sign = scan_orbit_normal_form(rd, tau, lam)
            assert red.is_zero == (rep is None), (name, tau.eps, lam)
            if not red.is_zero:
                # the scan's representative is the old label of the alcove
                # point, and its sign carries the sign of the element g
                # taking the point there
                label, _, s = scan_label(rd, tau, red.representative)
                assert (label, sign) == (rep, red.sign * s), (name, tau.eps, lam)


def test_basis_matches_scan_oracle():
    # the old labels map the basis one-to-one onto the scan's basis
    for name, rd, tau in grid_twistings(GRID + WALK_EXTRA):
        labels = [scan_label(rd, tau, point)[0] for point in enumerate_basis_orbits(tau)]
        assert len(set(labels)) == len(labels), (name, tau.eps)
        assert sorted(labels) == scan_basis_orbits(rd, tau), (name, tau.eps)


def test_basis_labels_are_surviving_alcove_points():
    # each label is the surviving closed-alcove point its orbit's walk ends
    # on; primitive rings have no basis sign -1, some graded and U(2) ones
    # keep one
    simply_connected = negative = 0
    for name, rd, tau in grid_twistings(GRID + WALK_EXTRA + PRODUCT_EXTRA):
        alc = alcove(tau)
        ring = FusionRing(rd, tau)
        for point in ring.basis:
            assert all(dot(point, cv) >= 0 for cv in rd.simple_coroots), (name, point)
            for f in rd.factors:
                theta, cotheta = f.highest_root
                level2 = dot(tau.apply_b(cotheta), cotheta)           # 2 l_theta
                assert 2 * dot(point, cotheta) <= abs(level2), (name, point)
            # the free coordinates (row . point) / det b lie in [0, 1)
            assert all(dot(row, point) // tau.det_b == 0 for row in alc.free_rows), (name, point)
            assert not wall_scan_is_zero(alc, point), (name, point)
            red = orbit_normal_form(tau, point)
            assert (red.representative, red.sign) == (point, 1), (name, point)
        if rd.split_form and not rd.torus_indices:
            assert ring.basis == tuple(vec_add(lam, rd.rho_tilde) for lam in ring.transversal)
            assert list(ring.transversal) == sorted(ring.transversal), name
            simply_connected += 1
        if tau.is_primitive():
            assert set(ring.signs) <= {1}, name
        negative += -1 in ring.signs
    assert simply_connected == 24 and negative == 6


def test_verlinde_ideal_member_matches_fraction_oracle():
    for name, rd, tau in grid_twistings():
        ring = FusionRing(rd, tau)
        points = [x for x, _ in fraction_verlinde_classes(rd, tau)]
        weights = annihilation_window(rd, tau)
        for lam in weights:
            want = fraction_ideal_member(rd, points, {lam: 1})
            assert verlinde_ideal_member(ring, {lam: 1}) == want, (name, lam)
        # a virtual character: the difference of the first two weights
        combo = {weights[0]: 1, weights[1]: -1}
        assert verlinde_ideal_member(ring, combo) == fraction_ideal_member(rd, points, combo), name


# every verify job of the benchmark beyond GRID (SU(3) 5 by its Cartan
# matrix, Sp(2) 4, SU(2) x U(1) 3 with [[4]] and eps = (0, 1), U(1) with [[6]]),
# G2 at loop levels 1 and 2 in both simple-root orders, and U(2)-style data,
# where rho is not a weight
IDEAL_EXTRA = [
    ("A2", (5,), None, None),
    ("Sp(2)", (4,), None, None),
    ("SU(2) x U(1)", (3,), [[4]], (0, 1)),
    ("U(1)", (), [[6]], (1,)),
    ("G2", (5,), None, None),
    ("G2", (6,), None, None),
    ("G2 swapped", (5,), None, None),
    ("G2 swapped", (6,), None, None),
    ("U(2)", None, [[3, 1], [1, 3]], None),
    ("U(2)", None, [[3, -1], [-1, 3]], None),
]


def test_verlinde_ideal_member_matches_weight_system_oracle():
    rng = random.Random(14)
    cancelled = 0
    for name, rd, tau in grid_twistings(GRID + IDEAL_EXTRA):
        ring = FusionRing(rd, tau)
        weights = annihilation_window(rd, tau)
        member = {}
        for lam in weights:
            member[lam] = weight_system_ideal_member(ring, {lam: 1})
            assert verlinde_ideal_member(ring, {lam: 1}) == member[lam], (name, tau.b, lam)
        # seeded virtual combinations
        for _ in range(12):
            combo = {lam: rng.choice((-2, -1, 1, 2)) for lam in rng.sample(weights, 3)}
            assert verlinde_ideal_member(ring, combo) == \
                weight_system_ideal_member(ring, combo), (name, tau.b, combo)
        # pairs whose reductions cancel: in the ideal while neither term is
        by_class = {}
        for lam in weights:
            kc = class_from_weight(ring, lam)
            if not kc.is_zero():
                by_class.setdefault(tuple(kc.items()), []).append(lam)
        for key, lams in sorted(by_class.items()):
            negated = tuple((rep, -c) for rep, c in key)
            for mu in by_class.get(negated, [])[:1]:
                combo = {lams[0]: 1, mu: 1}
                got = verlinde_ideal_member(ring, combo)
                assert got == weight_system_ideal_member(ring, combo), (name, tau.b, combo)
                cancelled += got and not member[lams[0]] and not member[mu]
    assert cancelled > 50
    # SU(2) twist 5 (loop level 3): chi_5 = -chi_3 at the classes
    rd = root_datum_from_spec("SU(2)")
    ring = FusionRing(rd, twisting_from_level(rd, (5,)))
    assert verlinde_ideal_member(ring, {(5,): 1, (3,): 1})
    assert not verlinde_ideal_member(ring, {(5,): 1}) and not verlinde_ideal_member(ring, {(3,): 1})
    assert verlinde_ideal_member(ring, {(4,): 1}) and verlinde_ideal_member(ring, {})


def test_verlinde_ideal_member_matches_weight_system_oracle_on_f4():
    # F4 loop level 1 (|W| = 1152): 70 window weights of up to 68 305 weights each
    rd = RootDatum.from_cartan(CARTAN["F4"])
    ring = FusionRing(rd, twisting_from_level(rd, shift_by_dual_coxeter(rd, (1,))))
    weights = annihilation_window(rd, ring.tau)
    assert len(weights) == 70
    got = [verlinde_ideal_member(ring, {lam: 1}) for lam in weights]
    assert got == [weight_system_ideal_member(ring, {lam: 1}) for lam in weights]
    assert sum(got) == 56


def test_ideal_test_refuses_what_the_oracle_refuses():
    for name, rd, tau in grid_twistings([("SU(2) x U(1)", (3,), [[4]], None),
                                         ("SU(3)", (5,), None, None),
                                         ("U(2)", None, [[3, 1], [1, 3]], None)]):
        ring = FusionRing(rd, tau)
        for lam in [(-1,) + (0,) * (rd.rank - 1), (Fraction(1, 2),) * rd.rank,
                    (1,) * (rd.rank + 1)]:
            messages = []
            for test in (verlinde_ideal_member, weight_system_ideal_member):
                with pytest.raises(ValueError) as err:
                    test(ring, {lam: 1})
                messages.append(str(err.value))
            assert messages[0] == messages[1], (name, lam)


def test_ideal_test_builds_no_weight_system(monkeypatch):
    cases = [("SU(3)", (5,), None, None), ("Spin(5)", (4,), None, None),
             ("G2 swapped", (6,), None, None), ("SU(2) x U(1)", (3,), [[-4]], (0, 1)),
             ("U(2)", None, [[3, -1], [-1, 3]], None)]
    want = []
    for _, rd, tau in grid_twistings(cases):
        ring = FusionRing(rd, tau)
        want.append([weight_system_ideal_member(ring, {lam: 1})
                     for lam in annihilation_window(rd, tau)])

    def refuse(*args, **kwargs):
        raise AssertionError("a weight system was built")

    for module in (vkt.rootdata, vkt.fusion):
        monkeypatch.setattr(module, "_weight_system", refuse)
    monkeypatch.setattr(vkt.rootdata, "weight_multiplicities", refuse)
    # fresh data: no cached weight system to fall back on
    for (name, rd, tau), expected in zip(grid_twistings(cases), want):
        ring = FusionRing(rd, tau)
        got = [verlinde_ideal_member(ring, {lam: 1}) for lam in annihilation_window(rd, tau)]
        assert got == expected, name
        assert not rd._weight_system_cache, name


def test_check_annihilation_builds_weight_systems_for_its_first_three_generators_only():
    for name, levels in (("SU(3)", (5,)), ("Spin(5)", (4,))):
        rd = root_datum_from_spec(name)
        ring = FusionRing(rd, twisting_from_level(rd, levels))
        assert not rd._weight_system_cache
        result = check_annihilation(ring)
        built = set(rd._weight_system_cache)
        gens = [lam for lam in annihilation_window(rd, ring.tau)
                if weight_system_ideal_member(ring, {lam: 1})]
        assert result["passed"] and result["detail"]["ideal_weights"] == len(gens), name
        # module_action's spot check runs on the first three ideal generators
        assert built == set(gens[:3]) and len(built) == 3, name


def test_module_action_matches_the_convolution_oracle():
    # every ideal weight of check_annihilation's window on every basis
    # element (both sides zero), the window's first weights (not zero) and
    # one virtual combination of them, on the grid
    ideal_weights = 0
    for name, rd, tau in grid_twistings():
        ring = FusionRing(rd, tau)
        window = annihilation_window(rd, tau)
        ideal = [lam for lam in window if verlinde_ideal_member(ring, {lam: 1})]
        ideal_weights += len(ideal)
        combos = [{lam: 1} for lam in ideal + window[:4]] + [{window[1]: 2, window[3]: -3}]
        for i in range(len(ring.basis)):
            kc = ring.class_from_index(i)
            for combo in combos:
                assert module_action(ring, combo, kc) == \
                    convolution_module_action(ring, combo, kc), (name, combo, i)
    assert ideal_weights > 100


def test_verlinde_classes_match_fraction_oracle():
    for name, rd, tau in grid_twistings():
        got = [(vc.point, vc.orbit_size) for vc in verlinde_classes(tau)]
        assert got == fraction_verlinde_classes(rd, tau), name


def test_transversal_weights_match_fraction_oracle():
    for name, rd, tau in grid_twistings(GRID + WALK_EXTRA):
        ring = FusionRing(rd, tau)
        want = tuple(fraction_transversal_weight(ring, rep) for rep in ring.basis)
        assert ring.transversal == want, name


def test_products_match_brauer_klimyk_oracle():
    cases = 0
    for name, rd, tau in grid_twistings(GRID + PRODUCT_EXTRA):
        if not tau.is_primitive():
            continue
        ring = FusionRing(rd, tau)
        n = len(ring.basis)
        for a in range(n):
            for b in range(n):
                assert fusion_product(ring, a, b) == brauer_klimyk_product(ring, a, b), \
                    (name, tau.b.to_rows(), a, b)
        cases += 1
    assert cases == 25


def test_products_need_no_tensor_decomposition(monkeypatch):
    cases = [("SU(3)", (6,), None, None), ("G2 swapped", (6,), None, None),
             ("SU(2) x U(1)", (3,), [[-4]], None)]
    want = {name: FusionRing(rd, tau).structure_constants()
            for name, rd, tau in grid_twistings(cases)}
    # fresh data, so the weight systems too are built under the patches
    rings = {name: FusionRing(rd, tau) for name, rd, tau in grid_twistings(cases)}

    def boom(*args, **kwargs):
        raise AssertionError("called from the product path")

    for module in (vkt.rootdata, vkt.fusion):
        for attr in ("tensor_decompose", "weyl_dimension"):
            monkeypatch.setattr(module, attr, boom, raising=False)
    # nor the per-summand reduction or weight validation
    monkeypatch.setattr(vkt.fusion, "class_from_weight", boom)
    monkeypatch.setattr(RootDatum, "check_weight", boom)
    for name, ring in rings.items():
        assert ring.structure_constants() == want[name], name


def test_primitivity_is_decided_once_per_table(monkeypatch):
    calls = []
    real = Twisting._detect_levels

    def counting(self):
        calls.append(self)
        return real(self)

    monkeypatch.setattr(Twisting, "_detect_levels", counting)
    with contextlib.redirect_stdout(io.StringIO()):
        assert vkt.cli.main(["table", "--group", "SU(3)", "--twist", "9"]) == 0
    # one scan of b for the whole table, not one per fusion_product call
    assert len(calls) == 1


def test_delta_eval_matches_uncached_oracle():
    # graded forms with det b of either sign, negative levels, non-split U(2)
    # data, Sp(2), G2 and rank 3, against the |F|^2 Fraction sum
    rng = random.Random(8)
    for name, rd, tau in grid_twistings(GRID + WALK_EXTRA + F_EPSILON_EXTRA):
        reps = [tuple(r) for r in matrix_coset_representatives(tau.b)]
        f = {rep: rng.randint(-3, 3) for rep in reps}
        g = tuple(rng.randint(-12, 12) for _ in range(rd.rank))
        for regular_only in (False, True):
            want = fraction_delta_eval(rd, tau, f, g, regular_only)
            assert delta_eval(tau, f, g, regular_only) == want, (name, g, regular_only)


def key_and_sign(tau, v):
    """(key, sign) of the weights mu with adj(b) mu = v: key = v mod |det b|
    names their coset of b(coweights), and mu = mu_key + b(pi) with
    pi = (v - key) / det b, whose translation sign is (-1)^eps(pi)."""
    key = tuple(c % tau.order_F() for c in v)
    return key, tau.translation_sign([(c - k) // tau.det_b for c, k in zip(v, key)])


def quadratic_pairing_kernel(tau, regular_only):
    """{coset key: K(mu_key)}, each K(mu) = sum_y zeta_m^<mu, y> over the F_eps
    lifts reduced mod Phi_m: |F| lifts for each of the |F| cosets."""
    m, lifts = tau.f_epsilon(regular_only)
    kernel = {}
    for lam in tau.cosets():
        key, sign = key_and_sign(tau, tau.adj_apply(lam))
        counts = [0] * m
        for y in lifts:
            counts[dot(lam, y) % m] += 1
        total = CyclotomicInt(m, counts)
        assert total.is_integer(), (lam, total)
        kernel[key] = sign * total.integer_value()
    return kernel


def test_pairing_kernel_matches_the_quadratic_oracle():
    # graded forms with det b of either sign, non-split U(2) data, Sp(2), G2
    # and rank 3: the table read at code(g) + shift - code(mu) is K(g - mu),
    # on every coset of b(coweights) and, with a grading, on its translate by
    # a b(pi) with eps(pi) odd, where K changes sign
    rng = random.Random(15)
    grid = GRID + WALK_EXTRA + F_EPSILON_EXTRA + [("Spin(7)", (6,), None, None)]
    for name, rd, tau in grid_twistings(grid):
        coords = vkt.fusion._pairing_coordinates(tau)
        odd = [int(i == tau.eps.index(1)) for i in range(rd.rank)] if any(tau.eps) else None
        for regular_only in (False, True):
            table = vkt.fusion._pairing_kernel(tau, regular_only)
            assert len(table) == 2 ** len(coords.factors) * coords.size
            oracle = quadratic_pairing_kernel(tau, regular_only)
            for lam in tau.cosets():
                key, sign = key_and_sign(tau, tau.adj_apply(lam))
                mu = tuple(rng.randint(-20, 20) for _ in range(rd.rank))
                g = vec_add(lam, mu)
                assert table[coords.code(g) + coords.shift - coords.code(mu)] == \
                    sign * oracle[key], (name, regular_only, lam)
                if odd:
                    g = vec_add(g, tau.apply_b(odd))
                    assert table[coords.code(g) + coords.shift - coords.code(mu)] == \
                        -sign * oracle[key], (name, regular_only, lam)


def test_pairing_tables_are_cached_per_twisting_and_flag():
    rd = root_datum_from_spec("SU(2)")
    tau = twisting_from_level(rd, (5,))
    full = vkt.fusion._pairing_kernel(tau, False)
    regular = vkt.fusion._pairing_kernel(tau, True)
    assert vkt.fusion._pairing_kernel(tau, False) is full
    assert vkt.fusion._pairing_kernel(tau, True) is regular
    assert [key for key in tau._cache if key[0] == "kernel"] == [("kernel", False),
                                                                  ("kernel", True)]
    # SU(2) twist 5: |F| = 10 for either flag, one Smith factor, so 2 * 10
    # integer entries; at the coset of 0 (index shift) the kernel counts the
    # points, 10 in F_eps and 8 regular
    shift = vkt.fusion._pairing_coordinates(tau).shift
    for kernel in (full, regular):
        assert len(kernel) == 20
        assert all(type(v) is int for v in kernel)
    assert (full[shift], regular[shift]) == (10, 8)
    # an equal twisting is a different object with its own caches
    twin = twisting_from_level(rd, (5,))
    assert not twin._cache
    assert vkt.fusion._pairing_kernel(twin, False) is not full
    assert vkt.fusion._pairing_kernel(twin, False) == full


def test_over_budget_pairing_kernel_is_refused_up_front(monkeypatch):
    # F4 loop level 1: Smith factors 10, 10, 20, 20, so the DFT takes
    # 40 000 * 60 steps and fills 16 * 40 000 entries; with the budget just
    # under that, refused before any coset or F_eps lift is built
    rd = RootDatum.from_cartan(CARTAN["F4"])
    tau = twisting_from_level(rd, shift_by_dual_coxeter(rd, (1,)))

    def refuse(*args, **kwargs):
        raise AssertionError("cosets or F_eps were built")

    monkeypatch.setattr(Twisting, "f_epsilon", refuse)
    monkeypatch.setattr(Twisting, "cosets", refuse)
    monkeypatch.setattr(vkt.fusion, "MAX_PAIRING_WORK", 3_040_000 - 1)
    for regular_only in (False, True):
        with pytest.raises(GroupTooLarge, match=r"takes 3040000 steps"):
            delta_eval(tau, {(0, 0, 0, 0): 1}, (0, 0, 0, 0), regular_only)
    monkeypatch.undo()
    assert vkt.fusion.MAX_PAIRING_WORK >= 3_040_000
    # the budget is inclusive: SU(3) 5 has factors 5 and 15, 75 * 20 + 4 * 75 steps
    rd = root_datum_from_spec("SU(3)")
    monkeypatch.setattr(vkt.fusion, "MAX_PAIRING_WORK", 1800)
    assert delta_eval(twisting_from_level(rd, (5,)), {(0, 0): 1}, (0, 0)) == 1
    monkeypatch.setattr(vkt.fusion, "MAX_PAIRING_WORK", 1799)
    with pytest.raises(GroupTooLarge):
        delta_eval(twisting_from_level(rd, (5,)), {(0, 0): 1}, (0, 0))


class CountingTable(list):
    """A pairing table that records the index of every read."""

    def __init__(self, table, reads):
        super().__init__(table)
        self.reads = reads

    def __getitem__(self, i):
        self.reads.append(i)
        return list.__getitem__(self, i)


def counting_codes(monkeypatch):
    """Record every weight the pairing coordinates name a code for."""
    named = []
    real = vkt.fusion._PairingCoordinates.code

    def code(self, mu):
        named.append(tuple(mu))
        return real(self, mu)

    monkeypatch.setattr(vkt.fusion._PairingCoordinates, "code", code)
    return named


def test_delta_eval_reads_one_entry_per_coset(monkeypatch):
    # a CosetValues names its weights once: each delta call names one code,
    # that of g, and indexes the table once per coset; delta_eval, which
    # names its keys afresh, reads the same entries
    rd = root_datum_from_spec("SU(3)")
    tau = twisting_from_level(rd, (5,))
    reps = [tuple(lam) for lam in tau.cosets()]
    values = [1] * len(reps)
    named = counting_codes(monkeypatch)
    cosets = CosetValues(tau, reps)
    assert len(named) == len(reps)
    first = cosets.delta(values, (1, 2))
    reads = []
    tau._cache[("kernel", False)] = CountingTable(tau._cache[("kernel", False)], reads)
    for _ in range(2):
        named.clear()
        reads.clear()
        assert cosets.delta(values, (1, 2)) == first
        assert named == [(1, 2)] and len(reads) == tau.order_F()
    reads.clear()
    assert delta_eval(tau, dict(zip(reps, values)), (1, 2)) == first
    assert len(reads) == tau.order_F()


def test_tables_build_no_pairing_cache():
    rd = root_datum_from_spec("SU(3)")
    tau = twisting_from_level(rd, (5,))
    FusionRing(rd, tau).structure_constants()
    # only the alcove walls, the basis points, the levels and the primitivity
    # flag: no pairing kernel, F_eps or cosets
    assert set(tau._cache) == {"alcove", "basis", "levels", "primitive"}


def test_delta_identity_pairs_only_the_equivariant_data(monkeypatch):
    # the identity for all data is tested exactly, by the kernel's closed
    # form and the coset naming, with no random data: the check pairs the
    # first min(n, 4) basis elements' data alone, at 8 g each, in full and
    # over the Weyl-regular part
    calls = []

    class Spy(CosetValues):
        def delta(self, values, g, regular_only=False):
            calls.append(regular_only)
            return super().delta(values, g, regular_only)

    monkeypatch.setattr(vkt.checks, "CosetValues", Spy)
    for name, levels in [("SU(2)", (1,)), ("SU(3)", (5,)), ("Spin(5)", (4,))]:
        rd = root_datum_from_spec(name)
        ring = FusionRing(rd, twisting_from_level(rd, levels))
        calls.clear()
        assert check_delta_identity(ring)["passed"], name
        n = len(ring.basis)
        assert len(calls) == 2 * 8 * min(n, 4), name
        assert calls.count(True) == 8 * min(n, 4), name


def test_cosets_are_built_once_per_verify(monkeypatch):
    # the Smith box is enumerated once for the coset list, which only the
    # delta check names, and once for F_eps, which both pairing kernels, the
    # regular part and the classes read; table, classes and the character
    # route never build the coset list.  Patched wherever a vkt module binds
    # the enumerator; the twistings' cache keys are recorded
    calls, keys = [], []
    real, cached = vkt.zlattice.coset_representatives, Twisting.cached

    def counting(*args):
        calls.append(args)
        return real(*args)

    def recording(tau, key, build):
        keys.append(key)
        return cached(tau, key, build)

    for module in vars(vkt).values():
        if getattr(module, "coset_representatives", None) is real:
            monkeypatch.setattr(module, "coset_representatives", counting)
    monkeypatch.setattr(Twisting, "cached", recording)
    graded = ["--group", "SU(2) x U(1)", "--twist", "3", "--torus", "[[4]]", "--epsilon", "0,1"]
    for argv, boxes in ((["verify", "--group", "SU(3)", "--twist", "5"], 2),
                        (["verify"] + graded, 2),
                        (["classes", "--group", "SU(3)", "--twist", "5"], 1),
                        (["classes"] + graded, 1),
                        (["table", "--group", "SU(3)", "--twist", "5"], 0)):
        calls.clear()
        keys.clear()
        with contextlib.redirect_stdout(io.StringIO()):
            assert vkt.cli.main(argv) == 0
        assert len(calls) == boxes, argv
        assert ("cosets" in keys) == (argv[0] == "verify"), argv
    rd = root_datum_from_spec("SU(3)")
    ring = FusionRing(rd, twisting_from_level(rd, (5,)))
    calls.clear()
    keys.clear()
    structure_constants_via_characters(ring)
    assert len(calls) == 1 and "f_epsilon" in keys and "cosets" not in keys


def bench_twistings(routes=("table", "characters", "verify")):
    """The twisting of every job the benchmark can pick on the given routes,
    built the way its workloads build them."""
    path = Path(__file__).resolve().parent.parent / "bench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("bench_workloads", path)
    workloads = sys.modules[spec.name] = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    jobs = {job.input_label: job for name in workloads.WORKLOADS
            for job in workloads.all_jobs(name) if job.route in routes}
    for label, job in sorted(jobs.items()):
        ring = workloads.build_ring(job)
        yield label, ring.rd, ring.tau


def test_verify_enumerates_no_weyl_group(monkeypatch):
    # orbit_constancy draws words in the simple reflections: every check
    # runs with weyl_group_elements refusing, on the acceptance grid and
    # every verify input of the benchmark
    refuse_weyl_enumeration(monkeypatch)
    for name, rd, tau in list(grid_twistings()) + list(bench_twistings(("verify",))):
        checks = run_all_checks(FusionRing(rd, tau))
        assert [c["name"] for c in checks if not c["passed"]] == [], name
        assert rd._weyl_cache is None, name


def test_one_smith_form_matches_the_old_readings():
    # adj(b), the cosets, F and the ungraded pairing coordinates, read off the
    # twisting's one Smith normal form, equal the Fraction adjugate, the
    # enumeration by b's own SNF, cokernel_structure(b) and the coordinates of
    # b * I; on every benchmark job, the acceptance grid with its graded and
    # negative-level variants, and G2 and F4 at loop level 1 (F4: |F| = 40 000,
    # so adj(b) and the coordinates only)
    cases = [(name, rd, tau, True) for name, rd, tau in
             grid_twistings(GRID + WALK_EXTRA + F_EPSILON_EXTRA + IDEAL_EXTRA)]
    cases += [(name, rd, tau, True) for name, rd, tau in bench_twistings()]
    cases += [(name, rd, tau, name != "F4") for name, rd, tau in
              grid_twistings([("G2", (5,), None, None), ("G2 swapped", (5,), None, None),
                              ("F4", (10,), None, None)])]
    signs = set()
    for name, rd, tau, small in cases:
        signs.add(tau.det_b > 0)
        assert tau._adj == fraction_adjugate(tau.b), name
        if small:
            assert tau.cosets() == matrix_coset_representatives(tau.b), name
            assert tau.f_group == cokernel_structure(tau.b), name
        if not any(tau.eps):
            old = smith_coordinates(smith_normal_form(tau.b * IntMatrix.identity(rd.rank)))
            coords = vkt.fusion._pairing_coordinates(tau)
            assert (coords.factors, coords.rows, coords.generators) == old, name
    assert signs == {True, False}
    assert len(cases) > 40


def test_check_annihilation_evaluates_each_weight_once(monkeypatch):
    calls = []
    real = vkt.checks.verlinde_ideal_member

    def counting(ring, combo):
        calls.append(tuple(combo))
        return real(ring, combo)

    monkeypatch.setattr(vkt.checks, "verlinde_ideal_member", counting)
    rd = root_datum_from_spec("SU(3)")
    result = check_annihilation(FusionRing(rd, twisting_from_level(rd, (5,))))
    assert result["passed"]
    # search bound 8: 45 dominant weights, each evaluated once (73 calls before)
    assert result["detail"]["bound"] == 8
    assert len(calls) == len(set(calls)) == len(dominant_weights_up_to(rd, 8)) == 45


def test_delta_identity_on_graded_twistings():
    # a nonzero grading gives the translations signs and the kernel its odd
    # class at -|F|, which the exact half must place; criterion 7's grid is
    # ungraded
    for name, levels, torus, eps in [
        ("SU(2) x U(1)", (3,), [[4]], (0, 1)),
        ("SU(2) x U(1)", (3,), [[-4]], (0, 1)),
        ("SU(2)", (4,), None, (1,)),
        ("U(1)", (), [[-6]], (1,)),
    ]:
        rd = root_datum_from_spec(name)
        ring = FusionRing(rd, twisting_from_level(rd, levels, torus_block=torus, eps=eps))
        result = check_delta_identity(ring)
        assert result["passed"], (name, torus, eps, result["detail"])


def test_delta_identity_catches_a_wrong_equivariant_value(monkeypatch):
    # a stand-in that is right on the coset representatives, which feed the
    # pairing, and off by one elsewhere: only the comparison of the full
    # pairing with the value at g can see it
    real = vkt.checks.equivariant_function

    def off_by_one(tau, kc):
        value = real(tau, kc)
        reps = {tuple(rep) for rep in tau.cosets()}
        return lambda lam: value(lam) + (tuple(lam) not in reps)

    monkeypatch.setattr(vkt.checks, "equivariant_function", off_by_one)
    rd = root_datum_from_spec("SU(2)")
    result = check_delta_identity(FusionRing(rd, twisting_from_level(rd, (5,))))
    assert not result["passed"]
    assert result["detail"]["failures"]


def test_delta_identity_data_equal_the_function_at_each_coset_representative(monkeypatch):
    # the check reads each basis element's data off the W-orbit of its basis
    # point: the weights it pairs must be the |W| points of that orbit and
    # its data fn at each of them, and the data it hands delta_eval fn at
    # the box points, zeros left out
    passed, sparse = [], []

    class Spy(CosetValues):
        def __init__(self, tau, weights):
            super().__init__(tau, weights)
            self.weights = list(weights)

        def delta(self, values, g, regular_only=False):
            if not any(values is seen for _, seen in passed):
                passed.append((self.weights, values))
            return super().delta(values, g, regular_only)

    def spy_eval(tau, f, g, regular_only=False):
        sparse.append(f)
        return delta_eval(tau, f, g, regular_only)

    monkeypatch.setattr(vkt.checks, "CosetValues", Spy)
    monkeypatch.setattr(vkt.checks, "delta_eval", spy_eval)
    # GRID holds the acceptance grid
    for name, rd, tau in grid_twistings(GRID + WALK_EXTRA + F_EPSILON_EXTRA):
        ring = FusionRing(rd, tau)
        passed.clear()
        sparse.clear()
        assert check_delta_identity(ring)["passed"], name
        reps = [tuple(rep) for rep in tau.cosets()]
        elements = weyl_group_elements(rd)
        assert len(passed) == len(sparse) == min(len(ring.basis), 4), name
        for i, ((weights, f), box) in enumerate(zip(passed, sparse)):
            fn = equivariant_function(tau, ring.class_from_index(i))
            assert len(weights) == len(elements), (name, i)
            assert set(weights) == {w.apply(ring.basis[i]) for w in elements}, (name, i)
            assert f == [fn(lam) for lam in weights], (name, i)
            points = [box_reduce(tau, rep)[0] for rep in reps]
            assert box == {red: fn(red) for red in points if fn(red)}, (name, i)


def test_delta_identity_walks_only_the_random_weights():
    # the data come from the W tree, so the check's alcove walks are those
    # of the value at its 8 random g per basis element: the reduction memo
    # grows by at most 8 min(n, 4) entries, not by one per box point of the
    # |F| = 432 cosets
    rd = root_datum_from_spec("SU(3)")
    ring = FusionRing(rd, twisting_from_level(rd, (12,)))
    memo = alcove(ring.tau)._reduced
    before = len(memo)
    assert check_delta_identity(ring)["passed"]
    assert len(ring.basis) >= 4 and ring.tau.order_F() == 432
    assert len(memo) - before <= 8 * 4


def test_delta_identity_records_a_zero_orbit_read_as_a_basis_element(monkeypatch):
    # with the affine wall's sign flipped, the point (2,) on it survives in
    # SU(2) 2's basis although its orbit is ZERO: two points of its W-orbit
    # share a coset with values that are not equivariant, and the check
    # records the refusal as its failure instead of letting the ValueError
    # out of verify
    real = vkt.affineweyl.Alcove.__init__

    def flipped(alc, tau):
        real(alc, tau)
        alc.signs[-1] = -alc.signs[-1]

    monkeypatch.setattr(vkt.affineweyl.Alcove, "__init__", flipped)
    rd = root_datum_from_spec("SU(2)")
    ring = FusionRing(rd, twisting_from_level(rd, (2,)))
    assert ring.basis == ((1,), (2,))
    result = check_delta_identity(ring)
    assert not result["passed"]
    assert result["detail"]["failures"] == [
        {"basis": 1, "error": "inconsistent equivariant values on the coset of (-2,)"}]


def test_coset_values_match_the_fraction_oracle_with_repeated_cosets():
    # each coset is named first by a random translate rep + b(pi), with
    # eps(pi) odd and even in turn on a graded twisting, and weights that
    # share a coset, with values equivariant under the translation between
    # them, pair as the oracle pairs them: each coset once, whatever weight
    # carries it
    rng = random.Random(30)
    graded = 0
    for name, rd, tau in grid_twistings(GRID + WALK_EXTRA + F_EPSILON_EXTRA):
        odd = next((i for i, e in enumerate(tau.eps) if e), None)
        graded += odd is not None
        f = {}
        for k, rep in enumerate(matrix_coset_representatives(tau.b)):
            pi = [rng.randint(-2, 2) for _ in range(rd.rank)]
            if odd is not None and tau.translation_sign(pi) != (-1) ** k:
                pi[odd] += 1
            f[vec_add(tuple(rep), tau.apply_b(pi))] = rng.randint(-3, 3)
        for lam in rng.sample(list(f), min(3, len(f))):
            pi = tuple(rng.randint(-2, 2) for _ in range(rd.rank))
            f[vec_add(lam, tau.apply_b(pi))] = tau.translation_sign(pi) * f[lam]
        cosets = CosetValues(tau, list(f))
        g = tuple(rng.randint(-12, 12) for _ in range(rd.rank))
        for regular_only in (False, True):
            want = fraction_delta_eval(rd, tau, f, g, regular_only)
            assert cosets.delta(list(f.values()), g, regular_only) == want, (name, g)
    assert graded == 6


def test_coset_values_refuse_a_values_list_of_the_wrong_length():
    # one value per named weight, checked before any sum: a short list or
    # a long one is refused, not truncated
    rd = root_datum_from_spec("SU(2)")
    tau = twisting_from_level(rd, (4,))
    cosets = CosetValues(tau, [(0,), (1,), (2,)])
    assert cosets.delta([1, 0, 0], (0,)) == delta_eval(tau, {(0,): 1}, (0,))
    for values in ([1], [1, 0, 0, 5, 7], []):
        for regular_only in (False, True):
            with pytest.raises(ValueError, match=f"{len(values)} values for 3 named weights"):
                cosets.delta(values, (0,), regular_only)


def test_coset_values_refuse_inconsistent_values_on_every_call():
    # SU(2) 4 graded: the translation b(1) carries the sign -1, so f and -f
    # agree across it and f and f do not; each call compares again
    rd = root_datum_from_spec("SU(2)")
    tau = twisting_from_level(rd, (4,), eps=(1,))
    far = tau.apply_b((1,))
    assert tau.translation_sign((1,)) == -1
    cosets = CosetValues(tau, [(0,), (1,), far])
    assert cosets.delta([2, 0, -2], (0,)) == delta_eval(tau, {(0,): 2}, (0,))
    for _ in range(2):
        with pytest.raises(ValueError, match="inconsistent equivariant values"):
            cosets.delta([2, 0, 2], (0,))
    assert cosets.delta([1, 3, -1], (1,)) == delta_eval(tau, {(0,): 1, (1,): 3}, (1,))


def _graded_and_ungraded_rings():
    for name, levels, torus, eps in [("SU(3)", (5,), None, None),
                                     ("SU(2) x U(1)", (3,), [[4]], (0, 1))]:
        rd = root_datum_from_spec(name)
        yield name, FusionRing(rd, twisting_from_level(rd, levels, torus_block=torus, eps=eps))


def test_delta_identity_fails_on_a_bumped_kernel_entry():
    # one full-kernel entry off by one breaks the identity for every f with
    # a nonzero value on the matching coset: the kernel's closed form names
    # the entry, whatever the equivariant data see
    for name, ring in _graded_and_ungraded_rings():
        tau = ring.tau
        index = vkt.fusion._pairing_coordinates(tau).shift + 1
        table = list(vkt.fusion._pairing_kernel(tau, False))
        table[index] += 1
        tau._cache[("kernel", False)] = table
        result = check_delta_identity(ring)
        assert not result["passed"], name
        assert {"kernel_index": index, "kernel": table[index], "expected": table[index] - 1} \
            in result["detail"]["failures"], name


def test_delta_identity_fails_on_a_flipped_odd_class():
    # +|F| instead of -|F| at the class of the eps-odd translations, in every
    # doubled copy: the pairing then drops the translation sign (-1)^eps(pi)
    rd = root_datum_from_spec("SU(2) x U(1)")
    ring = FusionRing(rd, twisting_from_level(rd, (3,), torus_block=[[4]], eps=(0, 1)))
    tau, order = ring.tau, ring.tau.order_F()
    table = vkt.fusion._pairing_kernel(tau, False)
    assert table.count(-order) == 2 ** len(vkt.fusion._pairing_coordinates(tau).factors)
    tau._cache[("kernel", False)] = [abs(v) for v in table]
    result = check_delta_identity(ring)
    assert not result["passed"]
    assert [failure["expected"] for failure in result["detail"]["failures"]
            if "kernel_index" in failure] == [-order]


def test_delta_identity_fails_on_a_code_that_moves_the_translations():
    # the last Smith row bumped in its first entry: the codes no longer send
    # each translation b(e_k) to 0 or the odd class, whatever the kernel
    for name, ring in _graded_and_ungraded_rings():
        coords = vkt.fusion._pairing_coordinates(ring.tau)
        last = coords.rows[-1]
        coords.rows = coords.rows[:-1] + ((last[0] + 1,) + tuple(last[1:]),)
        result = check_delta_identity(ring)
        assert not result["passed"], name
        assert any("translation_codes" in failure
                   for failure in result["detail"]["failures"]), name


def test_delta_identity_fails_on_two_representatives_of_one_coset(monkeypatch):
    # the second representative replaced by a translate of the first: the
    # naming records the repeat, and one coset is left unnamed
    for name, ring in _graded_and_ungraded_rings():
        tau = ring.tau
        reps = [tuple(rep) for rep in tau.cosets()]
        reps[1] = vec_add(reps[0], tau.apply_b((1,) + (0,) * (ring.rd.rank - 1)))
        monkeypatch.setattr(tau, "cosets", lambda reps=reps: reps)
        result = check_delta_identity(ring)
        assert not result["passed"], name
        assert {"cosets": len(reps), "repeats": 1, "expected": tau.order_F()} \
            in result["detail"]["failures"], name


# -- the modular character route -----------------------------------------------

def test_residue_bound_is_the_largest_residue_coefficient():
    for m in (1, 2, 3, 4, 6, 9, 12, 15, 30, 105):
        phi = cyclotomic_polynomial(m)
        residues = [poly_divmod_exact((0,) * j + (1,), phi)[1] for j in range(m)]
        assert residue_bound(m) == max(abs(c) for r in residues for c in r), m
    assert residue_bound(105) > 1


def test_cyclotomic_packing_multiplies_every_component():
    rng = random.Random(5)
    for m in (1, 2, 4, 6, 9, 12, 15, 105):
        packing = CyclotomicPacking(m, 3, 10 ** 6)
        a = [rng.randint(-4, 4) for _ in range(m)]
        bs = [[rng.randint(-4, 4) for _ in range(m)] for _ in range(3)]
        got = packing.reduce(packing.pack(a) * sum(packing.pack(b, c) for c, b in enumerate(bs)))
        want = sum(packing.pack((CyclotomicInt(m, a) * CyclotomicInt(m, b)).coeffs, c)
                   for c, b in enumerate(bs))
        assert got == want, m


def test_cyclotomic_packing_reads_rational_integers():
    packing = CyclotomicPacking(6, 2, 100)
    assert packing.integers(packing.reduce(packing.pack([3]) + packing.pack([-5], 1))) == [3, -5]
    # zeta_6 + zeta_6^5 = 1
    assert packing.integers(packing.reduce(packing.pack([0, 1, 0, 0, 0, 1], 1))) == [0, 1]
    assert packing.integers(packing.reduce(packing.pack([0, 1], 1))) is None
    assert packing.integers(packing.reduce(packing.pack([-7, 0, -1]))) is None


def character_twistings():
    for name, rd, tau in grid_twistings(GRID + CHARACTER_EXTRA):
        if tau.is_primitive():
            yield name, rd, tau


@lru_cache(maxsize=None)
def character_rings():
    return tuple((name, FusionRing(rd, tau)) for name, rd, tau in character_twistings())


def test_character_route_matches_packed_oracle():
    rings = character_rings()
    assert len(rings) == 26
    for name, ring in rings:
        want = packed_structure_constants(ring)
        assert want is not None, name
        assert structure_constants_via_characters(ring) == want == ring.structure_constants(), \
            (name, ring.tau.b.to_rows())


def test_character_sums_are_within_the_bound():
    # the oracle's exact Gram values and S_ab^c never exceed B, the bound
    # that sizes the modulus
    for name, ring in character_rings():
        rd, order = ring.rd, ring.tau.order_F()
        gram, sums = packed_character_sums(ring)
        values = [v for row in gram for v in row]
        values += [v for row in sums for cell in row if cell is not None for v in cell]
        systems = [vkt.rootdata._weight_system(rd, lam) for lam in ring.transversal]
        bound = vkt.fusion._sum_bound(rd, systems, order)
        assert max(map(abs, values)) <= bound and order <= bound, name


def test_character_route_builds_no_cyclotomic_int(monkeypatch):
    want = [ring.structure_constants() for _, ring in character_rings()]
    # fresh rings, so the class lifts too are built under the patch
    fresh = [FusionRing(rd, tau) for _, rd, tau in character_twistings()]

    def refuse(self, *args):
        raise AssertionError("the character route built a CyclotomicInt")

    monkeypatch.setattr(vkt.cyclo.CyclotomicInt, "__init__", refuse)
    with pytest.raises(AssertionError):
        CyclotomicInt(4, (1,))
    for ring, table in zip(fresh, want):
        assert structure_constants_via_characters(ring) == table


def test_galois_guard_rejects_a_non_regular_class(monkeypatch):
    rd = root_datum_from_spec("SU(3)")
    tau = twisting_from_level(rd, (5,))
    ring = FusionRing(rd, tau)
    m, ys = tau.verlinde_lifts()
    top, lifts = tau.f_epsilon()
    regular = set(tau.f_epsilon(regular_only=True)[1])
    scale = top // m
    # a point of F_eps that some Weyl element fixes, lifted at the class order
    singular = [tuple(c // scale for c in y) for y in lifts
                if y not in regular and all(c % scale == 0 for c in y)]
    assert singular
    monkeypatch.setattr(tau, "verlinde_lifts", lambda: (m, [singular[-1]] + ys[1:]))
    with pytest.raises(InvariantError, match="Galois"):
        structure_constants_via_characters(ring)
    # a regular set holding the class lifts but not all their multiples by
    # units: k = 1 passes, and some unit k > 1 must be caught
    monkeypatch.setattr(tau, "verlinde_lifts", lambda: (m, ys))
    classes = [tuple(c * scale for c in y) for y in ys]
    monkeypatch.setattr(tau, "f_epsilon", lambda regular_only=False: (top, classes))
    with pytest.raises(InvariantError, match=r"Galois-stable: (?!1 \*)\d+ \*"):
        structure_constants_via_characters(ring)


def test_coset_values_name_each_coset_once_per_check(monkeypatch):
    # the check's exact half computes the coset key of each of the |F| coset
    # representatives once, with no CosetValues over them; it names the |W|
    # points of each of the first four basis elements' W-orbits once each,
    # and never box-reduces in fusion; besides, delta_eval names the
    # box-point data of each element once.  The check box-reduces each of
    # those orbit points once, and nothing else, so no coset representative
    assert "box_reduce" not in vars(vkt.fusion)
    calls, named, keyed = [], [], []
    real = vkt.checks.box_reduce

    def counting(tau, lam):
        calls.append(lam)
        return real(tau, lam)

    def adjugate(vec, apply=Twisting.adj_apply):
        caller = sys._getframe(1)
        while caller.f_code.co_name.startswith("<"):       # a comprehension's frame
            caller = caller.f_back
        if caller.f_code.co_name == "check_delta_identity":
            keyed.append(tuple(vec))
        return apply(ring.tau, vec)

    class Spy(CosetValues):
        def __init__(self, tau, weights):
            named.append(len(weights))
            super().__init__(tau, weights)

    monkeypatch.setattr(vkt.checks, "box_reduce", counting)
    monkeypatch.setattr(vkt.checks, "CosetValues", Spy)
    rd = root_datum_from_spec("SU(3)")
    ring = FusionRing(rd, twisting_from_level(rd, (5,)))
    monkeypatch.setattr(ring.tau, "adj_apply", adjugate)
    assert check_delta_identity(ring)["passed"]
    size = len(weyl_group_elements(rd))
    orbits = [{w.apply(nu) for w in weyl_group_elements(rd)} for nu in ring.basis[:4]]
    assert len(orbits) == 4 and len(calls) == 4 * size
    for k, orbit in enumerate(orbits):
        assert set(calls[k * size:(k + 1) * size]) == orbit, k
    assert named == [size] * 4
    # the |F| coset keys, then the regularity test of each basis point
    reps = [tuple(r) for r in ring.tau.cosets()]
    assert len(reps) == ring.tau.order_F() == 75
    assert keyed == reps + [tuple(nu) for nu in ring.basis[:4]]


def test_inconsistent_values_are_refused_on_every_call():
    rd = root_datum_from_spec("SU(2)")
    tau = twisting_from_level(rd, (5,))
    far = tau.apply_b((1,))                     # the coset of 0, translated
    assert delta_eval(tau, {(0,): 1, far: 1}, (0,)) == 1
    for _ in range(2):                          # each call names the keys afresh
        with pytest.raises(ValueError, match="inconsistent equivariant values"):
            delta_eval(tau, {(0,): 1, far: 2}, (0,))


def test_coset_values_validate_each_weight_once(monkeypatch):
    # a CosetValues validates each weight once, as it names it, and each
    # delta call validates g alone; delta_eval names its keys afresh, so a
    # key that is not an integer weight is refused by every call
    rd = root_datum_from_spec("SU(3)")
    tau = twisting_from_level(rd, (5,))
    f = {(0, 0): 1, (1, 2): -2, (3, -1): 1}
    seen = []
    real = vkt.rootdata.as_weight

    def recording(rank, coords):
        seen.append(tuple(coords))
        return real(rank, coords)

    monkeypatch.setattr(vkt.rootdata, "as_weight", recording)
    cosets = CosetValues(tau, list(f))
    assert seen == list(f)
    first = delta_eval(tau, f, (1, 1))
    for _ in range(2):
        seen.clear()
        assert cosets.delta(list(f.values()), (1, 1)) == first
        assert seen == [(1, 1)]
    for _ in range(2):
        with pytest.raises(ValueError, match="non-integral"):
            delta_eval(tau, {(0, 0): 1, (Fraction(1, 2), 0): 1}, (1, 1))


def wall_scan_is_zero(alc, point):
    return any(s < 0 and 2 * sum(point[j] * c for j, c in coroot) == bound2
               for (coroot, _, bound2, _), s in zip(alc.walls, alc.signs))


def test_reduction_memo_matches_a_fresh_reduction():
    rng = random.Random(12)
    for name, rd, tau in grid_twistings(GRID + WALK_EXTRA):
        alc = vkt.affineweyl.Alcove(tau)
        points = list(alc.points())
        weights = [tuple(rng.randint(-30, 30) for _ in range(rd.rank)) for _ in range(60)]
        for lam in points + weights + points:   # the second pass reads the memo
            point, sign = alc.reduce(lam)
            assert (point, sign) == vkt.affineweyl.Alcove(tau).reduce(lam), (name, lam)
            assert (sign == 0) == wall_scan_is_zero(alc, point), (name, lam)
        # an alcove point walks nowhere
        assert all(alc.reduce(p)[0] == p for p in points), name
        # the memo holds the weights reduced, one entry per weight
        assert set(alc._reduced) == set(points + weights), name


def test_structure_constants_walk_each_distinct_weight_once(monkeypatch):
    # the products reduce the same weights again and again; the memo walks
    # each distinct one once, so the walls are crossed for the new memo
    # entries only
    rd = root_datum_from_spec("SU(3)")
    ring = FusionRing(rd, twisting_from_level(rd, (15,)))
    alc = alcove(ring.tau)
    before = set(alc._reduced)
    walks, reductions = [], []
    walk, reduce = vkt.affineweyl.reflect_into_chamber, vkt.affineweyl.Alcove.reduce

    def counted_walk(lam, walls):
        walks.append(lam)
        return walk(lam, walls)

    def counted_reduce(self, lam):
        reductions.append(lam)
        return reduce(self, lam)

    monkeypatch.setattr(vkt.affineweyl, "reflect_into_chamber", counted_walk)
    monkeypatch.setattr(vkt.affineweyl.Alcove, "reduce", counted_reduce)
    table = ring.structure_constants()
    new = set(alc._reduced) - before
    assert new == set(reductions) - before
    assert len(walks) == len(new)
    assert 20 * len(walks) < len(reductions)
    assert table == structure_constants_via_characters(ring)
