"""One Smith normal form and one Weyl-group tree per root datum, against
the mechanisms they replaced.

The oracles below are the earlier implementations: W by its own
breadth-first search over the simple reflections with a matrix-keyed
dedupe, the invariant lattice as the kernel of the stacked s_i - I rows,
rho as a Fraction vector for the Weyl dimension formula and the dual
Coxeter pairing, and the geometric stabilizers in Fraction arithmetic and
as Weyl-group matrices.  None of them calls the code it checks."""

import random
from fractions import Fraction
from math import lcm

import pytest

import vkt
import vkt.rootdata
from vkt.affineweyl import AffineElement, geometric_stabilizer_brute, stabilizer_generators
from vkt.checks import run_all_checks
from vkt.errors import NotTorsionFreePi1
from vkt.fusion import FusionRing, dominant_weights_up_to
from vkt.rootdata import (
    RootDatum,
    WeylElement,
    closure,
    dot,
    root_datum_from_spec,
    vec_scale,
    vec_sub,
    weyl_dimension,
    weyl_group_elements,
)
from vkt.twist import twisting_from_level
from vkt.zlattice import IntMatrix, kernel_basis

G2_CARTAN = [[2, -1], [-3, 2]]
G2_SWAPPED = [[2, -3], [-1, 2]]
F4_CARTAN = [[2, -1, 0, 0], [-1, 2, -2, 0], [0, -1, 2, -1], [0, 0, -1, 2]]

NAMES = ("SU(2)", "SU(3)", "SU(4)", "Spin(5)", "Spin(7)", "Sp(2)", "Sp(3)", "U(1)", "U(1)^2",
         "SU(2) x U(1)", "SU(2) x SU(3)", "U(1) x SU(3) x U(1)")


def u_style(n):
    """U(n)-style data: roots = coroots = e_i - e_(i+1) on Z^n."""
    roots = [tuple(int(j == i) - int(j == i + 1) for j in range(n)) for i in range(n - 1)]
    return RootDatum.from_root_data(n, roots, roots)


def grid():
    """Named groups, G2 (both root orders) and F4 by Cartan file, and
    U(2)- to U(4)-style data, with the dual Coxeter numbers of their simple
    factors (Kac, Infinite-dimensional Lie algebras, Table Aff 1)."""
    known = {"SU(2)": [2], "SU(3)": [3], "SU(4)": [4], "Spin(5)": [3], "Spin(7)": [5],
             "Sp(2)": [3], "Sp(3)": [4], "U(1)": [], "U(1)^2": [], "SU(2) x U(1)": [2],
             "SU(2) x SU(3)": [2, 3], "U(1) x SU(3) x U(1)": [3]}
    out = [(root_datum_from_spec(name), known[name]) for name in NAMES]
    out += [(root_datum_from_spec({"cartan": cartan}), [h])
            for cartan, h in ((G2_CARTAN, 4), (G2_SWAPPED, 4), (F4_CARTAN, 9))]
    out += [(u_style(n), [n]) for n in (2, 3, 4)]
    return out


# -- the oracles ----------------------------------------------------------------

def bfs_weyl_group_elements(rd):
    """W enumerated breadth-first from the generators, deduplicated by
    matrix, sorted by word length, then word."""
    ident = rd.identity_element
    seen = {ident.matrix.entries: ident}
    frontier = [ident]
    while frontier:
        nxt = []
        for w in frontier:
            for i, g in enumerate(rd.generators):
                mat = g.matrix * w.matrix
                if mat.entries not in seen:
                    elem = WeylElement(mat, g.comatrix * w.comatrix, (i,) + w.word,
                                       -w.determinant)
                    seen[mat.entries] = elem
                    nxt.append(elem)
        frontier = nxt
    return sorted(seen.values(), key=lambda e: (len(e.word), e.word))


def kernel_invariant_basis(rd):
    """The W-invariant weights as the kernel of the stacked s_i - I rows."""
    n = rd.rank
    if not rd.simple_roots:
        return [tuple(int(i == j) for j in range(n)) for i in range(n)]
    rows = [[g.matrix.at(i, j) - int(i == j) for j in range(n)]
            for g in rd.generators for i in range(n)]
    return kernel_basis(IntMatrix.from_rows(rows))


def rho_tilde_oracle(rd):
    """rho when it is a weight, else rho plus half of the least 0/1
    combination (by bit mask) of the kernel_invariant_basis vectors that
    makes it integral."""
    if all(x % 2 == 0 for x in rd.rho2):
        return tuple(x // 2 for x in rd.rho2), "rho"
    inv = kernel_invariant_basis(rd)
    for mask in range(2 ** len(inv)):
        y = tuple((mask >> i) & 1 for i in range(len(inv)))
        cand2 = list(rd.rho2)
        for yi, v in zip(y, inv):
            if yi:
                cand2 = [a + b for a, b in zip(cand2, v)]
        if all(x % 2 == 0 for x in cand2):
            return tuple(x // 2 for x in cand2), f"rho+invariant_correction{y}"
    raise AssertionError("no integral lift of rho")


def fraction_rho(rd):
    return tuple(Fraction(x, 2) for x in rd.rho2)


def fraction_weyl_dimension(rd, lam):
    rho = fraction_rho(rd)
    num = Fraction(1)
    for _, cv in rd.positive_root_pairs:
        h = dot(rho, cv)
        num *= Fraction(dot(lam, cv) + h, h)
    assert num.denominator == 1
    return num.numerator


def fraction_dual_coxeter(rd):
    out = []
    for f in rd.factors:
        pairing = dot(fraction_rho(rd), f.highest_root[1])
        assert pairing.denominator == 1
        out.append(1 + pairing.numerator)
    return out


def fraction_stabilizer_generators(rd, x):
    """The affine reflections (k alpha^vee, s_alpha) through the hyperplanes
    <alpha, x> = k in Z, in Fraction arithmetic."""
    x = tuple(Fraction(c) for c in x)
    n = rd.rank
    gens = []
    for alpha, coalpha in rd.positive_root_pairs:
        val = sum(Fraction(a) * c for a, c in zip(alpha, x))
        if val.denominator != 1:
            continue
        beta, descent = alpha, []
        while beta not in rd.simple_roots:
            i = next(i for i, cv in enumerate(rd.simple_coroots) if dot(beta, cv) > 0)
            beta = vec_sub(beta, vec_scale(dot(beta, rd.simple_coroots[i]), rd.simple_roots[i]))
            descent.append(i)
        word = tuple(descent) + (rd.simple_roots.index(beta),) + tuple(reversed(descent))
        refl = WeylElement(
            IntMatrix(n, n, [int(r == c) - alpha[r] * coalpha[c] for r in range(n) for c in range(n)]),
            IntMatrix(n, n, [int(r == c) - coalpha[r] * alpha[c] for r in range(n) for c in range(n)]),
            word, -1)
        gens.append(AffineElement(tuple(val.numerator * c for c in coalpha), refl))
    return gens


def fraction_stabilizer_brute(elements, x):
    """Every (pi, w) with w in elements and w(x) + pi = x, pi = x - w(x)
    integral, in Fractions."""
    x = tuple(Fraction(c) for c in x)
    out = []
    for w in elements:
        pi = vec_sub(x, w.apply_coweight(x))
        if all(Fraction(c).denominator == 1 for c in pi):
            out.append(AffineElement(tuple(int(c) for c in pi), w))
    return out


def matrix_stabilizer_brute(rd, x):
    """All (pi, w) fixing x under the geometric action, w over every element
    of W as a matrix: pi = x - w(x) is forced by w, so with x = v / d the
    element exists when v - w(v) = 0 mod d."""
    d = lcm(*(Fraction(c).denominator for c in x))
    v = tuple(int(c * d) for c in x)
    out = []
    for w in weyl_group_elements(rd):
        pi = [divmod(a - b, d) for a, b in zip(v, w.apply_coweight(v))]
        if not any(rem for _, rem in pi):
            out.append(AffineElement(tuple(q for q, _ in pi), w))
    return out


def matrix_generated_subgroup(rd, generators):
    """The Weyl parts of the group generated by affine elements, as the
    closure of their weight-coordinate matrices under composition."""
    mats = [g.weyl.matrix for g in generators]
    return closure([IntMatrix.identity(rd.rank)], lambda w: [h * w for h in mats])


# -- the tests ------------------------------------------------------------------

def test_weyl_group_from_the_tree_matches_the_bfs():
    # every element's matrix, comatrix, word and determinant, in order
    for rd, _ in grid():
        assert weyl_group_elements(rd) == bfs_weyl_group_elements(rd), rd.spec_text
    assert len(weyl_group_elements(root_datum_from_spec({"cartan": F4_CARTAN}))) == 1152


def test_invariant_lattice_from_the_coroot_snf_matches_the_kernel():
    for rd, _ in grid():
        assert rd.invariant_lattice_basis() == kernel_invariant_basis(rd), rd.spec_text
        assert (rd.rho_tilde, rd.rho_tilde_note) == rho_tilde_oracle(rd), rd.spec_text
    # U(2)-style data: rho is not a weight, and the lift says so
    assert u_style(2).rho_tilde_note == "rho+invariant_correction(1,)"


def test_dual_coxeter_numbers_from_2rho():
    for rd, known in grid():
        numbers = [f.dual_coxeter for f in rd.factors]
        assert numbers == fraction_dual_coxeter(rd) == known, rd.spec_text


def test_weyl_dimension_from_the_integer_key():
    for rd, _ in grid():
        for lam in dominant_weights_up_to(rd, 3 if rd.rank < 4 else 2):
            assert weyl_dimension(rd, lam) == fraction_weyl_dimension(rd, lam), (rd.spec_text, lam)
    f4 = root_datum_from_spec({"cartan": F4_CARTAN})
    assert [weyl_dimension(f4, lam) for lam in ((1, 0, 0, 0), (0, 0, 0, 1))] == [26, 52]


@pytest.mark.parametrize("roots, coroots, torsion", [
    ([(1,)], [(2,)], [2]),                              # SO(3)
    ([(1, 0), (0, 1)], [(2, -1), (-1, 2)], [3]),        # PSU(3)
    ([(1, 0)], [(2, 0)], [2]),                          # SO(3) x U(1)
], ids=["SO(3)", "PSU(3)", "SO(3)xU(1)"])
def test_torsion_in_pi1_is_refused(roots, coroots, torsion):
    with pytest.raises(NotTorsionFreePi1, match=rf"torsion \{torsion}"):
        RootDatum.from_root_data(len(roots[0]), roots, coroots)


def test_stabilizers_by_integer_lifts_match_the_fraction_oracles():
    # the points check_stabilizers draws, for each datum of the grid
    for rd, _ in grid():
        elements = bfs_weyl_group_elements(rd)
        rng = random.Random(11)
        for _ in range(25):
            x = tuple(Fraction(rng.randint(0, 24), rng.randint(1, 12)) for _ in range(rd.rank))
            assert stabilizer_generators(rd, x) == fraction_stabilizer_generators(rd, x)
            brute = fraction_stabilizer_brute(elements, x)
            assert matrix_stabilizer_brute(rd, x) == brute
            assert geometric_stabilizer_brute(rd, x) == {e.weyl.apply(rd.rho2) for e in brute}


# a ring and every verify check on these count the factorizations per datum
# and per twisting
COUNTED = [
    ("SU(3)", (5,), None, None),
    ("Spin(5)", (4,), None, None),
    ("SU(2) x U(1)", (3,), [[4]], (0, 1)),
    ("U(1)^2", (), [[2, 1], [1, 2]], None),
]


@pytest.mark.parametrize("name, levels, torus, eps", COUNTED)
def test_one_coroot_snf_and_one_orbit_tree_per_datum(monkeypatch, name, levels, torus, eps):
    # over a ring and every verify check: the torsion test, the invariant
    # lattice and the alcove read one SNF of the coroot matrix, and W, the
    # Weyl numerators and the orbit checks read one tree of the orbit of 2 rho
    snfs, trees = [], []
    real_snf = vkt.zlattice.smith_normal_form
    real_tree = vkt.rootdata._free_orbit_template

    def counting_snf(M):
        snfs.append(M)
        return real_snf(M)

    def counting_tree(rd):
        if rd._orbit_template is None:
            trees.append(rd)
        return real_tree(rd)

    for module in vars(vkt).values():
        if getattr(module, "smith_normal_form", None) is real_snf:
            monkeypatch.setattr(module, "smith_normal_form", counting_snf)
    monkeypatch.setattr(vkt.rootdata, "_free_orbit_template", counting_tree)
    rd = root_datum_from_spec(name)
    ring = FusionRing(rd, twisting_from_level(rd, levels, torus_block=torus, eps=eps))
    assert all(check["passed"] for check in run_all_checks(ring))
    coroots = IntMatrix(len(rd.simple_coroots), rd.rank,
                        [c for cv in rd.simple_coroots for c in cv])
    assert [M for M in snfs if M == coroots] == [coroots]
    assert trees == [rd]
    assert rd._weyl_cache is not None


@pytest.mark.parametrize("name, levels, torus, eps", COUNTED)
def test_one_smith_form_and_one_determinant_per_twisting(monkeypatch, name, levels, torus, eps):
    # over a ring and every verify check: F, adj(b), the cosets and the
    # ungraded pairing coordinates read one SNF of b, with one determinant of
    # b and no Fraction inverse of it; a grading adds one SNF of b * span,
    # span a basis of L_eps (index 2)
    snfs, inverses, dets = [], [], []
    real_snf = vkt.zlattice.smith_normal_form
    real_inverse = vkt.zlattice.inverse_rational
    real_det = IntMatrix.determinant

    def spy(calls, real):
        def counting(M):
            calls.append(M)
            return real(M)
        return counting

    for module in vars(vkt).values():
        for attr, calls, real in (("smith_normal_form", snfs, real_snf),
                                  ("inverse_rational", inverses, real_inverse)):
            if getattr(module, attr, None) is real:
                monkeypatch.setattr(module, attr, spy(calls, real))
    monkeypatch.setattr(IntMatrix, "determinant", spy(dets, real_det))
    rd = root_datum_from_spec(name)
    tau = twisting_from_level(rd, levels, torus_block=torus, eps=eps)
    assert all(check["passed"] for check in run_all_checks(FusionRing(rd, tau)))
    coroots = IntMatrix(len(rd.simple_coroots), rd.rank,
                        [c for cv in rd.simple_coroots for c in cv])
    twisting_snfs = [M for M in snfs if M != coroots]
    assert twisting_snfs[0] == tau.b
    if eps:
        assert len(twisting_snfs) == 2
        assert abs(real_det(twisting_snfs[1])) == 2 * tau.order_F()
    else:
        assert twisting_snfs == [tau.b]
    assert tau.b not in inverses
    assert dets.count(tau.b) == 1
