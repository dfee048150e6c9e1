"""One Smith normal form and one Weyl-group tree per root datum, and the
invariant forms read off the simple coroots, against the mechanisms they
replaced.

The oracles below are the earlier implementations: W by its own
breadth-first search over the simple reflections with a matrix-keyed
dedupe, the invariant lattice as the kernel of the stacked s_i - I rows,
rho as a Fraction vector for the Weyl dimension formula and the dual
Coxeter pairing, the geometric stabilizers in Fraction arithmetic and as
Weyl-group matrices, b's equivariance as products with the simple
reflection matrices, the levels by a scan of b's blocks, the
Freudenthal form with a rational invariant complement, and the coroot
Smith form by the two-pass reduction with its transforms inverted in
Fraction arithmetic, and the Dynkin components by their own depth-first
search.  None of them calls the code it checks."""

import random
from fractions import Fraction
from math import gcd, lcm

import pytest

import vkt
import vkt.rootdata
from vkt.affineweyl import AffineElement, geometric_stabilizer_brute, stabilizer_generators
from vkt.checks import run_all_checks
from vkt.errors import Degenerate, NotEquivariant, NotTorsionFreePi1
from vkt.fusion import FusionRing, dominant_weights_up_to
from vkt.rootdata import (
    RootDatum,
    WeylElement,
    _components,
    _weight_system,
    closure,
    dot,
    root_datum_from_spec,
    vec_scale,
    vec_sub,
    weyl_dimension,
    weyl_group_elements,
)
from vkt.twist import Twisting, twisting_from_level
from vkt.zlattice import IntMatrix, inverse_rational, kernel_basis

from test_known_tables import cartan_e
from test_zlattice import inverse_unimodular, two_pass_smith_normal_form

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


def matrix_equivariance(rd, b, eps):
    """The NotEquivariant message of b and eps, or None: s_i b = b s_i^vee
    as products of the simple reflection matrices, then s_i eps = eps mod 2,
    for each simple reflection in order."""
    for g in rd.generators:
        if g.matrix * b != b * g.comatrix:
            return "b does not commute with the Weyl action"
        if any((x - y) % 2 for x, y in zip(g.matrix.apply(eps), eps)):
            return "grading vector is not W-invariant mod 2"
    return None


def block_scan_levels(tau):
    """(levels, torus block) when b is level * kappa on each simple block,
    zero off the blocks and even on the torus diagonal, by a scan of b;
    None otherwise and on data that is not split."""
    rd, b = tau.rd, tau.b
    if not rd.split_form:
        return None
    levels, covered = [], set()
    for f in rd.factors:
        idx = f.indices
        covered.update(idx)
        k00 = f.kappa.at(0, 0)
        v = b.at(idx[0], idx[0])
        if v % k00:
            return None
        level = v // k00
        for ai, i in enumerate(idx):
            for aj, j in enumerate(idx):
                if b.at(i, j) != level * f.kappa.at(ai, aj):
                    return None
        levels.append(level)
    torus = rd.torus_indices
    for i in range(rd.rank):
        for j in range(rd.rank):
            if (i not in covered or j not in covered) \
                    and not (i in torus and j in torus) and b.at(i, j):
                return None
    if any(b.at(i, i) % 2 for i in torus):
        return None
    return tuple(levels), [[b.at(i, j) for j in torus] for i in torus]


def complement_gram(rd):
    """The Freudenthal form with an invariant complement: the positive
    coroots' sum alpha^vee (alpha^vee)^T plus the dot product of the
    coordinates along invariant_lattice_basis in the basis
    [simple roots | invariant lattice], over one common denominator."""
    n, m = rd.rank, len(rd.simple_roots)
    if not n:
        return []
    cols = [list(r) for r in rd.simple_roots] + [list(v) for v in rd.invariant_lattice_basis()]
    coords = inverse_rational(IntMatrix.from_rows(cols).transpose())
    gram = [[Fraction(sum(cv[i] * cv[j] for _, cv in rd.positive_root_pairs))
             + sum(coords[k][i] * coords[k][j] for k in range(m, n))
             for j in range(n)] for i in range(n)]
    den = lcm(*(v.denominator for row in gram for v in row))
    return [[int(v * den) for v in row] for row in gram]


def random_form(rd, rng):
    """A symmetric integer matrix of the datum's rank: an equivariant one
    (a rational multiple of kappa on each simple block of split data, any
    symmetric torus block; k I + l J on U(n)-style data), such a one with
    one symmetric pair of entries moved, or one with small random entries."""
    n = rd.rank
    rows = [[rng.randint(-3, 3) for _ in range(n)] for _ in range(n)]
    kind = rng.randrange(3)
    if kind < 2:
        if rd.split_form:
            rows = [[rows[i][j] if i in rd.torus_indices and j in rd.torus_indices else 0
                     for j in range(n)] for i in range(n)]
            for f in rd.factors:
                k = f.kappa.to_rows()
                g = gcd(*(x for row in k for x in row))
                c = Fraction(rng.choice([-1, 1]) * rng.randint(1, 12), g)
                for ai, i in enumerate(f.indices):
                    for aj, j in enumerate(f.indices):
                        rows[i][j] = int(c * k[ai][aj])
        else:
            k, l = rng.randint(-6, 6), rng.randint(-6, 6)
            rows = [[k * (i == j) + l for j in range(n)] for i in range(n)]
        if kind == 1:
            i, j = rng.randrange(n), rng.randrange(n)
            rows[i][j] += rng.choice([-2, -1, 1, 2])
    for i in range(n):
        for j in range(i):
            rows[i][j] = rows[j][i]
    return IntMatrix.from_rows(rows)


def dfs_components(a):
    """The Dynkin components by a depth-first search over the nonzero
    entries of each row, each sorted, in order of least index."""
    n = len(a)
    seen = [False] * n
    comps = []
    for start in range(n):
        if seen[start]:
            continue
        comp = []
        stack = [start]
        seen[start] = True
        while stack:
            i = stack.pop()
            comp.append(i)
            for j in range(n):
                if not seen[j] and a[i][j] != 0:
                    seen[j] = True
                    stack.append(j)
        comps.append(sorted(comp))
    return comps


def cartan_a(n):
    return [[2 if i == j else -(abs(i - j) == 1) for j in range(n)] for i in range(n)]


# connected Cartan blocks: chains, a branch (D4, E6), double and triple bonds
BLOCKS = [cartan_a(1), cartan_a(2), cartan_a(3), cartan_a(5), G2_CARTAN, G2_SWAPPED, F4_CARTAN,
          [[2, -1, 0, 0], [-1, 2, -1, -1], [0, -1, 2, 0], [0, -1, 0, 2]], cartan_e(6)]


# -- the tests ------------------------------------------------------------------

def test_components_by_closure_match_the_depth_first_search():
    # block-diagonal Cartan matrices with their indices permuted
    rng = random.Random(28)
    for trial in range(2000):
        blocks = [rng.choice(BLOCKS) for _ in range(rng.randint(1, 4))]
        n = sum(map(len, blocks))
        a = [[0] * n for _ in range(n)]
        off = 0
        for block in blocks:
            for i, row in enumerate(block):
                a[off + i][off:off + len(row)] = row
            off += len(block)
        perm = rng.sample(range(n), n)
        a = [[a[perm[i]][perm[j]] for j in range(n)] for i in range(n)]
        want = dfs_components(a)
        assert len(want) == len(blocks)
        assert _components(a) == want, (trial, a)


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


def test_coroot_transforms_match_the_two_pass_oracle():
    # the alcove frame, the invariant lattice and the labels read U, V and
    # V^-1 of the coroot matrix: all its pivots are units, so the one-pass
    # reduction gives the same U and V, and inverses equal to the Fraction ones
    data = [rd for rd, _ in grid()] + [RootDatum.from_cartan(cartan_e(n)) for n in (6, 7, 8)]
    for rd in data:
        snf = rd.coroot_snf
        coroots = IntMatrix(len(rd.simple_coroots), rd.rank,
                            [c for cv in rd.simple_coroots for c in cv])
        U, D, V, fired = two_pass_smith_normal_form(coroots)
        assert (snf.U, snf.D, snf.V, fired) == (U, D, V, False), rd.spec_text
        assert snf.Uinv == inverse_unimodular(U) and snf.Vinv == inverse_unimodular(V)


@pytest.mark.parametrize("name, levels", [
    ("SU(3)", (5,)), ("Spin(5)", (4,)), ({"cartan": G2_CARTAN}, (5,)),
], ids=["SU(3)", "Spin(5)", "G2"])
def test_a_ring_and_its_checks_take_no_rational_inverse(monkeypatch, name, levels):
    # fails where the alcove or the cosets invert a Smith transform in
    # Fraction arithmetic; G2 at level 5 is loop level 1
    def boom(*args):
        raise AssertionError("rational inverse on data with no torus")

    for module in vars(vkt).values():
        if hasattr(module, "inverse_rational"):
            monkeypatch.setattr(module, "inverse_rational", boom)
    rd = root_datum_from_spec(name)
    ring = FusionRing(rd, twisting_from_level(rd, levels))
    assert all(check["passed"] for check in run_all_checks(ring))


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
    # lattice and the alcove read one SNF of the coroot matrix, the Weyl
    # numerators and the stabilizer check read one tree of the orbit of
    # 2 rho, and no check enumerates W
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
    assert rd._weyl_cache is None


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


def form_grid():
    """Data with a simple factor: named groups, G2 in both root orders, and
    U(2)- to U(4)-style data, which are not split."""
    out = [root_datum_from_spec(name) for name in NAMES if name not in ("U(1)", "U(1)^2")]
    out += [root_datum_from_spec({"cartan": cartan}) for cartan in (G2_CARTAN, G2_SWAPPED)]
    out += [u_style(n) for n in (2, 3, 4)]
    return out


def coroot_equivariance(rd, b, eps):
    try:
        Twisting(rd, b, eps)
    except NotEquivariant as exc:
        return str(exc)
    return None


def test_equivariance_on_the_coroots_matches_the_matrix_test():
    # same verdict and same message, over random symmetric b and gradings
    rng = random.Random(22)
    data = form_grid()
    assert len(data) >= 12
    verdicts = {}
    for rd in data:
        for _ in range(350):
            b = random_form(rd, rng)
            if not b.determinant():
                continue
            eps = tuple(rng.randint(0, 1) if rng.randrange(2) else 0 for _ in range(rd.rank))
            want = matrix_equivariance(rd, b, eps)
            assert coroot_equivariance(rd, b, eps) == want, (rd.spec_text, b.to_rows(), eps)
            verdicts[want] = verdicts.get(want, 0) + 1
    assert sum(verdicts.values()) >= 4000
    assert min(verdicts.values()) >= 200 and len(verdicts) == 3, verdicts


def test_levels_on_the_coroots_match_the_block_scan():
    # over valid twistings: the levels of every level-form b, and None
    # where the scan finds b off level form; primitive exactly when the
    # scan finds level form with an even torus diagonal and eps = 0
    rng = random.Random(7)
    data = form_grid() + [root_datum_from_spec(name) for name in ("U(1)", "U(1)^2")]
    valid = level_form = 0
    while valid < 10000:
        for rd in data:
            b = random_form(rd, rng)
            eps = tuple(rng.randint(0, 1) if rng.randrange(4) == 0 else 0
                        for _ in range(rd.rank))
            if not b.determinant() or matrix_equivariance(rd, b, eps):
                continue
            tau = Twisting(rd, b, eps)
            valid += 1
            scan = block_scan_levels(tau)
            levels = tau._detect_levels()
            if scan is not None:
                level_form += 1
                assert levels == scan[0], (rd.spec_text, b.to_rows())
            elif rd.split_form:
                assert levels is None or any(b.at(i, i) % 2 for i in rd.torus_indices)
            assert tau.is_primitive() == (scan is not None and not any(eps))
            assert tau.describe()["levels"] == (None if levels is None else list(levels))
    assert level_form >= 2000 and valid - level_form >= 2000


@pytest.mark.parametrize("name", ["U(1)", "U(1)^2", "SU(2) x U(1)", "U(1) x SU(3) x U(1)",
                                  "G2 x U(1)", "SU(2) x SU(3)", "U(2)", "U(3)", "U(4)"])
def test_weight_systems_need_no_invariant_complement(name):
    # the integer coroot sum gives the weight systems of the form with a
    # rational invariant complement, in the same order
    def datum():
        if name.startswith("U(") and name[2] != "1":
            return u_style(int(name[2]))
        if name == "G2 x U(1)":
            return RootDatum.from_cartan(G2_CARTAN, torus_rank=1)
        return root_datum_from_spec(name)

    rd, oracle = datum(), datum()
    oracle._gram_int = complement_gram(oracle)
    assert (oracle._gram_int == rd._gram_int) == (len(rd.simple_roots) == rd.rank)
    for lam in dominant_weights_up_to(rd, 3):
        assert list(_weight_system(rd, lam).items()) == \
            list(_weight_system(oracle, lam).items()), lam


def test_equivariance_reads_no_weyl_matrix(monkeypatch):
    # fails where b is tested by products with the reflection matrices
    rd = root_datum_from_spec("SU(2) x U(1)")
    monkeypatch.setattr(rd, "generators", ())
    with pytest.raises(NotEquivariant, match="does not commute"):
        Twisting(rd, IntMatrix.from_rows([[2, 1], [1, 2]]))


def test_a_root_datum_takes_no_rational_inverse(monkeypatch):
    # fails where the Freudenthal form inverts [simple roots | invariants]
    def boom(*args):
        raise AssertionError("rational inverse while building a root datum")

    for module in (vkt.rootdata, vkt.zlattice):
        monkeypatch.setattr(module, "inverse_rational", boom, raising=False)
    rd = root_datum_from_spec("SU(2) x U(1)")
    assert rd._gram_int == [[1, 0], [0, 0]]


def test_levels_of_an_explicit_b_are_detected():
    # fails where the levels are known only to twisting_from_level
    rd = root_datum_from_spec("SU(2)")
    tau = Twisting(rd, IntMatrix.from_rows([[10]]))
    assert tau.describe()["levels"] == [5]
    assert Twisting(rd, IntMatrix.from_rows([[7]])).describe()["levels"] is None
    # on data that is not split too, though only split data is primitive
    tau = Twisting(u_style(2), IntMatrix.from_rows([[3, 1], [1, 3]]))
    assert tau.describe()["levels"] == [2] and not tau.is_primitive()
