"""Root data for connected compact Lie groups with torsion-free pi_1.

Conventions, fixed once for the whole package:

* The weight lattice and the coweight lattice both carry fixed bases of
  rank n, dual to each other, so the canonical pairing of a weight with a
  coweight is the dot product of coordinate tuples.
* Weights and coweights are plain integer tuples.  Rational points of t
  are reported as tuples of fractions.Fraction but computed on as integer
  lifts (v, d) with x = v / d; rho is kept only as the integer weight
  2 rho (`RootDatum.rho2`).
* A Weyl element acts on weight coordinates by its `matrix` and on
  coweight coordinates by the inverse transpose (`comatrix`).
* Named groups are built as (simply connected) x (torus): the coweight
  basis of a simple factor consists of its simple coroots, the weight
  basis of its fundamental weights, and the torus block comes last.

Cartan matrices follow the convention a[i][j] = <alpha_j, alpha_i^vee>,
so on a simply connected factor the j-th simple root has coordinates
(a[0][j], ..., a[n-1][j]).
"""

from __future__ import annotations

import re
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from math import prod
from operator import add, mul, sub

from .errors import (
    GroupTooLarge,
    InvalidCartanData,
    InvariantError,
    NotTorsionFreePi1,
    SpecParseError,
)
from .zlattice import IntMatrix, integers, smith_normal_form


def dot(x, y):
    return sum(a * b for a, b in zip(x, y))


def vec_add(x, y):
    return tuple(map(add, x, y))


def vec_sub(x, y):
    return tuple(map(sub, x, y))


def vec_scale(c, x):
    return tuple(c * a for a in x)


def closure(seeds, moves):
    """The least set that holds the seeds and moves(x) for each of its
    members x, found breadth-first: the work is the set's size times the
    number of moves."""
    found = set(seeds)
    frontier = list(found)
    while frontier:
        nxt = []
        for x in frontier:
            for y in moves(x):
                if y not in found:
                    found.add(y)
                    nxt.append(y)
        frontier = nxt
    return found


def as_weight(rank, coords):
    """Validate and normalize an integer weight coordinate vector: ValueError
    unless every coordinate equals an integer and there are rank of them."""
    out = integers(coords, "weight coordinate")
    if len(out) != rank:
        raise ValueError(f"weight length {len(out)} != rank {rank}")
    return out


@dataclass(frozen=True)
class WeylElement:
    """A Weyl group element: its action on weight coordinates plus a word.

    `word` multiplies left-to-right (word (i, j) means s_i s_j) and is a
    shortest expression for enumerated elements; `determinant` is always
    (-1)**len(word).
    """

    matrix: IntMatrix
    comatrix: IntMatrix          # action on coweight coordinates
    word: tuple
    determinant: int

    def apply(self, weight):
        return self.matrix.apply(weight)

    def apply_coweight(self, coweight):
        return self.comatrix.apply(coweight)


def reflection(alpha, coalpha, word):
    """The reflection s_alpha, lam -> lam - <lam, alpha^vee> alpha, as a
    WeylElement with the given word."""
    n = len(alpha)
    return WeylElement(
        IntMatrix(n, n, [int(r == c) - alpha[r] * coalpha[c] for r in range(n) for c in range(n)]),
        IntMatrix(n, n, [int(r == c) - coalpha[r] * alpha[c] for r in range(n) for c in range(n)]),
        word, -1)


@dataclass(frozen=True)
class SimpleFactor:
    """One simple factor: which simple roots belong to it, plus derived data.

    On a split (simply connected x torus) datum, `indices` are also the
    coordinate positions of the factor's block.
    """

    name: str
    indices: tuple
    cartan: IntMatrix
    kappa: IntMatrix             # basic W-invariant pairing on the block
    dual_coxeter: int
    highest_root: tuple          # (theta, theta^vee) in weight / coweight coordinates


@dataclass(frozen=True)
class DominantResult:
    """Outcome of moving a weight into the dominant chamber."""

    weight: tuple
    element: WeylElement
    sign: int
    on_wall: bool


class RootDatum:
    """Immutable root datum; construct via `root_datum_from_spec` or the
    `from_cartan` / `from_root_data` classmethods.

    Construction raises InvalidCartanData on bad input, NotTorsionFreePi1
    when pi_1 has torsion, and InvariantError if <2 rho, highest coroot> of
    a simple factor is odd."""

    def __init__(self, rank, simple_roots, simple_coroots, factor_blocks,
                 torus_indices, kappa_torus, split_form, spec_text=""):
        self.rank = rank
        self.simple_roots = tuple(tuple(r) for r in simple_roots)
        self.simple_coroots = tuple(tuple(c) for c in simple_coroots)
        self.torus_indices = tuple(torus_indices)
        self.kappa_torus = kappa_torus
        self.split_form = split_form
        self.spec_text = spec_text
        self._validate()
        self._derive(factor_blocks)
        self._weyl_cache = None
        self._weight_system_cache = {}
        self._orbit_template = None

    # -- construction ---------------------------------------------------

    @classmethod
    def from_cartan(cls, cartan_rows, torus_rank=0, torus_form=None, spec_text=""):
        """Simply connected group for a finite-type Cartan matrix, times a torus.

        Coordinates: fundamental weights of the semisimple part first, then
        the torus block.
        """
        m = len(cartan_rows)
        _validate_cartan(cartan_rows)
        if torus_rank < 0:
            raise InvalidCartanData("torus_rank must be >= 0")
        n = m + torus_rank
        roots = []
        coroots = []
        for j in range(m):
            roots.append(tuple(cartan_rows[i][j] for i in range(m)) + (0,) * torus_rank)
            coroots.append(tuple(int(i == j) for i in range(m)) + (0,) * torus_rank)
        if torus_form is None:
            kt = IntMatrix.identity(torus_rank)
        else:
            kt = IntMatrix.from_rows(torus_form)
            if kt.rows != torus_rank or not kt.is_symmetric():
                raise InvalidCartanData("torus_form must be a symmetric matrix of the torus rank")
        return cls(n, roots, coroots, _components(cartan_rows),
                   tuple(range(m, n)), kt, split_form=True, spec_text=spec_text)

    @classmethod
    def from_root_data(cls, rank, simple_roots, simple_coroots, spec_text=""):
        """Explicit lattices: simple roots in weight coordinates, simple
        coroots in coweight coordinates.  Validated, including torsion-free
        pi_1.  Level-form twists need the split shape; data built this way
        accepts only explicit twisting matrices."""
        m = len(simple_roots)
        if len(simple_coroots) != m:
            raise InvalidCartanData("need as many coroots as roots")
        cartan = [[dot(simple_roots[j], simple_coroots[i]) for j in range(m)]
                  for i in range(m)]
        _validate_cartan(cartan)
        return cls(rank, simple_roots, simple_coroots, _components(cartan),
                   (), IntMatrix.zeros(0, 0), split_form=False, spec_text=spec_text)

    # -- validation and derived structure --------------------------------

    def _validate(self):
        """One Smith normal form U C V = D of the simple-coroot matrix C, kept
        as `coroot_snf`: D is the torsion test, V's last columns are
        invariant_lattice_basis, and affineweyl.Alcove reads U, V and Vinv."""
        n = self.rank
        for r in self.simple_roots + self.simple_coroots:
            if len(r) != n:
                raise InvalidCartanData("root/coroot length does not match the rank")
        self.coroot_snf = smith_normal_form(IntMatrix(
            len(self.simple_coroots), n, [c for cv in self.simple_coroots for c in cv]))
        torsion = [d for d in self.coroot_snf.invariant_diagonal() if d > 1]
        if torsion:
            raise NotTorsionFreePi1(f"coweight lattice / coroot lattice has torsion {torsion}")

    def _derive(self, factor_blocks):
        m = len(self.simple_roots)
        cartan = [[dot(self.simple_roots[j], self.simple_coroots[i]) for j in range(m)]
                  for i in range(m)]
        self.cartan = IntMatrix.from_rows(cartan) if m else IntMatrix.zeros(0, 0)

        # simple reflection matrices on weights and coweights
        self.generators = tuple(reflection(a, av, (i,)) for i, (a, av) in
                                enumerate(zip(self.simple_roots, self.simple_coroots)))
        # the simple reflections as walls of the dominant chamber (see
        # reflect_into_chamber)
        self.simple_walls = tuple(
            (_sparse(self.simple_coroots[i]), self.simple_roots[i], 0, None) for i in range(m))
        self.identity_element = WeylElement(
            IntMatrix.identity(self.rank), IntMatrix.identity(self.rank), (), 1)

        # full root system as (root, coroot) pairs, closed under the simple
        # reflections in simple-root and simple-coroot coordinates, where s_i
        # lowers coordinate i by <beta, alpha_i^vee> and <alpha_i, beta^vee>
        columns = tuple(zip(*cartan))

        def reflections(pair):
            root, coroot = pair
            out = []
            for i, (row, col) in enumerate(zip(cartan, columns)):
                p = dot(row, root)
                if p:
                    q = dot(col, coroot)
                    out.append((root[:i] + (root[i] - p,) + root[i + 1:],
                                coroot[:i] + (coroot[i] - q,) + coroot[i + 1:]))
            return out

        def combine(coords, basis):
            return tuple(sum(c * v[k] for c, v in zip(coords, basis)) for k in range(self.rank))

        simple = [tuple(int(i == j) for j in range(m)) for i in range(m)]
        found = sorted(((combine(r, self.simple_roots), combine(c, self.simple_coroots)), r)
                       for r, c in closure([(e, e) for e in simple], reflections))
        self.root_pairs = tuple(p for p, _ in found)
        positive = [(p, coords) for p, coords in found if min(coords) >= 0]
        if 2 * len(positive) != len(self.root_pairs):
            raise InvalidCartanData("root system is not symmetric under negation")
        self.positive_root_pairs = tuple(p for p, _ in positive)
        self._heights = tuple(sum(coords) for _, coords in positive)

        self.rho2 = tuple(sum(r[i] for r, _ in self.positive_root_pairs)
                          for i in range(self.rank))

        # dual Coxeter numbers per factor, from the factor's highest root
        factors = []
        for comp in factor_blocks:
            comp = tuple(comp)
            sub = [[cartan[i][j] for j in comp] for i in comp]
            best = None
            for (r, cv), coords in positive:
                if any(coords[j] != 0 and j not in comp for j in range(m)):
                    continue
                h = sum(coords)
                if best is None or h > best[0]:
                    best = (h, cv, r)
            pairing2 = dot(self.rho2, best[1])
            if pairing2 % 2:
                raise InvariantError(f"<2 rho, highest coroot> = {pairing2} is odd")
            factors.append(SimpleFactor(
                name=_classify(sub), indices=comp,
                cartan=IntMatrix.from_rows(sub), kappa=_basic_pairing(sub),
                dual_coxeter=1 + pairing2 // 2, highest_root=(best[2], best[1])))
        self.factors = tuple(factors)

        self.rho_tilde, self.rho_tilde_note = self._pick_rho_tilde()

        # W-invariant form on weight coordinates: the sum of alpha^vee
        # (alpha^vee)^T over the positive coroots, in integers.  It is
        # degenerate on the W-fixed weights, which the weight recursion never
        # sees: it reads differences of norms inside one weight system, whose
        # weights differ by roots, and pairings with roots.
        self._gram_int = [[sum(cv[i] * cv[j] for _, cv in self.positive_root_pairs)
                           for j in range(self.rank)] for i in range(self.rank)]

    def _pick_rho_tilde(self):
        if all(x % 2 == 0 for x in self.rho2):
            return tuple(x // 2 for x in self.rho2), "rho"
        # lift: rho + (invariant-lattice vector)/2 that is integral, with the
        # lexicographically least correction pattern
        inv = self.invariant_lattice_basis()
        k = len(inv)
        for mask in range(2 ** k):
            y = [(mask >> i) & 1 for i in range(k)]
            cand2 = list(self.rho2)
            for i, yi in enumerate(y):
                if yi:
                    cand2 = [a + b for a, b in zip(cand2, inv[i])]
            if all(x % 2 == 0 for x in cand2):
                return tuple(x // 2 for x in cand2), f"rho+invariant_correction{tuple(y)}"
        raise InvalidCartanData("no integral representative congruent to rho "
                                "modulo the invariant lattice")

    def invariant_lattice_basis(self):
        """Z-basis of the W-invariant sublattice of the weight lattice: a
        weight is fixed by s_i exactly when it pairs to 0 with alpha_i^vee,
        so this is ker C, the last rank - m columns of coroot_snf's V."""
        v = self.coroot_snf.V
        return [v.column(j) for j in range(len(self.simple_roots), self.rank)]

    # -- basic queries ----------------------------------------------------

    def inner_scaled(self, x, y):
        """The integer invariant form (_gram_int): the sum over the positive
        coroots of <x, alpha^vee> <y, alpha^vee>."""
        g = self._gram_int
        acc = 0
        for i, xi in enumerate(x):
            if xi:
                gi = g[i]
                acc += xi * sum(gi[j] * yj for j, yj in enumerate(y))
        return acc

    def is_dominant(self, weight):
        """Does the weight pair to >= 0 with every simple coroot?  The
        coroots are read sparsely, off simple_walls."""
        for coroot, _, _, _ in self.simple_walls:
            p = 0
            for j, c in coroot:
                p += weight[j] * c
            if p < 0:
                return False
        return True

    def is_regular(self, v, d):
        """Is the point x = v / d of t regular: is its stabilizer in
        (coweights) x| W trivial?  v is an integer coweight vector, d != 0.
        The stabilizer is finite and pi_1 is free, so it lies in the affine
        Weyl group (coroots) x| W, where it is generated by the reflections
        in the hyperplanes <alpha, x> in Z through x (Humphreys, Reflection
        Groups and Coxeter Groups, Thm 4.8).  So x is regular iff
        <alpha, v> != 0 mod d for every positive root alpha.  A weight lam
        is tested at b^-1 lam, i.e. v = adj(b) lam and d = det b; an F_eps
        lift y at its order m."""
        return all(sum(map(mul, alpha, v)) % d for alpha, _ in self.positive_root_pairs)

    def is_torus(self):
        return not self.factors

    def positive_roots(self):
        return tuple(r for r, _ in self.positive_root_pairs)

    def check_weight(self, weight):
        return as_weight(self.rank, weight)

    def describe(self):
        return {
            "group": self.spec_text,
            "rank": self.rank,
            "factors": [{"name": f.name, "rank": len(f.indices),
                         "dual_coxeter": f.dual_coxeter} for f in self.factors],
            "torus_rank": self.rank - len(self.simple_roots)
            if not self.split_form else len(self.torus_indices),
            "num_roots": len(self.root_pairs),
            "rho_tilde": list(self.rho_tilde),
            "rho_tilde_choice": self.rho_tilde_note,
        }


# -- named group specs ----------------------------------------------------

_FACTOR_RE = re.compile(r"^(SU|Spin|Sp|U)\((\d+)\)(?:\^(\d+))?$")


def _named_factor(name):
    m = _FACTOR_RE.match(name)
    if not m:
        raise SpecParseError(f"cannot parse group factor {name!r}")
    kind, arg, power = m.group(1), int(m.group(2)), int(m.group(3) or 1)
    if power < 1:
        raise SpecParseError(f"a power of a group factor needs n >= 1, got {name!r}")
    if kind == "U":
        if arg != 1:
            raise SpecParseError("only U(1) torus factors are supported by name")
        return [("torus", 1)] * power
    if kind == "SU":
        if arg < 2:
            raise SpecParseError("SU(n) needs n >= 2")
        return [("cartan", _cartan_A(arg - 1))] * power
    if kind == "Spin":
        if arg == 5:
            return [("cartan", _cartan_B(2))] * power
        if arg == 7:
            return [("cartan", _cartan_B(3))] * power
        raise SpecParseError("Spin(n) is supported by name only for n in {5, 7}")
    if kind == "Sp":
        if arg < 1:
            raise SpecParseError("Sp(n) needs n >= 1")
        return [("cartan", _cartan_C(arg))] * power
    raise SpecParseError(f"unknown group factor {name!r}")


def _cartan_A(n):
    return [[2 if i == j else (-1 if abs(i - j) == 1 else 0)
             for j in range(n)] for i in range(n)]


def _cartan_B(n):
    a = _cartan_A(n)
    a[n - 1][n - 2] = -2
    return a


def _cartan_C(n):
    if n == 1:
        return [[2]]
    a = _cartan_A(n)
    a[n - 2][n - 1] = -2
    return a


def root_datum_from_spec(spec, torus_form=None):
    """Build a RootDatum from a group description.

    `spec` is either a name like "SU(2) x U(1)^2" or a dict with keys
    `cartan` (list of rows) and optional `torus_rank` / `torus_form`.
    """
    if isinstance(spec, dict):
        known = {"cartan", "torus_rank", "torus_form", "group"}
        extra = set(spec) - known
        if extra:
            raise SpecParseError(f"unknown group spec keys {sorted(extra)}")
        if "group" in spec:
            return root_datum_from_spec(spec["group"], spec.get("torus_form", torus_form))
        if "cartan" not in spec:
            raise SpecParseError("group spec needs either 'group' or 'cartan'")
        return RootDatum.from_cartan(
            spec["cartan"], spec.get("torus_rank", 0), spec.get("torus_form", torus_form),
            spec_text=f"cartan={spec['cartan']}")
    if not isinstance(spec, str):
        raise SpecParseError(f"a group is a name or a table, got {spec!r}")
    text = spec.strip()
    # split at x or × outside parentheses, so "SU(x)" stays one factor
    parts = [p.strip() for p in re.split(r"[x×](?![^()]*\))", text)] if text else []
    if not parts:
        raise SpecParseError("empty group spec")
    blocks = []
    for part in parts:
        if not part:
            raise SpecParseError(f"empty factor in group spec {text!r}")
        blocks.extend(_named_factor(part))
    cartan_blocks = [b for kind, b in blocks if kind == "cartan"]
    torus_rank = sum(1 for kind, _ in blocks if kind == "torus")
    m = sum(len(b) for b in cartan_blocks)
    cartan = [[0] * m for _ in range(m)]
    off = 0
    for b in cartan_blocks:
        for i, row in enumerate(b):
            for j, v in enumerate(row):
                cartan[off + i][off + j] = v
        off += len(b)
    return RootDatum.from_cartan(cartan, torus_rank, torus_form, spec_text=text)


# -- Cartan matrix validation ----------------------------------------------

def _validate_cartan(a):
    n = len(a)
    for i, row in enumerate(a):
        if len(row) != n:
            raise InvalidCartanData("Cartan matrix must be square")
        for j, v in enumerate(row):
            if v != int(v):
                raise InvalidCartanData("Cartan entries must be integers")
            if i == j and v != 2:
                raise InvalidCartanData("Cartan diagonal must be 2")
            if i != j and v > 0:
                raise InvalidCartanData("off-diagonal Cartan entries must be <= 0")
    for i in range(n):
        for j in range(n):
            if (a[i][j] == 0) != (a[j][i] == 0):
                raise InvalidCartanData("Cartan zero pattern must be symmetric")
    d = _symmetrizer(a)
    # positive definiteness of the symmetrization == finite type
    minor = [[d[i] * a[i][j] for j in range(n)] for i in range(n)]
    for k in range(n):
        piv = minor[k][k]
        if piv <= 0:
            raise InvalidCartanData("Cartan matrix is not of finite type")
        for i in range(k + 1, n):
            c = minor[i][k] / piv
            minor[i] = [x - c * y for x, y in zip(minor[i], minor[k])]


def _symmetrizer(a):
    """Rational d_i > 0 with d_i a_ij = d_j a_ji, long roots normalized to 1."""
    n = len(a)
    d = [None] * n
    for start in range(n):
        if d[start] is not None:
            continue
        d[start] = Fraction(1)
        stack = [start]
        while stack:
            i = stack.pop()
            for j in range(n):
                if i != j and a[i][j] != 0:
                    dj = d[i] * Fraction(a[i][j], a[j][i])
                    if d[j] is None:
                        d[j] = dj
                        stack.append(j)
                    elif d[j] != dj:
                        raise InvalidCartanData("Cartan matrix is not symmetrizable")
    for comp in _components(a):
        top = max(d[i] for i in comp)
        for i in comp:
            d[i] /= top
    return d


def _components(a):
    """The connected components of the Dynkin diagram of a, each one the
    closure of its least index over the nonzero entries of the rows, sorted,
    in order of least index."""
    comps, seen = [], set()
    for start in range(len(a)):
        if start not in seen:
            comp = closure([start], lambda i: [j for j, v in enumerate(a[i]) if v])
            seen |= comp
            comps.append(sorted(comp))
    return comps


def _basic_pairing(a):
    """kappa on a simple block: kappa_ij = a_ij / d_j (an integer matrix)."""
    d = _symmetrizer(a)
    n = len(a)
    rows = []
    for i in range(n):
        row = []
        for j in range(n):
            v = Fraction(a[i][j]) / d[j]
            if v.denominator != 1:
                raise InvalidCartanData("basic pairing is not integral")
            row.append(v.numerator)
        rows.append(row)
    k = IntMatrix.from_rows(rows)
    if not k.is_symmetric():
        raise InvalidCartanData("basic pairing failed to symmetrize")
    return k


def _classify(a):
    """Human-readable label for a connected finite-type Cartan block."""
    n = len(a)
    if n == 1:
        return "A1"
    pairs = [(abs(a[i][j]), abs(a[j][i])) for i in range(n) for j in range(i + 1, n)
             if a[i][j] != 0]
    degrees = [sum(1 for j in range(n) if j != i and a[i][j] != 0) for i in range(n)]
    if all(p == (1, 1) for p in pairs):
        if max(degrees) <= 2:
            return f"A{n}"
        branch = degrees.index(3)
        leaf_neighbors = sum(1 for j in range(n)
                             if a[branch][j] != 0 and j != branch and degrees[j] == 1)
        return f"D{n}" if leaf_neighbors >= 2 else f"E{n}"
    if any(p in ((1, 2), (2, 1)) for p in pairs):
        if n == 2:
            return "B2"
        for i in range(n):
            for j in range(n):
                if i != j and a[i][j] == -2:
                    # a[i][j] = -2 makes row i the short root's row: a leaf
                    # for B, while C has the long root at the leaf
                    if degrees[i] == 1:
                        return f"B{n}"
                    if degrees[j] == 1:
                        return f"C{n}"
                    return f"F{n}"
    if any(p in ((1, 3), (3, 1)) for p in pairs):
        return "G2"
    return f"simple{n}"


# -- Weyl group ------------------------------------------------------------

def weyl_order(rd: RootDatum):
    """|W| as the product of the degrees, without enumerating W.

    With n_k positive roots of height k, the exponent k occurs
    n_k - n_(k+1) times (the height partition is dual to the partition of
    the exponents; Kostant, Amer. J. Math. 81 (1959) 973), and each
    exponent k gives the degree k + 1."""
    heights = Counter(rd._heights)
    order = 1
    for k, count in heights.items():
        order *= (k + 1) ** (count - heights.get(k + 1, 0))
    return order


# the largest group vkt enumerates element by element: W, or the cosets of F
MAX_GROUP_ORDER = 10 ** 6

# the most steps the averaged pairing's kernel build takes: its per-axis DFT
# over the Smith coordinates plus the table it fills (fusion.check_pairing_budget)
MAX_PAIRING_WORK = 10 ** 7


def weyl_group_elements(rd: RootDatum):
    """All elements of W, read off the per-datum tree of the W-orbit of
    2 rho (_free_orbit_template): point k + 1 is s_i applied to its parent
    point, so its element is s_i times the parent's: one product of
    matrices and one of comatrices per edge.  Words are shortest
    expressions (the tree is breadth-first); the result is cached on the
    datum and deterministic (sorted by word length, then word).  Raises
    GroupTooLarge, before building anything, when |W| exceeds
    MAX_GROUP_ORDER (_free_orbit_template)."""
    if rd._weyl_cache is None:
        moves, signs, _ = _free_orbit_template(rd)
        elems = [rd.identity_element]
        for (parent, i, _, _), sign in zip(moves, signs[1:]):
            w, g = elems[parent], rd.generators[i]
            elems.append(WeylElement(g.matrix * w.matrix, g.comatrix * w.comatrix,
                                     (i,) + w.word, sign))
        rd._weyl_cache = sorted(elems, key=lambda e: (len(e.word), e.word))
    return rd._weyl_cache


def simple_reflections_mod(rd: RootDatum, y, m):
    """The images of the coweight y under the simple reflections
    y -> y - <alpha_i, y> alpha_i^vee, reduced mod m."""
    out = []
    for alpha, coalpha in zip(rd.simple_roots, rd.simple_coroots):
        p = dot(alpha, y)
        out.append(tuple((c - p * a) % m for c, a in zip(y, coalpha)))
    return out


def coweight_orbit_mod(rd: RootDatum, y, m):
    """The W-orbit of the coweight y (reduced mod m) modulo m, by closure
    under the simple reflections: the work is the orbit's size times the
    rank, not |W|."""
    return closure([tuple(y)], lambda x: simple_reflections_mod(rd, x, m))


def _sparse(coroot):
    """The nonzero coordinates of a coroot as (index, value) pairs."""
    return tuple((j, c) for j, c in enumerate(coroot) if c)


def reflect_into_chamber(lam, walls):
    """Reflect lam through the first wall it violates until it violates none.

    A wall is (coroot, root, bound2, shift): `coroot` lists the nonzero
    coordinates of a coweight c as (index, value) pairs, and lam violates
    the wall when 2 <lam, c> < bound2; the reflection through it is
    lam -> lam - <lam, c> root + shift (shift None for zero).  Returns
    (lam, word) with `word` the indices of the walls crossed, in order."""
    lam = list(lam)
    word = []
    while True:
        for k, (coroot, root, bound2, shift) in enumerate(walls):
            p = 0
            for j, c in coroot:
                p += lam[j] * c
            if 2 * p < bound2:
                lam = [x - p * r for x, r in zip(lam, root)]
                if shift is not None:
                    lam = [x + s for x, s in zip(lam, shift)]
                word.append(k)
                break
        else:
            return tuple(lam), word


def dominant_walk(rd: RootDatum, weight):
    """(dominant weight, sign, on_wall) by the simple-reflection walk: the
    sign is (-1)**(number of reflections), and on_wall is set when the
    dominant weight pairs to zero with a simple coroot."""
    lam, word = reflect_into_chamber(weight, rd.simple_walls)
    on_wall = any(dot(lam, cv) == 0 for cv in rd.simple_coroots)
    return lam, -1 if len(word) & 1 else 1, on_wall


def dominant_representative(rd: RootDatum, weight) -> DominantResult:
    """Move a weight into the dominant chamber, tracking the Weyl witness.

    The result's `element` w satisfies w(weight) = result.weight; `on_wall`
    is set when the weight is fixed by some reflection (equivalently, its
    dominant representative pairs to zero with some simple coroot)."""
    lam, word = reflect_into_chamber(rd.check_weight(weight), rd.simple_walls)
    mat = IntMatrix.identity(rd.rank)
    comat = IntMatrix.identity(rd.rank)
    for i in reversed(word):
        mat = mat * rd.generators[i].matrix
        comat = comat * rd.generators[i].comatrix
    elem = WeylElement(mat, comat, tuple(reversed(word)), (-1) ** len(word))
    on_wall = any(dot(lam, cv) == 0 for cv in rd.simple_coroots)
    return DominantResult(lam, elem, elem.determinant, on_wall)


# -- representations --------------------------------------------------------

def weyl_dimension_key(rd: RootDatum, lam):
    """prod over positive coroots of <2 lam + 2 rho, alpha^vee>: by the Weyl
    dimension formula, dim V_lam times the key of the zero weight."""
    return prod(2 * dot(lam, cv) + dot(rd.rho2, cv) for _, cv in rd.positive_root_pairs)


def weyl_dimension(rd: RootDatum, lam):
    """Dimension of the irreducible with dominant highest weight lam, as
    weyl_dimension_key(lam) // weyl_dimension_key(0); raises InvariantError
    if the division leaves a remainder."""
    lam = rd.check_weight(lam)
    dim, rem = divmod(weyl_dimension_key(rd, lam), weyl_dimension_key(rd, (0,) * rd.rank))
    if rem:
        raise InvariantError(f"Weyl dimension of {lam} is not an integer")
    return dim


def _free_orbit_template(rd: RootDatum):
    """The W-orbit of 2 rho as a breadth-first tree, built once per datum:
    (moves, signs, points), where moves[k] = (parent, i, coroot, root) makes
    point k + 1 the reflection of point `parent` through the simple wall i,
    rd.simple_walls[i] = (coroot, root, ...), and signs[k] = det w for
    points[k] = w(2 rho).  2 rho is strictly dominant, so its orbit
    is free and point k names w; the same moves carry any strictly dominant
    weight over its orbit with one reflection per point.
    GroupTooLarge, before the first point, when |W| (weyl_order) exceeds
    MAX_GROUP_ORDER; InvariantError if a reflection meets a point with the
    sign of its source (a point with both signs) or the orbit does not have
    |W| points."""
    if weyl_order(rd) > MAX_GROUP_ORDER:
        raise GroupTooLarge(f"Weyl group exceeds {MAX_GROUP_ORDER} elements")
    if rd._orbit_template is not None:
        return rd._orbit_template
    points, signs, moves = [rd.rho2], [1], []
    index = {rd.rho2: 0}
    for k, v in enumerate(points):               # points grows as it is read
        for i, (coroot, root, _, _) in enumerate(rd.simple_walls):
            p = 0
            for j, c in coroot:
                p += v[j] * c
            u = tuple(x - p * r for x, r in zip(v, root))
            seen = index.get(u)
            if seen is None:
                index[u] = len(points)
                points.append(u)
                signs.append(-signs[k])
                moves.append((k, i, coroot, root))
            elif signs[seen] == signs[k]:
                raise InvariantError(f"the W-orbit of 2 rho holds {u} with both signs")
    order = weyl_order(rd)
    if len(points) != order:
        raise InvariantError(f"the W-orbit of 2 rho has {len(points)} points, "
                             f"expected |W| = {order}")
    rd._orbit_template = (tuple(moves), tuple(signs), tuple(points))
    return rd._orbit_template


def signed_orbit(rd: RootDatum, v):
    """The W-orbit of a strictly dominant weight v as {w(v): det w}.

    Its stabilizer is trivial, so the orbit is free: the per-datum tree of
    _free_orbit_template carries v over it with one reflection per point,
    |W| in all, and the tree's point w(2 rho) gives w(v) its sign det w.
    GroupTooLarge from the tree when |W| exceeds MAX_GROUP_ORDER;
    InvariantError if a point comes with both signs (v lies on a wall) or
    there are not |W| of them."""
    moves, signs, _ = _free_orbit_template(rd)
    points = [tuple(v)]
    for parent, _, coroot, root in moves:
        u = points[parent]
        p = 0
        for j, c in coroot:
            p += u[j] * c
        points.append(tuple(x - p * r for x, r in zip(u, root)))
    out = {}
    for u, sign in zip(points, signs):
        if out.setdefault(u, sign) != sign:
            raise InvariantError(f"the W-orbit of {points[0]} holds {u} with both signs")
    if len(out) != len(signs):
        raise InvariantError(f"the W-orbit of {points[0]} has {len(out)} points, "
                             f"expected |W| = {len(signs)}")
    return out


def weyl_numerator(rd: RootDatum, lam):
    """The Weyl numerator of V_lam over e^rho, as {w(lam + rho) - rho: det w}.

    By the Weyl character formula chi_lam = A_(lam+rho) / A_rho with
    A_mu = sum_w det(w) e^(w mu), and A_(lam+rho) = e^rho times the sum over
    this dict; each w(lam + rho) - rho is an integral weight even where rho
    is not.  lam + rho is strictly dominant, so the dict is the signed_orbit
    of 2 lam + 2 rho, halved after rho is taken off.
    ValueError unless lam is a dominant weight (highest_weight), then
    GroupTooLarge and InvariantError from signed_orbit."""
    lam = highest_weight(rd, lam)
    orbit = signed_orbit(rd, tuple(2 * a + r for a, r in zip(lam, rd.rho2)))
    return {tuple((x - r) // 2 for x, r in zip(v, rd.rho2)): sign for v, sign in orbit.items()}


def highest_weight(rd: RootDatum, lam):
    """lam as a weight tuple (RootDatum.check_weight); ValueError unless it
    is dominant."""
    lam = rd.check_weight(lam)
    if not rd.is_dominant(lam):
        raise ValueError("highest weight must be dominant")
    return lam


def weight_multiplicities(rd: RootDatum, lam):
    """The full weight system of the irreducible V_lam, as {weight: mult}.

    The dominant weights are taken in order of decreasing |mu + rho|^2; the
    Freudenthal recursion gives each one's multiplicity, and its W-orbit,
    found breadth-first over the simple reflections, goes into the same
    dict at once, so every alpha-string term is one look-up.
    ValueError unless lam is dominant (highest_weight); InvariantError if
    the recursion meets a non-integer multiplicity.  Cached per datum
    (the cache fill is idempotent, so concurrent first calls are safe);
    the caller gets its own copy."""
    return dict(_weight_system(rd, highest_weight(rd, lam)))


def _weight_system(rd: RootDatum, lam):
    """The cached weight system of V_lam (weight_multiplicities) for a
    dominant weight tuple lam, not validated and not copied: callers must
    not mutate it."""
    cached = rd._weight_system_cache.get(lam)
    if cached is not None:
        return cached
    if not rd.factors:
        rd._weight_system_cache[lam] = {lam: 1}
        return rd._weight_system_cache[lam]

    # the dominant weights of V_lam are the dominant mu <= lam, and each is
    # reached from lam through dominant weights by subtracting positive roots
    # (Stembridge, Adv. Math. 136 (1998) 340)
    positive = rd.positive_roots()
    dominants = closure([lam], lambda mu: [nu for nu in (vec_sub(mu, alpha) for alpha in positive)
                                           if rd.is_dominant(nu)])
    # |mu + rho|^2, scaled, on the doubled vectors 2 mu + 2 rho so the whole
    # recursion stays in integer arithmetic
    norm = {}
    for mu in dominants:
        mu2 = tuple(2 * a + b for a, b in zip(mu, rd.rho2))
        norm[mu] = rd.inner_scaled(mu2, mu2)
    top = norm[lam]
    # each positive root with the covector inner_scaled(., alpha) and its step
    # inner_scaled(alpha, alpha) along the alpha-strings
    strings = []
    for alpha in positive:
        form = tuple(sum(map(mul, row, alpha)) for row in rd._gram_int)
        strings.append((alpha, form, sum(map(mul, alpha, form))))

    # Each dominant weight above mu has a strictly larger norm, so in this
    # order its whole W-orbit is in `system` before mu is reached, and each
    # term of mu's alpha-strings is one look-up
    system = {}
    for mu in sorted(dominants, key=norm.__getitem__, reverse=True):
        if mu == lam:
            val = 1
        else:
            acc = 0
            for alpha, form, step in strings:
                # the alpha-string through the weight mu is unbroken: stop at
                # the first mu + k alpha that is not a weight;
                # <mu + k alpha, alpha> grows by <alpha, alpha> per step
                xi = vec_add(mu, alpha)
                m = system.get(xi)
                if m:
                    pairing = sum(map(mul, xi, form))
                    while m:
                        acc += m * pairing
                        pairing += step
                        xi = vec_add(xi, alpha)
                        m = system.get(xi)
            # the scale factors cancel to (2 * 4) / denominator-in-doubled-norms
            val, rem = divmod(8 * acc, top - norm[mu])
            if rem:
                raise InvariantError(f"Freudenthal recursion for {lam} gives a non-integer "
                                     f"multiplicity at {mu}")
            if not val:
                continue
        # mu's W-orbit, breadth-first over the simple reflections; orbits are
        # disjoint, so a weight already in `system` was reached in this one
        system[mu] = val
        frontier = [mu]
        while frontier:
            nxt = []
            for nu in frontier:
                for coroot, root, _, _ in rd.simple_walls:
                    p = 0
                    for j, c in coroot:
                        p += nu[j] * c
                    if p:
                        u = tuple([x - p * r for x, r in zip(nu, root)])
                        if u not in system:
                            system[u] = val
                            nxt.append(u)
            frontier = nxt
    rd._weight_system_cache[lam] = system
    return system


def tensor_decompose(rd: RootDatum, lam, mu):
    """Decompose V_lam (x) V_mu into irreducibles: {dominant weight: mult}.

    Runs over the weight system of the smaller factor, reflecting
    rho-shifted weights into the dominant chamber with signs and dropping
    those on walls.  All arithmetic is integral (weights are doubled
    internally so the rho shift stays in the lattice)."""
    lam = rd.check_weight(lam)
    mu = rd.check_weight(mu)
    if not (rd.is_dominant(lam) and rd.is_dominant(mu)):
        raise ValueError("tensor factors must be dominant")
    if rd.factors and weyl_dimension(rd, mu) > weyl_dimension(rd, lam):
        lam, mu = mu, lam
    out = {}
    for nu, m in weight_multiplicities(rd, mu).items():
        eta = vec_add(vec_scale(2, vec_add(lam, nu)), rd.rho2)
        weight, sign, on_wall = dominant_walk(rd, eta)
        if on_wall:
            continue
        target = tuple((x - y) // 2 for x, y in zip(weight, rd.rho2))
        out[target] = out.get(target, 0) + sign * m
    return {k: v for k, v in sorted(out.items()) if v}
