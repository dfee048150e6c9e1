"""The extended affine Weyl group acting on the weight lattice.

The group is (coweight lattice) semidirect W.  On weight coordinates the
element (pi, w) acts by lam -> w(lam) + b(pi), where b is the twisting's
injection; the sign character is det(w) * (-1)**eps(pi).

Orbit normal forms come from an integer alcove walk (Kac-Walton; Walton,
Nucl. Phys. B340 (1990) 777; Kac, Infinite-dimensional Lie algebras,
Ex. 13.35): a weight costs a few integer reflections, with no loop over W
or over the cosets of b:

* Walls.  Each simple factor's highest root theta has b(theta^vee) =
  l_theta theta.  The closed alcove is <lam, alpha_i^vee> >= 0 for the
  simple coroots and <lam, theta^vee> <= |l_theta| per factor.  The simple
  reflections lam -> lam - <lam, alpha_i^vee> alpha_i have sign -1; the
  affine reflection lam -> lam - (<lam, theta^vee> - |l_theta|) theta
  translates by +-theta^vee and has sign -(-1)**eps(theta^vee).  Together
  they generate W x (coroot lattice), which meets each orbit in the closed
  alcove exactly once.
* Free part.  The coweights modulo the coroots (pi_1, free) act through
  b(coweights) / b(coroots).  A free coordinate f(lam) in Q^r, the
  W-invariant projection of b^-1 lam, is moved into [0, 1)^r by a coweight
  translation first; the walk back into the alcove leaves f unchanged.
  On split data f is b^-1 on the torus block, so this is the box reduction
  of the torus coordinates.
* ZERO.  The stabilizer of an alcove point is generated by the reflections
  in the walls through it, so the orbit is ZERO exactly when one of those
  walls carries a sign -1 reflection.  Whether the stabilizer is trivial
  at all is the root test RootDatum.is_regular, with no scan over W.

A surviving orbit is labelled by the point the walk lands on: the lattice
point of the closed alcove with free coordinates in [0, 1)^r.  The basis
is read off those points, so no label needs W.

Alcove.reduce does both steps, the walk and the ZERO test, and returns
(alcove point, sign) with sign 0 for a ZERO orbit.  It is memoized per
weight on the twisting's cached Alcove, so one cache answers both "where
does this weight land" and "is its orbit ZERO".
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product
from math import ceil, floor, lcm

from .errors import InvariantError
from .rootdata import (
    RootDatum,
    WeylElement,
    _free_orbit_template,
    closure,
    dot,
    reflect_into_chamber,
    reflection,
    vec_add,
    vec_scale,
    vec_sub,
)
from .twist import Twisting
from .zlattice import (
    IntMatrix,
    box_points,
    inverse_rational,
)


@dataclass(frozen=True)
class AffineElement:
    """(translation, Weyl part); translations are coweight coordinate tuples."""

    translation: tuple
    weyl: WeylElement


def act(tau: Twisting, g: AffineElement, lam) -> tuple:
    """The affine action on the weight lattice: w(lam) + b(pi)."""
    lam = tau.rd.check_weight(lam)
    return vec_add(g.weyl.apply(lam), tau.apply_b(g.translation))


def sign_character(tau: Twisting, g: AffineElement) -> int:
    return g.weyl.determinant * tau.translation_sign(g.translation)


class OrbitReduction:
    """Normal form of an orbit: canonical representative and sign.

    `representative` is None exactly when the orbit dies (its stabilizer
    contains an element of sign -1); then `sign` is meaningless.  Otherwise
    some g has act(g, input) == representative and sign == sign_character(g).
    """

    __slots__ = ("representative", "sign")

    def __init__(self, representative, sign):
        self.representative = representative
        self.sign = sign

    @property
    def is_zero(self):
        return self.representative is None


def box_reduce(tau: Twisting, vec):
    """Translate vec into the fundamental half-open box of b(coweights).

    Returns (reduced vector, translation pi) with vec + b(pi) reduced;
    pi = -floor(b^-1 vec) by the twisting's integer kernel."""
    pi = tuple(-x for x in tau.floor_b_inverse(vec))
    return vec_add(vec, tau.apply_b(pi)), pi


class Alcove:
    """The closed alcove of one twisting: its walls, the free coordinates,
    and the memoized reduction of weights into it (reduce).

    Walls come in the order of rootdata.reflect_into_chamber: the simple
    reflections, then one affine theta-wall per simple factor.  The free
    part reads the datum's Smith normal form U C V = D of the simple-coroot
    pairing C (RootDatum.coroot_snf): its transforms give a section S of C
    (weights with the given pairings), a basis of the W-invariant weights
    ker C, and coweights lifting the free coordinates; on split data all
    three are unit vectors."""

    def __init__(self, tau: Twisting):
        rd = self.rd = tau.rd
        self.tau = tau
        n, m = rd.rank, len(rd.simple_roots)
        u, v = rd.coroot_snf.U, rd.coroot_snf.V
        cols = [v.column(j) for j in range(n)]
        # S = V[:, :m] U, so that C S = I: section[j] pairs to e_j with C
        self.section = [tuple(sum(cols[k][i] * u.at(k, j) for k in range(m))
                              for i in range(n)) for j in range(m)]
        self.invariant = rd.invariant_lattice_basis()
        self.lifts = [rd.coroot_snf.Vinv.row(j) for j in range(m, n)]
        # f(lam) = (v_k . adj(b) lam) / det b for the invariant weights v_k
        self.free_rows = [tuple(tau.adj_apply(vk)) for vk in self.invariant]

        self.walls = list(rd.simple_walls)
        self.signs = [-1] * m
        self.factors = []            # (simple indices, comarks, 2 |l_theta|)
        for f in rd.factors:
            theta, cotheta = f.highest_root
            image = tau.apply_b(cotheta)
            level2 = dot(image, cotheta)               # 2 l_theta
            if any(2 * x != level2 * t for x, t in zip(image, theta)):
                raise InvariantError(f"b(theta^vee) = {image} is not a multiple of theta = {theta}")
            k = 1 if level2 > 0 else -1
            self.walls.append((tuple((j, -c) for j, c in enumerate(cotheta) if c),
                               tuple(-t for t in theta), -abs(level2),
                               tuple(k * x for x in image)))
            self.signs.append(-tau.translation_sign(cotheta))
            self.factors.append((f.indices, tuple(dot(self.section[i], cotheta) for i in f.indices),
                                 abs(level2)))
        self._reduced = {}

    # -- the reduction --------------------------------------------------------

    def reduce(self, lam):
        """(alcove point, sign) for the weight tuple lam, with sign 0 when
        the orbit is ZERO.  A free translation pi0 gives lam + b(pi0) free
        coordinates in [0, 1)^r, and the walls crossed from there take it
        to the alcove point; some g with act(g, lam) = point has sign =
        sign_character(g).  The orbit is ZERO when a wall through the point
        carries a sign -1 reflection.  Memoized per weight: a product or a
        module action reduces the same weights again and again, and a
        repeated weight costs one dictionary read."""
        hit = self._reduced.get(lam)
        if hit is None:
            tau, d = self.tau, self.tau.det_b
            pi0 = None
            for row, lift in zip(self.free_rows, self.lifts):
                z = dot(row, lam) // d
                if z:
                    step = tuple(-z * c for c in lift)
                    pi0 = step if pi0 is None else vec_add(pi0, step)
            moved = lam if pi0 is None else vec_add(lam, tau.apply_b(pi0))
            point, word = reflect_into_chamber(moved, self.walls)
            sign = 1 if pi0 is None else tau.translation_sign(pi0)
            for k in word:
                sign *= self.signs[k]
            if any(s < 0 and 2 * sum(point[j] * c for j, c in coroot) == bound2
                   for (coroot, _, bound2, _), s in zip(self.walls, self.signs)):
                sign = 0
            hit = self._reduced[lam] = point, sign
        return hit

    # -- the lattice points of the closed alcove ------------------------------

    def points(self):
        """Every lattice point of the closed alcove strictly inside the
        simple walls with free coordinates in [0, 1)^r, in a deterministic
        order: one point per orbit whose alcove point lies on no simple
        wall.  The simple walls carry sign -1, so the orbits left out are
        ZERO, and not free.
        A point is S a + sum_k z_k v_k for alcove pairings a and integers z;
        its free coordinates are (h0 + H z) / det b with h0 = f-rows . S a
        and H the f-rows on the v_k, so z ranges over H^-1 (box - h0),
        bounded at the box's corners."""
        d, rank, r = self.tau.det_b, self.rd.rank, len(self.invariant)
        h = [[dot(row, v) for v in self.invariant] for row in self.free_rows]
        hinv = inverse_rational(IntMatrix.from_rows(h)) if r else []
        ends = (0, d - 1) if d > 0 else (d + 1, 0)      # floor(y / d) == 0
        for a in self._pairings():
            base = (0,) * rank
            for ai, col in zip(a, self.section):
                if ai:
                    base = vec_add(base, [ai * c for c in col])
            h0 = [dot(row, base) for row in self.free_rows]
            corners = [[ends[e] - c for e, c in zip(bits, h0)] for bits in box_points((2,) * r)]
            ranges = [range(ceil(min(dot(row, y) for y in corners)),
                            floor(max(dot(row, y) for y in corners)) + 1) for row in hinv]
            for z in product(*ranges):
                if all((c + dot(row, z)) // d == 0 for c, row in zip(h0, h)):
                    point = base
                    for zk, v in zip(z, self.invariant):
                        point = vec_add(point, [zk * c for c in v])
                    yield point

    def _pairings(self):
        """The simple-coroot pairings a of the closed-alcove points strictly
        inside the simple walls: a_i >= 1 and 2 sum_i comark_i a_i <=
        2 |l_theta| on each factor, that is a = 1 + a' with a' >= 0 and
        2 sum_i comark_i a'_i <= 2 |l_theta| - 2 sum_i comark_i.  A point
        with some a_i = 0 lies on a simple wall of sign -1: it is ZERO."""
        vectors = [[0] * len(self.rd.simple_roots)]
        for idx, comarks, bound in self.factors:
            grown = []
            for a in vectors:
                for part in _bounded_vectors([2 * c for c in comarks], bound - 2 * sum(comarks)):
                    b = list(a)
                    for i, ai in zip(idx, part):
                        b[i] = ai + 1
                    grown.append(b)
            vectors = grown
        return vectors


def _bounded_vectors(weights, budget):
    """The nonnegative integer vectors a with sum_i weights_i a_i <= budget."""
    if not weights:
        yield ()
        return
    for first in range(budget // weights[0] + 1):
        for rest in _bounded_vectors(weights[1:], budget - weights[0] * first):
            yield (first,) + rest


def alcove(tau: Twisting) -> Alcove:
    """The twisting's Alcove, built once and cached on it."""
    return tau.cached("alcove", lambda: Alcove(tau))


def orbit_normal_form(tau: Twisting, lam) -> OrbitReduction:
    """Canonical representative of the affine orbit of lam, with sign.

    One Alcove.reduce: lam is walked into the closed alcove (free part
    first) and ZERO is read off the walls through the alcove point;
    otherwise the point is the orbit's label and the walk's sign its sign:
    some g has act(g, lam) equal to the label and sign_character(g) equal
    to the sign."""
    point, sign = alcove(tau).reduce(tau.rd.check_weight(lam))
    return OrbitReduction(point if sign else None, sign)


def enumerate_basis_orbits(tau: Twisting):
    """Canonical representatives of the contributing (non-ZERO) orbits: the
    surviving lattice points of the closed alcove, sorted lexicographically
    and built once per twisting.  Alcove.points leaves out the points on
    the simple walls, which are ZERO; reduce drops those on an affine wall
    of sign -1."""
    alc = alcove(tau)
    return tau.cached("basis", lambda: sorted(p for p in alc.points() if alc.reduce(p)[1]))


def alcove_translates(tau: Twisting, point):
    """The alcove points of point's orbit reached by the free translations
    sum_k z_k lift_k with |z_k| <= 3 (just [point] when pi_1 = 0).  Walks
    the walls only: Alcove.reduce would undo the free translation."""
    alc = alcove(tau)
    r = len(alc.lifts)
    out = []
    for z in box_points((7,) * r, -3):
        pi = tuple(sum(zk * c[i] for zk, c in zip(z, alc.lifts)) for i in range(tau.rd.rank))
        out.append(reflect_into_chamber(vec_add(point, tau.apply_b(pi)), alc.walls)[0])
    return out


def zero_criterion_discrepancies(tau: Twisting):
    """Orbits where "stabilizer has a sign -1 element" (sign 0 from
    Alcove.reduce) and "stabilizer is nontrivial" (the root test at b^-1
    of the alcove point) disagree, keyed by their alcove points.  ZERO
    implies not free (InvariantError otherwise), so these are surviving
    orbits that are not free: none when the grading vanishes.  Reported,
    never silently resolved.  The points on the simple walls
    (Alcove.points leaves them out) are ZERO and not free, so they hold
    no discrepancy and no ZERO orbit with a trivial stabilizer."""
    alc = alcove(tau)
    out = []
    for point in alc.points():
        free = tau.rd.is_regular(tau.adj_apply(point), tau.det_b)
        if not alc.reduce(point)[1]:
            if free:
                raise InvariantError(f"the ZERO orbit of {point} has a trivial stabilizer")
        elif not free:
            out.append({"orbit": list(point), "free": False, "survives": True})
    return sorted(out, key=lambda d: d["orbit"])


# -- the geometric action on the Cartan algebra -----------------------------
# Here the group acts on rational points of t = (coweights tensor R) by
# x -> w(x) + pi; stabilizers are generated by the affine reflections
# through the root hyperplanes <alpha, x> = k containing x.

def _lift(x):
    """(v, d) with x = v / d: d the least common denominator of the
    rational point x (a tuple of ints or Fractions), v = d x in integers."""
    d = lcm(*(c.denominator for c in x))
    return tuple(c.numerator * (d // c.denominator) for c in x), d


def stabilizer_generators(rd: RootDatum, x):
    """Affine reflections through the hyperplanes containing x: for each
    positive root alpha with <alpha, x> = k in Z, the element (k alpha^vee,
    s_alpha).  With x = v / d, that is <alpha, v> = 0 mod d.  The word of
    s_alpha = w s_j w^-1 comes from descending alpha = w(alpha_j) to the
    simple root alpha_j by simple reflections that lower its height."""
    v, d = _lift(x)
    gens = []
    for alpha, coalpha in rd.positive_root_pairs:
        k, rem = divmod(dot(alpha, v), d)
        if rem:
            continue
        beta, descent = alpha, []
        while beta not in rd.simple_roots:
            i = next(i for i, cv in enumerate(rd.simple_coroots) if dot(beta, cv) > 0)
            beta = vec_sub(beta, vec_scale(dot(beta, rd.simple_coroots[i]), rd.simple_roots[i]))
            descent.append(i)
        word = tuple(descent) + (rd.simple_roots.index(beta),) + tuple(reversed(descent))
        gens.append(AffineElement(vec_scale(k, coalpha), reflection(alpha, coalpha, word)))
    return gens


def geometric_stabilizer_brute(rd: RootDatum, x):
    """The Weyl parts w of all (pi, w) fixing x under the geometric action,
    each given as its point w(2 rho): 2 rho is regular, so w -> w(2 rho) is
    injective.  pi = x - w(x) is forced by w, so with x = v / d the element
    exists when v - w(v) = 0 mod d.  Walks the per-datum tree of the orbit
    of 2 rho (rootdata._free_orbit_template), carrying v with one simple
    coreflection v -> v - <alpha_i, v> alpha_i^vee per element.
    GroupTooLarge from the tree when |W| exceeds MAX_GROUP_ORDER."""
    moves, _, points = _free_orbit_template(rd)
    v, d = _lift(x)
    images = [v]                                # images[k] = w(v), points[k] = w(2 rho)
    for parent, i, coroot, root in moves:
        u = list(images[parent])
        p = dot(root, u)
        for j, c in coroot:
            u[j] -= p * c
        images.append(tuple(u))
    return {point for point, u in zip(points, images)
            if not any((a - b) % d for a, b in zip(v, u))}


def generated_subgroup(rd: RootDatum, generators):
    """The Weyl parts of the group generated by affine elements, each given
    as its point w(2 rho) (as geometric_stabilizer_brute): the closure of
    {2 rho} under the generators' Weyl parts.  On elements fixing one point
    x the translation of (pi, w) is forced to be x - w(x), so there
    (pi, w) -> w is injective and the points stand for the whole group."""
    return closure([rd.rho2], lambda point: [g.weyl.apply(point) for g in generators])
