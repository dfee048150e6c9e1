"""Twisting data: the equivariant injection b, the grading, and the
finite group it cuts out of the torus.

A twisting is stored in the normal form (b, eps): b is a W-equivariant
injective map from the coweight lattice to the weight lattice (a square
integer matrix in our dual coordinate bases), and eps is a W-invariant
mod-2 vector grading the translation action.  The half-shift point
lambda_eps = eps/2 and the finite groups F = coker(b) and F_eps (the
torus points solving b(x) = lambda_eps mod the weight lattice) are
derived.  An invariant form is fixed by the images b(alpha_i^vee) of the
simple coroots, so these alone decide equivariance (Twisting._validate)
and the level of each simple factor (Twisting._detect_levels), with no
Weyl matrix and no scan of b's blocks.
One Smith normal form U b V = D gives F's invariant factors and
generators, the adjugate adj(b) = V diag(det b / d_i) U and, when
eps = 0, the Smith coordinates of the averaged pairing; a graded
twisting's pairing takes a second one, of b on the even coweights
(fusion._PairingCoordinates).  F_eps is built in integers only: each
point x is held as its lift y = m x at one common order m, and the lifts
are enumerated over F's Smith box 0 <= k_i < d_i from rank + 1 adjugate
products, with none per point.  The coset representatives are the sums
over the same box, built only for the delta check that names them.  The
regular points of F_eps come from the root test RootDatum.is_regular and
their W-orbits from closure under the simple reflections mod m, with no
loop over W.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd
from operator import mul

from .errors import Degenerate, GroupTooLarge, InvariantError, NotEquivariant
from .rootdata import MAX_GROUP_ORDER, RootDatum, coweight_orbit_mod, dot, vec_scale, weyl_order
from .zlattice import (
    FiniteAbelianGroup,
    IntMatrix,
    coset_representatives,
    integers,
    smith_coordinates,
    smith_normal_form,
)


class Twisting:
    """Validated twisting data for a root datum.

    The datum is `rd`: a twisting fixes its group, so the functions of one
    twisting (affineweyl's orbit normal forms, fusion's classes and pairing)
    read it there and take no second copy that could disagree with the
    caches below.

    Holds the exact integer kernel for b^-1: the adjugate adj(b) and det b,
    so that b^-1 v = adj(b) v / det b with no rational arithmetic.  adj(b),
    F and its Smith coordinates `smith` (zlattice.smith_coordinates) are
    read off one Smith normal form of b.  Data derived from the twisting
    alone (the integer lifts of the F_eps points, their W-orbits, the
    cosets of coker(b), the alcove walls and basis points of affineweyl, the
    pairing's Smith coordinates and tables, the levels and whether it is
    primitive) is built on first use and cached on the object (see
    `cached`); the coset codes of a list of weights are named by a
    fusion.CosetValues, not here.  b and eps are validated on the simple
    coroots (`_validate`); an eps of None is the zero grading, and any
    other eps needs one entry per coordinate."""

    def __init__(self, rd: RootDatum, b: IntMatrix, eps=None):
        self.rd = rd
        self.b = b
        eps = (0,) * rd.rank if eps is None else integers(eps, "grading entry")
        self.eps = tuple(e % 2 for e in eps)
        self._validate()
        snf = smith_normal_form(b)
        self.smith = smith_coordinates(snf)
        self.f_group = FiniteAbelianGroup(self.smith[0], 0, self.smith[2])
        self._rows = tuple(b.row(i) for i in range(b.rows))
        scaled = IntMatrix.from_rows([[self.det_b // d * u for u in snf.U.row(k)]
                                      for k, d in enumerate(snf.invariant_diagonal())])
        self._adj = tuple(map(tuple, (snf.V * scaled).to_rows()))
        self.lambda_eps = tuple(Fraction(e, 2) for e in self.eps)
        self._cache = {}

    def _validate(self):
        """Refuse b unless it is square, injective and symmetric, and refuse
        b or eps unless it is W-equivariant.  Both are tested on the simple
        coroots alone, in the order of the simple roots.  For symmetric b,
        s_i b = b s_i^vee reads alpha_i (x) v = v (x) alpha_i with
        v = b(alpha_i^vee), that is v a multiple of alpha_i, that is
        2 v = <v, alpha_i^vee> alpha_i.  And s_i eps = eps - <eps, alpha_i^vee>
        alpha_i, so eps is invariant mod 2 when <eps, alpha_i^vee> alpha_i is
        even."""
        rd, b = self.rd, self.b
        if b.rows != rd.rank or b.cols != rd.rank:
            raise Degenerate(f"b must be {rd.rank} x {rd.rank}")
        if len(self.eps) != rd.rank:
            raise NotEquivariant("grading vector length must equal the rank")
        self.det_b = b.determinant()
        if self.det_b == 0:
            raise Degenerate("b is not injective (det b = 0)")
        if not b.is_symmetric():
            raise NotEquivariant("b must be symmetric as a bilinear form on coweights")
        for alpha, coalpha in zip(rd.simple_roots, rd.simple_coroots):
            v = b.apply(coalpha)
            p = dot(v, coalpha)
            if any(2 * x != p * a for x, a in zip(v, alpha)):
                raise NotEquivariant("b does not commute with the Weyl action")
            p = dot(self.eps, coalpha)
            if any(p * a % 2 for a in alpha):
                raise NotEquivariant("grading vector is not W-invariant mod 2")

    # -- derived structure ------------------------------------------------

    def order_F(self):
        return abs(self.det_b)

    def translation_sign(self, pi):
        """(-1)**eps(pi): the sign of the translation pi under the grading."""
        return -1 if dot(self.eps, pi) % 2 else 1

    def apply_b(self, pi):
        return tuple(sum(map(mul, row, pi)) for row in self._rows)

    def adj_apply(self, vec):
        """adj(b) vec = (det b) b^-1 vec, in integers."""
        return [sum(map(mul, row, vec)) for row in self._adj]

    def floor_b_inverse(self, vec):
        """floor(b^-1 vec) by floor division, which is exact for either sign
        of det b."""
        d = self.det_b
        return [x // d for x in self.adj_apply(vec)]

    def cached(self, key, build):
        """build() computed once per twisting and kept under key."""
        if key not in self._cache:
            self._cache[key] = build()
        return self._cache[key]

    def _box_factors(self):
        """F's invariant factors d_i, the sides of the Smith box 0 <= k_i < d_i
        that cosets() and F_eps enumerate.  Raises GroupTooLarge, before
        anything is enumerated, when |F| exceeds MAX_GROUP_ORDER."""
        if self.order_F() > MAX_GROUP_ORDER:
            raise GroupTooLarge(f"|F| = {self.order_F()} exceeds {MAX_GROUP_ORDER} cosets")
        return self.smith[0]

    def cosets(self):
        """Representatives of the cosets of coker(b), the sums of k_i g_i over
        F's Smith box (_box_factors) for the Smith generators g_i, built once
        per twisting (shared: do not mutate).  The delta check is their only
        reader: F_eps enumerates its own box."""
        return self.cached("cosets", lambda: coset_representatives(
            self._box_factors(), self.smith[2], self.rd.rank))

    def f_epsilon(self, regular_only=False):
        """(m, lifts): the integer lifts y = m x of the points x of F_eps,
        sorted, at one common order m, built on first use.
        With regular_only=True, only the points no nontrivial Weyl element
        fixes, by the root test RootDatum.is_regular."""
        if regular_only:
            return self.cached("f_epsilon_orbits", self._weyl_orbits)[0]
        return self.cached("f_epsilon", self._build_f_epsilon)

    def verlinde_lifts(self):
        """(m, ys): the least lift of each free W-orbit of F_eps, sorted, at
        the common order m of these points alone: one per Verlinde class."""
        return self.cached("f_epsilon_orbits", self._weyl_orbits)[1]

    def _build_f_epsilon(self):
        """F_eps is {b^-1(eps/2 + lam) mod 1} over the cosets lam of
        coker(b).  It is symmetric, -(eps/2 + lam) = eps/2 + (-eps - lam), so
        the points adj(b)(eps + 2 lam) / (2 det b) over all lam are F_eps
        whatever the sign of det b, with integer lifts adj(b)(eps + 2 lam) at
        order 2|det b|.  Over F's Smith box, lam = sum k_i g_i with
        0 <= k_i < d_i, such a lift is base + sum k_i s_i with
        base = adj(b) eps and s_i = 2 adj(b) g_i: zlattice.coset_representatives
        enumerates the lifts from these rank + 1 adjugate products, with none
        per coset.  base is the lift at k = 0 and each s_i the difference of
        two lifts (every d_i > 1), so g = gcd(2|det b|, base, s_i) is the gcd
        of every coordinate of every lift with 2|det b|, m = 2|det b| / g is
        the least common order, and the lifts at order m are
        base / g + sum k_i s_i / g mod m.  Raises GroupTooLarge
        (_box_factors) before any lift, and InvariantError unless the box
        holds exactly |det b| points."""
        factors, top = self._box_factors(), 2 * self.order_F()
        vectors = [self.adj_apply(v) for v in (self.eps, *(vec_scale(2, g) for g in self.smith[2]))]
        g = gcd(top, *(c for v in vectors for c in v))
        base, *steps = [[c // g for c in v] for v in vectors]
        m, sums = top // g, coset_representatives(factors, steps, self.rd.rank)
        if len(sums) != self.order_F():
            raise InvariantError(f"found {len(sums)} points of F_eps, "
                                 f"expected |det b| = {self.order_F()}")
        return m, sorted(tuple((c + s) % m for c, s in zip(base, y)) for y in sums)

    def _weyl_orbits(self):
        """The regular part of F_eps and its W-orbits, with no loop over W:
        a lift y is regular by the root test RootDatum.is_regular(y, m), and
        its orbit is the closure coweight_orbit_mod.  Gives the regular part
        of f_epsilon and, as the least lift of each orbit, the classes of
        verlinde_lifts.  Raises InvariantError unless each orbit has |W| points."""
        rd = self.rd
        m, lifts = self.f_epsilon()
        regular = [y for y in lifts if rd.is_regular(y, m)]
        size = weyl_order(rd)
        seen, classes = set(), []
        for y in regular:                # sorted, so y is least in a new orbit
            if y in seen:
                continue
            orbit = coweight_orbit_mod(rd, y, m)
            if len(orbit) != size:
                raise InvariantError(f"the W-orbit of the regular lift {y} / {m} has "
                                     f"{len(orbit)} points, expected |W| = {size}")
            seen |= orbit
            classes.append(y)
        g = gcd(m, *(c for y in classes for c in y))
        classes = (m // g, [tuple(c // g for c in y) for y in classes])
        return (m, regular), classes

    def degree_parity(self):
        """Degree mod 2 of the (only) nonzero twisted K-group."""
        return self.rd.rank % 2

    def is_primitive(self):
        """Conservative normal-form test, decided once per twisting: a split
        datum, trivial grading, a level on every simple factor
        (_detect_levels) and an even diagonal on the torus block.  On split
        data the torus block is all of b off the simple blocks, because an
        equivariant b is block-diagonal there."""
        rd = self.rd
        return self.cached("primitive", lambda: (
            rd.split_form and not any(self.eps) and self._detect_levels() is not None
            and not any(self.b.at(i, i) % 2 for i in rd.torus_indices)))

    def _detect_levels(self):
        """The level of each simple factor, or None when one is not an
        integer; read once per twisting, on any datum.  An equivariant b
        sends alpha_i^vee to c_i alpha_i, and symmetry gives
        c_i a_ji = c_j a_ij, so c_i d_i is one constant c on a factor
        (d_i a_ij = d_j a_ji).  Then b(alpha_i^vee, alpha_j^vee) =
        c_j a_ij = c kappa_ij on the factor's block, and c is
        b(alpha^vee, alpha^vee) / kappa_00 at the factor's first coroot."""
        def read():
            levels = []
            for f in self.rd.factors:
                coalpha = self.rd.simple_coroots[f.indices[0]]
                level, rem = divmod(dot(self.b.apply(coalpha), coalpha), f.kappa.at(0, 0))
                if rem:
                    return None
                levels.append(level)
            return tuple(levels)
        return self.cached("levels", read)

    def describe(self):
        levels = self._detect_levels()
        return {
            "b": self.b.to_rows(),
            "epsilon": list(self.eps),
            "order_F": self.order_F(),
            "F": str(self.f_group),
            "lambda_eps": [str(x) for x in self.lambda_eps],
            "degree_parity": self.degree_parity(),
            "primitive": self.is_primitive(),
            "levels": None if levels is None else list(levels),
        }


def shift_by_dual_coxeter(rd: RootDatum, loop_levels):
    """Total twist levels from loop-group levels: add each factor's dual
    Coxeter number.  Torus blocks are unaffected and not represented here."""
    loop_levels = integers(loop_levels, "level")
    if len(loop_levels) != len(rd.factors):
        raise Degenerate(f"expected {len(rd.factors)} levels, got {len(loop_levels)}")
    return tuple(lvl + f.dual_coxeter for lvl, f in zip(loop_levels, rd.factors))


def twisting_from_level(rd: RootDatum, levels, torus_block=None, eps=None) -> Twisting:
    """Assemble b = (sum of level_i * kappa_i) + torus block.

    `levels` has one integer per simple factor; `torus_block` is a
    symmetric integer matrix on the torus coordinates (required when the
    torus rank is positive)."""
    if not rd.split_form:
        raise NotEquivariant("level-form twists need a split (simply connected x torus) datum; "
                             "pass an explicit b instead")
    levels = integers(levels, "level")
    if len(levels) != len(rd.factors):
        raise Degenerate(f"expected {len(rd.factors)} levels, got {len(levels)}")
    tr = len(rd.torus_indices)
    if torus_block is None:
        if tr:
            raise Degenerate("torus factors need an explicit torus twist block")
        tb = IntMatrix.zeros(0, 0)
    else:
        tb = torus_block if isinstance(torus_block, IntMatrix) \
            else IntMatrix.from_rows(torus_block)
        if tb.rows != tr or tb.cols != tr:
            raise Degenerate(f"torus block must be {tr} x {tr}")
        if not tb.is_symmetric():
            raise NotEquivariant("torus block must be symmetric")
    rows = [[0] * rd.rank for _ in range(rd.rank)]
    for lvl, f in zip(levels, rd.factors):
        for ai, i in enumerate(f.indices):
            for aj, j in enumerate(f.indices):
                rows[i][j] = lvl * f.kappa.at(ai, aj)
    for ai, i in enumerate(rd.torus_indices):
        for aj, j in enumerate(rd.torus_indices):
            rows[i][j] = tb.at(ai, aj)
    b = IntMatrix.from_rows(rows) if rd.rank else IntMatrix.zeros(0, 0)
    return Twisting(rd, b, eps)


def f_epsilon_points(tau: Twisting):
    """All torus points x with b(x) = lambda_eps modulo the weight lattice.

    Exactly |det b| points, reduced to [0,1)^rank, in sorted order: the
    integer lifts of Twisting.f_epsilon divided by their order."""
    m, lifts = tau.f_epsilon()
    return [tuple(Fraction(c, m) for c in y) for y in lifts]
