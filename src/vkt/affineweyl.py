"""The extended affine Weyl group acting on the weight lattice.

The group is (coweight lattice) semidirect W.  On weight coordinates the
element (pi, w) acts by lam -> w(lam) + b(pi), where b is the twisting's
injection; the sign character is det(w) * (-1)**eps(pi).  A Weyl-orbit
trace inside the fundamental box of b(coweights) gives orbit normal
forms without any unbounded search.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .rootdata import (
    RootDatum,
    WeylElement,
    vec_add,
    vec_sub,
    weyl_compose,
    weyl_group_elements,
)
from .twist import Twisting
from .zlattice import IntMatrix, coset_representatives


@dataclass(frozen=True)
class AffineElement:
    """(translation, Weyl part); translations are coweight coordinate tuples."""

    translation: tuple
    weyl: WeylElement

    def is_identity(self):
        return self.weyl.is_identity() and not any(self.translation)


def affine_identity(rd: RootDatum) -> AffineElement:
    return AffineElement((0,) * rd.rank, rd.identity_element)


def affine_compose(rd: RootDatum, g1: AffineElement, g2: AffineElement) -> AffineElement:
    """(pi1, w1)(pi2, w2) = (pi1 + w1 pi2, w1 w2)."""
    return AffineElement(
        vec_add(g1.translation, g1.weyl.apply_coweight(g2.translation)),
        weyl_compose(rd, g1.weyl, g2.weyl))


def affine_inverse(rd: RootDatum, g: AffineElement) -> AffineElement:
    winv = _weyl_inverse(rd, g.weyl)
    return AffineElement(
        tuple(-x for x in winv.apply_coweight(g.translation)), winv)


def _weyl_inverse(rd, w):
    from .rootdata import canonical_weyl
    from .zlattice import inverse_unimodular
    return canonical_weyl(rd, inverse_unimodular(w.matrix))


def act(rd: RootDatum, tau: Twisting, g: AffineElement, lam) -> tuple:
    """The affine action on the weight lattice: w(lam) + b(pi)."""
    lam = rd.check_weight(lam)
    return vec_add(g.weyl.apply(lam), tau.apply_b(g.translation))


def sign_character(tau: Twisting, g: AffineElement) -> int:
    return g.weyl.determinant * tau.translation_sign(g.translation)


@dataclass(frozen=True)
class OrbitReduction:
    """Normal form of an orbit: canonical representative, sign, and witness.

    `representative` is None exactly when the orbit dies (its stabilizer
    contains an element of sign -1); then `sign` is meaningless.  Otherwise
    act(witness, input) == representative and sign == sign_character(witness).
    """

    representative: tuple
    sign: int
    witness: AffineElement

    @property
    def is_zero(self):
        return self.representative is None


def box_reduce(tau: Twisting, vec):
    """Translate vec into the fundamental half-open box of b(coweights).

    Returns (reduced vector, translation pi) with vec + b(pi) reduced;
    pi = -floor(b^-1 vec) by the twisting's integer kernel."""
    pi = tuple(-x for x in tau.floor_b_inverse(vec))
    return vec_add(vec, tau.apply_b(pi)), pi


def orbit_normal_form(rd: RootDatum, tau: Twisting, lam) -> OrbitReduction:
    """Canonical representative of the affine orbit of lam, with sign.

    The orbit's intersection with the fundamental box is {box_reduce(w lam)};
    the representative is its lexicographically least member.  If two Weyl
    images land on the same box point with opposite signs the stabilizer has
    a sign -1 element and the orbit is ZERO.
    """
    lam = rd.check_weight(lam)
    candidates = {}
    for w in weyl_group_elements(rd):
        reduced, pi = box_reduce(tau, w.apply(lam))
        g = AffineElement(pi, w)
        s = sign_character(tau, g)
        prev = candidates.get(reduced)
        if prev is None:
            candidates[reduced] = (s, g)
        elif prev[0] != s:
            return OrbitReduction(None, 0, prev[1])
    rep = min(candidates)
    s, g = candidates[rep]
    return OrbitReduction(rep, s, g)


def stabilizer_elements(rd: RootDatum, tau: Twisting, lam):
    """The full stabilizer of lam in the affine group (finite: one element
    per Weyl part w with b^-1(lam - w lam) integral)."""
    lam = rd.check_weight(lam)
    out = []
    for w in weyl_group_elements(rd):
        pi = tau.b_inverse_integral(vec_sub(lam, w.apply(lam)))
        if pi is not None:
            out.append(AffineElement(pi, w))
    return out


def enumerate_basis_orbits(rd: RootDatum, tau: Twisting):
    """Canonical representatives of the contributing (non-ZERO) orbits.

    Complete: every coset of the weight lattice modulo b(coweights) is
    visited once.  Sorted lexicographically."""
    reps = set()
    for lam in coset_representatives(tau.b):
        red = orbit_normal_form(rd, tau, lam)
        if not red.is_zero:
            reps.add(red.representative)
    return sorted(reps)


def zero_criterion_discrepancies(rd: RootDatum, tau: Twisting):
    """Orbits where "stabilizer has a sign -1 element" and "stabilizer is
    nontrivial" disagree.  Empty when the grading vanishes; with a nonzero
    grading an affine reflection can carry sign +1 and the two readings of
    which orbits survive differ.  Reported, never silently resolved."""
    out = []
    for lam in coset_representatives(tau.b):
        red = orbit_normal_form(rd, tau, lam)
        free = len(stabilizer_elements(rd, tau, lam)) == 1
        if red.is_zero == free:
            key = red.representative if not red.is_zero \
                else min(box_reduce(tau, w.apply(lam))[0] for w in weyl_group_elements(rd))
            out.append({"orbit": list(key), "free": free, "survives": not red.is_zero})
    uniq = {tuple(d["orbit"]): d for d in out}
    return [uniq[k] for k in sorted(uniq)]


# -- the geometric action on the Cartan algebra -----------------------------
# Here the group acts on rational points of t = (coweights tensor R) by
# x -> w(x) + pi; stabilizers are generated by the affine reflections
# through the root hyperplanes <alpha, x> = k containing x.

def geometric_act(rd: RootDatum, g: AffineElement, x):
    return vec_add(g.weyl.apply_coweight(x), g.translation)


def stabilizer_generators(rd: RootDatum, tau: Twisting, x):
    """Affine reflections through the hyperplanes containing x.

    The twisting plays no role in the geometric action; the argument is
    kept for interface uniformity."""
    x = tuple(Fraction(c) for c in x)
    gens = []
    for alpha, coalpha in rd.positive_root_pairs:
        val = sum(Fraction(a) * c for a, c in zip(alpha, x))
        if val.denominator == 1:
            k = val.numerator
            refl = _reflection_element(rd, alpha, coalpha)
            gens.append(AffineElement(tuple(k * c for c in coalpha), refl))
    return gens


def _reflection_element(rd, alpha, coalpha):
    mat = IntMatrix(rd.rank, rd.rank,
                    [int(r == c) - alpha[r] * coalpha[c]
                     for r in range(rd.rank) for c in range(rd.rank)])
    from .rootdata import canonical_weyl
    return canonical_weyl(rd, mat)


def geometric_stabilizer_brute(rd: RootDatum, x):
    """All (pi, w) fixing x under the geometric action; pi is forced by w."""
    x = tuple(Fraction(c) for c in x)
    out = []
    for w in weyl_group_elements(rd):
        pi = vec_sub(x, w.apply_coweight(x))
        if all(Fraction(c).denominator == 1 for c in pi):
            out.append(AffineElement(tuple(int(c) for c in pi), w))
    return out


def generated_subgroup(rd: RootDatum, generators):
    """Closure of a finite set of affine elements under composition."""
    elems = {(affine_identity(rd).translation, rd.identity_element.matrix.entries):
             affine_identity(rd)}
    frontier = list(elems.values())
    while frontier:
        nxt = []
        for g in frontier:
            for h in generators:
                comp = affine_compose(rd, h, g)
                key = (comp.translation, comp.weyl.matrix.entries)
                if key not in elems:
                    elems[key] = comp
                    nxt.append(comp)
        frontier = nxt
    return sorted(elems.values(), key=lambda e: (e.translation, e.weyl.word))
