"""The fusion ring: orbit basis, truncated tensor product, Verlinde
classes, ideal membership, the cyclic-generator matrix, the averaged
distribution pairing, and the torus pushforward.

The pairing's kernel over F_eps is an integer function on the Smith group
weights / b(L_eps), L_eps = {pi : eps.pi even}: b is symmetric and F_eps
Galois-stable.  It is built once per twisting as an exact per-axis DFT of
the F_eps lifts in Z/Phi_m(2^k) and kept as a table on a doubled mixed
radix, so a call is one code for g and one list index per coset.

Two independent routes to the structure constants live here: the
reflection route (the Kac-Walton rule: one memoized alcove reduction per
weight of the smaller factor, with no separate tensor decomposition, and
one such product per orbit of pairs under the simple currents, which the
route finds and confirms from its own products) and the character route
(exact evaluation at the Verlinde classes, inverted by Verlinde
orthogonality with the weight |Delta(x)|^2 after a check of the Gram
identity).  Tests require them to agree; neither is ever silently replaced
by the other.

The character route's sums are exact residues mod N = Phi_m(2^k): units
mod m permute the classes (checked), so each sum is a rational integer;
each is bounded by B; and N > 2B, so its balanced residue is the sum.

The Verlinde classes, the ideal test and the character route read the
integer class lifts of Twisting.verlinde_lifts and evaluate with
cyclo.character_bins; verlinde_classes adds rational points for reports.
The ideal test bins Weyl numerators (rootdata.weyl_numerator, |W| terms
per weight), not weight systems: the class lifts are regular, so A_rho
does not vanish there and chi_lam vanishes exactly where A_(lam+rho) does.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import compress
from math import gcd, prod
from operator import mul

from .affineweyl import (
    alcove,
    alcove_translates,
    enumerate_basis_orbits,
    orbit_normal_form,
)
from .cyclo import CyclotomicInt, character_bins, cyclotomic_modulus
from .errors import GroupTooLarge, InvariantError, NotATorus, NotPrimitive
from .rootdata import (
    MAX_PAIRING_WORK,
    RootDatum,
    _weight_system,
    closure,
    dot,
    highest_weight,
    vec_add,
    vec_sub,
    weyl_dimension_key,
    weyl_numerator,
    weyl_order,
)
from .twist import Twisting
from .zlattice import IntMatrix, box_points, smith_coordinates, smith_normal_form


class KClass:
    """A finitely supported integer combination of canonical orbit
    representatives."""

    __slots__ = ("support",)

    def __init__(self, support=None):
        cleaned = {}
        for k, v in (support or {}).items():
            if v:
                cleaned[tuple(k)] = int(v)
        object.__setattr__(self, "support", cleaned)

    def __setattr__(self, name, value):
        raise AttributeError("KClass is immutable")

    @classmethod
    def zero(cls):
        return cls({})

    def is_zero(self):
        return not self.support

    def __eq__(self, other):
        return isinstance(other, KClass) and self.support == other.support

    __hash__ = None

    def items(self):
        return sorted(self.support.items())

    def __repr__(self):
        return f"KClass({dict(self.items())!r})"


@dataclass(frozen=True)
class VerlindeClass:
    """A free Weyl orbit of regular points solving b(x) = lambda_eps."""

    point: tuple          # lexicographically least orbit member, coords in [0,1)
    orbit_size: int


def verlinde_classes(tau: Twisting):
    """One representative per free Weyl orbit of regular points of F_eps:
    the class lifts of Twisting.verlinde_lifts as rational points."""
    m, ys = tau.verlinde_lifts()
    size = weyl_order(tau.rd)
    return [VerlindeClass(tuple(Fraction(c, m) for c in y), size) for y in ys]


class FusionRing:
    """Basis and products of the twisted K-group of a group acting on itself.

    Constructible for any non-degenerate twisting; the module structure
    (class_from_weight, mult_by_U_matrix) is always available, while the
    ring structure (fusion_product, structure constants) needs a primitive
    twisting and raises NotPrimitive otherwise.  Construction raises
    InvariantError if a transversal weight or the shift class reduces to
    zero in a nonzero ring, or the shift class survives in a zero one.
    ValueError, before anything is built or cached on tau, unless rd is
    tau's own datum (tau.rd).
    """

    def __init__(self, rd: RootDatum, tau: Twisting):
        if rd is not tau.rd:
            raise ValueError("the root datum is not the twisting's own (tau.rd)")
        self.rd = rd
        self.tau = tau
        self.basis = tuple(enumerate_basis_orbits(tau))
        self.index = {rep: i for i, rep in enumerate(self.basis)}
        self.rho_tilde = rd.rho_tilde
        self.transversal = tuple(self._transversal_weight(point) for point in self.basis)
        self.signs = []
        for lam in self.transversal:
            red = orbit_normal_form(tau, vec_add(lam, self.rho_tilde))
            if red.is_zero:
                raise InvariantError(f"transversal weight {lam} reduces to zero")
            self.signs.append(red.sign)
        self.signs = tuple(self.signs)
        unit = orbit_normal_form(tau, self.rho_tilde)
        if unit.is_zero == bool(self.basis):
            raise InvariantError("the shift class must survive exactly when the ring is nonzero")
        # the whole group can vanish (e.g. the smallest nonzero twists)
        self.unit_index = self.index[unit.representative] if self.basis else None
        # dim V_lam times a constant, in integers
        self.size_keys = tuple(weyl_dimension_key(rd, lam) for lam in self.transversal)
        self._product_cache = {}

    # -- basis bookkeeping -------------------------------------------------

    def _transversal_weight(self, point):
        """The dominant weight lam = nu - rho_tilde for the alcove point nu
        of the orbit nearest the box origin (L1 in b-inverse coordinates,
        ties broken lexicographically).  Only the free part moves nu: the
        candidates are the orbit's alcove points within three free
        translations of `point`.  The L1 norm of adj(b) nu is |det b| times
        that of b^-1 nu, so it gives the same order in integers."""
        tau = self.tau
        nu = min(alcove_translates(tau, point),
                 key=lambda nu: (sum(map(abs, tau.adj_apply(nu))), nu))
        return vec_sub(nu, self.rho_tilde)

    def basis_coefficients(self, kc: KClass):
        """Coordinates of a KClass in the distinguished basis (the images of
        the transversal irreducibles)."""
        out = [0] * len(self.basis)
        for rep, c in kc.support.items():
            i = self.index[rep]
            out[i] = c * self.signs[i]
        return out

    def class_from_index(self, i):
        return KClass({self.basis[i]: self.signs[i]})

    # -- products ------------------------------------------------------------

    def simple_currents(self):
        """{j: images} for the simple currents j: the basis elements whose
        product with every basis element b is the single basis element
        images[b], with coefficient +1, so that their rows are permutations.

        The unit is one, with the identity row.  With g the non-unit basis
        element of least size key, the other candidates are the j for which
        g j is such a single element, and each is confirmed by its whole
        row; no theory-specific data enters.  InvariantError unless they
        are closed under the product, as they are in any commutative
        associative ring."""
        n = len(self.basis)
        if not n:
            return {}
        currents = {self.unit_index: list(range(n))}
        others = [i for i in range(n) if i != self.unit_index]
        g = min(others, key=lambda i: (self.size_keys[i], i), default=None)
        for j in others:
            if _basis_image(self, g, j) is None:
                continue
            images = []
            for b in range(n):
                c = _basis_image(self, j, b)
                if c is None:
                    break
                images.append(c)
            else:
                if len(set(images)) == n:
                    currents[j] = images
        if any(images[k] not in currents for images in currents.values() for k in currents):
            raise InvariantError("the simple currents are not closed under the product")
        return currents

    def structure_constants(self):
        """The full tensor N[a][b][c] on the distinguished basis, from one
        fusion_product per orbit of unordered pairs {a, b} under
        (a, b) -> (z a, z' b), z and z' simple currents (simple_currents).

        Fusion with a current is a basis permutation, and (z a)(z' b) =
        (z z')(a b) (Schellekens and Yankielowicz, Nucl. Phys. B327 (1989)
        673; Fuchs, Affine Lie Algebras and Quantum Groups (1992), sec. 14).  In
        each orbit the pair whose smaller factor has the least size key is
        computed, and the rest are its product permuted by the row of z z'.
        With the unit as the only current every orbit is one pair, and the
        table is the n(n + 1)/2 products."""
        n = len(self.basis)
        currents = self.simple_currents()
        # inverse[z][c] = the d with z d = c
        inverse = {z: sorted(range(n), key=images.__getitem__) for z, images in currents.items()}
        keys = self.size_keys

        def rank(pair):
            small, large = sorted((keys[i], i) for i in pair)
            return small + large

        out = [[None] * n for _ in range(n)]
        for a in range(n):
            for b in range(a, n):
                if out[a][b] is not None:
                    continue
                s, t = min(((currents[z][a], currents[w][b]) for z in currents for w in currents),
                           key=rank)
                coeffs = tuple(self.basis_coefficients(fusion_product(self, s, t)))
                for z in currents:
                    for w in currents:
                        x, y = currents[z][s], currents[w][t]
                        if out[x][y] is None:
                            out[x][y] = out[y][x] = tuple(
                                map(coeffs.__getitem__, inverse[currents[z][w]]))
        return out


def _basis_image(ring: FusionRing, a, b):
    """c when the product of basis elements a and b is the basis element c
    with coefficient +1, else None."""
    support = fusion_product(ring, a, b).support
    if len(support) == 1:
        (rep, v), = support.items()
        c = ring.index[rep]
        if v * ring.signs[c] == 1:
            return c
    return None


def class_from_weight(ring: FusionRing, lam) -> KClass:
    """Image of the irreducible with highest weight lam under multiplication
    by the cyclic generator: the shifted orbit reduction of lam + rho_tilde."""
    lam = ring.rd.check_weight(lam)
    if not ring.rd.is_dominant(lam):
        raise ValueError("class_from_weight needs a dominant weight")
    red = orbit_normal_form(ring.tau, vec_add(lam, ring.rho_tilde))
    if red.is_zero:
        return KClass.zero()
    return KClass({red.representative: red.sign})


def fusion_product(ring: FusionRing, a, b) -> KClass:
    """Product of two basis elements by the Kac-Walton rule (Walton, Nucl.
    Phys. B340 (1990) 777; Kac, Infinite-dimensional Lie algebras,
    Ex. 13.35): with lam, mu the transversal weights and mu the one with
    the smaller size key (FusionRing.size_keys, dim V_mu up to a constant),
    N_ab^c counts the weights nu of V_mu, with multiplicity and sign, by the
    affine orbit of lam + nu + rho_tilde; the weight system of V_lam is
    never built.  Each such weight takes one Alcove.reduce, memoized per
    weight, so a weight that another product already reduced costs one
    look-up; a ZERO orbit (sign 0) drops out, and any other ends on the
    basis point that labels its orbit.  The affine group contains W, and
    rho_tilde - rho is W-invariant, so this is the Brauer-Klimyk
    decomposition followed by the shifted reduction, in one reduction per
    weight.  Cached per unordered pair."""
    if not ring.tau.is_primitive():
        raise NotPrimitive("the twisting is not primitive in the implemented "
                           "normal form; only the module structure is defined")
    key = (min(a, b), max(a, b))
    cached = ring._product_cache.get(key)
    if cached is not None:
        return cached
    if ring.size_keys[a] < ring.size_keys[b]:
        a, b = b, a
    system = _weight_system(ring.rd, ring.transversal[b])
    out = KClass(_kac_walton(ring, vec_add(ring.transversal[a], ring.rho_tilde), system))
    ring._product_cache[key] = out
    return out


def _kac_walton(ring: FusionRing, base, system):
    """{alcove point: sum of sign * mult} over the weights nu of the weight
    system {nu: mult} whose reduction base + nu survives: one memoized
    Alcove.reduce per weight, and a weight whose orbit is ZERO (sign 0)
    drops out."""
    alc = alcove(ring.tau)
    out = {}
    for nu, mult in system.items():
        point, sign = alc.reduce(vec_add(base, nu))
        if sign:
            out[point] = out.get(point, 0) + sign * mult
    return out


def module_action(ring: FusionRing, combo, kc: KClass) -> KClass:
    """The representation-ring action on a KClass, by convolution with the
    full weight system of the virtual character {dominant weight: coeff}:
    one Kac-Walton pass (_kac_walton) from each orbit point of kc."""
    out = {}
    for lam, c in sorted(combo.items()):
        if not c:
            continue
        system = _weight_system(ring.rd, highest_weight(ring.rd, lam))
        for rep, k in kc.items():
            for point, v in _kac_walton(ring, rep, system).items():
                out[point] = out.get(point, 0) + c * k * v
    return KClass(out)


def verlinde_ideal_member(ring: FusionRing, combo) -> bool:
    """Exact test: does the virtual character {dominant weight: coeff}
    vanish at every Verlinde class?  Tested on Weyl numerators, with no
    weight system:

    (1) every class lift x = y/m is regular, so A_rho(x) != 0 and
        chi_lam(x) = A_(lam+rho)(x) / A_rho(x) (Weyl character formula);
    (2) A_(lam+rho)(x) = e^(2 pi i <rho, x>) sum_w det(w) zeta_m^<w(lam+rho)-rho, y>,
        and the prefactor is a unit;
    (3) so the combination vanishes at x exactly when sum c det(w) zeta_m^(...)
        over its weyl_numerator terms does: |W| weights per (lam, c), binned
        at each class lift and reduced modulo Phi_m once per class."""
    numerator = {}
    for lam, c in combo.items():
        for nu, sign in weyl_numerator(ring.rd, lam).items():
            numerator[nu] = numerator.get(nu, 0) + c * sign
    m, ys = ring.tau.verlinde_lifts()
    return all(CyclotomicInt(m, character_bins([numerator], y, m)[0]).is_zero() for y in ys)


def dominant_weights_up_to(rd: RootDatum, bound):
    """All dominant weights whose coordinates sum (in absolute value) to at
    most `bound`; deterministic order."""
    return sorted(w for w in box_points((2 * bound + 1,) * rd.rank, -bound)
                  if sum(abs(c) for c in w) <= bound and rd.is_dominant(w))


def mult_by_U_matrix(ring: FusionRing) -> IntMatrix:
    """The matrix of the shifted reduction on the transversal, in the orbit
    basis; a signed permutation (determinant +-1) exactly when
    multiplication by the generator is an isomorphism."""
    n = len(ring.basis)
    cols = []
    for lam in ring.transversal:
        kc = class_from_weight(ring, lam)
        col = [0] * n
        for rep, c in kc.support.items():
            col[ring.index[rep]] = c
        cols.append(col)
    return IntMatrix.from_rows(cols).transpose()


# -- the averaged distribution pairing ---------------------------------------

class _PairingCoordinates:
    """Smith coordinates on G = weights / b(L_eps), L_eps = {pi : eps.pi even},
    by one zlattice.smith_coordinates: the twisting's own when eps = 0, else
    those of b span, span a basis of L_eps.  For pi in L_eps, K(mu + b(pi))
    = (-1)^eps(pi) K(mu) = K(mu), so the kernel is an ordinary function on
    G; |G| = |F| when eps = 0 and 2|F| otherwise.  A translation b(pi) with
    eps(pi) odd moves a code by the odd class, where K changes sign, so the
    kernel itself carries the translation signs and CosetValues codes each
    weight as it is.

    A weight mu has digits (u_i . mu) mod e_i over the nontrivial Smith
    factors e_i, and code(mu) = sum digit_i place_i on the doubled radix
    place_i = prod_(k > i) 2 e_k.  For weights g and mu, the digits of
    code(g) + shift - code(mu), shift = sum e_i place_i, are
    e_i + digit_i(g) - digit_i(mu), in [1, 2 e_i): no digit borrows, and a
    table on the 2^s |G| doubled-radix entries reads K(g - mu) at that index."""

    def __init__(self, tau: Twisting):
        n, eps = tau.rd.rank, tau.eps
        j = next((i for i, e in enumerate(eps) if e), None)
        coords = tau.smith
        if j is not None:
            # L_eps is spanned by the columns of `span`: e_i - eps_i e_j for
            # i != j and 2 e_j, with j the first coordinate where eps is odd
            span = [[int(r == c) for c in range(n)] for r in range(n)]
            span[j] = [-e for e in eps]
            span[j][j] = 2
            coords = smith_coordinates(smith_normal_form(tau.b * IntMatrix.from_rows(span)))
        self.factors, self.rows, self.generators = coords
        self.size = prod(self.factors)
        self.places = [prod(2 * e for e in self.factors[i + 1:])
                       for i in range(len(self.factors))]
        self.shift = sum(map(mul, self.factors, self.places))
        # the per-axis DFT's multiply-adds plus the table it fills
        self.work = self.size * sum(self.factors) + 2 ** len(self.factors) * self.size

    def code(self, mu):
        return sum(sum(map(mul, row, mu)) % e * place
                   for row, e, place in zip(self.rows, self.factors, self.places))


def _pairing_coordinates(tau: Twisting) -> _PairingCoordinates:
    return tau.cached("smith", lambda: _PairingCoordinates(tau))


def check_pairing_budget(tau: Twisting):
    """GroupTooLarge when building the pairing kernel would take more than
    MAX_PAIRING_WORK steps; reads the pairing's Smith coordinates and builds
    no coset or F_eps point."""
    work = _pairing_coordinates(tau).work
    if work > MAX_PAIRING_WORK:
        raise GroupTooLarge(f"the pairing kernel takes {work} steps, "
                            f"more than {MAX_PAIRING_WORK}")


class CosetValues:
    """A fixed list of weights named once by their cosets of b(coweights),
    so that the averaged pairing of any values at them reads integers only.

    A weight lam is named by its own code (_PairingCoordinates) and its
    regularity, b^-1 lam Weyl-regular.  The kernel is equivariant, so the
    pairing's product f(lam) K(g - lam) of equivariant data does not depend
    on which weight of the coset carries it, and no weight is moved.  Each
    weight is validated as it is named.  A weight whose coset an earlier one
    already named (same key adj(b) lam mod |det b|) is recorded in
    `repeats`, with the sign product +1 when the two codes are equal and -1
    when they differ by the odd class: the pairing reads the first weight of
    each coset, and `delta` compares the values at the repeats with it.
    GroupTooLarge (check_pairing_budget) before any weight is named."""

    def __init__(self, tau: Twisting, weights):
        check_pairing_budget(tau)
        rd, order, det = tau.rd, tau.order_F(), tau.det_b
        coords = _pairing_coordinates(tau)
        self.tau = tau
        first = {}                   # coset key: (position, code) of its first weight
        self.repeats = []            # (position, first position, sign product, weight)
        # per flag (all cosets, regular ones only): the mask of the positions
        # the pairing reads, and their codes
        self._columns = (([], []), ([], []))
        for i, lam in enumerate(weights):
            lam = rd.check_weight(lam)
            v = tau.adj_apply(lam)
            code = coords.code(lam)
            j, c = first.setdefault(tuple(x % order for x in v), (i, code))
            if j != i:
                self.repeats.append((i, j, 1 if code == c else -1, lam))
            for (mask, codes), read in zip(self._columns, (
                    j == i, j == i and rd.is_regular(v, det))):
                mask.append(read)
                if read:
                    codes.append(code)
        self.size = len(self._columns[0][0])

    def delta(self, values, g, regular_only=False) -> Fraction:
        """The averaged pairing (1/|F|) sum f(lam) K(g - lam) over the first
        named weight lam of each coset, f given by `values`, a sequence of
        integers in the order of the weights and extended by translation
        equivariance; with regular_only=True, over the Weyl-regular cosets
        only (see delta_eval).  A call computes code(g) once and reads one
        entry of the _pairing_kernel table per coset,
        T[code(g) + shift - code(lam)].  ValueError, on every call and
        before any sum, when `values` does not hold one value per named
        weight, or two weights of one coset carry values that are not
        equivariant."""
        tau = self.tau
        if len(values) != self.size:
            raise ValueError(f"{len(values)} values for {self.size} named weights")
        for i, j, sign, lam in self.repeats:
            if values[i] * sign != values[j]:
                raise ValueError(f"inconsistent equivariant values on the coset of {lam}")
        g = tau.rd.check_weight(g)
        mask, codes = self._columns[bool(regular_only)]
        table = _pairing_kernel(tau, regular_only)
        coords = _pairing_coordinates(tau)
        base = coords.code(g) + coords.shift
        total = sum(map(mul, compress(values, mask),
                        map(table.__getitem__, map(base.__sub__, codes))))
        return Fraction(total, tau.order_F())


def _pairing_kernel(tau: Twisting, regular_only):
    """The kernel K(mu) = sum_y zeta_m^<mu, y> over the F_eps lifts y at order
    m (the Weyl-regular ones with regular_only), as the list T with
    T[code(g) + shift - code(mu)] = K(g - mu) (see _PairingCoordinates),
    built once per twisting and flag.

    The dual of G is F_0 u F_eps, which F_eps generates, so m is the largest
    Smith factor and each <g_i, y> mod m, for g_i the Smith generators, is a
    multiple of m / e_i.  K is the DFT on G of the histogram of the lifts by
    their digits j_i = <g_i, y> / (m / e_i) mod e_i, taken one axis at a
    time in Z/N through zeta_m -> t, N = Phi_m(t) > 2 |F|.
    (1) The lift set is Galois-stable (checked: k y is a lift for each unit
    k mod m), so each K is a Galois-fixed element of Z[zeta_m], a rational
    integer.  Units that the units already tested generate are skipped: a
    finite set that k1 and k2 map into itself k1 k2 maps into itself too,
    and the least unit that moves the set is never such a product, so the
    unit named in the error is the least one; (2) |K| <= |F|; (3) so its
    balanced residue mod N is K.
    InvariantError when the lift set is not Galois-stable ("did not reduce
    to an integer"), m is not the exponent of G or a lift is not a
    character of G; GroupTooLarge (check_pairing_budget) before any
    coset or lift is built."""
    check_pairing_budget(tau)

    def build():
        coords = _pairing_coordinates(tau)
        factors = coords.factors
        m, lifts = tau.f_epsilon(regular_only)
        if m != (factors[-1] if factors else 1):
            raise InvariantError(f"F_eps has order {m}, not the exponent of its Smith group")
        lift_set, reached = set(lifts), {1}
        for k in range(2, m):
            if gcd(k, m) == 1 and k not in reached:
                if any(tuple(k * c % m for c in y) not in lift_set for y in lifts):
                    raise InvariantError(f"averaged pairing did not reduce to an integer: the "
                                         f"F_eps lifts are not stable under y -> {k} y mod {m}")
                reached = closure(reached, lambda r: [r * k % m])
        histogram = [0] * coords.size
        for y in lifts:
            index = 0
            for g, e in zip(coords.generators, factors):
                digit, rest = divmod(sum(map(mul, g, y)) % m, m // e)
                if rest:
                    raise InvariantError(f"the lift {y} / {m} is not a character of "
                                         f"the Smith group")
                index = index * e + digit
            histogram[index] += 1
        modulus, power = cyclotomic_modulus(m, tau.order_F())   # power[k] = t^k mod N
        # one axis at a time, leading axis out and transformed axis in last,
        # so after every axis the values sit in row-major code order
        data = histogram
        for e in factors:
            step, rest = m // e, len(data) // e
            roots = [[power[step * (c * j % e)] for j in range(e)] for c in range(e)]
            out = []
            for r in range(rest):
                column = data[r::rest]
                out.extend(sum(map(mul, column, row)) % modulus for row in roots)
            data = out
        table = [v - modulus if 2 * v > modulus else v for v in data]
        # each axis doubled by repetition: index e_i + d reads digit d
        inner = 1
        for e in reversed(factors):
            block = e * inner
            table = [v for start in range(0, len(table), block)
                     for v in table[start:start + block] * 2]
            inner = 2 * block
        return table
    return tau.cached(("kernel", regular_only), build)


def delta_eval(tau: Twisting, f, g, regular_only=False) -> Fraction:
    """The averaged pairing (1/|F|) sum f(lam) K(g - lam) over coset
    representatives lam, with the kernel K(mu) = sum zeta^<mu, x> over the
    points x of F_eps.

    `f` maps weights to integers on (any) coset representatives and is
    extended by translation equivariance; for equivariant data the result
    equals the evaluation f(g).  With regular_only=True both sums restrict
    to the Weyl-regular part, which changes nothing when f is fully
    equivariant.

    b is symmetric with b(x) in eps/2 + (weights), so K(mu + b(pi)) =
    (-1)^eps(pi) K(mu): an integer function on the Smith group of
    _PairingCoordinates, and f(lam) K(g - lam) is the same at every weight
    lam of a coset, so each key of f is coded as it is.  One call names the
    keys of f once, as a CosetValues; to pair many functions on one set of
    weights, build the CosetValues once and call its `delta`."""
    return CosetValues(tau, f).delta(list(f.values()), g, regular_only)


def equivariant_function(tau: Twisting, kc: KClass):
    """The equivariant extension of a KClass, as a callable on weights."""
    def value(lam):
        red = orbit_normal_form(tau, lam)
        if red.is_zero:
            return 0
        return red.sign * kc.support.get(red.representative, 0)
    return value


# -- tori ---------------------------------------------------------------------

def torus_pushforward(tau: Twisting, lam) -> KClass:
    """Image of a character under the wrong-way map for a torus: the signed
    coset class through lam."""
    if not tau.rd.is_torus():
        raise NotATorus("pushforward in this form is defined for torus data only")
    lam = tau.rd.check_weight(lam)
    red = orbit_normal_form(tau, lam)
    return KClass({red.representative: red.sign})


# -- the character-table route to the structure constants ---------------------

def _check_galois_stable(tau: Twisting, m, ys):
    """Every unit k mod m maps each class x = y/m to a regular point k x of
    F_eps, so x -> k x permutes the classes (k is invertible and commutes
    with W).  Tested on the lifts at the order of the regular set, for
    every unit: the classes are mapped into the regular set, not into
    themselves, so cutting the test to generating units would rely on the
    regular set being stable under the units, which is what a fault there
    breaks."""
    top, regular = tau.f_epsilon(regular_only=True)
    regular, scale = set(regular), top // m
    for k in range(1, m + 1):
        if gcd(k, m) == 1:
            for y in ys:
                if tuple(k * scale * c % top for c in y) not in regular:
                    raise InvariantError(f"the class set is not Galois-stable: {k} * {y} / {m} "
                                     f"is not a regular point of F_eps")


def _sum_bound(rd: RootDatum, systems, order):
    """B = max(|F|, n 4^|Phi+| dim^3): |d(x)| <= 4^|Phi+| and |chi(x)| <= dim,
    so B bounds |F| delta_ac and every sum over the n classes."""
    dim = max(sum(system.values()) for system in systems)
    return max(order, len(systems) * 4 ** len(rd.positive_root_pairs) * dim ** 3)


def structure_constants_via_characters(ring: FusionRing):
    """The structure constants from exact character values at the Verlinde
    classes, by Verlinde (Weyl-integration) orthogonality; independent of
    the reflection route.

    Each class x carries the weight d(x) = |Delta(x)|^2.  The route first
    checks the Gram identity sum_x d(x) chi_a(x) conj(chi_c(x)) = |F| delta_ac;
    it makes the character matrix M invertible with inverse
    conj(M)^T D / |F|, so N_ab^c = |F|^-1 sum_x d(x) chi_a chi_b conj(chi_c)
    is the exact solve of M N_ab = chi_a chi_b, not a trusted shortcut.
    Raises InvariantError when the class count differs from the basis size, the
    class set is not Galois-stable, the Gram identity fails, or a constant
    is not an integer.

    Every sum is taken in Z/N through the ring map zeta_m -> t, N = Phi_m(t):
    (1) units mod m permute the classes (checked), so each sum is a Galois-
    fixed element of Z[zeta_m], a rational integer; (2) its absolute value is
    at most B (_sum_bound); (3) N > 2B, so its balanced residue is the sum.
    conj(chi)(x) = chi(-x) is read off with t^-k = t^(m-k).  The n^3 sums
    are packed over c: one nonnegative integer per class holds
    d(x_j) conj(chi_c(x_j)) mod N in slots wide enough for n N^2."""
    rd, tau, n = ring.rd, ring.tau, len(ring.basis)
    m, ys = tau.verlinde_lifts()
    if len(ys) != n:
        raise InvariantError("class count does not match basis size")
    if not n:
        return []
    _check_galois_stable(tau, m, ys)
    systems = [_weight_system(rd, lam) for lam in ring.transversal]
    order = tau.order_F()
    modulus, power = cyclotomic_modulus(m, _sum_bound(rd, systems, order))  # t^k mod N
    inverse = power[:1] + power[:0:-1]            # t^-k = t^(m-k)

    chi = [[] for _ in systems]                   # chi[a][j] = chi_a(x_j) mod N
    conj = [[] for _ in systems]
    for y in ys:
        for bins, row, bar in zip(character_bins(systems, y, m), chi, conj):
            row.append(sum(map(mul, bins, power)) % modulus)
            bar.append(sum(map(mul, bins, inverse)) % modulus)
    width = (n * modulus ** 2).bit_length() // 8 + 1          # bytes per slot
    packed = []                          # d(x_j) conj(chi_c(x_j)) mod N, every c
    roots = rd.positive_roots()
    for j, y in enumerate(ys):
        d = 1
        for alpha in roots:
            e = dot(alpha, y) % m
            d = d * (2 - power[e] - inverse[e]) % modulus
        packed.append(sum((d * conj[c][j] % modulus) << (8 * width * c) for c in range(n)))

    def sums(coeffs):
        """The balanced residues of sum_j coeffs[j] d(x_j) conj(chi_c(x_j)) mod N."""
        raw = sum(map(mul, coeffs, packed)).to_bytes(n * width, "little")
        out = []
        for i in range(0, n * width, width):
            v = int.from_bytes(raw[i:i + width], "little") % modulus
            out.append(v - modulus if 2 * v > modulus else v)
        return out

    for a in range(n):
        if sums(chi[a]) != [order if c == a else 0 for c in range(n)]:
            raise InvariantError(f"Gram identity sum_x d(x) chi_a conj(chi_c) = |F| delta_ac "
                             f"fails for basis element {a}")
    out = [[None] * n for _ in range(n)]
    for a in range(n):
        for b in range(a, n):
            row = sums([p * q % modulus for p, q in zip(chi[a], chi[b])])
            if any(v % order for v in row):
                raise InvariantError("character route produced a non-integer")
            out[a][b] = out[b][a] = tuple(v // order for v in row)
    return out
