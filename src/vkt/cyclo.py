"""Exact arithmetic in Z[zeta_m] for character evaluation at rational points.

Elements are stored as the canonical residue of an integer polynomial
modulo the m-th cyclotomic polynomial, so is_zero is exactly "equals 0
in the complex numbers".  Mixed-order sums are pushed to the lcm order
before reduction.  CyclotomicPacking holds many such elements, all at one
order, in one Python integer, for bulk sums and products.

Characters are evaluated in one place, character_bins, at a torus point
given by its integer lift y = m x; eval_character_at_point and
eval_weight_at_point lift a rational point and call it.
"""

from __future__ import annotations

import cmath
from fractions import Fraction
from functools import lru_cache
from math import lcm

from .errors import InvariantError
from .rootdata import dot, weight_multiplicities


# -- integer polynomials (dense tuples, ascending degree) -------------------

def poly_trim(p):
    n = len(p)
    while n and p[n - 1] == 0:
        n -= 1
    return tuple(p[:n])


def poly_mul(p, q):
    if not p or not q:
        return ()
    out = [0] * (len(p) + len(q) - 1)
    for i, a in enumerate(p):
        if a:
            for j, b in enumerate(q):
                out[i + j] += a * b
    return poly_trim(out)


def poly_divmod_exact(p, q):
    """Long division of integer polynomials; valid when q is monic."""
    if q[-1] != 1:
        raise ValueError("divisor must be monic")
    rem = list(p)
    quo = [0] * max(len(p) - len(q) + 1, 0)
    dq = len(q) - 1
    for i in range(len(rem) - 1, dq - 1, -1):
        c = rem[i]
        if c:
            quo[i - dq] = c
            for j, b in enumerate(q):
                rem[i - dq + j] -= c * b
    return poly_trim(quo), poly_trim(rem)


@lru_cache(maxsize=None)
def cyclotomic_polynomial(m):
    """The m-th cyclotomic polynomial Phi_m, as a coefficient tuple.

    Computed by dividing x^m - 1 by Phi_d over the proper divisors d of m;
    raises InvariantError if a division leaves a remainder.

    >>> cyclotomic_polynomial(1)
    (-1, 1)
    >>> cyclotomic_polynomial(4)
    (1, 0, 1)
    """
    if m < 1:
        raise ValueError("order must be >= 1")
    p = tuple([-1] + [0] * (m - 1) + [1])
    for d in range(1, m):
        if m % d == 0:
            p, rem = poly_divmod_exact(p, cyclotomic_polynomial(d))
            if rem:
                raise InvariantError(f"Phi_{d} does not divide x^{m} - 1 exactly")
    return p


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


class CyclotomicInt:
    """An element of Z[zeta_m], reduced modulo Phi_m."""

    __slots__ = ("order", "coeffs")

    def __init__(self, order, coeffs):
        phi = cyclotomic_polynomial(order)
        _, rem = poly_divmod_exact(tuple(coeffs), phi)
        object.__setattr__(self, "order", order)
        object.__setattr__(self, "coeffs", rem)

    def __setattr__(self, name, value):
        raise AttributeError("CyclotomicInt is immutable")

    @classmethod
    def zero(cls, order=1):
        return cls(order, ())

    @classmethod
    def integer(cls, n, order=1):
        return cls(order, (n,))

    @classmethod
    def root_power(cls, order, power):
        """zeta_order ** power."""
        power %= order
        return cls(order, (0,) * power + (1,))

    def lift(self, order):
        if order == self.order:
            return self
        if order % self.order:
            raise ValueError("can only lift to a multiple order")
        k = order // self.order
        out = [0] * ((len(self.coeffs) - 1) * k + 1) if self.coeffs else []
        for i, c in enumerate(self.coeffs):
            if c:
                out[i * k] = c
        return CyclotomicInt(order, out)

    def _common(self, other):
        if isinstance(other, int):
            other = CyclotomicInt.integer(other)
        m = lcm(self.order, other.order)
        return self.lift(m), other.lift(m), m

    def __add__(self, other):
        a, b, m = self._common(other)
        n = max(len(a.coeffs), len(b.coeffs))
        return CyclotomicInt(m, [
            (a.coeffs[i] if i < len(a.coeffs) else 0)
            + (b.coeffs[i] if i < len(b.coeffs) else 0) for i in range(n)])

    __radd__ = __add__

    def __neg__(self):
        return CyclotomicInt(self.order, [-c for c in self.coeffs])

    def __sub__(self, other):
        if isinstance(other, int):
            other = CyclotomicInt.integer(other)
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, int):
            return CyclotomicInt(self.order, [other * c for c in self.coeffs])
        a, b, m = self._common(other)
        return CyclotomicInt(m, poly_mul(a.coeffs, b.coeffs))

    __rmul__ = __mul__

    def is_zero(self):
        return not self.coeffs

    def is_integer(self):
        return len(self.coeffs) <= 1

    def integer_value(self):
        if not self.is_integer():
            raise ValueError(f"{self!r} is not an integer")
        return self.coeffs[0] if self.coeffs else 0

    def __eq__(self, other):
        if isinstance(other, int):
            other = CyclotomicInt.integer(other)
        if not isinstance(other, CyclotomicInt):
            return NotImplemented
        a, b, _ = self._common(other)
        return a.coeffs == b.coeffs

    # equal values can live at different orders, so value hashing is unsafe
    __hash__ = None

    def to_complex(self):
        z = cmath.exp(2j * cmath.pi / self.order)
        return sum(c * z ** i for i, c in enumerate(self.coeffs))

    def __repr__(self):
        return f"CyclotomicInt(order={self.order}, coeffs={self.coeffs})"


class CyclotomicPacking:
    """Kronecker packing of vectors of elements of Z[zeta_m] into one Python
    integer each.

    The coefficient of zeta_m^k in component c sits in a signed slot of
    `bits` bits at bit bits * (c + slots * k).  Sums of packed integers add
    every component, and a product with a packed single-component factor
    multiplies every component by it, at the speed of integer arithmetic.
    reduce() takes the residue mod Phi_m of every component at once, as the
    balanced remainder mod Phi_m(2**(slots * bits)).  Results are exact
    while each residue coefficient stays below the `bound` given, which is
    the caller's a-priori bound; slots keep two spare bits above it."""

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


# -- evaluation of weights and characters ------------------------------------

def character_bins(system, y, m):
    """The weight system {weight: mult} evaluated at the torus point y/m,
    for an integer lift y: bins[k] is the total multiplicity of the weights
    with value zeta_m^k."""
    bins = [0] * m
    for nu, mult in system.items():
        bins[dot(nu, y) % m] += mult
    return bins


def _at_point(system, point):
    """character_bins at a rational torus point, lifted once to y/m with m
    its least common denominator."""
    point = [Fraction(c) for c in point]
    m = lcm(*(c.denominator for c in point))
    y = [c.numerator * (m // c.denominator) for c in point]
    return CyclotomicInt(m, character_bins(system, y, m))


def eval_weight_at_point(rd, weight, point) -> CyclotomicInt:
    """The value of the character `weight` at the rational torus point,
    exactly: exp(2 pi i <weight, point>) as a root of unity."""
    return _at_point({rd.check_weight(weight): 1}, point)


def eval_character_at_point(rd, lam, point) -> CyclotomicInt:
    """The character of the irreducible V_lam at a rational torus point."""
    return _at_point(weight_multiplicities(rd, lam), point)


def __getattr__(name):
    # The Q(zeta_m) solver is only a reference for tests, so it is loaded
    # on first use rather than with every import of vkt.
    if name in ("FieldElement", "invert_field_matrix"):
        from . import fieldsolve
        return getattr(fieldsolve, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
