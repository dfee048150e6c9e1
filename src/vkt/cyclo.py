"""Exact arithmetic in Z[zeta_m] for character evaluation at rational points.

Elements are stored as the canonical residue of an integer polynomial
modulo the m-th cyclotomic polynomial, so is_zero is exactly "equals 0
in the complex numbers".  Mixed-order sums are pushed to the lcm order
before reduction.

cyclotomic_modulus gives the bulk sums of the character route a ring map
Z[zeta_m] -> Z/N, zeta_m -> t = 2^k, N = Phi_m(t): (1) a sum fixed by
Gal(Q(zeta_m)/Q) is a rational integer; (2) if its absolute value is at
most B and (3) N > 2B, its balanced residue mod N is the integer itself.

Characters are evaluated in one place, character_bins, at a torus point
given by its integer lift y = m x; eval_character_at_point lifts a
rational point and calls it.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import lcm
from operator import mul

from .errors import InvariantError
from .rootdata import weight_multiplicities


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


def cyclotomic_modulus(m, bound):
    """(N, powers) for the least power of two t = 2**k, k >= 1, with
    N = Phi_m(t) > 2 * bound, and powers[j] = t^j mod N for j < m.

    Phi_m divides x^m - 1, so t^m = 1 mod N and zeta_m -> t is a ring map
    Z[zeta_m] -> Z/N: an integer of absolute value at most `bound` in
    Z[zeta_m] is its own balanced residue mod N."""
    phi = cyclotomic_polynomial(m)
    k = 1
    while True:
        value = 0
        for c in reversed(phi):
            value = (value << k) + c
        if value > 2 * bound:
            return value, [pow(2, k * j, value) for j in range(m)]
        k += 1


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

    def __repr__(self):
        return f"CyclotomicInt(order={self.order}, coeffs={self.coeffs})"


# -- evaluation of weights and characters ------------------------------------

def character_bins(systems, y, m):
    """Weight systems {weight: mult} evaluated at the torus point y/m, for
    an integer lift y: bins[k] is the total multiplicity of the weights
    with value zeta_m^k, one bin list per system.  Each weight is paired
    with y once, however many systems hold it."""
    exponent = {}
    out = []
    for system in systems:
        bins = [0] * m
        for nu, mult in system.items():
            e = exponent.get(nu)
            if e is None:
                e = exponent[nu] = sum(map(mul, nu, y)) % m
            bins[e] += mult
        out.append(bins)
    return out


def eval_character_at_point(rd, lam, point) -> CyclotomicInt:
    """The character of the irreducible V_lam at a rational torus point:
    character_bins at its lift y/m, with m its least common denominator."""
    point = [Fraction(c) for c in point]
    m = lcm(*(c.denominator for c in point))
    y = [c.numerator * (m // c.denominator) for c in point]
    return CyclotomicInt(m, character_bins([weight_multiplicities(rd, lam)], y, m)[0])


def __getattr__(name):
    # The Q(zeta_m) solver is only a reference for tests, so it is loaded
    # on first use rather than with every import of vkt.
    if name in ("FieldElement", "invert_field_matrix"):
        from . import fieldsolve
        return getattr(fieldsolve, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
