"""Exact linear algebra over Q(zeta_m): Fraction-coefficient residues mod
Phi_m and Gauss-Jordan inversion of CyclotomicInt matrices.

No production path solves over Q(zeta_m); the character route uses
orthogonality instead.  The tests use invert_field_matrix as the reference
solve that route must reproduce.  `vkt.cyclo` exposes both names, loading
this module on first use.
"""

from __future__ import annotations

from fractions import Fraction

from .cyclo import CyclotomicInt, cyclotomic_polynomial


def _fpoly_trim(p):
    n = len(p)
    while n and p[n - 1] == 0:
        n -= 1
    return tuple(p[:n])


def _fpoly_mod(p, phi):
    rem = [Fraction(c) for c in p]
    dq = len(phi) - 1
    for i in range(len(rem) - 1, dq - 1, -1):
        c = rem[i]
        if c:
            for j, b in enumerate(phi):
                rem[i - dq + j] -= c * b
    return _fpoly_trim(rem)


def _fpoly_mul_mod(p, q, phi):
    if not p or not q:
        return ()
    out = [Fraction(0)] * (len(p) + len(q) - 1)
    for i, a in enumerate(p):
        if a:
            for j, b in enumerate(q):
                out[i + j] += a * b
    return _fpoly_mod(out, phi)


def _fpoly_sub(p, q):
    n = max(len(p), len(q))
    return _fpoly_trim([(p[i] if i < len(p) else 0) - (q[i] if i < len(q) else 0)
                        for i in range(n)])


def _fpoly_mul(p, q):
    if not p or not q:
        return ()
    out = [Fraction(0)] * (len(p) + len(q) - 1)
    for i, a in enumerate(p):
        if a:
            for j, b in enumerate(q):
                out[i + j] += a * b
    return _fpoly_trim(out)


def _fpoly_divmod(p, q):
    """Division with remainder over Q; q need not be monic."""
    rem = [Fraction(c) for c in p]
    quo = [Fraction(0)] * max(len(rem) - len(q) + 1, 1)
    dq = len(q) - 1
    for i in range(len(rem) - 1, dq - 1, -1):
        if rem[i]:
            c = rem[i] / q[-1]
            quo[i - dq] = c
            for j, b in enumerate(q):
                rem[i - dq + j] -= c * b
    return _fpoly_trim(quo), _fpoly_trim(rem)


def _fpoly_inv_mod(p, phi):
    """Inverse of p modulo the irreducible monic phi, by extended Euclid."""
    r0 = tuple(Fraction(c) for c in phi)
    r1 = _fpoly_trim([Fraction(c) for c in p])
    s0, s1 = (), (Fraction(1),)
    while r1:
        q, rem = _fpoly_divmod(r0, r1)
        r0, r1 = r1, rem
        s0, s1 = s1, _fpoly_sub(s0, _fpoly_mul(q, s1))
    if len(r0) != 1:
        raise ZeroDivisionError("element is not invertible")
    return _fpoly_trim([c / r0[0] for c in s0])


class FieldElement:
    """An element of Q(zeta_m) for the linear solver below."""

    __slots__ = ("order", "coeffs")

    def __init__(self, order, coeffs):
        self.order = order
        phi = cyclotomic_polynomial(order)
        self.coeffs = _fpoly_mod([Fraction(c) for c in coeffs], phi)

    @classmethod
    def from_cyclotomic(cls, x: CyclotomicInt, order):
        return cls(order, x.lift(order).coeffs)

    def __add__(self, o):
        n = max(len(self.coeffs), len(o.coeffs))
        return FieldElement(self.order, [
            (self.coeffs[i] if i < len(self.coeffs) else 0)
            + (o.coeffs[i] if i < len(o.coeffs) else 0) for i in range(n)])

    def __sub__(self, o):
        n = max(len(self.coeffs), len(o.coeffs))
        return FieldElement(self.order, [
            (self.coeffs[i] if i < len(self.coeffs) else 0)
            - (o.coeffs[i] if i < len(o.coeffs) else 0) for i in range(n)])

    def __mul__(self, o):
        phi = cyclotomic_polynomial(self.order)
        return FieldElement(self.order, _fpoly_mul_mod(self.coeffs, o.coeffs, phi))

    def inverse(self):
        phi = cyclotomic_polynomial(self.order)
        return FieldElement(self.order, _fpoly_inv_mod(self.coeffs, phi))

    def is_zero(self):
        return not self.coeffs

    def as_rational(self):
        if len(self.coeffs) > 1:
            raise ValueError("value is not rational")
        return self.coeffs[0] if self.coeffs else Fraction(0)


def invert_field_matrix(matrix, order):
    """Inverse of a CyclotomicInt matrix over Q(zeta_order), as FieldElement
    rows, by Gauss-Jordan elimination.

    Raises ZeroDivisionError when the matrix is singular."""
    n = len(matrix)
    a = [[FieldElement.from_cyclotomic(matrix[i][j], order) for j in range(n)]
         + [FieldElement(order, (int(i == j),)) for j in range(n)] for i in range(n)]
    for col in range(n):
        piv = next((i for i in range(col, n) if not a[i][col].is_zero()), None)
        if piv is None:
            raise ZeroDivisionError("singular matrix")
        a[col], a[piv] = a[piv], a[col]
        inv = a[col][col].inverse()
        a[col] = [x * inv for x in a[col]]
        for i in range(n):
            if i != col and not a[i][col].is_zero():
                c = a[i][col]
                a[i] = [x - c * y for x, y in zip(a[i], a[col])]
    return [row[n:] for row in a]
