"""Rank-one worked examples by exact Laurent-polynomial algebra.

These computations never touch the orbit machinery: the three classical
gluing computations (the three-sphere, the circle group acting on itself,
and SU(2) acting on itself) are reproduced from their explicit two-by-two
presentations, by hand-rolled Laurent and symmetric-polynomial arithmetic.
They serve as an independent oracle for the main pipeline.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import InvariantError
from .zlattice import FiniteAbelianGroup, IntMatrix, cokernel_structure, kernel_basis


class LaurentPoly:
    """An integer Laurent polynomial in one variable L, as {exponent: coeff}."""

    __slots__ = ("terms",)

    def __init__(self, terms=None):
        cleaned = {}
        for e, c in (terms or {}).items():
            if c:
                cleaned[int(e)] = int(c)
        object.__setattr__(self, "terms", cleaned)

    def __setattr__(self, name, value):
        raise AttributeError("LaurentPoly is immutable")

    @classmethod
    def zero(cls):
        return cls({})

    @classmethod
    def monomial(cls, e, c=1):
        return cls({e: c})

    def __add__(self, other):
        out = dict(self.terms)
        for e, c in other.terms.items():
            out[e] = out.get(e, 0) + c
        return LaurentPoly(out)

    def __neg__(self):
        return LaurentPoly({e: -c for e, c in self.terms.items()})

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, int):
            return LaurentPoly({e: c * other for e, c in self.terms.items()})
        out = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                out[e1 + e2] = out.get(e1 + e2, 0) + c1 * c2
        return LaurentPoly(out)

    __rmul__ = __mul__

    def __eq__(self, other):
        return isinstance(other, LaurentPoly) and self.terms == other.terms

    __hash__ = None

    def is_zero(self):
        return not self.terms

    def is_symmetric(self):
        return all(self.terms.get(-e, 0) == c for e, c in self.terms.items())

    def items(self):
        return sorted(self.terms.items())

    def __repr__(self):
        if not self.terms:
            return "LaurentPoly(0)"
        bits = [f"{c}*L^{e}" for e, c in self.items()]
        return "LaurentPoly(" + " + ".join(bits) + ")"


class SymmetricPoly(LaurentPoly):
    """A Laurent polynomial invariant under L -> L^{-1}."""

    def __init__(self, terms=None):
        super().__init__(terms)
        if not self.is_symmetric():
            raise ValueError("coefficients are not symmetric under negation")


def rho(k) -> SymmetricPoly:
    """The symmetric sum L^k + L^{k-2} + ... + L^{-k}; rho(0) = 1."""
    if k < 0:
        return SymmetricPoly()
    return SymmetricPoly({e: 1 for e in range(-k, k + 1, 2)})


def clebsch_gordan(k, l):
    """Indices in the product rho(k) * rho(l): k+l, k+l-2, ..., |k-l|."""
    lo, hi = sorted((k, l))
    return list(range(hi - lo, hi + lo + 1, 2))


def _rho_reduce_mod(k, n, cache):
    """rho(k) modulo the ideal (rho(n-1)), as {index < n-1: coeff}."""
    if k in cache:
        return cache[k]
    if k < n - 1:
        out = {k: 1}
    elif k == n - 1:
        out = {}
    else:
        l = k - (n - 1)
        out = {}
        # rho(n-1) rho(l) = rho(k) + lower terms, and the product dies mod the ideal
        for idx in clebsch_gordan(n - 1, l)[:-1]:
            for j, c in _rho_reduce_mod(idx, n, cache).items():
                out[j] = out.get(j, 0) - c
        out = {j: c for j, c in out.items() if c}
    cache[k] = out
    return out


def su2_quotient_product(a, b, n):
    """Product of the classes of rho(a) and rho(b) in the quotient by
    (rho(n-1)), as {index < n-1: coeff}; computed purely by Laurent algebra."""
    cache = {}
    out = {}
    for idx in clebsch_gordan(a, b):
        for j, c in _rho_reduce_mod(idx, n, cache).items():
            out[j] = out.get(j, 0) + c
    return {j: c for j, c in sorted(out.items()) if c}


@dataclass(frozen=True)
class PresentationReport:
    """Outcome of one gluing computation: the degree-zero group, and the
    degree-one group presented by rank and relation data."""

    kernel_rank: int
    rank: int
    basis_labels: tuple
    relation: str
    details: dict


def mv_su2(n) -> PresentationReport:
    """Conjugation-equivariant gluing for SU(2) at twist n >= 1.

    The middle map has the triangular presentation [[1, rho(n-2)], [0,
    -rho(n-1)]] over the symmetric ring: the kernel vanishes (the ring is
    an integral domain and rho(n-1) != 0), and the cokernel is the quotient
    by the ideal (rho(n-1)), free of rank n-1 over the classes of
    rho(0), ..., rho(n-2)."""
    if n < 1:
        raise ValueError("twist must be >= 1")
    # the identity making the triangular form work: L^n = L rho(n-1) - rho(n-2)
    ln = LaurentPoly.monomial(n)
    if ln != LaurentPoly.monomial(1) * rho(n - 1) - rho(n - 2):
        raise InvariantError(f"L^{n} != L rho({n - 1}) - rho({n - 2})")

    cache = {}
    for k in range(n - 1):
        if _rho_reduce_mod(k, n, cache) != {k: 1}:
            raise InvariantError(f"rho({k}) is not reduced modulo rho({n - 1})")
    if _rho_reduce_mod(n - 1, n, cache) != {}:
        raise InvariantError(f"rho({n - 1}) does not reduce to zero")

    # spot-check the reduction against honest polynomial arithmetic: the
    # difference rho(k) - (reduced form) must lie in (rho(n-1))
    for k in range(n - 1, 2 * n + 2):
        reduced = _rho_reduce_mod(k, n, cache)
        diff = rho(k) - _combine(reduced)
        if not _divides_symmetric(rho(n - 1), diff):
            raise InvariantError(f"rho({k}) minus its reduction is not in (rho({n - 1}))")

    return PresentationReport(
        kernel_rank=0,
        rank=n - 1,
        basis_labels=tuple(f"rho{k}" for k in range(n - 1)),
        relation=f"rho{n - 1} = 0",
        details={
            "matrix": [["1", f"rho{n - 2}"], ["0", f"-rho{n - 1}"]],
            "quotient": f"R(SU(2))/(rho{n - 1})",
        },
    )


def _combine(coeffs):
    out = LaurentPoly.zero()
    for k, c in coeffs.items():
        out = out + c * rho(k)
    return out


def _divides_symmetric(d: LaurentPoly, p: LaurentPoly):
    """Exact division test for Laurent polynomials with d top-monic."""
    if p.is_zero():
        return True
    work = dict(p.terms)
    dmax, dmin = max(d.terms), min(d.terms)
    dlead = d.terms[dmax]
    floor = min(p.terms) - dmin  # least exponent any honest quotient can use
    while any(work.values()):
        top = max(e for e, c in work.items() if c)
        if top - dmax < floor:
            return False
        c = work[top]
        if c % dlead:
            return False
        q = c // dlead
        for e, dc in d.terms.items():
            work[e + top - dmax] = work.get(e + top - dmax, 0) - q * dc
        work = {e: v for e, v in work.items() if v}
    return True


def mv_u1(n, eps=0) -> PresentationReport:
    """Gluing for the circle group at twist (n, eps), n >= 1.

    Degree zero vanishes; degree one is Z[L, L^{-1}] modulo the relation
    (-1)^eps L^n = 1, free of rank n on the classes of 1, L, ..., L^{n-1}."""
    if n < 1:
        raise ValueError("twist must be >= 1")
    sign = -1 if eps % 2 else 1

    def reduce_exp(k):
        q, r = divmod(k, n)
        return r, sign if q % 2 else 1

    # relation check: L^n reduces to sign * 1, and reduction respects shifts
    if reduce_exp(n) != (0, sign):
        raise InvariantError(f"L^{n} does not reduce to {sign}")
    for k in range(-2 * n, 2 * n + 1):
        r, s = reduce_exp(k)
        rk, sk = reduce_exp(k + n)
        if rk != r or sk != s * sign:
            raise InvariantError(f"the reduction of L^{k} does not respect the shift by {n}")

    table = {k: reduce_exp(k) for k in range(-2 * n, 2 * n + 1)}
    relation = f"-L^{n} = 1" if sign < 0 else f"L^{n} = 1"
    return PresentationReport(
        kernel_rank=0,
        rank=n,
        basis_labels=tuple(f"L^{k}" for k in range(n)),
        relation=relation,
        details={
            "matrix": [["1", f"{'-' if sign > 0 else '+'}L^{n}"], ["1", "-1"]],
            "quotient": f"Z[L,L^-1]/({'-' if sign < 0 else ''}L^{n} - 1)",
            "exponent_reduction": {str(k): [v[0], v[1]] for k, v in sorted(table.items())},
        },
    )


def mv_s3(n):
    """Gluing for the three-sphere at twist n >= 0: the two-by-two integer
    presentation, solved by Smith reduction.

    Returns (degree-zero description, degree-one description) as
    finite abelian groups."""
    if n < 0:
        raise ValueError("twist must be >= 0")
    if n == 0:
        m = IntMatrix.from_rows([[1, -1], [0, 0]])
    else:
        m = IntMatrix.from_rows([[1, n - 1], [0, -n]])
    kernel = kernel_basis(m)
    k0 = FiniteAbelianGroup((), len(kernel))
    k1 = cokernel_structure(m)
    return k0, k1
