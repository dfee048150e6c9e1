"""Exact integer linear algebra: Smith normal form, kernels, cokernels.

Everything here is over plain Python ints (arbitrary precision); only
inverse_rational works in fractions.Fraction.  No floating point anywhere.
Matrices are immutable and small (desk scale, dimensions up to ~50).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import product


def integers(values, what):
    """values as a tuple of ints; ValueError, naming `what` and the value,
    at the first value that does not equal an integer (none is truncated)."""
    given = tuple(values)
    out = tuple(map(int, given))
    if out != given:
        bad = next(x for x, k in zip(given, out) if x != k)
        raise ValueError(f"non-integral {what} {bad!r}")
    return out


class IntMatrix:
    """An immutable integer matrix, entries stored row-major."""

    __slots__ = ("rows", "cols", "entries")

    def __init__(self, rows, cols, entries):
        """ValueError unless every entry equals an integer."""
        entries = integers(entries, "matrix entry")
        if len(entries) != rows * cols:
            raise ValueError(f"expected {rows * cols} entries, got {len(entries)}")
        object.__setattr__(self, "rows", rows)
        object.__setattr__(self, "cols", cols)
        object.__setattr__(self, "entries", entries)

    def __setattr__(self, name, value):
        raise AttributeError("IntMatrix is immutable")

    @classmethod
    def from_rows(cls, rows):
        rows = [list(r) for r in rows]
        ncols = len(rows[0]) if rows else 0
        if any(len(r) != ncols for r in rows):
            raise ValueError("ragged rows")
        return cls(len(rows), ncols, [e for r in rows for e in r])

    @classmethod
    def identity(cls, n):
        return cls(n, n, [1 if i == j else 0 for i in range(n) for j in range(n)])

    @classmethod
    def zeros(cls, rows, cols):
        return cls(rows, cols, [0] * (rows * cols))

    def at(self, i, j):
        return self.entries[i * self.cols + j]

    def row(self, i):
        return self.entries[i * self.cols:(i + 1) * self.cols]

    def column(self, j):
        return tuple(self.entries[i * self.cols + j] for i in range(self.rows))

    def to_rows(self):
        return [list(self.row(i)) for i in range(self.rows)]

    def transpose(self):
        return IntMatrix(self.cols, self.rows,
                         [self.at(i, j) for j in range(self.cols) for i in range(self.rows)])

    def __eq__(self, other):
        return (isinstance(other, IntMatrix) and self.rows == other.rows
                and self.cols == other.cols and self.entries == other.entries)

    def __hash__(self):
        return hash((self.rows, self.cols, self.entries))

    def __mul__(self, other):
        if isinstance(other, IntMatrix):
            if self.cols != other.rows:
                raise ValueError("shape mismatch")
            ent = []
            for i in range(self.rows):
                ri = self.row(i)
                for j in range(other.cols):
                    ent.append(sum(ri[k] * other.at(k, j) for k in range(self.cols)))
            return IntMatrix(self.rows, other.cols, ent)
        return NotImplemented

    def apply(self, vec):
        """Matrix times column vector; accepts ints or Fractions."""
        if len(vec) != self.cols:
            raise ValueError("vector length mismatch")
        return tuple(sum(self.at(i, j) * vec[j] for j in range(self.cols))
                     for i in range(self.rows))

    def is_symmetric(self):
        return self.rows == self.cols and all(
            self.at(i, j) == self.at(j, i)
            for i in range(self.rows) for j in range(i + 1, self.cols))

    def determinant(self):
        """Exact determinant by fraction-free (Bareiss) elimination."""
        if self.rows != self.cols:
            raise ValueError("determinant of non-square matrix")
        n = self.rows
        if n == 0:
            return 1
        a = self.to_rows()
        sign = 1
        prev = 1
        for k in range(n - 1):
            if a[k][k] == 0:
                for i in range(k + 1, n):
                    if a[i][k] != 0:
                        a[k], a[i] = a[i], a[k]
                        sign = -sign
                        break
                else:
                    return 0
            for i in range(k + 1, n):
                for j in range(k + 1, n):
                    a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) // prev
                a[i][k] = 0
            prev = a[k][k]
        return sign * a[n - 1][n - 1]

    def __repr__(self):
        return f"IntMatrix({self.to_rows()!r})"


@dataclass(frozen=True)
class SmithDecomposition:
    """U * M * V = D with U, V unimodular and D in Smith normal form;
    Uinv and Vinv are the inverses of U and V."""

    U: IntMatrix
    D: IntMatrix
    V: IntMatrix
    Uinv: IntMatrix
    Vinv: IntMatrix

    def invariant_diagonal(self):
        n = min(self.D.rows, self.D.cols)
        return tuple(self.D.at(i, i) for i in range(n))


@dataclass(frozen=True)
class FiniteAbelianGroup:
    """A finitely generated abelian group: torsion invariant factors + free rank.

    invariant_factors excludes 1's and divide successively; generator_reps
    (when present) express generators of the corresponding summands in the
    coordinates of the lattice being quotiented.
    """

    invariant_factors: tuple
    free_rank: int
    generator_reps: tuple = ()

    def order(self):
        """Group order, or None when infinite."""
        if self.free_rank:
            return None
        n = 1
        for f in self.invariant_factors:
            n *= f
        return n

    def __str__(self):
        parts = [f"Z/{f}" for f in self.invariant_factors] + ["Z"] * self.free_rank
        return " + ".join(parts) if parts else "0"


def _find_pivot(a, t, rows, cols):
    """Smallest |a[i][j]| != 0 in the trailing submatrix, ties row-then-column."""
    best = None
    for i in range(t, rows):
        for j in range(t, cols):
            v = abs(a[i][j])
            if v and (best is None or v < best[0]):
                best = (v, i, j)
    return None if best is None else (best[1], best[2])


def smith_normal_form(M: IntMatrix) -> SmithDecomposition:
    """Diagonalize M over Z: U*M*V = D, d_i >= 0 and d_i | d_{i+1}, with
    Uinv = U^-1 and Vinv = V^-1 built from the same elementary operations.

    Deterministic: pivots are chosen by smallest absolute value, ties
    broken by row index then column index.  A pivot that has cleared its
    row and column but does not divide some entry of the trailing block
    takes in the first row holding one; reducing that row again leaves a
    smaller pivot.  So the loop ends, and each pivot divides all later ones.
    """
    rows, cols = M.rows, M.cols
    a = M.to_rows()
    u, uinv = IntMatrix.identity(rows).to_rows(), IntMatrix.identity(rows).to_rows()
    v, vinv = IntMatrix.identity(cols).to_rows(), IntMatrix.identity(cols).to_rows()

    # a row operation on U is the inverse column operation on U^-1, and a
    # column operation on V the inverse row operation on V^-1
    def swap_rows(i, j):
        a[i], a[j] = a[j], a[i]
        u[i], u[j] = u[j], u[i]
        for r in uinv:
            r[i], r[j] = r[j], r[i]

    def swap_cols(i, j):
        for r in a:
            r[i], r[j] = r[j], r[i]
        for r in v:
            r[i], r[j] = r[j], r[i]
        vinv[i], vinv[j] = vinv[j], vinv[i]

    def add_row(dst, src, c):
        # row_dst += c * row_src
        a[dst] = [x + c * y for x, y in zip(a[dst], a[src])]
        u[dst] = [x + c * y for x, y in zip(u[dst], u[src])]
        for r in uinv:
            r[src] -= c * r[dst]

    def add_col(dst, src, c):
        for r in a:
            r[dst] += c * r[src]
        for r in v:
            r[dst] += c * r[src]
        vinv[src] = [x - c * y for x, y in zip(vinv[src], vinv[dst])]

    def negate_row(i):
        a[i] = [-x for x in a[i]]
        u[i] = [-x for x in u[i]]
        for r in uinv:
            r[i] = -r[i]

    t = 0
    while t < min(rows, cols) and (pos := _find_pivot(a, t, rows, cols)):
        while True:
            if pos[0] != t:
                swap_rows(t, pos[0])
            if pos[1] != t:
                swap_cols(t, pos[1])
            # reduce column t, then row t, against the pivot
            p = a[t][t]
            for i in range(t + 1, rows):
                if a[i][t]:
                    add_row(i, t, -(a[i][t] // p))
            for j in range(t + 1, cols):
                if a[t][j]:
                    add_col(j, t, -(a[t][j] // p))
            if any(a[i][t] for i in range(t + 1, rows)) or any(a[t][t + 1:]):
                pos = _find_pivot(a, t, rows, cols)
                continue
            bad = next((i for i in range(t + 1, rows) if any(x % p for x in a[i][t + 1:])), None)
            if bad is None:
                break
            add_row(t, bad, 1)
            pos = (t, t)
        if a[t][t] < 0:
            negate_row(t)
        t += 1

    D = IntMatrix(rows, cols, [x for r in a for x in r])
    return SmithDecomposition(IntMatrix.from_rows(u), D, IntMatrix.from_rows(v),
                              IntMatrix.from_rows(uinv), IntMatrix.from_rows(vinv))


def kernel_basis(M: IntMatrix):
    """A Z-basis (list of integer tuples) of ker(M); saturated by construction."""
    snf = smith_normal_form(M)
    d = snf.invariant_diagonal()
    r = sum(1 for x in d if x != 0)
    return [snf.V.column(j) for j in range(r, M.cols)]


def cokernel_structure(M: IntMatrix) -> FiniteAbelianGroup:
    """Invariant factors and free rank of coker(M) = Z^rows / M(Z^cols).

    Generators of the nontrivial cyclic summands are returned in the
    coordinates of the quotiented lattice Z^rows.
    """
    snf = smith_normal_form(M)
    d = snf.invariant_diagonal()
    d += (0,) * (M.rows - len(d))
    return FiniteAbelianGroup(tuple(x for x in d if x > 1), d.count(0),
                              tuple(snf.Uinv.column(i) for i, x in enumerate(d) if x != 1))


def smith_coordinates(snf: SmithDecomposition):
    """(factors, rows, generators) for a finite quotient Z^rows / M(Z^cols),
    read off one Smith normal form U M V = D of M: the invariant factors
    d > 1, the rows u of U with x -> (u . x mod d) an isomorphism onto the
    product of the Z/d, and the columns of U^-1 that map to its unit
    vectors.  Raises ValueError when the quotient is infinite."""
    d = snf.invariant_diagonal()
    if len(d) < snf.D.rows or 0 in d:
        raise ValueError("quotient is infinite")
    keep = [i for i, x in enumerate(d) if x > 1]
    return (tuple(d[i] for i in keep), tuple(snf.U.row(i) for i in keep),
            tuple(snf.Uinv.column(i) for i in keep))


def inverse_rational(M: IntMatrix):
    """Inverse over Q as a list of Fraction rows; raises on singular input."""
    if M.rows != M.cols:
        raise ValueError("inverse of non-square matrix")
    n = M.rows
    a = [[Fraction(M.at(i, j)) for j in range(n)] + [Fraction(int(i == j)) for j in range(n)]
         for i in range(n)]
    for col in range(n):
        piv = next((i for i in range(col, n) if a[i][col] != 0), None)
        if piv is None:
            raise ValueError("singular matrix")
        a[col], a[piv] = a[piv], a[col]
        inv = 1 / a[col][col]
        a[col] = [x * inv for x in a[col]]
        for i in range(n):
            if i != col and a[i][col]:
                c = a[i][col]
                a[i] = [x - c * y for x, y in zip(a[i], a[col])]
    return [row[n:] for row in a]


def box_points(sizes, start=0):
    """The integer points p with start <= p_i < start + sizes[i], in
    lexicographic order (the last coordinate varies fastest)."""
    return product(*(range(start, start + s) for s in sizes))


def coset_representatives(factors, generators, rank):
    """Deterministic coset representatives of a finite quotient of Z^rank
    with cyclic factors Z/d generated by the given vectors (the factors and
    generators of smith_coordinates): the sums of k_i g_i over the box
    0 <= k_i < d_i, in lexicographic order of k, the last index varying
    fastest.  Returns prod(factors) integer tuples, one per coset."""
    reps = [(0,) * rank]
    for d, g in zip(factors, generators):
        reps = [tuple(x + k * y for x, y in zip(r, g)) for r in reps for k in range(d)]
    return reps
