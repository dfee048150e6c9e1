import random
from fractions import Fraction

import pytest

from vkt.zlattice import (
    FiniteAbelianGroup,
    IntMatrix,
    SmithDecomposition,
    box_points,
    cokernel_structure,
    coset_representatives,
    inverse_rational,
    kernel_basis,
    smith_coordinates,
    smith_normal_form,
)


# -- the oracles ----------------------------------------------------------------

def inverse_unimodular(M):
    """Exact inverse of a unimodular integer matrix by Fraction Gauss-Jordan."""
    inv = inverse_rational(M)
    if any(x.denominator != 1 for row in inv for x in row):
        raise ValueError("matrix is not unimodular")
    return IntMatrix(M.rows, M.cols, [x.numerator for row in inv for x in row])


def _xgcd(p, q):
    """g, x, y with x*p + y*q = g = gcd(p, q), g >= 0."""
    x0, x1, y0, y1 = 1, 0, 0, 1
    while q:
        k, p, q = p // q, q, p % q
        x0, x1 = x1, x0 - k * x1
        y0, y1 = y1, y0 - k * y1
    if p < 0:
        p, x0, y0 = -p, -x0, -y0
    return p, x0, y0


def _oracle_pivot(a, t, rows, cols):
    best = None
    for i in range(t, rows):
        for j in range(t, cols):
            v = abs(a[i][j])
            if v and (best is None or v < best[0]):
                best = (v, i, j)
    return None if best is None else (best[1], best[2])


def two_pass_smith_normal_form(M):
    """The earlier reduction: eliminate to a diagonal, then restore
    d_i | d_(i+1) by a 2x2 gcd/lcm post-pass.  Returns (U, D, V, fired),
    fired telling whether the post-pass changed anything."""
    rows, cols = M.rows, M.cols
    a = M.to_rows()
    u = IntMatrix.identity(rows).to_rows()
    v = IntMatrix.identity(cols).to_rows()

    def swap_rows(i, j):
        a[i], a[j] = a[j], a[i]
        u[i], u[j] = u[j], u[i]

    def swap_cols(i, j):
        for r in a + v:
            r[i], r[j] = r[j], r[i]

    def add_row(dst, src, c):
        a[dst] = [x + c * y for x, y in zip(a[dst], a[src])]
        u[dst] = [x + c * y for x, y in zip(u[dst], u[src])]

    def add_col(dst, src, c):
        for r in a + v:
            r[dst] += c * r[src]

    t = 0
    while t < min(rows, cols):
        pos = _oracle_pivot(a, t, rows, cols)
        if pos is None:
            break
        if pos[0] != t:
            swap_rows(t, pos[0])
        if pos[1] != t:
            swap_cols(t, pos[1])
        while True:
            done = True
            for i in range(t + 1, rows):
                if a[i][t]:
                    add_row(i, t, -(a[i][t] // a[t][t]))
                    if a[i][t]:
                        done = False
            for j in range(t + 1, cols):
                if a[t][j]:
                    add_col(j, t, -(a[t][j] // a[t][t]))
                    if a[t][j]:
                        done = False
            if done:
                break
            pos = _oracle_pivot(a, t, rows, cols)
            if pos[0] != t:
                swap_rows(t, pos[0])
            if pos[1] != t:
                swap_cols(t, pos[1])
        if a[t][t] < 0:
            a[t] = [-x for x in a[t]]
            u[t] = [-x for x in u[t]]
        t += 1

    fired, changed = False, True
    while changed:
        changed = False
        for i in range(t - 1):
            di, dj = a[i][i], a[i + 1][i + 1]
            if di and dj % di == 0:
                continue
            fired = changed = True
            g, x, y = _xgcd(di, dj)
            p, q = i, i + 1
            for m in (a, u):
                m[p], m[q] = ([x * ap + y * aq for ap, aq in zip(m[p], m[q])],
                              [(-dj // g) * ap + (di // g) * aq for ap, aq in zip(m[p], m[q])])
            for r in a + v:
                cp, cq = r[p], r[q]
                r[p] = cp + cq
                r[q] = (-(y * dj) // g) * cp + ((x * di) // g) * cq
    D = IntMatrix(rows, cols, [x for r in a for x in r])
    return IntMatrix.from_rows(u), D, IntMatrix.from_rows(v), fired


def random_matrix(rng):
    """Small integer matrices up to 6 x 6: one in twenty with no rows or no
    columns, one in ten diagonal, one in four of rank below min(rows, cols)."""
    r, c = rng.randint(1, 6), rng.randint(1, 6)
    kind = rng.randrange(20)
    if kind == 0:
        return IntMatrix(0, c, []) if rng.randrange(2) else IntMatrix(r, 0, [])
    if kind < 3:
        return IntMatrix(r, c, [rng.randint(1, 12) * (i == j) for i in range(r) for j in range(c)])
    if kind < 8 and min(r, c) > 1:
        k = rng.randint(1, min(r, c) - 1)
        left = IntMatrix(r, k, [rng.randint(-4, 4) for _ in range(r * k)])
        return left * IntMatrix(k, c, [rng.randint(-4, 4) for _ in range(k * c)])
    return IntMatrix(r, c, [rng.randint(-9, 9) for _ in range(r * c)])


def matvec_fraction(rows, vec):
    """rows: list of Fraction rows; vec: sequence of numbers."""
    return tuple(sum(r[j] * vec[j] for j in range(len(vec))) for r in rows)


def check_decomposition(M):
    snf = smith_normal_form(M)
    assert snf.U * M * snf.V == snf.D
    assert snf.U * snf.Uinv == IntMatrix.identity(M.rows)
    assert snf.V * snf.Vinv == IntMatrix.identity(M.cols)
    assert snf.U.determinant() in (1, -1)
    assert snf.V.determinant() in (1, -1)
    d = snf.invariant_diagonal()
    D = snf.D
    assert all(D.at(i, j) == 0 for i in range(D.rows) for j in range(D.cols) if i != j)
    assert all(x >= 0 for x in d)
    for i in range(len(d) - 1):
        if d[i]:
            assert d[i + 1] % d[i] == 0
        else:
            assert d[i + 1] == 0
    return snf


def test_snf_identity():
    I = IntMatrix.identity(2)
    snf = check_decomposition(I)
    assert snf.U == I and snf.D == I and snf.V == I


def test_snf_diag_2_3():
    M = IntMatrix.from_rows([[2, 0], [0, 3]])
    snf = check_decomposition(M)
    assert snf.invariant_diagonal() == (1, 6)


def test_snf_s3_middle_map():
    # [[1, n-1], [0, -n]] for n = 5
    M = IntMatrix.from_rows([[1, 4], [0, -5]])
    snf = check_decomposition(M)
    assert snf.invariant_diagonal() == (1, 5)


def test_snf_random_matrices():
    rng = random.Random(20230817)
    for _ in range(60):
        r = rng.randint(1, 5)
        c = rng.randint(1, 5)
        M = IntMatrix(r, c, [rng.randint(-9, 9) for _ in range(r * c)])
        check_decomposition(M)


def test_one_pass_reduction_matches_the_two_pass_oracle():
    # the same invariant diagonal everywhere, and the same U and V wherever
    # the oracle's post-pass changed nothing; the inverses come out exact
    rng = random.Random(24)
    fired = empty = deficient = 0
    for _ in range(5000):
        M = random_matrix(rng)
        snf = check_decomposition(M)
        U, D, V, post = two_pass_smith_normal_form(M)
        assert snf.invariant_diagonal() == tuple(D.at(i, i) for i in range(min(M.rows, M.cols)))
        if post:
            fired += 1
        else:
            assert (snf.U, snf.V) == (U, V), M
        assert snf.Uinv == inverse_unimodular(snf.U) and snf.Vinv == inverse_unimodular(snf.V)
        empty += 0 in (M.rows, M.cols)
        deficient += 0 in snf.invariant_diagonal()
    assert fired >= 300 and empty >= 200 and deficient >= 600, (fired, empty, deficient)


def test_a_pivot_that_divides_its_row_and_column_is_not_final():
    # diag(4, 6): the pivot 4 clears its row and column but not 6, so it
    # takes in the row of 6 and comes down to 2
    M = IntMatrix.from_rows([[4, 0], [0, 6]])
    snf = check_decomposition(M)
    assert snf == SmithDecomposition(
        IntMatrix.from_rows([[1, 1], [3, 2]]), IntMatrix.from_rows([[2, 0], [0, 12]]),
        IntMatrix.from_rows([[-1, 3], [1, -2]]),
        IntMatrix.from_rows([[-2, 1], [3, -1]]), IntMatrix.from_rows([[2, 3], [1, 1]]))
    assert two_pass_smith_normal_form(M)[3]


def test_snf_of_an_empty_matrix():
    for r, c in ((0, 3), (3, 0), (0, 0)):
        snf = check_decomposition(IntMatrix(r, c, []))
        assert (snf.D.rows, snf.D.cols) == (r, c)
        assert snf.invariant_diagonal() == ()


def test_int_matrix_refuses_non_integral_entries():
    with pytest.raises(ValueError, match="non-integral matrix entry Fraction"):
        IntMatrix(1, 2, [Fraction(5, 2), 2.7])
    with pytest.raises(ValueError, match="non-integral"):
        IntMatrix.from_rows([[1, 2.5]])
    assert IntMatrix(1, 2, [Fraction(4, 2), 3.0]).entries == (2, 3)


def test_snf_deterministic():
    M = IntMatrix.from_rows([[6, 4, 2], [4, 8, 6], [2, 6, 12]])
    assert smith_normal_form(M) == smith_normal_form(M)


def test_cokernel_s3():
    M = IntMatrix.from_rows([[1, 4], [0, -5]])
    g = cokernel_structure(M)
    assert g.invariant_factors == (5,)
    assert g.free_rank == 0
    assert g.order() == 5


def test_cokernel_zero_1x1():
    g = cokernel_structure(IntMatrix.zeros(1, 1))
    assert g.free_rank == 1
    assert g.invariant_factors == ()


def test_cokernel_generators():
    M = IntMatrix.from_rows([[1, 4], [0, -5]])
    g = cokernel_structure(M)
    (gen,) = g.generator_reps
    # the representative generates the Z/5 quotient: k * gen lies in the
    # column lattice exactly when 5 divides k
    inv = inverse_rational(M)
    for k in range(1, 11):
        x = matvec_fraction(inv, [k * c for c in gen])
        integral = all(v.denominator == 1 for v in x)
        assert integral == (k % 5 == 0), k

    free = cokernel_structure(IntMatrix.from_rows([[2, 0], [0, 0]]))
    assert free.invariant_factors == (2,)
    assert free.free_rank == 1
    assert len(free.generator_reps) == 2


def test_cokernel_identity():
    g = cokernel_structure(IntMatrix.identity(2))
    assert g.order() == 1
    assert str(g) == "0"


def test_cokernel_unimodular_invariance():
    rng = random.Random(99)
    M = IntMatrix.from_rows([[4, 2, 0], [0, 6, 3]])
    base = cokernel_structure(M)
    # random unimodular factors built from elementary operations
    for _ in range(10):
        L = _random_unimodular(rng, M.rows)
        R = _random_unimodular(rng, M.cols)
        g = cokernel_structure(L * M * R)
        assert g.invariant_factors == base.invariant_factors
        assert g.free_rank == base.free_rank


def _random_unimodular(rng, n):
    m = IntMatrix.identity(n).to_rows()
    for _ in range(3 * n):
        i, j = rng.randrange(n), rng.randrange(n)
        if i == j:
            continue
        c = rng.randint(-2, 2)
        m[i] = [x + c * y for x, y in zip(m[i], m[j])]
    return IntMatrix.from_rows(m)


def test_kernel_s3_family():
    for n in range(1, 8):
        M = IntMatrix.from_rows([[1, n - 1], [0, -n]])
        assert kernel_basis(M) == []


def test_kernel_zero_matrix():
    basis = kernel_basis(IntMatrix.zeros(2, 2))
    assert len(basis) == 2
    assert IntMatrix.from_rows(basis).determinant() in (1, -1)


def test_kernel_row_vector():
    M = IntMatrix.from_rows([[1, 1]])
    (v,) = kernel_basis(M)
    assert M.apply(v) == (0,)
    assert v in ((1, -1), (-1, 1))


def test_rank_plus_nullity():
    rng = random.Random(7)
    for _ in range(40):
        r = rng.randint(1, 4)
        c = rng.randint(1, 4)
        M = IntMatrix(r, c, [rng.randint(-5, 5) for _ in range(r * c)])
        rank = sum(1 for x in smith_normal_form(M).invariant_diagonal() if x)
        assert rank + len(kernel_basis(M)) == c
        for v in kernel_basis(M):
            assert all(x == 0 for x in M.apply(v))


def test_determinant_matches_snf_product():
    rng = random.Random(3)
    for _ in range(30):
        n = rng.randint(1, 4)
        M = IntMatrix(n, n, [rng.randint(-6, 6) for _ in range(n * n)])
        d = 1
        for x in smith_normal_form(M).invariant_diagonal():
            d *= x
        assert abs(M.determinant()) == d


def test_inverse_unimodular_roundtrip():
    M = IntMatrix.from_rows([[2, 1], [1, 1]])
    assert M * inverse_unimodular(M) == IntMatrix.identity(2)


def matrix_coset_representatives(M):
    """The cosets of Z^rows / M(Z^cols) by their own Smith normal form: U^-1
    applied to the box of the whole Smith diagonal, last index fastest."""
    snf = smith_normal_form(M)
    uinv = inverse_unimodular(snf.U)
    return [uinv.apply(idx) for idx in box_points(snf.invariant_diagonal())]


def cosets_of(M):
    """coset_representatives over the Smith coordinates of M."""
    factors, _, gens = smith_coordinates(smith_normal_form(M))
    return coset_representatives(factors, gens, M.rows)


def test_coset_representatives():
    M = IntMatrix.from_rows([[2, 0], [0, 3]])
    reps = cosets_of(M)
    assert len(reps) == 6
    # no two representatives may differ by an element of the column lattice
    seen = set()
    for v in reps:
        key = (v[0] % 2, v[1] % 3)
        assert key not in seen
        seen.add(key)
    # the order is pinned: the Smith box is enumerated with the last index fastest
    assert cosets_of(IntMatrix.from_rows([[4, 0], [0, 6]])) == \
        [(k, -k) for k in range(12)] + [(k - 2, 3 - k) for k in range(12)]


def test_coset_representatives_match_the_matrix_enumeration():
    # the same representatives, in the same order, as U^-1 over the box of
    # M's own Smith diagonal; a unimodular M has the one coset of 0
    rng = random.Random(20)
    seen_trivial = False
    for _ in range(40):
        n = rng.randint(1, 4)
        M = IntMatrix.from_rows([[rng.randint(-5, 5) for _ in range(n)] for _ in range(n)])
        if M.determinant() == 0:
            continue
        seen_trivial |= abs(M.determinant()) == 1
        assert cosets_of(M) == matrix_coset_representatives(M)
    assert seen_trivial
    assert cosets_of(IntMatrix.from_rows([[2, 1], [1, 1]])) == [(0, 0)]


def test_finite_abelian_group_str():
    g = FiniteAbelianGroup((2, 6), 1)
    assert str(g) == "Z/2 + Z/6 + Z"
    assert g.order() is None


def test_smith_coordinates_name_each_coset_once():
    # the digit map kills M's columns, sends each generator to its unit
    # vector, and tells the |det M| coset representatives apart
    rng = random.Random(4)
    for _ in range(20):
        n = rng.randint(1, 4)
        M = IntMatrix.from_rows([[rng.randint(-6, 6) for _ in range(n)] for _ in range(n)])
        if M.determinant() == 0:
            continue
        factors, rows, gens = smith_coordinates(smith_normal_form(M))
        assert all(d > 1 for d in factors)

        def digits(x):
            return tuple(sum(u * c for u, c in zip(row, x)) % d for row, d in zip(rows, factors))

        assert all(digits(M.column(j)) == (0,) * len(factors) for j in range(n))
        for i, g in enumerate(gens):
            assert digits(g) == tuple(int(k == i) for k in range(len(factors)))
        reps = cosets_of(M)
        assert len({digits(x) for x in reps}) == len(reps) == abs(M.determinant())
    with pytest.raises(ValueError, match="infinite"):
        smith_coordinates(smith_normal_form(IntMatrix.from_rows([[2, 0], [0, 0]])))
