"""Exact linear algebra over Z/p^K and over the prime field."""

import random

import pytest

from headorder.modular import (
    annihilator,
    charpoly_modp,
    howell,
    in_span,
    nullspace_modp,
    reduce_against,
    right_kernel,
    rref_modp,
    val,
)


def span_equal(rows_a, rows_b, p, K):
    return howell(rows_a, p, K) == howell(rows_b, p, K)


def test_val():
    assert val(0, 2, 5) == 5
    assert val(8, 2, 5) == 3
    assert val(12, 2, 5) == 2
    assert val(32, 2, 5) == 5  # 32 = 0 mod 2^5


def test_howell_canonical_under_row_ops():
    # same span, different generators, same form
    p, K = 2, 4
    rows_a = [[2, 4], [0, 8]]
    rows_b = [[2, 12], [2, 4], [0, 8]]
    assert howell(rows_a, p, K) == howell(rows_b, p, K)
    assert span_equal(rows_a, rows_b, p, K)


def test_howell_sees_annihilator_rows():
    # over Z/16 the span of (4, 1) contains (0, 4) = 4 * (4, 1) - (16, 0)
    p, K = 2, 4
    h = howell([[4, 1]], p, K)
    assert in_span([0, 4], h, p, K)
    assert not in_span([0, 2], h, p, K)


def test_reduce_against_membership():
    p, K = 3, 3
    basis = howell([[1, 5, 0], [0, 9, 3]], p, K)
    vecs = [[2, 10, 3], [1, 5, 0], [0, 0, 1], [0, 0, 0]]
    m = p**K
    reduced = reduce_against(vecs, basis, p, K)
    assert len(reduced) == len(vecs)
    for vec, (rem, coeffs) in zip(vecs, reduced):
        # rebuilding from the coefficients recovers vec mod the remainder
        rebuilt = [0, 0, 0]
        for c, row in zip(coeffs, basis):
            rebuilt = [(a + c * b) % m for a, b in zip(rebuilt, row)]
        assert [(a + r) % m for a, r in zip(rebuilt, rem)] == [x % m for x in vec]
    assert not any(reduced[1][0]) and any(reduced[2][0])


def test_right_kernel_random():
    rng = random.Random(7)
    p, K = 2, 5
    m = p**K
    for _ in range(20):
        rows = [[rng.randrange(m) for _ in range(4)] for _ in range(3)]
        ker = right_kernel(rows, p, K)
        for x in ker:
            for r in rows:
                assert sum(a * b for a, b in zip(r, x)) % m == 0
        # kernel always contains p^K-multiples, i.e. is nonempty as a module
        full = howell(ker + [[0] * 4], p, K)
        assert full == ker


def test_right_kernel_exhaustive_small():
    # compare against brute force over Z/8
    p, K = 2, 3
    m = p**K
    rows = [[2, 4], [6, 2]]
    ker = right_kernel(rows, p, K)
    brute = [
        [x, y]
        for x in range(m)
        for y in range(m)
        if all(sum(a * b for a, b in zip(r, [x, y])) % m == 0 for r in rows)
    ]
    assert span_equal(ker, brute, p, K)
    for v in brute:
        assert in_span(v, ker, p, K)


def test_annihilator_double():
    # double annihilator returns the original span (Z/p^K is self-injective)
    p, K = 3, 4
    rows = [[3, 1, 0], [0, 9, 27]]
    a1 = annihilator(rows, p, K)
    a2 = annihilator(a1, p, K)
    assert span_equal(rows, a2, p, K)


def test_no_rows_raise():
    # the kernel of no condition is the whole space, whose width is unknown
    for kernel in (
        lambda rows: right_kernel(rows, 3, 4),
        lambda rows: annihilator(rows, 3, 4),
        lambda rows: nullspace_modp(rows, 3),
    ):
        with pytest.raises(ValueError):
            kernel([])
        assert len(kernel([[0, 0]])) == 2


def test_nullspace_modp():
    p = 5
    rows = [[1, 2, 3], [2, 4, 6]]
    ns = nullspace_modp(rows, p)
    assert len(ns) == 2
    for v in ns:
        for r in rows:
            assert sum(a * b for a, b in zip(r, v)) % p == 0


def test_rref_modp_idempotent():
    p = 3
    rows = [[1, 2, 0], [2, 1, 1], [0, 0, 0]]
    r1 = rref_modp(rows, p)
    assert rref_modp(r1, p) == r1


def _rank_modp(rows, p):
    """Rank over F_p by inserting rows one by one into a basis keyed by
    leading column, independently of the package's elimination."""
    basis = {}
    for row in rows:
        row = [x % p for x in row]
        for j in range(len(row)):
            if not row[j]:
                continue
            if j not in basis:
                inv = pow(row[j], -1, p)
                basis[j] = [(x * inv) % p for x in row]
                break
            f = row[j]
            row = [(a - f * b) % p for a, b in zip(row, basis[j])]
    return len(basis)


def _entry(rng, p):
    """A random integer entry, zero about 40% of the time."""
    return rng.randrange(-2 * p, 2 * p) if rng.random() >= 0.4 else 0


def _random_fp_matrices(rng):
    """Seeded matrices over F_p with zero rows, repeated rows, the zero
    matrix and the 1 x n and n x 1 shapes."""
    for p in (2, 3, 5, 7):
        shapes = [(1, 1), (1, 6), (6, 1), (3, 3), (4, 7), (7, 4)]
        shapes += [(rng.randint(1, 8), rng.randint(1, 8)) for _ in range(40)]
        for nrows, ncols in shapes:
            yield p, [[0] * ncols for _ in range(nrows)]
            for _ in range(6):
                rows = [[_entry(rng, p) for _ in range(ncols)] for _ in range(nrows)]
                if nrows > 1 and rng.random() < 0.5:
                    rows[rng.randrange(nrows)] = [0] * ncols
                if nrows > 2 and rng.random() < 0.5:
                    # a multiple of another row, so the rank drops
                    i, j = rng.sample(range(nrows), 2)
                    k = rng.randrange(1, p)
                    rows[i] = [k * x for x in rows[j]]
                yield p, rows


def test_rref_and_nullspace_modp_pinned_by_their_properties():
    # these properties fix both outputs uniquely, so the test does not rely
    # on the elimination it checks
    for p, rows in _random_fp_matrices(random.Random(1007)):
        ncols = len(rows[0])
        rank = _rank_modp(rows, p)
        rref = rref_modp(rows, p)
        assert len(rref) == rank
        pivots = [next(j for j, x in enumerate(row) if x) for row in rref]
        assert pivots == sorted(set(pivots))
        for r, (row, j) in enumerate(zip(rref, pivots)):
            assert row[j] == 1
            assert all(0 <= x < p for x in row)
            assert all(other[j] == 0 for s, other in enumerate(rref) if s != r)
        for row in rows:
            rem = [x % p for x in row]
            for basis_row, j in zip(rref, pivots):
                f = rem[j]
                rem = [(a - f * b) % p for a, b in zip(rem, basis_row)]
            assert not any(rem)
        free = [j for j in range(ncols) if j not in pivots]
        ns = nullspace_modp(rows, p)
        assert len(ns) == ncols - rank == len(free)
        for vec, j in zip(ns, free):
            assert all(sum(a * b for a, b in zip(row, vec)) % p == 0 for row in rows)
            assert all(0 <= x < p for x in vec)
            assert [vec[k] for k in free] == [int(k == j) for k in free]


def test_charpoly_modp_known():
    # companion matrix of x^3 + 2x + 1 over F_5
    p = 5
    C = [[0, 0, -1], [1, 0, -2], [0, 1, 0]]
    assert charpoly_modp(C, p) == [1, 0, 2 % p, 1 % p]
    # diagonal matrix: product of (x - d_i)
    D = [[1, 0], [0, 2]]
    assert charpoly_modp(D, p) == [1, (-3) % p, 2]
    # nilpotent
    N = [[0, 1], [0, 0]]
    assert charpoly_modp(N, p) == [1, 0, 0]


def test_charpoly_modp_trace_det_random():
    rng = random.Random(11)
    p = 7
    for _ in range(20):
        n = rng.randrange(2, 5)
        A = [[rng.randrange(p) for _ in range(n)] for _ in range(n)]
        cp = charpoly_modp(A, p)
        assert len(cp) == n + 1 and cp[0] == 1
        trace = sum(A[i][i] for i in range(n)) % p
        assert cp[1] == (-trace) % p
        det = _det_modp(A, p)
        assert cp[n] == ((-1) ** n * det) % p


def test_charpoly_modp_of_product_commutes():
    # charpoly(AB) = charpoly(BA), also for singular A and B; the oracle's
    # radical computes only one triangle of its symmetric condition matrix
    def matmul(X, Y):
        return [[sum(x * y for x, y in zip(row, col)) for col in zip(*Y)] for row in X]

    rng = random.Random(13)
    for p in (2, 3, 5):
        for _ in range(30):
            n = rng.randrange(1, 7)
            A, B = (
                [[rng.randrange(p) if rng.random() < 0.4 else 0 for _ in range(n)]
                 for _ in range(n)]
                for _ in range(2)
            )
            assert charpoly_modp(matmul(A, B), p) == charpoly_modp(matmul(B, A), p)


def _det_modp(A, p):
    n = len(A)
    M = [row[:] for row in A]
    det = 1
    for j in range(n):
        piv = next((i for i in range(j, n) if M[i][j] % p), None)
        if piv is None:
            return 0
        if piv != j:
            M[j], M[piv] = M[piv], M[j]
            det = -det
        det = (det * M[j][j]) % p
        inv = pow(M[j][j], -1, p)
        for i in range(j + 1, n):
            f = (M[i][j] * inv) % p
            M[i] = [(a - f * b) % p for a, b in zip(M[i], M[j])]
    return det % p
