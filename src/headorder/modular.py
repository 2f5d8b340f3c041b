"""Linear algebra over Z/p^K and over the prime field.

The Z/p^K routines are built around the Howell normal form, the canonical
echelon form for submodules of (Z/p^K)^n: two generating sets span the same
submodule exactly when their Howell forms coincide, and membership reduces a
vector to zero against the form.  The prime field is the case K = 1, where
the Howell form is the reduced row echelon form, so one elimination kernel
serves both rings.  Everything is exact integer arithmetic.
"""

from __future__ import annotations


def val(x: int, p: int, K: int) -> int:
    """p-adic valuation of x mod p^K, with val(0) = K."""
    x %= p**K
    if x == 0:
        return K
    v = 0
    while x % p == 0:
        x //= p
        v += 1
    return v


def _echelon(work, pivot_cols: int, p: int, K: int):
    """Howell pivoting over the first ``pivot_cols`` columns of reduced rows.

    Returns (pivots, rest): pivots lists (column, valuation, row) with the
    pivot entry normalized to p^valuation, and every row of rest vanishes
    on the pivoted columns.  The pivot of a column is the first row of
    least valuation there; each candidate's valuation is taken once, and
    none after the first unit.
    """
    m = p**K
    pivots = []
    for j in range(pivot_cols):
        cand, rest = [], []
        for r in work:
            (cand if r[j] else rest).append(r)
        if not cand:
            continue
        best, v = 0, K
        for t, r in enumerate(cand):
            w = val(r[j], p, K)
            if w < v:
                best, v = t, w
                if not w:
                    break
        pivot = cand.pop(best)
        inv = pow(pivot[j] // p**v, -1, m)
        pivot = [(x * inv) % m for x in pivot]
        for r in cand:
            q = r[j] // p**v
            red = [(a - q * b) % m for a, b in zip(r, pivot)]
            if any(red):
                rest.append(red)
        if v > 0:
            ann = [(p ** (K - v) * x) % m for x in pivot]
            if any(ann):
                rest.append(ann)
        pivots.append((j, v, pivot))
        work = rest
    return pivots, work


def howell(rows, p: int, K: int):
    """Howell normal form of the row span of ``rows`` over Z/p^K.

    Returns a list of rows with strictly increasing pivot columns; the pivot
    entry in column j is p^v for some v < K and all other rows have their
    column-j entry reduced mod p^v.
    """
    m = p**K
    work = [[x % m for x in r] for r in rows]
    work = [r for r in work if any(r)]
    if not work:
        return []
    result, _ = _echelon(work, len(work[0]), p, K)
    # reduce entries above each pivot below the pivot's modulus
    for idx, (j, v, pivot) in enumerate(result):
        pv = p**v
        for k in range(idx):
            row = result[k][2]
            q = row[j] // pv
            if q:
                result[k] = (
                    result[k][0],
                    result[k][1],
                    [(a - q * b) % m for a, b in zip(row, pivot)],
                )
    return [pivot for (_, _, pivot) in result]


def reduce_against(vecs, basis, p: int, K: int):
    """Reduce each vector against a Howell basis.

    Returns one (remainder, coefficients) pair per vector; the remainder is
    zero exactly when the vector lies in the span.  The pivot column, the
    pivot's power of p and the nonzero entries of each basis row are found
    once for all the vectors.
    """
    m = p**K
    rows = []
    for row in basis:
        j = next(i for i, x in enumerate(row) if x)
        rows.append((j, p ** val(row[j], p, K), [(k, x) for k, x in enumerate(row) if x]))
    out = []
    for vec in vecs:
        vec = [x % m for x in vec]
        coeffs = []
        for j, pv, support in rows:
            q = vec[j] // pv if vec[j] % pv == 0 else 0
            if q:
                for k, x in support:
                    vec[k] = (vec[k] - q * x) % m
            coeffs.append(q)
        out.append((vec, coeffs))
    return out


def in_span(vec, basis, p: int, K: int) -> bool:
    [(rem, _)] = reduce_against([vec], basis, p, K)
    return not any(rem)


def right_kernel(rows, p: int, K: int):
    """Howell basis of {x : A x = 0 mod p^K} for the matrix with given rows.

    Works on the transposed augmented system: Howell reduction of
    [A^T | I] with pivoting confined to the left block leaves the kernel as
    the right parts of rows whose left parts vanished.  No rows raise: the
    kernel of no condition is the whole space, whose width is unknown.
    """
    m = p**K
    if not rows:
        raise ValueError("no rows: the width is unknown (pass a zero row)")
    nrows = len(rows)
    ncols = len(rows[0])
    aug = [
        [rows[i][j] % m for i in range(nrows)]
        + [1 if t == j else 0 for t in range(ncols)]
        for j in range(ncols)
    ]
    _, rest = _echelon(aug, nrows, p, K)
    return howell([r[nrows:] for r in rest], p, K)


def annihilator(rows, p: int, K: int):
    """Vectors c with r . c = 0 mod p^K for every generator r."""
    return right_kernel(rows, p, K)


# ---------------------------------------------------------------------------
# prime-field routines


def rref_modp(rows, p: int):
    """Reduced row echelon form over F_p, zero rows dropped: the Howell form
    at K = 1, whose pivots are 1 and whose entries above them are zero."""
    return howell(rows, p, 1)


def nullspace_modp(rows, p: int):
    """Basis of the right nullspace of a matrix over F_p: one vector per
    column that no row of the reduced echelon form pivots on."""
    if not rows:
        raise ValueError("no rows: the width is unknown (pass a zero row)")
    mat = howell(rows, p, 1)
    pivot_cols = [next(j for j, x in enumerate(row) if x) for row in mat]
    ncols = len(rows[0])
    basis = []
    for j in range(ncols):
        if j in pivot_cols:
            continue
        vec = [0] * ncols
        vec[j] = 1
        for r, pj in enumerate(pivot_cols):
            vec[pj] = (-mat[r][j]) % p
        basis.append(vec)
    return basis


def charpoly_modp(mat, p: int):
    """Characteristic polynomial coefficients over F_p, highest degree first.

    Hessenberg reduction followed by the standard leading-minor recurrence;
    returns [1, c_1, ..., c_n] meaning x^n + c_1 x^{n-1} + ... + c_n.
    """
    n = len(mat)
    H = [[x % p for x in row] for row in mat]
    for k in range(n - 2):
        piv = None
        for i in range(k + 1, n):
            if H[i][k]:
                piv = i
                break
        if piv is None:
            continue
        if piv != k + 1:
            H[k + 1], H[piv] = H[piv], H[k + 1]
            for row in H:
                row[k + 1], row[piv] = row[piv], row[k + 1]
        inv = pow(H[k + 1][k], -1, p)
        for i in range(k + 2, n):
            if H[i][k]:
                f = (H[i][k] * inv) % p
                H[i] = [(a - f * b) % p for a, b in zip(H[i], H[k + 1])]
                for row in H:
                    row[k + 1] = (row[k + 1] + f * row[i]) % p
    # charpoly of leading principal minors of the Hessenberg matrix
    polys = [[1]]
    for k in range(1, n + 1):
        # poly_k(x) = (x - H[k-1][k-1]) poly_{k-1}(x)
        #             - sum_i (prod of subdiagonal) H[i-1][k-1] poly_{i-1}(x)
        prev = polys[k - 1]
        cur = [0] * (k + 1)
        for i, c in enumerate(prev):
            cur[i] = (cur[i] + c) % p
            cur[i + 1] = (cur[i + 1] - H[k - 1][k - 1] * c) % p
        run = 1
        for i in range(k - 1, 0, -1):
            run = (run * H[i][i - 1]) % p
            f = (run * H[i - 1][k - 1]) % p
            if f:
                sub = polys[i - 1]
                off = k + 1 - len(sub)
                for t, c in enumerate(sub):
                    cur[off + t] = (cur[off + t] - f * c) % p
        polys.append(cur)
    return polys[n]
