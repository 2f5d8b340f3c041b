"""Brute-force certification of the exponent formulas by finite linear algebra.

Orders are modeled as Z/p^K-submodules of a split ambient algebra, a direct
sum of matrix rings over Z/p^K.  Radicals come from the characteristic-p
radical algorithm on the mod-p quotient (coefficient-of-characteristic-
polynomial conditions, no exponent formulas involved), idealizers from
solving x J <= J and J x <= J as linear systems in the ambient truncation.
Exponents are then read back off valuations and compared with the
closed-form predictions.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

from .amalgam import WHOLE, AmalgamBlock
from .errors import OracleCapExceeded, TruncationTooSmall
from .exponent import ExponentOrder, diag_conjugate, idealizer, radical
from .modular import (
    annihilator,
    charpoly_modp,
    howell,
    nullspace_modp,
    reduce_against,
    right_kernel,
    rref_modp,
    val,
)

RANK_CAP = 256


@dataclass(frozen=True)
class Ambient:
    """Split algebra ⊕_s M_{D_s}(Z/p^K) with row-major coordinates."""

    sizes: tuple[int, ...]
    p: int
    K: int

    @cached_property
    def dim(self) -> int:
        return sum(d * d for d in self.sizes)

    @property
    def modulus(self) -> int:
        return self.p**self.K

    def offset(self, s: int) -> int:
        return sum(d * d for d in self.sizes[:s])

    def pos(self, s: int, i: int, j: int) -> int:
        return self.offset(s) + i * self.sizes[s] + j

    def unit(self):
        one = [0] * self.dim
        for s, d in enumerate(self.sizes):
            for i in range(d):
                one[self.pos(s, i, i)] = 1
        return one

    def mul(self, x, y):
        """The product x * y; a zero entry x[i][k] or zero block costs no work."""
        m = self.modulus
        out = [0] * self.dim
        off = 0
        for d in self.sizes:
            start, off = off, off + d * d
            if not (any(x[start:off]) and any(y[start:off])):
                continue
            for i in range(start, off, d):
                acc = None
                for k, a in enumerate(x[i : i + d]):
                    if a:
                        r = start + k * d
                        if acc is None:
                            acc = [a * b for b in y[r : r + d]]
                        else:
                            acc = [u + a * b for u, b in zip(acc, y[r : r + d])]
                if acc is not None:
                    out[i : i + d] = [u % m for u in acc]
        return out

    def transpose(self, x):
        """x with the block of each summand transposed."""
        out = []
        off = 0
        for d in self.sizes:
            start, off = off, off + d * d
            for j in range(start, start + d):
                out.extend(x[j:off:d])
        return out


@dataclass(frozen=True)
class FiniteAlgebraModel:
    """A subring of an Ambient given by a Howell basis, with its mult table.

    mult[i][j] holds the coefficients of basis[i] * basis[j] in the basis,
    exact over Z/p^K.
    """

    ambient: Ambient
    basis: tuple[tuple[int, ...], ...]
    mult: tuple[tuple[tuple[int, ...], ...], ...]

    @property
    def rank(self) -> int:
        return len(self.basis)


def build_model(ambient: Ambient, gens) -> FiniteAlgebraModel:
    """Close the generators into a model: Howell basis plus structure constants.

    Raises if the span is not multiplicatively closed or misses the unit.
    """
    return _close_basis(ambient, howell(gens, ambient.p, ambient.K))


def _close_basis(ambient: Ambient, basis) -> FiniteAlgebraModel:
    """build_model for generators that already are a Howell basis."""
    p, K = ambient.p, ambient.K
    R = len(basis)
    if R > RANK_CAP:
        raise OracleCapExceeded(f"rank {R} exceeds cap {RANK_CAP}")
    prods = [ambient.mul(bi, bj) for bi in basis for bj in basis]
    nonzero = [t for t, prod in enumerate(prods) if any(prod)]
    (unit_rem, _), *reduced = reduce_against(
        [ambient.unit()] + [prods[t] for t in nonzero], basis, p, K
    )
    if any(unit_rem):
        raise ValueError("generators do not span a unital ring (no unit)")
    table = [(0,) * R] * (R * R)
    for t, (rem, coeffs) in zip(nonzero, reduced):
        if any(rem):
            raise ValueError("generators do not span a closed ring")
        table[t] = tuple(coeffs)
    mult = [tuple(table[i : i + R]) for i in range(0, R * R, R)]
    return FiniteAlgebraModel(ambient, tuple(tuple(b) for b in basis), tuple(mult))


# ---------------------------------------------------------------------------
# radical over the prime field (coefficient conditions, char p)


def radical_modp(mult, p: int):
    """Radical of the F_p-algebra with the given structure constants.

    Iterates ideals I_j = {x in I_{j-1} : c_{p^j}(L_{xy}) = 0 for all y in
    I_{j-1}} for j = 0, 1, ..., where c_m is the coefficient of the
    characteristic polynomial of left multiplication in degree n - m; the
    last ideal is the radical.  Returns F_p coordinate vectors over the
    algebra basis.

    The condition matrices come from the structure constants, using
    L_x L_y = L_{xy}.  At j = 0, c_1 = -Tr and Tr(L_{b_a b_c}) =
    sum_t mult[a][c][t] Tr(L_{b_t}), so the conditions are the trace form.
    Above it the matrix is symmetric (charpoly(AB) = charpoly(BA)) and its
    entry vanishes where xy = 0 (charpoly(0) = x^R), so only the nonzero
    products of pairs a <= b need a characteristic polynomial.  Products
    and traces are read off the nonzero constants only.
    """
    R = len(mult)
    if R == 0:
        return []
    # nz[s][t] lists the nonzero (k, c): b_s b_t has coefficient c on b_k
    nz = [[[(k, c % p) for k, c in enumerate(col) if c % p] for col in row] for row in mult]

    def product(xs, ys):
        # x y for x, y given by their supports [(index, coefficient), ...]
        out = [0] * R
        for s, u in xs:
            row = nz[s]
            for t, v in ys:
                uv = u * v
                for k, c in row[t]:
                    out[k] += uv * c
        return [v % p for v in out]

    def lmat(x):
        # left multiplication by sum x_t b_t as a matrix acting on columns
        L = [[0] * R for _ in range(R)]
        for t, xt in enumerate(x):
            if xt:
                for col, entries in enumerate(nz[t]):
                    for k, c in entries:
                        L[k][col] += xt * c
        return L

    def conditions(ideal, target):
        # entry [a][b] is c_target(L_{x_b x_a}) for x = ideal
        supps = [[(i, v) for i, v in enumerate(x) if v] for x in ideal]
        conds = [[0] * len(ideal) for _ in ideal]
        for b, sb in enumerate(supps):
            for a in range(b + 1):
                xy = product(sb, supps[a])
                if any(xy):
                    conds[a][b] = conds[b][a] = charpoly_modp(lmat(xy), p)[target]
        return conds

    traces = [sum(c for i, col in enumerate(row) for k, c in col if k == i) for row in nz]
    ideal = [[1 if t == i else 0 for t in range(R)] for i in range(R)]
    j = 0
    while p**j <= R and ideal:
        if j == 0:
            conds = [
                [-sum(c * traces[k] for k, c in nz[b][a]) % p for b in range(R)]
                for a in range(R)
            ]
        else:
            conds = conditions(ideal, p**j)
        ideal = rref_modp([_combine(coeffs, ideal, p) for coeffs in nullspace_modp(conds, p)], p)
        j += 1
    return ideal


def _combine(coeffs, rows, m: int):
    """sum_t coeffs[t] * rows[t] mod m, adding only the rows with c_t != 0."""
    out = [0] * len(rows[0])
    for c, row in zip(coeffs, rows):
        if c:
            out = [u + c * x for u, x in zip(out, row)]
    return [u % m for u in out]


def oracle_radical(model: FiniteAlgebraModel):
    """Howell basis of J(model) as a submodule of the ambient truncation.

    J is the preimage of the radical of the mod-p quotient, i.e. the lift
    of the prime-field radical plus p * model.
    """
    amb = model.ambient
    p, K = amb.p, amb.K
    gens = [_combine(coeffs, model.basis, amb.modulus) for coeffs in radical_modp(model.mult, p)]
    gens.extend([p * x for x in b] for b in model.basis)
    return howell(gens, p, K)


def oracle_idealizer(model: FiniteAlgebraModel, jbasis):
    """Howell basis of {x : x J <= J and J x <= J} in the ambient truncation.

    x J <= J holds iff c . (x g) = 0 for every g in J and every c in the
    annihilator of J, and likewise for g x.  Both are linear in x: with
    g^T transposing each summand's block, c . (x g) = <c g^T, x> and
    c . (g x) = <g^T c, x>, so the condition rows are the ambient products
    c g^T and g^T c.
    """
    amb = model.ambient
    p, K = amb.p, amb.K
    ann = annihilator(jbasis, p, K)
    conds = {}
    for g in jbasis:
        gt = amb.transpose(g)
        for c in ann:
            for row in (amb.mul(c, gt), amb.mul(gt, c)):
                if any(row):
                    conds[tuple(row)] = None
    # with no condition left (J = p * ambient) every x idealizes J
    return right_kernel(list(conds) or [[0] * amb.dim], p, K)


# ---------------------------------------------------------------------------
# models of exponent orders and amalgams (unit block dimensions)


def truncation_for(bound: int) -> int:
    """Truncation K for models whose largest entry plus depth is ``bound``."""
    return 2 * bound + 4


def model_from_exponent(order: ExponentOrder, p: int, K: int) -> FiniteAlgebraModel:
    """Model of the order inside M_n(Z/p^K): p^{m_ij} in position (i, j)."""
    return model_from_amalgam(AmalgamBlock((order,), ()), p, K)


def _radical_power(order: ExponentOrder, t: int):
    """Exponent matrix of J^t, the t-th power of the order's radical (min-plus)."""
    N = radical(order).N
    n = order.n
    cur = order.M
    for _ in range(t):
        cur = [
            [min(cur[i][k] + N[k][j] for k in range(n)) for j in range(n)]
            for i in range(n)
        ]
    return cur


def model_from_amalgam(block: AmalgamBlock, p: int, K: int) -> FiniteAlgebraModel:
    """Model of an amalgam: one matrix-ring summand per component.

    The model is the kernel of one condition row per constraint:
    p^(K-m) e_pos ("valuation >= m") per component entry of exponent m > 0,
    and p^(K-v) (e_left - e_right) ("agree modulo p^v") on the glued
    diagonal entries of a depth-v diagonal gluing and on each entry (i, j)
    of a depth-t whole-matrix gluing, with v = J^t[i][j].  Any gluing graph
    is modeled, cycles and both flavors on one component included.
    """
    comps = block.components
    for comp in comps:
        if any(d != 1 for d in comp.dims):
            raise ValueError("oracle models require unit block dimensions")
        if any(x < 0 for row in comp.M for x in row):
            raise ValueError("shift exponents to be nonnegative before modeling")
    mx = max(c.max_entry() for c in comps)
    mxd = max((g.depth for g in block.gluings), default=0)
    if K <= mx + mxd + 1:
        raise TruncationTooSmall(f"K = {K} too small for entries {mx}, depths {mxd}")
    amb = Ambient(tuple(c.n for c in comps), p, K)
    rows = []

    def condition(v, *terms):
        row = [0] * amb.dim
        for pos, sign in terms:
            row[pos] = sign * p ** (K - v)
        rows.append(row)

    for c, comp in enumerate(comps):
        for i, mrow in enumerate(comp.M):
            for j, m in enumerate(mrow):
                if m > 0:
                    condition(m, (amb.pos(c, i, j), 1))
    for g in block.gluings:
        (lc, lq), (rc, rq) = g.left, g.right
        kinds = set(g.kinds)
        if kinds == {"diagonal"}:
            condition(g.depth, (amb.pos(lc, lq, lq), 1), (amb.pos(rc, rq, rq), -1))
        elif kinds == {"matrix"} and lq == WHOLE and rq == WHOLE:
            base = comps[lc]
            if comps[rc].M != base.M or comps[rc].n != base.n:
                raise ValueError("matrix-glued components must share an exponent matrix")
            for i, jrow in enumerate(_radical_power(base, g.depth)):
                for j, v in enumerate(jrow):
                    if v > 0:
                        condition(v, (amb.pos(lc, i, j), 1), (amb.pos(rc, i, j), -1))
        else:
            raise ValueError("oracle models need pure diagonal or whole-matrix gluings")
    # with no condition (all entries 0, no gluings) the model is the ambient
    return _close_basis(amb, right_kernel(rows or [[0] * amb.dim], p, K))


# ---------------------------------------------------------------------------
# reading results back


def read_exponents(rows, ambient: Ambient, noise_floor: int):
    """Minimum valuation per matrix position across a submodule.

    Returns one integer matrix per ambient summand; positions whose
    valuation reaches noise_floor are reported as None (indistinguishable
    from truncation junk).
    """
    p, K = ambient.p, ambient.K
    out = []
    for s, d in enumerate(ambient.sizes):
        mat = []
        for i in range(d):
            row = []
            for j in range(d):
                pos = ambient.pos(s, i, j)
                v = min((val(r[pos], p, K) for r in rows), default=K)
                row.append(v if v < noise_floor else None)
            mat.append(row)
        out.append(mat)
    return out


def spans_agree(rows_a, rows_b, ambient: Ambient, noise_floor: int) -> bool:
    """Equality of two submodules modulo p^noise_floor * ambient.

    A + p^noise * ambient and B + p^noise * ambient are equal iff A and B
    have one image mod p^noise, which their Howell forms over Z/p^noise
    decide.
    """
    p = ambient.p
    return howell(rows_a, p, noise_floor) == howell(rows_b, p, noise_floor)


def certify_order(order: ExponentOrder, p: int) -> bool:
    """Certify one idealizer step of an order with unit block dimensions.

    The order is conjugated by the first column of its predicted Id(J),
    which keeps both inside the ambient; the truncation is
    truncation_for(mx) for mx the larger of 2 and its largest entry, and
    the noise floor K - mx - 2.  True iff the oracle's J and Id(J) read
    back as the exponent formulas' radical and idealizer and Id(J) spans
    the model of the predicted idealizer.
    """
    n = order.n
    N = radical(order)
    pred = idealizer(order, N)
    t = [pred.M[i][0] for i in range(n)]
    oshift = diag_conjugate(order, t)
    pshift = diag_conjugate(pred, t)
    mx = max(2, oshift.max_entry())
    K = truncation_for(mx)
    noise = K - mx - 2
    model = model_from_exponent(oshift, p, K)
    J = oracle_radical(model)
    want_J = [[N.N[i][j] - t[i] + t[j] for j in range(n)] for i in range(n)]
    if read_exponents(J, model.ambient, noise)[0] != want_J:
        return False
    Id = oracle_idealizer(model, J)
    if read_exponents(Id, model.ambient, noise)[0] != [list(r) for r in pshift.M]:
        return False
    predmodel = model_from_exponent(pshift, p, K)
    return spans_agree(Id, predmodel.basis, model.ambient, noise)
