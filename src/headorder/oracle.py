"""Brute-force certification of the exponent formulas by finite linear algebra.

Orders are modeled as Z/p^K-submodules of a split ambient algebra, a direct
sum of matrix rings over Z/p^K.  Radicals come from the characteristic-p
radical algorithm on the mod-p quotient (coefficient-of-characteristic-
polynomial conditions, no exponent formulas involved), idealizers from
solving x J <= J and J x <= J as linear systems in the ambient truncation.
Radical exponents are then read back off valuations and compared with the
exponent formulas, and each Id(J) must span the next state of the chain.

Work whose result is known to be zero is skipped.  Ambient.mul, the one
ambient product, forms only the terms of nonzero entries, from an index
of each factor made once.  radical_modp takes no characteristic
polynomial of a nilpotent product z: it is x^R, and L_z is nilpotent iff
z^(2^k) = 0 for the first 2^k >= R, because L_{z^m} = L_z^m and
z^m = L_z^m(1) for the unit 1.  It stops at the first level j >= 1 whose
products are all nilpotent: that level's conditions are zero for every
target p^j, so it keeps the ideal (an RREF), and every later level sees
the same ideal and the same products.  oracle_idealizer forms no product
c g^T or g^T c with v(c) + v(g) >= K, where v(x) is the least valuation
of x's entries: each entry is a sum of terms c_ik g_jk of valuation at
least v(c) + v(g), so both vanish mod p^K.  v(x) is val(gcd of x's
entries), since val(0) = K and the gcd of nothing is 0; read_exponents
takes each position's least valuation the same way.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import cached_property
from math import gcd

from .amalgam import WHOLE, AmalgamBlock
from .errors import OracleCapExceeded, TruncationTooSmall
from .exponent import ExponentOrder, diag_conjugate, radical
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

    @cached_property
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

    def index(self, x, transpose: bool = False):
        """The nonzero entries of x, indexed once for mul.

        Per summand a pair (columns, rows) of dicts: columns[k] lists the
        (i, x_ik) and rows[k] the (j, x_kj) with a nonzero entry.  The
        columns of x^T are the rows of x, so transpose swaps the two.
        """
        out = []
        off = 0
        for d in self.sizes:
            start, off = off, off + d * d
            cols, rows = {}, {}
            for t, a in enumerate(x[start:off]):
                if a:
                    i, j = divmod(t, d)
                    cols.setdefault(j, []).append((i, a))
                    rows.setdefault(i, []).append((j, a))
            out.append((rows, cols) if transpose else (cols, rows))
        return out

    def mul(self, xs, ys):
        """The product x * y of two indexed elements, or None when it is 0.

        Per summand x y is the sum over k of column k of x times row k of
        y, over the k where both are nonzero; only the positions those
        terms touch are accumulated.
        """
        acc = {}
        off = 0
        for d, (xcols, _), (_, yrows) in zip(self.sizes, xs, ys):
            for k, col in xcols.items():
                row = yrows.get(k)
                if row:
                    for i, a in col:
                        base = off + i * d
                        for j, b in row:
                            acc[base + j] = acc.get(base + j, 0) + a * b
            off += d * d
        m = self.modulus
        out = None
        for pos, v in acc.items():
            v %= m
            if v:
                if out is None:
                    out = [0] * self.dim
                out[pos] = v
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
    indexed = [ambient.index(b) for b in basis]
    prods = [ambient.mul(x, y) for x in indexed for y in indexed]
    nonzero = [t for t, prod in enumerate(prods) if prod]
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
    entry vanishes where z = xy is nilpotent (charpoly x^R), which k
    squarings of z decide (module docstring).  So only the pairs a <= b
    whose product is not nilpotent need a characteristic polynomial, and
    a level where none does is the last (module docstring).  Products and
    traces are read off the nonzero constants only.
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

    def nilpotent(z):
        m = 1
        while any(z):
            if m >= R:
                return False
            s = [(i, v) for i, v in enumerate(z) if v]
            z = product(s, s)
            m *= 2
        return True

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
        # entry [a][b] is c_target(L_{x_b x_a}) for x = ideal; None when
        # every product is nilpotent
        supps = [[(i, v) for i, v in enumerate(x) if v] for x in ideal]
        conds = [[0] * len(ideal) for _ in ideal]
        nil = True
        for b, sb in enumerate(supps):
            for a in range(b + 1):
                xy = product(sb, supps[a])
                if not nilpotent(xy):
                    nil = False
                    conds[a][b] = conds[b][a] = charpoly_modp(lmat(xy), p)[target]
        return None if nil else conds

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
            if conds is None:
                return ideal
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
    c g^T and g^T c.  The rows of g^T are the columns of g, so the index
    of g^T is g's with rows and columns swapped.  A pair with
    v(c) + v(g) >= K gives two zero rows and is skipped (module docstring).
    """
    amb = model.ambient
    p, K = amb.p, amb.K
    ann = [(val(gcd(*c), p, K), amb.index(c)) for c in annihilator(jbasis, p, K)]
    conds = {}
    for g in jbasis:
        vg = val(gcd(*g), p, K)
        gt = amb.index(g, transpose=True)
        for vc, c in ann:
            if vc + vg < K:
                for row in (amb.mul(c, gt), amb.mul(gt, c)):
                    if row:
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


def _check_floor(noise_floor: int, K: int) -> None:
    # above K a zero entry would read as exponent K; below 0 p^floor is a fraction
    if not 0 <= noise_floor <= K:
        raise ValueError(f"noise floor {noise_floor} is outside 0..{K}")


def read_exponents(rows, ambient: Ambient, noise_floor: int):
    """Minimum valuation per matrix position across a submodule.

    Returns one integer matrix per ambient summand; positions whose
    valuation reaches noise_floor are reported as None (indistinguishable
    from truncation junk).  Raises ValueError unless 0 <= noise_floor <= K.
    """
    p, K = ambient.p, ambient.K
    _check_floor(noise_floor, K)
    out = []
    for s, d in enumerate(ambient.sizes):
        mat = []
        for i in range(d):
            row = []
            for j in range(d):
                pos = ambient.pos(s, i, j)
                v = val(gcd(*(r[pos] for r in rows)), p, K)
                row.append(v if v < noise_floor else None)
            mat.append(row)
        out.append(mat)
    return out


def spans_agree(rows_a, rows_b, ambient: Ambient, noise_floor: int) -> bool:
    """Equality of two submodules modulo p^noise_floor * ambient.

    A + p^noise * ambient and B + p^noise * ambient are equal iff A and B
    have one image mod p^noise, which their Howell forms over Z/p^noise
    decide.  Raises ValueError unless 0 <= noise_floor <= K.
    """
    p = ambient.p
    _check_floor(noise_floor, ambient.K)
    return howell(rows_a, p, noise_floor) == howell(rows_b, p, noise_floor)


def chain_models(chain, p: int):
    """(states, models, noise floor) of an amalgam chain, as certify_chain checks it.

    Components are conjugated by the first column of their last state, so no
    entry is negative; K = truncation_for(mx + mxd) and the floor is
    K - mx - mxd - 2, mx the largest entry (at least 1), mxd the largest depth."""
    t = [[row[0] for row in c.M] for c in chain[-1].components]
    states = [replace(s, components=tuple(map(diag_conjugate, s.components, t))) for s in chain]
    bound = max(c.max_entry() for s in states for c in s.components) or 1
    bound += max((g.depth for s in states for g in s.gluings), default=0)
    K = truncation_for(bound)
    return states, [model_from_amalgam(s, p, K) for s in states], K - bound - 2


def certify_chain(chain, p: int) -> int | None:
    """The first state k of chain_models whose J does not read back as
    radical(component) on every summand, or whose Id(J) does not span state
    k + 1 (the last state: itself) at the noise floor; None if there is none."""
    states, models, noise = chain_models(chain, p)
    for k, (state, model, after) in enumerate(zip(states, models, models[1:] + models[-1:])):
        J = oracle_radical(model)
        want = [[list(r) for r in radical(c).N] for c in state.components]
        if read_exponents(J, model.ambient, noise) != want or not spans_agree(
            oracle_idealizer(model, J), after.basis, model.ambient, noise
        ):
            return k
    return None
