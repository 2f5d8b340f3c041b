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

from .amalgam import WHOLE, AmalgamBlock
from .errors import OracleCapExceeded, TruncationTooSmall
from .exponent import ExponentOrder
from .modular import (
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

RANK_CAP = 256


@dataclass(frozen=True)
class Ambient:
    """Split algebra ⊕_s M_{D_s}(Z/p^K) with row-major coordinates."""

    sizes: tuple[int, ...]
    p: int
    K: int

    @property
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
        m = self.modulus
        out = [0] * self.dim
        for s, d in enumerate(self.sizes):
            off = self.offset(s)
            for i in range(d):
                for j in range(d):
                    acc = 0
                    for k in range(d):
                        acc += x[off + i * d + k] * y[off + k * d + j]
                    out[off + i * d + j] = acc % m
        return out


@dataclass(frozen=True)
class FiniteAlgebraModel:
    """A subring of an Ambient given by a Howell basis, with its mult table.

    mult[i][j] holds the coefficients of basis[i] * basis[j] in the basis,
    exact over Z/p^K.  labels are positional names for reports.
    """

    ambient: Ambient
    basis: tuple[tuple[int, ...], ...]
    mult: tuple[tuple[tuple[int, ...], ...], ...]
    labels: tuple[str, ...]

    @property
    def rank(self) -> int:
        return len(self.basis)


def build_model(ambient: Ambient, gens, labels=None) -> FiniteAlgebraModel:
    """Close the generators into a model: Howell basis plus structure constants.

    Raises if the span is not multiplicatively closed or misses the unit.
    """
    p, K = ambient.p, ambient.K
    basis = howell(gens, p, K)
    if len(basis) > RANK_CAP:
        raise OracleCapExceeded(f"rank {len(basis)} exceeds cap {RANK_CAP}")
    if not in_span(ambient.unit(), basis, p, K):
        raise ValueError("generators do not span a unital ring (no unit)")
    mult = []
    for bi in basis:
        row = []
        for bj in basis:
            prod = ambient.mul(bi, bj)
            rem, coeffs = reduce_against(prod, basis, p, K)
            if any(rem):
                raise ValueError("generators do not span a closed ring")
            row.append(tuple(coeffs))
        mult.append(tuple(row))
    if labels is None:
        labels = tuple(f"b{i}" for i in range(len(basis)))
    return FiniteAlgebraModel(ambient, tuple(tuple(b) for b in basis), tuple(mult), tuple(labels))


# ---------------------------------------------------------------------------
# radical over the prime field (coefficient conditions, char p)


def radical_modp(mult, p: int):
    """Radical of the F_p-algebra with the given structure constants.

    Iterates ideals I_j = {x in I_{j-1} : c_{p^j}(L_{xy}) = 0 for all y in
    I_{j-1}} for j = 0, 1, ..., where c_m is the coefficient of the
    characteristic polynomial of left multiplication in degree n - m; the
    last ideal is the radical.  Returns F_p coordinate vectors over the
    algebra basis.
    """
    R = len(mult)
    if R == 0:
        return []

    def lmat(x):
        # left multiplication by sum x_i b_i as a matrix acting on columns
        return [
            [sum(x[i] * mult[i][j][k] for i in range(R)) % p for j in range(R)]
            for k in range(R)
        ]

    ideal = [[1 if t == i else 0 for t in range(R)] for i in range(R)]
    j = 0
    while p**j <= R and ideal:
        target = p**j
        conds = []
        lmats = [lmat(v) for v in ideal]
        for Ly in lmats:
            cols = list(zip(*Ly))
            row = []
            for Lx in lmats:
                prodmat = [
                    [sum(a * b for a, b in zip(ra, cb)) % p for cb in cols]
                    for ra in Lx
                ]
                cp = charpoly_modp(prodmat, p)
                row.append(cp[target] % p if target < len(cp) else 0)
            conds.append(row)
        sol = nullspace_modp(conds, p)
        new_ideal = []
        for coeffs in sol:
            vec = [
                sum(c * ideal[t][k] for t, c in enumerate(coeffs)) % p
                for k in range(R)
            ]
            new_ideal.append(vec)
        ideal = rref_modp(new_ideal, p)
        j += 1
    return ideal


def oracle_radical(model: FiniteAlgebraModel):
    """Howell basis of J(model) as a submodule of the ambient truncation.

    J is the preimage of the radical of the mod-p quotient, i.e. the lift
    of the prime-field radical plus p * model.
    """
    amb = model.ambient
    p, K = amb.p, amb.K
    intmult = [
        [list(model.mult[i][j]) for j in range(model.rank)]
        for i in range(model.rank)
    ]
    radp = radical_modp(intmult, p)
    gens = []
    for coeffs in radp:
        vec = [
            sum(c * model.basis[t][k] for t, c in enumerate(coeffs))
            for k in range(amb.dim)
        ]
        gens.append(vec)
    for b in model.basis:
        gens.append([p * x for x in b])
    return howell(gens, p, K)


def oracle_idealizer(model: FiniteAlgebraModel, jbasis, within=None):
    """Howell basis of {x : x J <= J and J x <= J} in the ambient truncation.

    ``within`` optionally restricts the solution to a sublattice (rows
    spanning it), needed when the rational algebra spanned by the model is
    smaller than the ambient; by default the whole ambient is searched.
    """
    amb = model.ambient
    p, K = amb.p, amb.K
    m = amb.modulus
    ann = annihilator(jbasis, p, K)
    dim = amb.dim
    unit_vecs = []
    for t in range(dim):
        e = [0] * dim
        e[t] = 1
        unit_vecs.append(e)
    conds = []
    if within is not None:
        for c in annihilator(within, p, K):
            conds.append([c[t] % m for t in range(dim)])
    for g in jbasis:
        left = [amb.mul(e, g) for e in unit_vecs]   # column t: e_t * g
        right = [amb.mul(g, e) for e in unit_vecs]
        for c in ann:
            conds.append(
                [sum(left[t][k] * c[k] for k in range(dim)) % m for t in range(dim)]
            )
            conds.append(
                [sum(right[t][k] * c[k] for k in range(dim)) % m for t in range(dim)]
            )
    return right_kernel(conds, p, K)


# ---------------------------------------------------------------------------
# models of exponent orders and amalgams (unit block dimensions)


def _check_dims_one(order: ExponentOrder):
    if any(d != 1 for d in order.dims):
        raise ValueError("oracle models require unit block dimensions")


def truncation_for(max_exponent: int, max_depth: int = 0) -> int:
    return 2 * (max_exponent + max_depth) + 4


def model_from_exponent(order: ExponentOrder, p: int, K: int) -> FiniteAlgebraModel:
    """Model of the order inside M_n(Z/p^K): p^{m_ij} in position (i, j)."""
    _check_dims_one(order)
    n = order.n
    mx = order.max_entry()
    if any(x < 0 for row in order.M for x in row):
        raise ValueError("shift exponents to be nonnegative before modeling")
    if K <= mx + 1:
        raise TruncationTooSmall(f"K = {K} <= max exponent + 1 = {mx + 1}")
    amb = Ambient((n,), p, K)
    gens = []
    for i in range(n):
        for j in range(n):
            vec = [0] * amb.dim
            vec[amb.pos(0, i, j)] = p ** order.M[i][j]
            gens.append(vec)
    return build_model(amb, gens)


def _radical_power(M, t):
    """Exponent matrix of J^t for the order with matrix M (via min-plus)."""
    n = len(M)
    J1 = [[M[i][j] + (1 if i == j else 0) for j in range(n)] for i in range(n)]
    cur = [[0 if i == j else M[i][j] for j in range(n)] for i in range(n)]
    for _ in range(t):
        cur = [
            [
                min(cur[i][k] + J1[k][j] for k in range(n))
                for j in range(n)
            ]
            for i in range(n)
        ]
    return cur


def _gluing_trees(gluings, node, what):
    """Spanning trees of the graph whose edges are the given gluings.

    ``node`` maps a gluing side to its graph node.  Returns, per connected
    class in order of its smallest node, (members, branches): members in
    breadth-first order from that node, and per tree edge its depth and
    the members of the subtree it hangs off its parent.  Raises ValueError
    unless every class is a tree.
    """
    adj = {}
    for g in gluings:
        u, w = node(g.left), node(g.right)
        adj.setdefault(u, []).append((w, g.depth))
        adj.setdefault(w, []).append((u, g.depth))
    seen = set()
    trees = []
    for root in sorted(adj):
        if root in seen:
            continue
        seen.add(root)
        members = [root]
        edges = []
        for u in members:
            for w, t in adj[u]:
                if w not in seen:
                    seen.add(w)
                    members.append(w)
                    edges.append((u, w, t))
        if sum(len(adj[u]) for u in members) != 2 * len(edges):
            raise ValueError(f"{what} gluings must form a forest")
        sub = {w: [w] for w in members}
        for u, w, _ in reversed(edges):
            sub[u].extend(sub[w])
        trees.append((members, [(t, sub[w]) for _, w, t in edges]))
    return trees


def model_from_amalgam(block: AmalgamBlock, p: int, K: int) -> FiniteAlgebraModel:
    """Model of an amalgam: one matrix-ring summand per component.

    Diagonal gluings must form a forest on the glued diagonal blocks and
    matrix gluings a forest on whole components, with no component subject
    to both flavors.  That covers every amalgam this package constructs and
    keeps the generator bookkeeping to spanning trees.
    """
    comps = block.components
    for comp in comps:
        _check_dims_one(comp)
        if any(x < 0 for row in comp.M for x in row):
            raise ValueError("shift exponents to be nonnegative before modeling")
    mx = max(c.max_entry() for c in comps)
    mxd = max((g.depth for g in block.gluings), default=0)
    if K <= mx + mxd + 1:
        raise TruncationTooSmall(f"K = {K} too small for entries {mx}, depths {mxd}")
    amb = Ambient(tuple(c.n for c in comps), p, K)

    diag_edges = []
    matrix_edges = []
    diag_touched = set()
    matrix_touched = set()
    for g in block.gluings:
        kinds = set(g.kinds)
        if kinds == {"diagonal"}:
            diag_edges.append(g)
            diag_touched.add(g.left[0])
            diag_touched.add(g.right[0])
        elif kinds == {"matrix"} and g.left[1] == WHOLE and g.right[1] == WHOLE:
            matrix_edges.append(g)
            matrix_touched.add(g.left[0])
            matrix_touched.add(g.right[0])
        else:
            raise ValueError("oracle models need pure diagonal or whole-matrix gluings")
    if diag_touched & matrix_touched:
        raise ValueError("oracle models cannot mix gluing flavors on one component")

    # Each glued class contributes its generators at depth 0 over all its
    # members plus, per tree edge, the depth-t congruence on the subtree.
    gens = []
    matrix_trees = _gluing_trees(matrix_edges, lambda side: side[0], "matrix")
    for members, branches in matrix_trees:
        base = comps[members[0]]
        n = base.n
        for other in members[1:]:
            if comps[other].M != base.M or comps[other].n != n:
                raise ValueError("matrix-glued components must share an exponent matrix")
        for t, sub in [(0, members)] + branches:
            Jt = _radical_power(base.M, t)
            for i in range(n):
                for j in range(n):
                    vec = [0] * amb.dim
                    for c in sub:
                        vec[amb.pos(c, i, j)] = p ** Jt[i][j]
                    gens.append(vec)

    # off-diagonal positions and unglued diagonal positions of the rest
    diag_trees = _gluing_trees(diag_edges, lambda side: side, "diagonal")
    glued_diag = {node for members, _ in diag_trees for node in members}
    matrix_members = {c for members, _ in matrix_trees for c in members}
    for c, comp in enumerate(comps):
        if c in matrix_members:
            continue
        for i in range(comp.n):
            for j in range(comp.n):
                if i == j and (c, i) in glued_diag:
                    continue
                vec = [0] * amb.dim
                vec[amb.pos(c, i, j)] = p ** comp.M[i][j]
                gens.append(vec)

    for members, branches in diag_trees:
        for t, sub in [(0, members)] + branches:
            vec = [0] * amb.dim
            for c, q in sub:
                vec[amb.pos(c, q, q)] = p**t
            gens.append(vec)

    return build_model(amb, gens)


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
    """Equality of two submodules modulo p^noise_floor * ambient."""
    p, K = ambient.p, ambient.K
    pad = []
    for t in range(ambient.dim):
        e = [0] * ambient.dim
        e[t] = p**noise_floor
        pad.append(e)
    ha = howell(list(rows_a) + pad, p, K)
    hb = howell(list(rows_b) + pad, p, K)
    return ha == hb
