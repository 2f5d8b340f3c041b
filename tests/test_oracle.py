"""Finite-algebra brute force against the exponent formulas."""

import random
from operator import mul

import pytest

from headorder.amalgam import (
    WHOLE,
    AmalgamBlock,
    GluingConstraint,
    amalgam_chain,
    amalgam_idealizer_step,
    validate_amalgam,
)
from headorder.errors import OracleCapExceeded, TruncationTooSmall
from headorder import oracle
from headorder.exponent import (
    ExponentIdeal,
    diag_conjugate,
    idealizer,
    radical,
    scaled_hereditary,
    standard_hereditary,
    validate_order,
)
from headorder.modular import (
    annihilator,
    charpoly_modp,
    howell,
    in_span,
    nullspace_modp,
    right_kernel,
    rref_modp,
    val,
)
from headorder.oracle import (
    Ambient,
    build_model,
    certify_order,
    model_from_amalgam,
    model_from_exponent,
    oracle_idealizer,
    oracle_radical,
    radical_modp,
    read_exponents,
    spans_agree,
    truncation_for,
)
from test_acceptance import _all_orders, _amalgam_cases, _amalgam_models, _conj_chain


def struct_constants(mats, p):
    """Multiplication table of a matrix-algebra basis over F_p."""
    n = len(mats[0])
    flat = [[x % p for row in M for x in row] for M in mats]

    # dense solve of [flat^T] c = vec over F_p; the basis is independent
    def solve(vec):
        rows = [[flat[t][k] for t in range(len(flat))] + [vec[k] % p] for k in range(len(vec))]
        m = rref_modp(rows, p)
        c = [0] * len(flat)
        for row in m:
            j = next((i for i, x in enumerate(row[:-1]) if x), None)
            assert j is not None or row[-1] == 0
            if j is not None:
                c[j] = row[-1]
        return c

    mult = []
    for A in mats:
        row = []
        for B in mats:
            prod = [
                [sum(A[i][k] * B[k][j] for k in range(n)) % p for j in range(n)]
                for i in range(n)
            ]
            row.append(solve([x for r in prod for x in r]))
        mult.append(row)
    return mult


def radical_dim(mats, p):
    return len(radical_modp(struct_constants(mats, p), p))


def E(n, i, j):
    M = [[0] * n for _ in range(n)]
    M[i][j] = 1
    return M


def I(n):
    return [[1 if i == j else 0 for j in range(n)] for i in range(n)]


def test_radical_modp_matrix_ring_semisimple():
    mats = [E(2, i, j) for i in range(2) for j in range(2)]
    assert radical_dim(mats, 2) == 0
    assert radical_dim(mats, 3) == 0


def test_radical_modp_dual_numbers():
    # F_2[t]/t^2 embedded as [[a, b], [0, a]]
    mats = [I(2), E(2, 0, 1)]
    assert radical_dim(mats, 2) == 1


def test_radical_modp_field_extension_semisimple():
    # F_4 = F_2[x]/(x^2+x+1) via the companion matrix
    x = [[0, 1], [1, 1]]
    assert radical_dim([I(2), x], 2) == 0


def test_radical_modp_upper_triangular():
    mats = [E(2, 0, 0), E(2, 1, 1), E(2, 0, 1)]
    assert radical_dim(mats, 3) == 1


def test_radical_modp_modular_group_algebra():
    # F_3[C_3]: the permutation matrices of a 3-cycle; radical has dim 2
    p = 3
    g = [[0, 0, 1], [1, 0, 0], [0, 1, 0]]
    g2 = [[0, 1, 0], [0, 0, 1], [1, 0, 0]]
    assert radical_dim([I(3), g, g2], p) == 2
    # F_2[C_3] is semisimple (3 odd)
    assert radical_dim([I(3), g, g2], 2) == 0


def dense_radical_modp(mult, p):
    """Reference for radical_modp: the same ideal iteration, with one dense
    L_x L_y product and one characteristic polynomial per ordered pair."""
    R = len(mult)
    if R == 0:
        return []

    # by_col[k][j][i] = mult[i][j][k]
    by_col = [[[mult[i][j][k] for i in range(R)] for j in range(R)] for k in range(R)]

    def lmat(x):
        return [[sum(map(mul, x, c)) % p for c in row] for row in by_col]

    ideal = [[1 if t == i else 0 for t in range(R)] for i in range(R)]
    j = 0
    while p**j <= R and ideal:
        lmats = [lmat(v) for v in ideal]
        conds = []
        for Ly in lmats:
            cols = list(zip(*Ly))
            conds.append([
                charpoly_modp(
                    [[sum(map(mul, ra, cb)) for cb in cols] for ra in Lx], p
                )[p**j]
                for Lx in lmats
            ])
        ideal = rref_modp(
            [
                [sum(c * v[k] for c, v in zip(coeffs, ideal)) % p for k in range(R)]
                for coeffs in nullspace_modp(conds, p)
            ],
            p,
        )
        j += 1
    return ideal


@pytest.mark.parametrize("p", (2, 3, 5))
def test_radical_modp_matches_dense_reference(p):
    # every order with n <= 3 and entries in [0, 2], every state of the
    # criterion-4 amalgam chains, and the hand-built algebras above; in
    # the group algebra products rarely vanish
    mults = [
        model_from_exponent(order, p, truncation_for(2)).mult
        for n in (1, 2, 3)
        for order in _all_orders(n, 2)
    ]
    for B in _amalgam_cases():
        mults.extend(m.mult for m in _amalgam_models(B, p)[0])
    g = [[0, 0, 1], [1, 0, 0], [0, 1, 0]]
    g2 = [[0, 1, 0], [0, 0, 1], [1, 0, 0]]
    for mats in (
        [I(2), E(2, 0, 1)],
        [E(2, 0, 0), E(2, 1, 1), E(2, 0, 1)],
        [I(3), g, g2],
    ):
        mults.append(struct_constants(mats, p))
    for mult in mults:
        assert radical_modp(mult, p) == dense_radical_modp(mult, p)


def _blockdiag(*blocks):
    n = sum(len(B) for B in blocks)
    M = [[0] * n for _ in range(n)]
    off = 0
    for B in blocks:
        for i, row in enumerate(B):
            M[off + i][off : off + len(B)] = row
        off += len(B)
    return M


@pytest.mark.parametrize("p", (2, 3))
def test_radical_modp_matches_dense_reference_in_mixed_bases(p):
    # M_p(F_p) x upper triangular 2 x 2 x F_p^3 in random bases: M_p is
    # invisible to the trace form and dies only at level 1, where the
    # ideal's rows have long supports and the radical E_01 must survive
    def Z(n):
        return [[0] * n for _ in range(n)]

    mats = [_blockdiag(E(p, i, j), Z(2), Z(3)) for i in range(p) for j in range(p)]
    mats += [_blockdiag(Z(p), E(2, i, j), Z(3)) for i, j in ((0, 0), (1, 1), (0, 1))]
    mats += [_blockdiag(Z(p), Z(2), E(3, i, i)) for i in range(3)]
    R, n = len(mats), len(mats[0])
    rng = random.Random(p)
    bases = []
    while len(bases) < 3:
        T = [[rng.randrange(p) for _ in range(R)] for _ in range(R)]
        if len(rref_modp(T, p)) == R:
            bases.append(T)
    for T in bases:
        mixed = [
            [[sum(t * M[i][j] for t, M in zip(row, mats)) % p for j in range(n)] for i in range(n)]
            for row in T
        ]
        mult = struct_constants(mixed, p)
        rad = radical_modp(mult, p)
        assert len(rad) == 1
        assert rad == dense_radical_modp(mult, p)


def check_associativity(model):
    amb = model.ambient
    for x in model.basis:
        for y in model.basis:
            xy = amb.mul(x, y)
            for z in model.basis:
                if amb.mul(xy, z) != amb.mul(x, amb.mul(y, z)):
                    return False
    return True


def test_build_model_and_associativity():
    order = standard_hereditary((1, 1))
    model = model_from_exponent(order, 2, 6)
    assert model.rank == 4
    assert check_associativity(model)


def test_build_model_requires_closure():
    amb = Ambient((2,), 2, 5)
    # span of the identity and E_01 + E_10 is not closed (their square is I,
    # fine, but E * (I + E) wanders): use a genuinely open set
    v = [0, 1, 1, 0]
    with pytest.raises(ValueError):
        build_model(amb, [amb.unit(), v, [0, 1, 0, 0]])


def test_rank_cap_env(monkeypatch):
    monkeypatch.setattr(oracle, "RANK_CAP", 3)
    order = standard_hereditary((1, 1))
    with pytest.raises(OracleCapExceeded):
        model_from_exponent(order, 2, 6)


def test_truncation_too_small():
    order = scaled_hereditary((1, 1), 3)
    with pytest.raises(TruncationTooSmall):
        model_from_exponent(order, 2, 3)


def test_oracle_radical_matches_formula():
    order = standard_hereditary((1, 1, 1))
    K = truncation_for(1)
    model = model_from_exponent(order, 2, K)
    J = oracle_radical(model)
    got = read_exponents(J, model.ambient, K - 3)[0]
    assert got == [[1, 1, 1], [0, 1, 1], [0, 0, 1]]


def test_oracle_idealizer_of_maximal_is_itself():
    order = validate_order([[0, 0], [0, 0]], (1, 1))
    K = truncation_for(1)
    model = model_from_exponent(order, 3, K)
    J = oracle_radical(model)
    Id = oracle_idealizer(model, J)
    assert spans_agree(Id, model.basis, model.ambient, K - 3)


def test_oracle_idealizer_scaled_h3():
    # certify Id(J(2 H_3)) including the negative corner entry, after the
    # diagonal shift that keeps the model inside the ambient
    order = scaled_hereditary((1, 1, 1), 2)
    pred = idealizer(order, radical(order))
    t = [pred.M[i][0] for i in range(3)]
    oshift = diag_conjugate(order, t)
    pshift = diag_conjugate(pred, t)
    mx = max(x for row in oshift.M for x in row)
    K = truncation_for(mx)
    noise = K - mx - 2
    for p in (2, 3):
        model = model_from_exponent(oshift, p, K)
        J = oracle_radical(model)
        Id = oracle_idealizer(model, J)
        assert read_exponents(Id, model.ambient, noise)[0] == [
            list(r) for r in pshift.M
        ]
        predmodel = model_from_exponent(pshift, p, K)
        assert spans_agree(Id, predmodel.basis, model.ambient, noise)


def _never(*args):
    raise AssertionError("certify_order went past the read-back that fails")


def test_certify_order_rejects_a_wrong_radical(monkeypatch):
    # every predicted radical exponent one too high: the J read-back says no
    def high_radical(order):
        return ExponentIdeal(tuple(tuple(x + 1 for x in row) for row in radical(order).N))

    monkeypatch.setattr(oracle, "radical", high_radical)
    monkeypatch.setattr(oracle, "oracle_idealizer", _never)
    assert certify_order(scaled_hereditary((1, 1, 1), 2), 3) is False


def test_certify_order_rejects_a_wrong_idealizer(monkeypatch):
    # the predicted idealizer is the order itself: the Id read-back says no
    monkeypatch.setattr(oracle, "idealizer", lambda order, ideal: order)
    monkeypatch.setattr(oracle, "spans_agree", _never)
    assert certify_order(scaled_hereditary((1, 1, 1), 2), 3) is False


def test_truncation_stability():
    order = scaled_hereditary((1, 1), 2)
    for K in (8, 9):
        model = model_from_exponent(order, 2, K)
        J = oracle_radical(model)
        got = read_exponents(J, model.ambient, 6)[0]
        assert got == [[1, 2], [0, 1]]


def test_amalgam_model_one_step():
    # one oracle idealizer step of a depth-1 glued pair equals the
    # constraint-aware exponent step
    comp = standard_hereditary((1, 1))
    B = validate_amalgam(
        (comp, comp), (GluingConstraint((0, 0), (1, 0), 1),)
    )
    K = truncation_for(2)
    noise = K - 4
    for p in (2, 3):
        model = model_from_amalgam(B, p, K)
        J = oracle_radical(model)
        Id = oracle_idealizer(model, J)
        nxt = amalgam_idealizer_step(B)
        nxt_model = model_from_amalgam(nxt, p, K)
        assert spans_agree(Id, nxt_model.basis, model.ambient, noise)


def test_amalgam_model_rejects_mixed_kind():
    comp = scaled_hereditary((1, 1), 2)
    B = validate_amalgam(
        (comp, comp),
        (GluingConstraint((0, 0), (1, 0), 2, ("diagonal", "matrix")),),
    )
    with pytest.raises(ValueError):
        model_from_amalgam(B, 2, 10)


def test_amalgam_model_gluing_cycle():
    # x0 = x1 = x2 mod p with x0 = x2 mod p^2: every congruence of the
    # cycle holds, which a spanning tree of it would not keep
    one = validate_order([[0]], (1,))
    B = validate_amalgam(
        (one, one, one),
        (
            GluingConstraint((0, 0), (1, 0), 1),
            GluingConstraint((1, 0), (2, 0), 1),
            GluingConstraint((0, 0), (2, 0), 2),
        ),
    )
    for p in (2, 3):
        model = model_from_amalgam(B, p, 10)
        assert model.rank == 3
        for vec in ([1, 1, 1], [0, p, 0], [p * p, 0, 0]):
            assert in_span(vec, model.basis, p, 10)
        for vec in ([p, 0, 0], [p, p, 0]):
            assert not in_span(vec, model.basis, p, 10)


@pytest.mark.parametrize("depth", (1, 2))
def test_amalgam_model_mixed_flavors_one_step(depth):
    # a whole-matrix gluing and a diagonal gluing on the same component
    h2 = standard_hereditary((1, 1))
    one = validate_order([[0]], (1,))
    B = validate_amalgam(
        (h2, h2, one),
        (
            GluingConstraint((0, WHOLE), (1, WHOLE), depth, ("matrix", "matrix")),
            GluingConstraint((1, 0), (2, 0), 1),
        ),
    )
    K = truncation_for(1 + depth)
    noise = K - (1 + depth + 2)
    nxt = amalgam_idealizer_step(B)
    for p in (2, 3):
        model = model_from_amalgam(B, p, K)
        J = oracle_radical(model)
        Id = oracle_idealizer(model, J)
        assert spans_agree(Id, model_from_amalgam(nxt, p, K).basis, model.ambient, noise)


def reference_radical_power(M, t):
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


def reference_gluing_trees(gluings, node, what):
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


def reference_model_from_amalgam(block, p, K):
    """Reference for model_from_amalgam: the model spanned by generators.

    Diagonal gluings must form a forest on the glued diagonal blocks and
    matrix gluings a forest on whole components, with no component subject
    to both flavors.  Each glued class contributes its generators at depth
    0 over all its members plus, per spanning-tree edge, the depth-t
    congruence on the subtree.
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

    gens = []
    matrix_trees = reference_gluing_trees(matrix_edges, lambda side: side[0], "matrix")
    for members, branches in matrix_trees:
        base = comps[members[0]]
        n = base.n
        for other in members[1:]:
            if comps[other].M != base.M or comps[other].n != n:
                raise ValueError("matrix-glued components must share an exponent matrix")
        for t, sub in [(0, members)] + branches:
            Jt = reference_radical_power(base.M, t)
            for i in range(n):
                for j in range(n):
                    vec = [0] * amb.dim
                    for c in sub:
                        vec[amb.pos(c, i, j)] = p ** Jt[i][j]
                    gens.append(vec)

    # off-diagonal positions and unglued diagonal positions of the rest
    diag_trees = reference_gluing_trees(diag_edges, lambda side: side, "diagonal")
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


@pytest.mark.parametrize("p", (2, 3))
def test_model_from_amalgam_matches_generator_reference(p):
    # every n <= 3 order with entries in [0, 2] and every conjugated state
    # of the criterion-4 amalgam chains, at the truncations criterion 4 uses
    blocks = [
        (AmalgamBlock((order,), ()), truncation_for(2))
        for n in (1, 2, 3)
        for order in _all_orders(n, 2)
    ]
    for B in _amalgam_cases():
        K = _amalgam_models(B, p)[0][0].ambient.K
        blocks.extend((st, K) for st in _conj_chain(amalgam_chain(B)))
    for B, K in blocks:
        got = model_from_amalgam(B, p, K)
        want = reference_model_from_amalgam(B, p, K)
        assert (got.basis, got.mult) == (want.basis, want.mult)


def _companion(coeffs, m):
    d = len(coeffs)
    M = [[0] * d for _ in range(d)]
    for i in range(1, d):
        M[i][i - 1] = 1
    for i in range(d):
        M[i][d - 1] = (-coeffs[i]) % m
    return M


def _cyclic_group_ring(p, a):
    """Z_p[C_{p^a}] inside ⊕_{s=0..a} M_{φ(p^s)}(Z_p), truncated at K = 10.

    The generator acts on summand s as the companion matrix of the
    cyclotomic polynomial Φ_{p^s}(x) = Σ_{i<p} x^(i p^(s-1)), so the
    maximal order is ⊕_s Z_p[ζ_{p^s}].  Returns the ambient, generators of
    the group ring, the Howell basis of the maximal order and the identity
    e0 of the first summand.
    """
    K = 10
    degrees = [1] + [(p - 1) * p ** (s - 1) for s in range(1, a + 1)]
    amb = Ambient(tuple(degrees), p, K)
    m = amb.modulus
    # Φ_{p^0} = x - 1; above it the coefficient of x^i is 1 when p^(s-1) | i
    gens = [_companion([-1], m)] + [
        _companion([int(i % p ** (s - 1) == 0) for i in range(degrees[s])], m)
        for s in range(1, a + 1)
    ]

    def matmul(A, B):
        n = len(A)
        return [
            [sum(A[i][k] * B[k][j] for k in range(n)) % m for j in range(n)]
            for i in range(n)
        ]

    def matpow(A, k):
        n = len(A)
        R = [[1 if i == j else 0 for j in range(n)] for i in range(n)]
        for _ in range(k):
            R = matmul(R, A)
        return R

    def embed(mats):
        # mats[s] goes to summand s; None leaves the summand zero
        v = [0] * amb.dim
        for s, M in enumerate(mats):
            if M is not None:
                for i, row in enumerate(M):
                    for j, x in enumerate(row):
                        v[amb.pos(s, i, j)] = x % m
        return v

    group = [embed([matpow(C, k) for C in gens]) for k in range(p**a)]
    maxgens = [
        embed([matpow(C, k) if t == s else None for t in range(a + 1)])
        for s, C in enumerate(gens)
        for k in range(degrees[s])
    ]
    e0 = embed([[[1]]] + [None] * a)
    return amb, group, howell(maxgens, p, K), e0


def _cyclic_chain(p, a):
    """The oracle idealizer chain of Z_p[C_{p^a}] within the maximal order:
    every model with its radical and idealizer, up to the fixed point."""
    amb, gens0, maximal, _ = _cyclic_group_ring(p, a)
    K = amb.K
    noise = K - 3
    model = build_model(amb, gens0)
    steps = []
    for _ in range(p**a):
        J = oracle_radical(model)
        # Id(J) within the maximal order: by the double annihilator over
        # Z/p^K, right_kernel(ann(X) + ann(Y)) is the intersection of X and
        # Y; the zero row stands for no condition when both are the ambient
        Id = oracle_idealizer(model, J)
        conds = annihilator(Id, p, K) + annihilator(maximal, p, K) + [[0] * amb.dim]
        Id = right_kernel(conds, p, K)
        steps.append((model, J, Id))
        if spans_agree(Id, model.basis, amb, noise):
            break
        model = build_model(amb, [list(r) for r in Id])
    return steps, maximal


@pytest.mark.parametrize(
    "p, a, package_length",
    [(2, 1, 1), (3, 1, 1), (5, 1, 1), (2, 2, 2), (2, 3, 3), (2, 4, 7), (3, 2, 2)],
)
def test_ramified_stack_regression(p, a, package_length):
    """The group ring of a cyclic group of order p^a over the p-adics.

    Its idealizer chain takes p^(a-1) steps to reach the maximal order.
    The independent per-gluing depth counters of the matching one-edge
    tree block (e = 1) predict max(a, p^(a-1) - 1) steps, one short
    whenever p^(a-1) > a: the stack congruence and the edge congruence
    are entangled through all the components.  Pin both numbers.
    """
    amb, _, _, e0 = _cyclic_group_ring(p, a)
    K = amb.K
    steps, maximal = _cyclic_chain(p, a)
    assert steps[0][0].rank == p**a
    moves = len(steps) - 1
    assert moves == p ** (a - 1)
    model = steps[-1][0]
    assert spans_agree(model.basis, maximal, amb, K - 3)
    # the identity of the untouched rational component splits off last:
    # p^a e_0 is in the group ring, e_0 only in the maximal order
    assert in_span(e0, model.basis, p, K)
    assert not in_span(e0, steps[0][0].basis, p, K)

    # the tree-block bookkeeping for the same data stops earlier
    from headorder.brauer import PlanarBrauerTree, head_order_report

    tree = PlanarBrauerTree(
        exceptional=0,
        edges=((0, 1),),
        dims=(1,),
        rotations=((0,), (0,)),
        p=p,
        a=a,
    )
    assert head_order_report(tree)["chain_length"] == package_length


def test_radical_modp_matches_dense_reference_on_group_ring():
    # in Z_3[C_9] nearly every product of two basis elements is nonzero and
    # has a long support, the opposite extreme from the sparse orders
    for model, _, _ in _cyclic_chain(3, 2)[0]:
        assert radical_modp(model.mult, 3) == dense_radical_modp(model.mult, 3)


def dense_mul(amb, x, y):
    """Reference for Ambient.mul: the triple loop over every entry."""
    m = amb.modulus
    out = [0] * amb.dim
    for s, d in enumerate(amb.sizes):
        off = amb.offset(s)
        for i in range(d):
            for j in range(d):
                acc = 0
                for k in range(d):
                    acc += x[off + i * d + k] * y[off + k * d + j]
                out[off + i * d + j] = acc % m
    return out


def dense_reduce_against(vec, basis, p, K):
    """Reference for reduce_against: one vector, pivots found per call."""
    m = p**K
    vec = [x % m for x in vec]
    coeffs = []
    for row in basis:
        j = next(i for i, x in enumerate(row) if x)
        v = val(row[j], p, K)
        if vec[j] % p**v == 0:
            q = vec[j] // p**v
        else:
            q = 0
        if q:
            vec = [(a - q * b) % m for a, b in zip(vec, row)]
        coeffs.append(q)
    return vec, coeffs


def dense_mult_table(amb, basis):
    """Reference structure constants: a dense product and a reduction per pair."""
    p, K = amb.p, amb.K
    mult = []
    for bi in basis:
        row = []
        for bj in basis:
            rem, coeffs = dense_reduce_against(dense_mul(amb, bi, bj), basis, p, K)
            assert not any(rem)
            row.append(tuple(coeffs))
        mult.append(tuple(row))
    return tuple(mult)


def dense_oracle_idealizer(model, jbasis, within=None):
    """Reference for oracle_idealizer: products with every unit vector."""
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
        left = [dense_mul(amb, e, g) for e in unit_vecs]   # column t: e_t * g
        right = [dense_mul(amb, g, e) for e in unit_vecs]
        for c in ann:
            conds.append(
                [sum(left[t][k] * c[k] for k in range(dim)) % m for t in range(dim)]
            )
            conds.append(
                [sum(right[t][k] * c[k] for k in range(dim)) % m for t in range(dim)]
            )
    return right_kernel(conds, p, K)


def _reference_models(p):
    """Every n <= 3 order with entries in [0, 2] and every state of the
    criterion-4 amalgam chains, modeled at p."""
    for n in (1, 2, 3):
        for order in _all_orders(n, 2):
            yield model_from_exponent(order, p, truncation_for(2))
    for B in _amalgam_cases():
        yield from _amalgam_models(B, p)[0]


@pytest.mark.parametrize("p", (2, 3))
def test_oracle_idealizer_matches_dense_reference(p):
    for model in _reference_models(p):
        J = oracle_radical(model)
        assert oracle_idealizer(model, J) == dense_oracle_idealizer(model, J)
    if p == 3:
        steps, maximal = _cyclic_chain(3, 2)
        for model, J, Id in steps:
            assert Id == dense_oracle_idealizer(model, J, within=maximal)


def test_oracle_idealizer_without_conditions():
    # n = 1: J = p Z_p and its annihilator is p^(K-1), so every condition
    # vanishes and the idealizer is the whole ambient
    model = model_from_exponent(validate_order([[0]], (1,)), 2, 6)
    J = oracle_radical(model)
    assert J == [[2]]
    assert oracle_idealizer(model, J) == [[1]]
    assert dense_oracle_idealizer(model, J) == [[1]]


@pytest.mark.parametrize("p", (2, 3))
def test_build_model_matches_dense_reference(p):
    for model in _reference_models(p):
        assert model.mult == dense_mult_table(model.ambient, model.basis)
    if p == 3:
        for model, _, _ in _cyclic_chain(3, 2)[0]:
            assert model.mult == dense_mult_table(model.ambient, model.basis)


@pytest.mark.parametrize("p", (2, 3))
def test_kernel_models_need_no_second_howell_pass(p):
    # model_from_amalgam closes its right_kernel output without running
    # howell on it again: that output already is its own Howell form
    for model in _reference_models(p):
        amb = model.ambient
        assert [tuple(r) for r in howell(list(model.basis), amb.p, amb.K)] == list(model.basis)
        rebuilt = build_model(amb, model.basis)
        assert (rebuilt.basis, rebuilt.mult) == (model.basis, model.mult)


def test_ambient_dim_cached_keeps_equality():
    read = Ambient((1, 2, 6), 3, 10)
    assert read.dim == 41
    unread = Ambient((1, 2, 6), 3, 10)
    assert read == unread and hash(read) == hash(unread)
    assert read != Ambient((1, 2, 6), 3, 11)


def reference_spans_agree(rows_a, rows_b, ambient, noise_floor):
    """The padded test that spans_agree replaced: both spans plus
    p^noise_floor times every unit vector, in Howell form at K."""
    p, K = ambient.p, ambient.K
    pad = []
    for t in range(ambient.dim):
        e = [0] * ambient.dim
        e[t] = p**noise_floor
        pad.append(e)
    ha = howell(list(rows_a) + pad, p, K)
    hb = howell(list(rows_b) + pad, p, K)
    return ha == hb


def _span_pair(rng, dim, p, K, noise):
    """Random rows A, and rows B with the same span mod p^noise: A's rows
    times units plus p^noise junk, and sums of two of A's rows.  Three
    times in four, one entry of B is then replaced."""
    m = p**K
    a = [
        [rng.randrange(m) * rng.choice((1, 1, p, p * p)) % m for _ in range(dim)]
        for _ in range(rng.randint(0, dim + 1))
    ]
    units = [u for u in range(1, p * p) if u % p]
    b = []
    for row in a:
        u = rng.choice(units)
        b.append([(u * x + p**noise * rng.randrange(m)) % m for x in row])
    b += [[(x + y) % m for x, y in zip(r, s)] for r, s in zip(a, a[1:])]
    rng.shuffle(b)
    if b and rng.random() < 0.75:
        rng.choice(b)[rng.randrange(dim)] = rng.randrange(m)
    return a, b


def test_spans_agree_matches_padded_reference():
    rng = random.Random(12)
    outcomes = {True: 0, False: 0}
    for _ in range(3000):
        sizes = rng.choice([(1,), (2,), (1, 1), (1, 2), (1, 1, 1)])
        p = rng.choice((2, 3, 5))
        K = rng.randint(1, 6)
        noise = rng.randint(0, K)
        amb = Ambient(sizes, p, K)
        a, b = _span_pair(rng, amb.dim, p, K, noise)
        got = spans_agree(a, b, amb, noise)
        assert got == reference_spans_agree(a, b, amb, noise)
        outcomes[got] += 1
    assert min(outcomes.values()) >= 500
