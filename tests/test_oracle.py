"""Finite-algebra brute force against the exponent formulas."""

import pytest

from headorder.amalgam import (
    GluingConstraint,
    amalgam_idealizer_step,
    validate_amalgam,
)
from headorder.errors import OracleCapExceeded, TruncationTooSmall
from headorder import oracle
from headorder.exponent import (
    diag_conjugate,
    idealizer,
    radical,
    scaled_hereditary,
    standard_hereditary,
    validate_order,
)
from headorder.modular import howell, in_span, rref_modp
from headorder.oracle import (
    Ambient,
    build_model,
    model_from_amalgam,
    model_from_exponent,
    oracle_idealizer,
    oracle_radical,
    radical_modp,
    read_exponents,
    spans_agree,
    truncation_for,
)


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
    K = truncation_for(1, 1)
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


def test_amalgam_model_rejects_gluing_cycle():
    # a spanning tree of a cycle would drop one of its congruences
    one = validate_order([[0]], (1,))
    B = validate_amalgam(
        (one, one, one),
        (
            GluingConstraint((0, 0), (1, 0), 1),
            GluingConstraint((1, 0), (2, 0), 1),
            GluingConstraint((0, 0), (2, 0), 2),
        ),
    )
    with pytest.raises(ValueError, match="forest"):
        model_from_amalgam(B, 2, 10)


def _companion(coeffs, m):
    d = len(coeffs)
    M = [[0] * d for _ in range(d)]
    for i in range(1, d):
        M[i][i - 1] = 1
    for i in range(d):
        M[i][d - 1] = (-coeffs[i]) % m
    return M


def test_ramified_stack_regression():
    """The group ring of a cyclic group of order 9 over the 3-adics.

    Its idealizer chain takes 3 steps to reach the maximal order, one more
    than the independent per-gluing depth counters predict for the matching
    tree block (a = 2 stack): the stack congruence and the edge congruence
    are entangled through all three components.  Pin both numbers.
    """
    p, K = 3, 10
    amb = Ambient((1, 2, 6), p, K)
    m = amb.modulus
    C3 = _companion([1, 1], m)  # x^2 + x + 1
    C9 = _companion([1, 0, 0, 1, 0, 0], m)  # x^6 + x^3 + 1

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

    def zero(n):
        return [[0] * n for _ in range(n)]

    def embed(s, M2, M6):
        v = [0] * amb.dim
        v[0] = s % m
        for i in range(2):
            for j in range(2):
                v[amb.pos(1, i, j)] = M2[i][j] % m
        for i in range(6):
            for j in range(6):
                v[amb.pos(2, i, j)] = M6[i][j] % m
        return v

    gens0 = [embed(1, matpow(C3, k), matpow(C9, k)) for k in range(9)]
    model = build_model(amb, gens0)
    assert model.rank == 9

    maxgens = [embed(1, zero(2), zero(6))]
    maxgens += [embed(0, matpow(C3, k), zero(6)) for k in range(2)]
    maxgens += [embed(0, zero(2), matpow(C9, k)) for k in range(6)]
    maximal = howell(maxgens, p, K)

    noise = K - 3
    moves = 0
    for _ in range(8):
        J = oracle_radical(model)
        Id = oracle_idealizer(model, J, within=maximal)
        if spans_agree(Id, model.basis, amb, noise):
            break
        model = build_model(amb, [list(r) for r in Id])
        moves += 1
    assert moves == 3
    assert spans_agree(model.basis, maximal, amb, noise)
    # the identity of the untouched rational component splits off last:
    # 9 e_0 is in the group ring, 3 e_0 appears one step in, e_0 at the end
    e0 = embed(1, zero(2), zero(6))
    assert in_span(e0, model.basis, p, K)

    # the tree-block bookkeeping for the same data stops after 2 steps
    from headorder.brauer import PlanarBrauerTree, head_order_report

    tree = PlanarBrauerTree(
        exceptional=0,
        edges=((0, 1),),
        dims=(1,),
        rotations=((0,), (0,)),
        p=3,
        a=2,
    )
    assert head_order_report(tree)["chain_length"] == 2
