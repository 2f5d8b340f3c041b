"""Exponent-matrix orders: validation, radical, idealizer, chains."""

import pytest

from headorder.amalgam import (
    GluingConstraint,
    amalgam_chain,
    validate_amalgam,
)
from headorder.errors import DiagonalNonzero, StepBudgetExceeded, TriangleViolation
from headorder.exponent import (
    diag_conjugate,
    equal_up_to_diag,
    equal_up_to_diag_and_rotation,
    glued_chain,
    glued_idealizer,
    idealizer,
    idealizer_chain,
    is_hereditary,
    merge_unreduced,
    radical,
    scaled_hereditary,
    standard_hereditary,
    validate_order,
)

H3 = [[0, 1, 1], [0, 0, 1], [0, 0, 0]]


def validate_ideal(order, N):
    """Assert that N is the exponent matrix of a two-sided ideal of order."""
    M = order.M
    n = order.n
    assert len(N) == n and all(len(row) == n for row in N)
    for i in range(n):
        for j in range(n):
            assert N[i][j] >= M[i][j], f"N[{i}][{j}] < M[{i}][{j}]: not contained"
            for k in range(n):
                assert M[i][k] + N[k][j] >= N[i][j], f"not a left ideal at ({i},{j},{k})"
                assert N[i][k] + M[k][j] >= N[i][j], f"not a right ideal at ({i},{j},{k})"


def test_validate_order_accepts_hereditary():
    order = validate_order(H3, (1, 1, 1))
    assert order.M == tuple(tuple(r) for r in H3)
    assert order.is_reduced()


def test_validate_order_rejects_nonzero_diagonal():
    with pytest.raises(DiagonalNonzero):
        validate_order([[1, 0], [0, 0]], (1, 1))


def test_validate_order_rejects_triangle_violation():
    with pytest.raises(TriangleViolation):
        validate_order([[0, 0, 3], [0, 0, 1], [0, 0, 0]], (1, 1, 1))


def test_validate_order_allows_negative_offdiagonal():
    order = validate_order([[0, 1, 2], [0, 0, 1], [-1, 0, 0]], (1, 1, 1))
    assert order.M[2][0] == -1


def test_standard_and_scaled_hereditary():
    assert standard_hereditary((1, 1, 1)).M == tuple(tuple(r) for r in H3)
    assert scaled_hereditary((1, 1), 3).M == ((0, 3), (0, 0))


def test_radical_raises_diagonal():
    order = validate_order(H3, (1, 1, 1))
    J = radical(order)
    assert J.N == ((1, 1, 1), (0, 1, 1), (0, 0, 1))
    validate_ideal(order, J.N)


def test_radical_general_merges_classes():
    # indices 0 and 1 carry the same block factor: the radical steps the
    # whole 2x2 corner, not just the diagonal
    order = validate_order([[0, 0, 1], [0, 0, 1], [0, 0, 0]], (1, 1, 1))
    J = radical(order)
    assert J.N == ((1, 1, 1), (1, 1, 1), (0, 0, 1))
    validate_ideal(order, J.N)


def test_radical_general_equals_radical_on_reduced():
    # on reduced orders the radical only raises the diagonal
    orders = [
        validate_order(H3, (1, 1, 1)),
        scaled_hereditary((1, 1, 1, 1), 3),
        validate_order([[0, 1, 2], [0, 0, 1], [-1, 0, 0]], (1, 1, 1)),
    ]
    for order in orders:
        assert order.is_reduced()
        n = order.n
        assert radical(order).N == tuple(
            tuple(order.M[i][j] + (i == j) for j in range(n)) for i in range(n)
        )


def test_idealizer_of_maximal_is_itself():
    order = validate_order([[0, 0], [0, 0]], (1, 1))
    assert idealizer(order, radical(order)).M == order.M


def test_idealizer_of_hereditary_is_itself():
    order = validate_order(H3, (1, 1, 1))
    assert idealizer(order, radical(order)).M == order.M


def test_idealizer_of_scaled_hereditary():
    # Id(J(2 H_3)); the (2,0) entry drops below zero, which is legal
    order = scaled_hereditary((1, 1, 1), 2)
    got = idealizer(order, radical(order))
    assert got.M == ((0, 1, 2), (0, 0, 1), (-1, 0, 0))
    validate_order(got.M, got.dims)


def test_idealizer_contains_order():
    order = scaled_hereditary((1, 1, 1, 1), 3)
    got = idealizer(order, radical(order))
    assert all(
        got.M[i][j] <= order.M[i][j] for i in range(4) for j in range(4)
    )


def test_glued_idealizer_depth_zero_is_bare():
    order = scaled_hereditary((1, 1, 1), 2)
    bare = idealizer(order, radical(order))
    glued = glued_idealizer(order, radical(order), [0, 0, 0])
    assert glued.M == bare.M


def test_glued_idealizer_depth_blocks_growth():
    # with depth equal to the scale the first step only opens the diagonal
    order = scaled_hereditary((1, 1, 1), 2)
    glued = glued_idealizer(order, radical(order), [2, 2, 2])
    assert validate_order(glued.M, glued.dims)
    # containment between the bare and glued results
    bare = idealizer(order, radical(order))
    assert all(
        bare.M[i][j] <= glued.M[i][j] <= order.M[i][j]
        for i in range(3)
        for j in range(3)
    )


def test_idealizer_chain_terminates_hereditary():
    order = scaled_hereditary((1, 1, 1), 5)
    chain = idealizer_chain(order)
    head = chain[-1]
    assert idealizer(head, radical(head)).M == head.M
    assert is_hereditary(merge_unreduced(head)) is not None


def test_idealizer_chain_strictly_increases():
    order = scaled_hereditary((1, 1, 1, 1), 4)
    chain = idealizer_chain(order)
    for a, b in zip(chain, chain[1:]):
        assert all(
            b.M[i][j] <= a.M[i][j] for i in range(4) for j in range(4)
        )
        assert a.M != b.M


def test_glued_chain_depth_counts_down():
    order = scaled_hereditary((1, 1, 1), 2)
    chain = glued_chain(order, 2)
    depths = [f for _, f in chain]
    assert depths[0] == 2
    assert all(x == max(y - 1, 0) for y, x in zip(depths, depths[1:]))
    assert depths[-1] == 0


def _glued_pair():
    comp = scaled_hereditary((1, 1, 1), 9)
    return validate_amalgam(
        (comp, comp), (GluingConstraint((0, 0), (1, 0), 3),)
    )


@pytest.mark.parametrize(
    "run",
    [
        lambda s: idealizer_chain(scaled_hereditary((1, 1, 1), 9), max_steps=s),
        lambda s: glued_chain(scaled_hereditary((1, 1, 1), 9), 9, max_steps=s),
        lambda s: amalgam_chain(_glued_pair(), max_steps=s),
    ],
    ids=["idealizer_chain", "glued_chain", "amalgam_chain"],
)
def test_step_budget_exceeded(run):
    with pytest.raises(StepBudgetExceeded) as info:
        run(1)
    assert info.value.max_steps == 1
    assert len(run(None)) > 2


def test_diag_conjugate_roundtrip():
    order = scaled_hereditary((1, 1, 1), 2)
    t = [3, 1, 0]
    back = diag_conjugate(diag_conjugate(order, t), [-x for x in t])
    assert back.M == order.M


def test_is_hereditary_standard():
    ht = is_hereditary(standard_hereditary((2, 1, 3)))
    assert ht is not None
    assert ht.blocks == 3
    assert ht.grouped_dims == (2, 1, 3)


def test_is_hereditary_rejects_scaled():
    assert is_hereditary(scaled_hereditary((1, 1), 2)) is None


def test_is_hereditary_after_conjugation():
    order = diag_conjugate(standard_hereditary((1, 2, 1)), [5, 0, 2])
    ht = is_hereditary(order)
    assert ht is not None and ht.grouped_dims == (1, 2, 1)


def test_merge_unreduced_groups_dims():
    # two copies of the same block inside H-like data
    M = [[0, 0, 1], [0, 0, 1], [0, 0, 0]]
    merged = merge_unreduced(validate_order(M, (1, 2, 1)))
    assert merged.n == 2
    assert merged.dims == (3, 1)
    assert merged.M == ((0, 1), (0, 0))


def test_merge_unreduced_idempotent_on_reduced():
    order = standard_hereditary((1, 1))
    assert merge_unreduced(order).M == order.M


def test_equal_up_to_diag():
    A = standard_hereditary((1, 1, 1)).M
    B = diag_conjugate(standard_hereditary((1, 1, 1)), [4, 1, 0]).M
    assert equal_up_to_diag(A, B)
    assert not equal_up_to_diag(A, scaled_hereditary((1, 1, 1), 2).M)


def test_equal_up_to_diag_and_rotation():
    # a cyclic relabeling of H_3 is not diag-equal but is rotation-equal
    A = standard_hereditary((1, 1, 1)).M
    n = 3
    rot = tuple(
        tuple(A[(i + 1) % n][(j + 1) % n] for j in range(n)) for i in range(n)
    )
    assert equal_up_to_diag_and_rotation(A, rot)
