"""Exponent-matrix orders: validation, radical, idealizer, chains."""

import random
from itertools import accumulate, repeat
from operator import add, sub

import pytest

from headorder.amalgam import (
    GluingConstraint,
    amalgam_chain,
    validate_amalgam,
)
from headorder.errors import DiagonalNonzero, StepBudgetExceeded, TriangleViolation
from headorder import exponent
from headorder.exponent import (
    ExponentIdeal,
    ExponentOrder,
    HereditaryType,
    TwistedCirculant,
    diag_conjugate,
    diag_key,
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
    twisted_matrix,
    validate_order,
)
from test_brauer import DisjointSets

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


@pytest.mark.parametrize(
    "dims, ram, message",
    [
        ((1, 0, -1), 1, "dims must be positive"),
        ((2, -1), 1, "dims must be positive"),
        ((1, 1), 0, "need ram >= 1"),
    ],
    ids=["zero-and-negative-dim", "negative-dim", "ram-0"],
)
def test_builders_check_dims_and_ram(dims, ram, message):
    # the hereditary builders reject what validate_order rejects, with its message
    M = scaled_hereditary((1,) * len(dims), 1).M
    for build in (
        lambda: validate_order(M, dims, ram),
        lambda: scaled_hereditary(dims, 2, ram),
        lambda: standard_hereditary(dims, ram),
    ):
        with pytest.raises(ValueError, match=message):
            build()
    with pytest.raises(ValueError, match="dims must have one entry per block"):
        scaled_hereditary((), 1)
    assert scaled_hereditary([2, 1], 3, ram=2) == ExponentOrder((2, 1), ((0, 3), (0, 0)), 2)


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


def maxplus_idealizer(order, ideal):
    """Reference for idealizer: both maxima for every entry, O(n^3)."""
    N = ideal.N
    n = order.n
    rng = range(n)
    G = []
    for i in rng:
        row = []
        Ni = N[i]
        for j in rng:
            Nj = N[j]
            left = max(Ni[k] - Nj[k] for k in rng)
            right = max(N[k][j] - N[k][i] for k in rng)
            row.append(max(left, right))
        G.append(tuple(row))
    return ExponentOrder(order.dims, tuple(G), order.ram)


def maxplus_glued_idealizer(order, ideal, depths):
    """Reference for glued_idealizer: the depth bound on every entry."""
    bare = maxplus_idealizer(order, ideal)
    n = order.n
    N = ideal.N
    G = []
    for i in range(n):
        row = []
        for j in range(n):
            val = bare.M[i][j]
            if i != j:
                val = max(val, max(depths[i], depths[j]) - N[j][i])
            row.append(val)
        G.append(tuple(row))
    return ExponentOrder(order.dims, tuple(G), order.ram)


def _random_order(rng, n):
    """Min-plus closure of random exponents in [0, 3], some pairs forced to
    m[i][j] = m[j][i] = 0 (unreduced), then a random diagonal conjugation
    (negative entries)."""
    M = [[0 if i == j else rng.randint(0, 3) for j in range(n)] for i in range(n)]
    for _ in range(rng.randint(0, n // 2)):
        i, j = rng.sample(range(n), 2)
        M[i][j] = M[j][i] = 0
    for k in range(n):
        for i in range(n):
            for j in range(n):
                M[i][j] = min(M[i][j], M[i][k] + M[k][j])
    order = validate_order(M, (1,) * n)
    return diag_conjugate(order, [rng.randint(-3, 3) for _ in range(n)])


def _random_rotation_symmetric(rng, n, sigma=0):
    """An integer matrix with N[i+1][j+1] = N[i][j] - s[i] + s[j]: the
    twisted circulant c[(j - i) % n] + sigma * [j < i] of random c,
    conjugated by diag(t), which gives s[i] = t[i+1] - t[i] (indices mod n)
    plus sigma at i = n - 1.  s is unique up to a constant, so the s with
    s[0] = 0 sums to sigma modulo n."""
    c = [rng.randint(-2, 4) for _ in range(n)]
    t = [rng.randint(-3, 3) for _ in range(n)]
    return tuple(
        tuple(c[(j - i) % n] + sigma * (j < i) - t[i] + t[j] for j in range(n))
        for i in range(n)
    )


def _random_circulant_order(rng, n):
    """m[i][j] = c[(j - i) % n] for the min-plus closure c of random entries
    in [0, 3], some c_k = c_(n-k) = 0 (unreduced), conjugated by a random
    diagonal."""
    c = [0] + [rng.randint(0, 3) for _ in range(n - 1)]
    if n > 1 and rng.random() < 0.5:
        k = rng.randrange(1, n)
        c[k] = c[n - k] = 0
    for _ in range(n):
        c = [min(c[m], *(c[i] + c[(m - i) % n] for i in range(n))) for m in range(n)]
    M = [[c[(j - i) % n] for j in range(n)] for i in range(n)]
    order = validate_order(M, (1,) * n)
    return diag_conjugate(order, [rng.randint(-3, 3) for _ in range(n)])


def _star_amalgam():
    # the three-component star of test_amalgam: the outer components carry
    # depths (2, 0), the centre (2, 2)
    c = scaled_hereditary((1, 1), 2)
    gl = (
        GluingConstraint((0, 0), (1, 0), 2),
        GluingConstraint((0, 1), (2, 0), 2),
    )
    return validate_amalgam((c, c, c), gl)


def test_idealizer_matches_maxplus_reference():
    def check(order, ideal, depths=None):
        assert idealizer(order, ideal) == maxplus_idealizer(order, ideal)
        if depths is not None:
            got = glued_idealizer(order, depths)
            assert got == maxplus_glued_idealizer(order, ideal, depths)

    # every state of the Lambda(v) chains, as a matrix
    states = 0
    for n in range(2, 12):
        for a in range(1, 40):
            for order, f in glued_chain(scaled_hereditary((1,) * n, a), a):
                check(order, radical(order), [f] * n)
                states += 1
    assert states == 8714

    # random orders, with negative and unreduced entries
    rng = random.Random(20)
    for n in range(1, 9):
        for _ in range(25):
            order = _random_order(rng, n)
            depths = [rng.randint(0, 3) for _ in range(n)]
            check(order, radical(order), depths)

    # n = 1 and n = 2
    for M in ([[0]], [[0, 1], [0, 0]], [[0, 0], [0, 0]], [[0, 2], [-1, 0]]):
        order = validate_order(M, (1,) * len(M))
        check(order, radical(order), [1] * len(M))

    # the components of an amalgam with non-uniform depths
    for state in amalgam_chain(_star_amalgam()):
        for c, comp in enumerate(state.components):
            depths = [0] * comp.n
            for g in state.gluings:
                for (gc, q), kind in zip((g.left, g.right), g.kinds):
                    if gc == c and kind == "diagonal":
                        depths[q] = max(depths[q], g.depth)
            check(comp, radical(comp), depths)

    # an asymmetric order
    order = validate_order([[0, 1, 2], [0, 0, 1], [0, 0, 0]], (1, 1, 1))
    check(order, radical(order))


def test_rotation_symmetric_left_maximum_is_the_right_one():
    # on a rotation-symmetric N the left maximum of the idealizer equals the
    # right one entry by entry, so one row of one maximum determines G
    rng = random.Random(21)
    twisted = prefixed = 0
    for n in range(1, 13):
        for _ in range(12):
            sigma = rng.choice([-3, -2, -1, 1, 2, 3])
            N = _random_rotation_symmetric(rng, n, sigma)
            u, sig, P = exponent._twisted_form(N)
            assert (sig - sigma) % n == 0
            twisted += sig != 0
            prefixed += any(P)
            rng_n = range(n)
            for i in rng_n:
                for j in rng_n:
                    left = max(N[i][k] - N[j][k] for k in rng_n)
                    right = max(N[k][j] - N[k][i] for k in rng_n)
                    assert left == right
            assert exponent._untwist(u, sig, P) == N
    # sig is the sigma of N's twisted form and P its conjugation
    assert twisted > 100 and prefixed > 100


def test_twisted_radical_is_the_radical():
    # radical on a TwistedCirculant is the radical of the matrix it stands for,
    # reduced (conjugated a * H_n) or not (circulant orders with some
    # c_k = c_(n-k) = 0)
    rng = random.Random(22)
    starts = [
        diag_conjugate(scaled_hereditary((1,) * n, a), [rng.randint(-4, 4) for _ in range(n)])
        for n in range(1, 9)
        for a in (1, n, 2 * n + 1)
    ] + [_random_circulant_order(rng, n) for n in range(1, 9) for _ in range(8)]
    unreduced = 0
    for order in starts:
        u, sigma, P = exponent._twisted_form(order.M)
        J = radical(TwistedCirculant(u, sigma))
        assert J.sigma == sigma
        assert exponent._untwist(J.u, sigma, P) == radical(order).N
        unreduced += not order.is_reduced()
    assert unreduced > 20


def test_twisted_ideal_needs_one_depth():
    T = TwistedCirculant((0, 1, 1), -1)
    with pytest.raises(ValueError, match="one depth on every block"):
        glued_idealizer(T, [0, 1, 1])
    with pytest.raises(ValueError, match="depths must have length n"):
        glued_idealizer(T, [1, 1])


def test_glued_idealizer_needs_one_depth_per_block():
    # a matrix order takes unequal depths, but one per block
    order = scaled_hereditary((1, 1, 1), 2)
    for depths in ([], [1, 1], [1, 0, 0, 1]):
        with pytest.raises(ValueError, match="depths must have length n"):
            glued_idealizer(order, depths)
    assert glued_idealizer(order, [2, 0, 1]).n == 3


def test_twisted_ideal_needs_a_matching_order():
    # idealizer takes the radical of its order alone: a twisted circulant
    # ideal or the radical of an order of another n is refused (ideals of
    # the order's own n: test_idealizer_takes_the_radical_alone)
    T = TwistedCirculant((0, 1, 1), -1)
    H3 = ExponentOrder((1, 1, 1), exponent._untwist(T.u, T.sigma, (0, 0, 0)))
    H2 = scaled_hereditary((1, 1), 1)
    for order, ideal in [(H3, radical(T)), (H3, radical(H2)), (H2, radical(H3))]:
        with pytest.raises(ValueError):
            idealizer(order, ideal)
    assert idealizer(H3, radical(H3)) == H3
    assert glued_idealizer(T, [0] * 3) == T


# a start without rotation symmetry: glued_chain runs the max-plus kernel
_ASYMMETRIC = validate_order([[0, 4, 8, 9], [0, 0, 4, 8], [0, 0, 0, 4], [0, 0, 0, 0]], (1,) * 4)


@pytest.mark.parametrize(
    "start, depth, form",
    [
        (scaled_hereditary((1,) * 6, 9), 9, TwistedCirculant),
        (_ASYMMETRIC, 2, ExponentOrder),
    ],
    ids=["symmetric", "asymmetric"],
)
def test_chain_steps_through_radical_and_glued_idealizer(monkeypatch, start, depth, form):
    # every step of a chain, also the one that confirms the fixed point, is
    # one glued_idealizer call with one radical call inside it: on its row
    # when the start is rotation-symmetric (9 H_6), on its matrix otherwise
    # (_ASYMMETRIC)
    calls, open_calls = [], []
    for name in ("radical", "glued_idealizer"):
        fn = getattr(exponent, name)

        def spy(*args, fn=fn, name=name):
            calls.append((name, type(args[0]), tuple(open_calls)))
            open_calls.append(name)
            try:
                return fn(*args)
            finally:
                open_calls.pop()

        monkeypatch.setattr(exponent, name, spy)
    chain = glued_chain(start, depth)
    assert len(chain) > 2
    step = [("glued_idealizer", form, ()), ("radical", form, ("glued_idealizer",))]
    assert calls == step * len(chain)


def test_glued_idealizer_depth_zero_is_bare():
    order = scaled_hereditary((1, 1, 1), 2)
    bare = idealizer(order, radical(order))
    glued = glued_idealizer(order, [0, 0, 0])
    assert glued.M == bare.M


@pytest.mark.parametrize("dims, ram", [((1,), 1), ((3,), 2)])
def test_glued_idealizer_one_block(dims, ram):
    # a one-block order is the maximal order at every depth
    order = ExponentOrder(dims, ((0,),), ram)
    for depth in range(4):
        got = glued_idealizer(order, [depth])
        assert got == ExponentOrder(dims, ((0,),), ram)


def test_glued_idealizer_depth_blocks_growth():
    # with depth equal to the scale the first step only opens the diagonal
    order = scaled_hereditary((1, 1, 1), 2)
    glued = glued_idealizer(order, [2, 2, 2])
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


def test_budget_start_is_asymmetric():
    assert exponent._twisted_form(_ASYMMETRIC.M) is None
    assert len(glued_chain(_ASYMMETRIC, 2)) > 3


def _min_plus_square(N):
    rng = range(len(N))
    return tuple(tuple(min(N[i][k] + N[k][j] for k in rng) for j in rng) for i in rng)


def _not_radicals(order):
    """Ideals of the order that are not its radical J: the order itself,
    J J by min-plus, and J with one entry raised by one."""
    J = radical(order).N
    yield order.M
    yield _min_plus_square(J)
    for i, row in enumerate(J):
        for j in range(len(row)):
            yield J[:i] + (row[:j] + (row[j] + 1,) + row[j + 1 :],) + J[i + 1 :]


def test_idealizer_of_a_radical_is_two_valued():
    # on the radical J of an order, every entry of the max-plus maximum is
    # m_ij or m_ij - 1, and both kernels pick the same one as the maximum
    def check(order, ideal, depths):
        bare = maxplus_idealizer(order, ideal).M
        assert all(
            g in (m - 1, m) for grow, mrow in zip(bare, order.M) for g, m in zip(grow, mrow)
        )
        want = maxplus_glued_idealizer(order, ideal, depths).M
        assert glued_idealizer(order, depths).M == want
        return want

    def check_twisted(order, ideal, f):
        n = order.n
        u, sigma, P = exponent._twisted_form(order.M)
        _, sigma_v, P_v = exponent._twisted_form(ideal.N)
        assert (sigma_v, P_v) == (sigma, P)
        G = glued_idealizer(TwistedCirculant(u, sigma), [f] * n)
        assert exponent._untwist(G.u, sigma, P) == check(order, ideal, [f] * n)

    # the twisted form: every state of the Lambda(v) chains with n <= 12
    # and a <= 40
    states = 0
    for n in range(2, 13):
        for a in range(1, 41):
            for order, f in glued_chain(scaled_hereditary((1,) * n, a), a):
                check_twisted(order, radical(order), f)
                states += 1
    assert states == 10166

    # the matrix form: the chains of random, random circulant and
    # asymmetric starts at depths 0..3, and unequal depths on the starts
    rng = random.Random(24)
    starts = [_ASYMMETRIC]
    for n in range(1, 9):
        starts += [_random_order(rng, n) for _ in range(6)]
        starts += [_random_circulant_order(rng, n) for _ in range(6)]
    steps = 0
    for start in starts:
        n = start.n
        depths = [rng.randint(0, 3) for _ in range(n)]
        check(start, radical(start), depths)
        for f in range(4):
            for order, g in glued_chain(start, f):
                # the zero diagonal the two-valued rule needs
                assert not any(order.M[i][i] for i in range(n))
                check(order, radical(order), [g] * n)
                steps += 1
    assert steps > 1000


def test_idealizer_takes_the_radical_alone():
    # idealizer refuses every ideal that is not radical(order), and gives
    # the max-plus maximum on the radical
    rng = random.Random(30)
    starts = [_ASYMMETRIC, scaled_hereditary((1,) * 4, 3)]
    for n in range(1, 9):
        starts += [_random_order(rng, n) for _ in range(3)]
        starts += [_random_circulant_order(rng, n) for _ in range(3)]
    others = 0
    for order in starts:
        J = radical(order)
        assert idealizer(order, J) == maxplus_idealizer(order, J)
        for N in _not_radicals(order):
            assert N != J.N
            with pytest.raises(ValueError, match="radical"):
                idealizer(order, ExponentIdeal(N))
            others += 1
    assert others > 500


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


@pytest.mark.parametrize(
    "run",
    [
        lambda s: idealizer_chain(scaled_hereditary((1, 1, 1), 9), max_steps=s),
        lambda s: glued_chain(scaled_hereditary((1, 1, 1), 9), 9, max_steps=s),
        lambda s: glued_chain(_ASYMMETRIC, 2, max_steps=s),
        lambda s: amalgam_chain(_glued_pair(), max_steps=s),
    ],
    ids=["idealizer_chain", "glued_chain", "glued_chain_asymmetric", "amalgam_chain"],
)
def test_step_budget_counts_moves(run):
    # the application that only confirms the fixed point is not a move
    chain = run(None)
    length = len(chain) - 1
    assert list(run(length)) == list(chain)
    with pytest.raises(StepBudgetExceeded) as info:
        run(length - 1)
    assert info.value.max_steps == length - 1
    with pytest.raises(ValueError):
        run(-1)


def test_step_budget_zero_on_a_head():
    head = validate_order([[0, 1], [0, 0]], (1, 1))
    assert idealizer_chain(head, max_steps=0) == [head]
    assert list(glued_chain(head, 0, max_steps=0)) == [(head, 0)]
    pair = validate_amalgam((head, head), ())
    assert list(amalgam_chain(pair, max_steps=0)) == [pair]


def _reference_glued_chain(order, depth):
    """glued_chain from maxplus_glued_idealizer and the radical's definition:
    +1 on every (i, j) with m[i][j] + m[j][i] = 0."""
    chain = [(order, depth)]
    while True:
        current, f = chain[-1]
        M = current.M
        N = tuple(
            tuple(x + (x + y == 0) for x, y in zip(row, col))
            for row, col in zip(M, zip(*M))
        )
        nxt = maxplus_glued_idealizer(current, ExponentIdeal(N), [f] * current.n)
        state = (nxt, max(f - 1, 0))
        if state == chain[-1]:
            return chain
        chain.append(state)


def _rotation_symmetric_order(rng, n, sigma):
    """An order drawn from _random_rotation_symmetric: a zero diagonal and
    the min-plus closure keep the symmetry; a draw with a negative cycle
    (a negative diagonal after the closure) is drawn again."""
    while True:
        M = [list(row) for row in _random_rotation_symmetric(rng, n, sigma)]
        for i in range(n):
            M[i][i] = 0
        for k in range(n):
            for i in range(n):
                for j in range(n):
                    M[i][j] = min(M[i][j], M[i][k] + M[k][j])
        if all(M[i][i] == 0 for i in range(n)):
            return validate_order(M, (1,) * n)


def test_lazy_chain_is_the_eager_listing():
    rng = random.Random(23)
    starts = [(_ASYMMETRIC, 2), (_ASYMMETRIC, 0)]
    for n in range(1, 9):
        for sigma in (0, 1, 3, 6):
            start = _rotation_symmetric_order(rng, n, sigma)
            assert exponent._twisted_form(start.M) is not None
            starts.append((start, rng.randint(0, 4)))
    for start, depth in starts:
        chain = glued_chain(start, depth)
        want = _reference_glued_chain(start, depth)
        assert list(chain) == want
        k = len(want)
        assert chain[-1] == want[-1] and chain[-k] == want[0]
        for bad in (k, -k - 1):
            with pytest.raises(IndexError):
                chain[bad]
        extended = chain + [(start, 0)]
        assert type(extended) is list and extended == want + [(start, 0)]


def test_reading_the_head_untwists_one_state(monkeypatch):
    calls = []
    untwist = exponent._untwist
    monkeypatch.setattr(
        exponent, "_untwist", lambda *args: calls.append(args) or untwist(*args)
    )
    start = scaled_hereditary((1,) * 64, 200)
    chain = glued_chain(start, 200)
    assert len(chain) == 250 and calls == []
    head, depth = chain[-1]
    assert chain[-1][0] is head and chain[0] == (start, 200)
    assert len(calls) == 1 and depth == 0
    assert is_hereditary(merge_unreduced(head)) is not None


def test_chain_matches_maxplus_reference(monkeypatch):
    calls = []

    def spy(N):
        form = twisted_form(N)
        calls.append(form)
        return form

    twisted_form = exponent._twisted_form
    monkeypatch.setattr(exponent, "_twisted_form", spy)
    rng = random.Random(7)

    def check(start, depth):
        calls.clear()
        got = glued_chain(start, depth)
        assert len(calls) == 1  # the start's check, inherited by every state
        assert list(got) == _reference_glued_chain(start, depth)
        calls.clear()
        assert idealizer_chain(start) == [o for o, _ in _reference_glued_chain(start, 0)]
        assert len(calls) == 1
        return calls[0]

    # Lambda(v) starts conjugated by random diagonals: nonzero P
    nonzero = 0
    for n in range(1, 8):
        for a in range(1, 3 * n + 2, 2):
            t = [rng.randint(-4, 4) for _ in range(n)]
            start = diag_conjugate(scaled_hereditary((1,) * n, a), t)
            form = check(start, rng.randint(0, a))
            assert form is not None
            nonzero += any(form[2])
    assert nonzero > 20

    # chains through unreduced states: the b = 0 cells, whose head is the
    # maximal order, and circulant orders with some c_k = c_(n-k) = 0
    # (unreduced, with nonzero P: see _twisted_form)
    unreduced = prefixed = 0
    for n in range(1, 8):
        for a in (n, 2 * n):
            t = [rng.randint(-4, 4) for _ in range(n)]
            start = diag_conjugate(scaled_hereditary((1,) * n, a), t)
            assert check(start, a) is not None
        for _ in range(4 if n < 3 else 12):
            start = _random_circulant_order(rng, n)
            form = check(start, rng.randint(0, 4))
            assert form is not None
            prefixed += any(form[2])
            unreduced += sum(not o.is_reduced() for o in idealizer_chain(start))
    assert unreduced > 60
    assert prefixed > 50

    # random orders, with negative and unreduced entries, take the general path
    asymmetric = 0
    for n in range(1, 8):
        for _ in range(15):
            form = check(_random_order(rng, n), rng.randint(0, 4))
            asymmetric += form is None
    assert asymmetric > 50


def reference_diag_conjugate(M, t):
    """diag_conjugate's former index loop: m_ij - t_i + t_j."""
    n = len(M)
    return tuple(tuple(M[i][j] - t[i] + t[j] for j in range(n)) for i in range(n))


def reference_untwist(u, sigma, P):
    """_untwist's former construction: the rows of T(u, sigma), then P inline."""
    n = len(u)
    w = tuple(map(add, u, repeat(sigma)))
    rows = [w[n - i:] + u[: n - i] for i in range(n)]
    if any(P):
        return tuple(tuple(map(sub, map(add, row, P), repeat(p))) for row, p in zip(rows, P))
    return tuple(rows)


def test_conjugation_and_twist_match_the_former_constructions():
    # random matrices with negative entries and negative t, random (u, sigma, P)
    # with P = 0 in a third of the draws, and the coordinates of
    # _random_rotation_symmetric matrices, whose P is mostly nonzero
    rng = random.Random(26)
    nonzero_P = 0
    for trial in range(3000):
        n = rng.randint(1, 8)
        M = tuple(tuple(rng.randint(-3, 3) for _ in range(n)) for _ in range(n))
        t = [rng.randint(-4, 4) for _ in range(n)]
        want = reference_diag_conjugate(M, t)
        assert diag_conjugate(ExponentOrder((1,) * n, M), t).M == want
        assert exponent.conjugate_matrix(M, t) == want
        assert diag_key(M) == reference_diag_conjugate(M, [row[0] for row in M])
        u = tuple(rng.randint(-3, 5) for _ in range(n))
        sigma = rng.randint(-4, 4)
        P = tuple(rng.randint(-3, 3) for _ in range(n)) if trial % 3 else (0,) * n
        T = tuple(tuple(u[(j - i) % n] + sigma * (j < i) for j in range(n)) for i in range(n))
        assert twisted_matrix(u, sigma) == T
        assert exponent._untwist(u, sigma, P) == reference_untwist(u, sigma, P)
        assert reference_untwist(u, sigma, P) == reference_diag_conjugate(T, P)
        N = _random_rotation_symmetric(rng, n, sigma)
        twist = exponent._twisted_form(N)
        assert exponent._untwist(*twist) == reference_untwist(*twist) == N
        nonzero_P += any(twist[2])
    assert nonzero_P > 1500


def reference_twisted_form(N):
    """The former _rotation_shift, then the former _twisted: the shift s of
    N[i+1][j+1] = N[i][j] - s[i] + s[j] (indices mod n) with s[0] = 0, the
    witness of (N, rotated N) checked row by row, or None; then P its prefix
    sums, sigma its sum and u = N[0] - P."""
    R = exponent._rotate(N, 1)
    s = tuple(a[0] - b[0] for a, b in zip(N, R))
    for a, b, si in zip(N, R, s):
        if tuple(map(add, map(sub, a, b), s)).count(si) != len(N):
            return None
    acc = tuple(accumulate(s))
    P = (0,) + acc[:-1]
    return tuple(map(sub, N[0], P)), acc[-1], P


def test_twisted_form_matches_the_former_pair():
    # 20,000 matrices with n = 1..8: rotation-symmetric ones (mostly with
    # nonzero P), random -1..1 matrices (mostly asymmetric, with nonconstant
    # diagonals), conjugated circulant orders, and symmetric ones with one
    # entry moved by one
    rng = random.Random(29)
    found = {kind: set() for kind in ("symmetric", "random", "circulant", "perturbed")}
    kinds = tuple(found)
    nonzero_P = 0
    for trial in range(20000):
        n = rng.randint(1, 8)
        kind = kinds[trial % 4]
        if kind == "random":
            N = tuple(tuple(rng.randint(-1, 1) for _ in range(n)) for _ in range(n))
        elif kind == "circulant":
            N = _random_circulant_order(rng, n).M
        else:
            N = _random_rotation_symmetric(rng, n, rng.randint(-3, 3))
        if kind == "perturbed":
            i, j = rng.randrange(n), rng.randrange(n)
            N = N[:i] + (N[i][:j] + (N[i][j] + rng.choice((-1, 1)),) + N[i][j + 1 :],) + N[i + 1 :]
        form = exponent._twisted_form(N)
        assert form == reference_twisted_form(N), N
        if form is not None:
            assert exponent._untwist(*form) == N
            nonzero_P += any(form[2])
        found[kind].add(form is not None)
    assert found == {
        "symmetric": {True},
        "random": {True, False},
        "circulant": {True},
        "perturbed": {True, False},
    }
    assert nonzero_P > 5000


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
    # every cyclic relabeling of a 4-index order whose rotations are not
    # diag-equal to it, conjugated; a transposition is no rotation
    A = ((0, 1, 0, 1), (0, 0, 0, 1), (1, 2, 0, 1), (0, 1, 0, 0))
    n = 4
    for r in range(1, n):
        rot = tuple(
            tuple(A[(i + r) % n][(j + r) % n] for j in range(n)) for i in range(n)
        )
        rot = diag_conjugate(ExponentOrder((1,) * n, rot), [3, 0, 2, 1]).M
        assert not equal_up_to_diag(A, rot)
        assert equal_up_to_diag_and_rotation(A, rot)
        assert equal_up_to_diag_and_rotation(rot, A)
    P = (1, 0, 2, 3)
    swap = tuple(tuple(A[P[i]][P[j]] for j in range(n)) for i in range(n))
    assert not equal_up_to_diag_and_rotation(A, swap)


def _reference_diag_shift(A, B):
    """The former witness of diagonal conjugacy: t with A conjugated by t equal
    to B and t[0] = 0, or None.  Column 0 fixes the only candidate,
    t[i] = A[i][0] - B[i][0]."""
    if len(A) != len(B):
        return None
    t = tuple(a[0] - b[0] for a, b in zip(A, B))
    return t if reference_diag_conjugate(A, t) == B else None


def test_diag_key_decides_diagonal_conjugacy():
    # random matrices, with and without zero diagonal, against their
    # diagonal conjugates, their rotations, a perturbed copy and a stranger;
    # entries are small so that unrelated pairs are sometimes conjugate
    rng = random.Random(23)
    seen = set()
    for trial in range(400):
        n = rng.randint(1, 5)
        A = [[rng.randint(-3, 3) for _ in range(n)] for _ in range(n)]
        if trial % 2:
            for i in range(n):
                A[i][i] = 0
        A = tuple(map(tuple, A))
        t = [rng.randint(-4, 4) for _ in range(n)]
        bump = [list(r) for r in A]
        bump[rng.randrange(n)][rng.randrange(n)] += rng.choice((-1, 1))
        stranger = tuple(tuple(rng.randint(-1, 1) for _ in range(n)) for _ in range(n))
        others = [
            A,
            diag_conjugate(ExponentOrder((1,) * n, A), t).M,
            exponent._rotate(A, rng.randrange(n)),
            tuple(map(tuple, bump)),
            stranger,
        ]
        for B in others:
            same = _reference_diag_shift(A, B) is not None
            assert (diag_key(A) == diag_key(B)) == same, (A, B)
            seen.add(same)
    assert seen == {True, False}
    # the key of an order has column 0 zero
    assert all(row[0] == 0 for row in diag_key(scaled_hereditary((1, 2, 1), 3).M))


def matrix_key(M):
    """The twisted_key of M's twisted form, None without rotation symmetry:
    the key a glued chain reads off its row, made from the matrix."""
    form = exponent._twisted_form(M)
    return None if form is None else exponent.twisted_key(*form[:2])


def test_twisted_key_decides_diagonal_conjugacy():
    # the lemma of twisted_key against diag_key on 20,000 pairs, half of them
    # conjugate by construction: rows (u, sigma) with u' = u + k*c and
    # sigma' = sigma - n*c, and matrices with nonzero prefix sums P of their
    # rotation shift (_random_rotation_symmetric) against a diagonal conjugate,
    # possibly rotated.  The others are near misses (sigma' or one u'_k off by
    # one) and unrelated draws with small entries.
    rng = random.Random(27)
    seen = {"row": set(), "matrix": set()}
    for trial in range(20000):
        n = rng.randint(2, 7)
        sigma = rng.randint(-4, 4)
        conjugate = trial % 2 == 0
        if trial % 4 < 2:
            route = "row"
            u = tuple(rng.randint(-3, 5) for _ in range(n))
            c = rng.randint(-3, 3)
            v = [x + k * c for k, x in enumerate(u)]
            tau = sigma - n * c
            if not conjugate:
                kind = rng.randrange(3)
                if kind == 0:
                    tau += rng.choice((-1, 1))
                elif kind == 1:
                    v[rng.randrange(n)] += rng.choice((-1, 1))
                else:
                    v = [rng.randint(-1, 1) for _ in range(n)]
                    tau = rng.randint(-1, 1)
            A, B = twisted_matrix(u, sigma), twisted_matrix(tuple(v), tau)
            key = exponent.twisted_key(u, sigma)
            got = key == exponent.twisted_key(tuple(v), tau)
            # the key is the row of the Lambda(key) conjugate to T(u, sigma)
            assert exponent.twisted_key(key, -key[-1]) == key
            assert diag_key(twisted_matrix(key, -key[-1])) == diag_key(A), (u, sigma)
        else:
            route = "matrix"
            A = _random_rotation_symmetric(rng, n, sigma)
            if conjugate:
                t = [rng.randint(-5, 5) for _ in range(n)]
                B = exponent._rotate(exponent.conjugate_matrix(A, t), rng.randrange(n))
            else:
                B = _random_rotation_symmetric(rng, n, rng.randint(-1, 1))
            got = matrix_key(A) == matrix_key(B)
        want = diag_key(A) == diag_key(B)
        assert got == want, (A, B)
        if conjugate:
            assert want, (A, B)
        seen[route].add(want)
    assert seen == {"row": {True, False}, "matrix": {True, False}}
    # n = 1: T(u, sigma) = (u_0) whatever sigma is
    assert exponent.twisted_key((2,), 5) == exponent.twisted_key((2,), -1) == matrix_key(((2,),))
    assert exponent.twisted_key((2,), 5) != exponent.twisted_key((3,), 5)


def test_matrix_key_is_none_without_rotation_symmetry():
    # a matrix has a state key exactly when the former pair finds its
    # twisted form (reference_twisted_form);
    # the asymmetric start of the CI chain pin has none
    assert matrix_key(_ASYMMETRIC.M) is None
    rng = random.Random(28)
    seen = set()
    for trial in range(2000):
        n = rng.randint(1, 6)
        if trial % 2:
            M = _random_rotation_symmetric(rng, n, rng.randint(-2, 2))
        else:
            M = tuple(tuple(rng.randint(-1, 1) for _ in range(n)) for _ in range(n))
        symmetric = reference_twisted_form(M) is not None
        assert (matrix_key(M) is None) == (not symmetric), M
        seen.add(symmetric)
    assert seen == {True, False}


def reference_unreduced_classes(M):
    """The union-find class roots that _unreduced_classes replaced."""
    n = len(M)
    sets = DisjointSets(n)
    for i, (row, col) in enumerate(zip(M, zip(*M))):
        if 0 in map(add, row[i + 1 :], col[i + 1 :]):
            for j in range(i + 1, n):
                if row[j] + col[j] == 0:
                    sets.union(i, j)
    return [sets.find(i) for i in range(n)]


def reference_is_hereditary(order):
    """The sort-group-rank test that is_hereditary replaced."""
    n = order.n
    t = [order.M[i][0] for i in range(n)]
    C = diag_conjugate(order, t).M
    if any(x not in (0, 1) for row in C for x in row):
        return None
    # class key: number of 1s in the row, strictly decreasing along classes
    sums = [sum(C[i]) for i in range(n)]
    idx = sorted(range(n), key=lambda i: -sums[i])
    classes: list[list[int]] = []
    for i in idx:
        if classes and sums[classes[-1][0]] == sums[i]:
            classes[-1].append(i)
        else:
            classes.append([i])
    rank = {}
    for c, members in enumerate(classes):
        for i in members:
            rank[i] = c
    for i in range(n):
        for j in range(n):
            expected = 1 if rank[i] < rank[j] else 0
            if C[i][j] != expected:
                return None
    grouped = tuple(sum(order.dims[i] for i in members) for members in classes)
    return HereditaryType(len(classes), grouped)


def _blown_up_hereditary(rng):
    """standard_hereditary on k blocks with repeated indices, conjugated;
    half the time one off-diagonal entry is raised by 1.  None when that
    breaks the triangle inequality."""
    k = rng.randint(1, 5)
    n = rng.randint(k, 8)
    of = list(range(k)) + [rng.randrange(k) for _ in range(n - k)]
    rng.shuffle(of)
    M = [[1 if of[j] > of[i] else 0 for j in range(n)] for i in range(n)]
    if n > 1 and rng.random() < 0.5:
        i, j = rng.sample(range(n), 2)
        M[i][j] += 1
    try:
        order = validate_order(M, [rng.randint(1, 3) for _ in range(n)])
    except TriangleViolation:
        return None
    return diag_conjugate(order, [rng.randint(-3, 3) for _ in range(n)])


def test_classes_and_types_match_reference():
    rng = random.Random(12)
    orders = []
    for _ in range(1500):
        n = rng.randint(1, 8)
        M = _random_order(rng, n).M
        orders.append(ExponentOrder(tuple(rng.randint(1, 3) for _ in range(n)), M))
        blown = _blown_up_hereditary(rng)
        if blown is not None:
            orders.append(blown)
    hereditary = unreduced = 0
    for order in orders:
        root = reference_unreduced_classes(order.M)
        assert exponent._unreduced_classes(order.M) == root
        # the radical raises m_ij by one exactly when i and j share a class
        assert radical(order).N == tuple(
            tuple(m + (root[i] == root[j]) for j, m in enumerate(row))
            for i, row in enumerate(order.M)
        )
        ht = is_hereditary(order)
        assert ht == reference_is_hereditary(order)
        assert ht == is_hereditary(merge_unreduced(order))
        assert ht == reference_is_hereditary(merge_unreduced(order))
        hereditary += ht is not None
        unreduced += not order.is_reduced()
    assert hereditary >= 300 and len(orders) - hereditary >= 300 and unreduced >= 300
