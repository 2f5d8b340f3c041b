"""Closed-form chain states for the cyclically symmetric family."""

import random

import pytest

from headorder.circulant import (
    CirculantState,
    _split,
    anfang_state,
    defm1_state,
    expand,
    head_order_f,
    head_order_w,
    initial_reduction,
    main2_type,
    midway_state,
    simple_module_match,
)
from headorder.errors import NotACycle, OutOfRange
from headorder.exponent import (
    equal_up_to_diag,
    equal_up_to_diag_and_rotation,
    glued_chain,
    is_hereditary,
    merge_unreduced,
    scaled_hereditary,
)
from math import gcd


def test_state_validation():
    with pytest.raises(ValueError):
        CirculantState((1, 1), (1, 2))  # v_0 must be 0
    with pytest.raises(ValueError):
        CirculantState((1, 1), (0, -1))  # nondecreasing
    with pytest.raises(ValueError):
        CirculantState((1, 1), (0, 1), f=2)  # depth above top value


def test_expand_shape():
    st = CirculantState((1, 1, 1), (0, 1, 2))
    M = expand(st).M
    assert M == ((0, 1, 2), (0, 0, 1), (-1, 0, 0))
    # below-diagonal entries are the wrapped values shifted down by v_{n-1}
    for i in range(3):
        for j in range(3):
            want = st.v[j - i] if j >= i else st.v[3 + j - i] - st.v[-1]
            assert M[i][j] == want
    # closure holds
    from headorder.exponent import validate_order

    validate_order(M, (1, 1, 1))


def test_split():
    assert _split(7, 3) == (2, 1)
    assert _split(6, 3) == (1, 3)
    assert _split(5, 1) == (4, 1)


def test_initial_reduction():
    st, step = initial_reduction(3, 7)
    assert step == 6 and st.v == (0, 1, 1) and st.f == 1
    st, step = initial_reduction(4, 4)
    assert step == 4 and st.v == (0, 0, 0, 0) and st.f == 0


def test_anfang_range_checks():
    with pytest.raises(OutOfRange):
        anfang_state(5, 0, 0)
    with pytest.raises(OutOfRange):
        anfang_state(5, 2, 4)  # m must stay below n - l0 = 3


def test_chain_hits_closed_forms_small():
    # walk the iterative chain for (n, a) = (5, 3) and compare states
    n, a = 5, 3
    chain = glued_chain(scaled_hereditary((1,) * n, a), a)
    z, b = divmod(a, n)
    red, step0 = initial_reduction(n, a)
    order, f = chain[step0]
    assert equal_up_to_diag(order.M, expand(red).M) and f == red.f
    l0, x0 = _split(n, b)
    for m in range(n - l0):
        st = anfang_state(n, b, m)
        order, f = chain[step0 + m + 1]
        assert equal_up_to_diag(order.M, expand(st).M)
        assert f == st.f
    st1, rel = defm1_state(n, b)
    order, _ = chain[step0 + rel]
    assert equal_up_to_diag(order.M, expand(st1).M)


def test_midway_requires_proper_x0():
    with pytest.raises(OutOfRange):
        midway_state(6, 3)  # x0 = b here


def test_head_order_w_rejects_divisors():
    with pytest.raises(OutOfRange):
        head_order_w(6, 2)
    with pytest.raises(OutOfRange):
        head_order_w(6, 0)


def test_head_order_w_matches_chain():
    for n, a in [(5, 3), (7, 4), (9, 6), (8, 3)]:
        b = a % n
        chain = glued_chain(scaled_hereditary((1,) * n, a), a)
        term = chain[-1][0]
        w = head_order_w(n, b)
        assert equal_up_to_diag_and_rotation(term.M, expand(w).M)


def test_head_order_f_matches_w():
    for n in range(2, 11):
        for a in range(1, 21):
            b = a % n
            if b == 0 or n % b == 0:
                continue
            F = head_order_f(n, a)
            W = expand(head_order_w(n, b))
            assert equal_up_to_diag_and_rotation(F.M, W.M)


def test_head_order_f_divisor_case_hereditary():
    # for b | n the grading formula still lands on a hereditary order
    F = head_order_f(6, 2)
    ht = is_hereditary(merge_unreduced(F))
    assert ht is not None
    assert ht.blocks == 6 // gcd(6, 2)


def test_head_order_f_rejects_multiples():
    with pytest.raises(OutOfRange):
        head_order_f(4, 8)


def test_main2_type_needs_cycle():
    with pytest.raises(NotACycle):
        main2_type(3, 1, {0: 1, 1: 1, 2: 1}, {0: 1, 1: 0, 2: 2})


def test_main2_type_block_count():
    n = 6
    sigma = {i: (i + 1) % n for i in range(n)}
    dims = {i: 1 for i in range(n)}
    for a in range(1, 13):
        ht = main2_type(n, a, dims, sigma)
        assert ht.blocks == n // gcd(n, a)
        assert sum(ht.grouped_dims) == n
        assert all(d == gcd(n, a) for d in ht.grouped_dims)


def test_main2_type_matches_iterative_head():
    rng = random.Random(3)
    for _ in range(40):
        n = rng.randrange(2, 8)
        a = rng.randrange(1, 15)
        perm = list(range(n))
        rng.shuffle(perm)
        # build an n-cycle through the shuffled labels
        sigma = {perm[k]: perm[(k + 1) % n] for k in range(n)}
        dims = {i: rng.randrange(1, 4) for i in range(n)}
        cyc = [perm[0]]
        while len(cyc) < n:
            cyc.append(sigma[cyc[-1]])
        dvec = tuple(dims[x] for x in cyc)
        chain = glued_chain(scaled_hereditary(dvec, a), a)
        got = is_hereditary(merge_unreduced(chain[-1][0]))
        assert got is not None
        want = main2_type(n, a, dims, sigma, start=cyc[0])
        assert got.blocks == want.blocks
        assert _cyclic_equal(got.grouped_dims, want.grouped_dims)


def _cyclic_equal(a, b):
    if len(a) != len(b):
        return False
    n = len(a)
    return any(tuple(a[(i + r) % n] for i in range(n)) == tuple(b) for r in range(n))


def test_simple_module_match_partition():
    for n in range(1, 13):
        for a in range(1, 13):
            fibers = simple_module_match(n, a)
            d = gcd(n, a)
            assert len(fibers) == n // d
            seen = []
            for f in fibers.values():
                assert len(f) == d
                seen.extend(f)
            assert sorted(seen) == list(range(n))
