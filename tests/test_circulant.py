"""Closed-form chain states for the cyclically symmetric family."""

import random
from itertools import product

import pytest

from headorder.circulant import (
    CirculantState,
    _grading,
    _split,
    anfang_state,
    certify_cell,
    chain_checkpoints,
    defm1_state,
    expand,
    head_order_f,
    head_order_w,
    initial_reduction,
    main2_type,
    midway_state,
    simple_module_match,
)
from headorder.errors import NotACycle, OutOfRange, TriangleViolation
from headorder import exponent
from headorder.exponent import (
    ExponentOrder,
    HereditaryType,
    LazyChain,
    diag_conjugate,
    equal_up_to_diag,
    glued_chain,
    is_hereditary,
    merge_unreduced,
    scaled_hereditary,
    validate_order,
)
from math import gcd


def test_state_validation():
    with pytest.raises(ValueError):
        CirculantState((1, 1), (1, 2))  # v_0 must be 0
    with pytest.raises(ValueError):
        CirculantState((1, 1), (0, -1))  # nondecreasing
    with pytest.raises(ValueError):
        CirculantState((1, 1), (0, 1), f=2)  # depth above top value


def test_state_accepts_exactly_the_orders():
    # every v with v_0 = 0, n <= 5 and entries in [-1, 3]
    accepted = 0
    for n in range(1, 6):
        for tail in product(range(-1, 4), repeat=n - 1):
            v = (0,) + tail
            M = [[v[j - i] if j >= i else v[n + j - i] - v[-1] for j in range(n)]
                 for i in range(n)]
            try:
                validate_order(M, (1,) * n)
                is_order = True
            except TriangleViolation:
                is_order = False
            try:
                CirculantState((1,) * n, v)
                ok = True
            except ValueError:
                ok = False
            assert ok == is_order, v
            accepted += ok
    assert accepted == 30  # of the 781 vectors


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
    validate_order(M, (1, 1, 1))


def test_split():
    assert _split(7, 3) == (2, 1)
    assert _split(6, 3) == (1, 3)
    assert _split(5, 1) == (4, 1)


def test_initial_reduction():
    v, step = initial_reduction(3, 7)
    assert step == 6 and v == (0, 1, 1) and chain_checkpoints(3, 7)[0].depth == 1
    v, step = initial_reduction(4, 4)
    assert step == 4 and v == (0, 0, 0, 0) and chain_checkpoints(4, 4)[0].depth == 0


def test_anfang_range_checks():
    with pytest.raises(OutOfRange):
        anfang_state(5, 0, 0)
    with pytest.raises(OutOfRange):
        anfang_state(5, 2, 4)  # m must stay below n - l0 = 3


def _row_keyed(chain, picks):
    """The states (chain[p][0], chain[p][1] + bump) for (p, bump) in picks, as
    a LazyChain whose state keys come from the rows of the glued chain."""

    def state(j):
        p, bump = picks[j]
        order, depth = chain[p]
        return order, depth + bump

    def key(j):
        p, bump = picks[j]
        row_key, depth = chain.key(p)
        return row_key, depth + bump

    return LazyChain(len(picks), state, key)


def test_chain_hits_closed_forms_small():
    # certify_cell accepts the chain and refuses it with one thing wrong: cut
    # before the head, or at the reduced start or an early form a depth off
    # by one or the state swapped for its successor.  (8, 6) runs one step
    # past its midway form, so only the head check sees the cut.  Each
    # tampered list is refused again as a LazyChain keyed by rows.
    def refused(n, a, chain, tampered, picks):
        row_keyed = _row_keyed(chain, picks)
        assert row_keyed == tampered
        return not certify_cell(n, a, tampered) and not certify_cell(n, a, row_keyed)

    for n, a in [(5, 3), (7, 10), (8, 6), (6, 2), (4, 8)]:
        chain = glued_chain(scaled_hereditary((1,) * n, a), a)
        same = [(k, 0) for k in range(len(chain))]
        assert certify_cell(n, a, chain)
        assert certify_cell(n, a, _row_keyed(chain, same))
        assert refused(n, a, chain, chain[:-1], same[:-1])
        z, b = divmod(a, n)
        last_early = z * n + (n - (n - 1) // b if b else 0)
        for k in range(z * n, last_early + 1):
            order, depth = chain[k]
            tampered = chain[:k] + [(order, depth + 1)] + chain[k + 1 :]
            assert refused(n, a, chain, tampered, same[:k] + [(k, 1)] + same[k + 1 :])
            if k + 1 < len(chain):
                tampered = chain[:k] + [chain[k + 1]] + chain[k + 1 :]
                assert refused(n, a, chain, tampered, same[:k] + [(k + 1, 0)] + same[k + 1 :])


def test_certify_cell_keys_rows_and_matrices_alike(monkeypatch):
    # every cell of n = 2..12, a = 1..36 certifies from the rows of its glued
    # chain, making no state, and from the list of its states, whose keys
    # come from their matrices
    untwisted = []
    untwist = exponent._untwist
    monkeypatch.setattr(exponent, "_untwist", lambda *args: untwisted.append(1) or untwist(*args))
    for n in range(2, 13):
        for a in range(1, 37):
            chain = glued_chain(scaled_hereditary((1,) * n, a), a)
            assert certify_cell(n, a, chain), (n, a)
            assert not untwisted, (n, a)
            assert certify_cell(n, a, list(chain)), (n, a)
            untwisted.clear()


def test_certify_cell_builds_only_the_head_state(monkeypatch):
    # the checkpoints are bare rows: certifying a cell makes no CirculantState
    # but the head w, and none when b divides n
    made = []
    post_init = CirculantState.__post_init__
    monkeypatch.setattr(
        CirculantState, "__post_init__", lambda self: made.append(1) or post_init(self)
    )
    for n, a, want in [(7, 10, 1), (6, 14, 0), (24, 71, 1)]:
        chain = glued_chain(scaled_hereditary((1,) * n, a), a)
        made.clear()
        assert certify_cell(n, a, chain), (n, a)
        assert len(made) == want, (n, a, len(made))


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
        assert equal_up_to_diag(term.M, expand(w).M)


def test_head_order_f_matches_w():
    for n in range(2, 11):
        for a in range(1, 21):
            b = a % n
            if b == 0 or n % b == 0:
                continue
            F = head_order_f(n, a)
            W = expand(head_order_w(n, b))
            assert equal_up_to_diag(F.M, W.M)


def test_checkpoints_are_diag_conjugates_of_their_rotations():
    # the premise of matching checkpoints without rotation: every checkpoint
    # B is a Lambda(v), so any rotation of B, conjugated, is diag-equal to B
    rng = random.Random(17)
    count = 0
    for n in range(2, 17):
        for a in range(1, 49):
            for cp in chain_checkpoints(n, a):
                B = expand(CirculantState((1,) * n, cp.v, f=cp.depth or 0)).M
                r = rng.randrange(n)
                rot = tuple(tuple(B[(i + r) % n][(j + r) % n] for j in range(n)) for i in range(n))
                t = [rng.randint(-5, 5) for _ in range(n)]
                R = diag_conjugate(ExponentOrder((1,) * n, rot), t).M
                assert equal_up_to_diag(R, B), (n, a, cp.tag, r)
                # a checkpoint is its own state key
                assert exponent.twisted_key(cp.v, -cp.v[-1]) == cp.v
                count += 1
    assert count == 6408


def paper_v1(n, b):
    """v^(1) as displayed: (0, 1^{l0}, ..., (b-y-1)^{l0}, (b-y)^{l0+1}, ...,
    (b-1)^{l0+1}, b^{l0}) with y = x0 - 1."""
    l0, x0 = _split(n, b)
    y = x0 - 1
    v = [0]
    for u in range(1, b - y):
        v.extend([u] * l0)
    for u in range(b - y, b):
        v.extend([u] * (l0 + 1))
    v.extend([b] * l0)
    assert len(v) == n
    return tuple(v)


def paper_w(n, b):
    """The head w = (0, 1^{l_1}, ..., b^{l_b}) as displayed: l_j = l0 + e_j
    with e_j = a_j - a_{j-1}, a_j = floor(x0*j/b), and l_b = l0.  The
    pattern (e_1, ..., e_i) repeats gcd(n, b) times."""
    l0, x0 = _split(n, b)
    a_of = lambda j: (x0 * j) // b
    v = [0]
    for j in range(1, b):
        v.extend([j] * (l0 + a_of(j) - a_of(j - 1)))
    v.extend([b] * l0)
    assert len(v) == n
    return tuple(v)


def test_closed_forms_are_the_last_early_form_and_the_grading():
    # v^(1) is the last early form, w is row 0 of the grading f, and
    # Lambda(w), or Lambda(v^(1)) when b | n, is the f-matrix entry for entry
    for n in range(2, 121):
        for b in range(1, n):
            l0, _ = _split(n, b)
            v1, step = defm1_state(n, b)
            assert (v1, 0, step) == (*anfang_state(n, b, n - l0 - 1), n - l0)
            assert v1 == paper_v1(n, b)
            F = head_order_f(n, b).M
            if n % b:
                w = head_order_w(n, b)
                assert w.v == paper_w(n, b)
                assert expand(w).M == F
            else:
                assert expand(CirculantState((1,) * n, v1)).M == F


def reference_anfang_v(n, b, m):
    """anfang_state's former row: the value at each position j, in three
    ranges, and (0, 1^{n-1}) at b = 1."""
    if b == 1:
        return (0,) + (1,) * (n - 1)
    l, y = divmod(m, b - 1)
    v = [0]
    for j in range(1, n):
        if j <= (b - y - 1) * l:
            v.append((j - 1) // l + 1)
        elif j <= (b - 1) * l + y:
            v.append(b - y + (j - 1 - (b - y - 1) * l) // (l + 1))
        else:
            v.append(b)
    return tuple(v)


def reference_midway(n, b):
    """midway_state's former (row, m2): one loop over the values 1..b-1 per
    case, then b^{l0}."""
    l0, x0 = _split(n, b)
    v = [0]
    if 2 * x0 >= b:
        m2 = b - x0 - 1
        z = 2 * b - 2 * x0 - 1
        for u in range(1, b):
            if u <= z:
                mult = l0 if u % 2 == 1 else l0 + 1
            else:
                mult = l0 + 1
            v.extend([u] * mult)
        v.extend([b] * l0)
    else:
        m2 = x0 - 1
        z = b - 2 * x0 + 1
        for u in range(1, b):
            if u <= z:
                mult = l0
            else:
                mult = l0 + 1 if (u - z) % 2 == 1 else l0
            v.extend([u] * mult)
        v.extend([b] * l0)
    return tuple(v), m2


def test_closed_forms_match_the_former_constructions():
    # every early form and midway form of n = 2..40, as multiplicity rows,
    # against the position formula and the loops they replaced; each early,
    # plateau and midway row, with its depth, passes CirculantState's order check
    early = midway = 0
    for n in range(2, 41):
        for b in range(1, n):
            l0, x0 = _split(n, b)
            for m in range(n - l0):
                v, depth = anfang_state(n, b, m)
                assert v == reference_anfang_v(n, b, m), (n, b, m)
                assert depth == max(0, b - m - 1)
                CirculantState((1,) * n, v, f=depth)
                early += 1
            CirculantState((1,) * n, defm1_state(n, b)[0])
            if 0 < x0 < b:
                v, m2 = midway_state(n, b)
                assert (v, m2) == reference_midway(n, b), (n, b)
                CirculantState((1,) * n, v)
                midway += 1
    assert (early, midway) == (18637, 662)


def reference_expand(state):
    """expand's former construction: row i is the slice g[n-1-i : 2n-1-i] of
    g, whose entry n - 1 + k is the matrix entry at j - i = k."""
    v, n = state.v, state.n
    g = tuple(x - v[-1] for x in v[1:]) + v
    return tuple(g[n - 1 - i : 2 * n - 1 - i] for i in range(n))


def reference_head_order_f(n, a):
    """head_order_f's former construction: slices of f(1 - n), ..., f(n - 1)."""
    f = _grading(n, a % n)
    g = tuple(f(k) for k in range(1 - n, n))
    return tuple(g[n - 1 - i : 2 * n - 1 - i] for i in range(n))


def reference_scaled_hereditary(n, a):
    """scaled_hereditary's former comprehension."""
    return tuple(tuple(a if j > i else 0 for j in range(n)) for i in range(n))


def test_twisted_matrices_match_the_former_constructions():
    # n = 1..24, a = -3..59: a * H_n, Lambda((0, a^{n-1})) and the reduced
    # start, and for 0 < b = a mod n the f-matrix and, for b not dividing n,
    # Lambda(w)
    cells = 0
    for n in range(1, 25):
        for a in range(-3, 60):
            cells += 1
            assert scaled_hereditary((1,) * n, a).M == reference_scaled_hereditary(n, a)
            if a < 1:
                continue
            for v in ((0,) + (a,) * (n - 1), initial_reduction(n, a)[0]):
                state = CirculantState((1,) * n, v)
                assert expand(state).M == reference_expand(state)
            b = a % n
            if b:
                assert head_order_f(n, a).M == reference_head_order_f(n, a)
            if b and n % b:
                w = head_order_w(n, b)
                assert expand(w).M == reference_expand(w)
    assert cells == 1512


def test_head_order_f_checks_dims():
    with pytest.raises(ValueError, match="dims must have one entry per block"):
        head_order_f(3, 1, dims=(1, 2))
    with pytest.raises(ValueError, match="dims must be positive"):
        head_order_f(3, 1, dims=(1, 0, 2))
    assert head_order_f(3, 1, dims=[2, 1, 3]).dims == (2, 1, 3)


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
    # (0 1)(2 3 4)(5) has order 6 on 6 labels but is not a 6-cycle
    dims6 = {i: 1 for i in range(6)}
    with pytest.raises(NotACycle):
        main2_type(6, 1, dims6, {0: 1, 1: 0, 2: 3, 3: 4, 4: 2, 5: 5})
    # a value that is not a label
    with pytest.raises(NotACycle):
        main2_type(3, 1, {0: 1, 1: 1, 2: 1}, {0: 1, 1: 2, 2: 7})
    # a start that is not a label
    with pytest.raises(NotACycle):
        main2_type(3, 1, {0: 1, 1: 1, 2: 1}, {0: 1, 1: 2, 2: 0}, start=3)


def reference_main2_type(n, a, dims, sigma, start=None):
    """main2_type as it was before it read the fibers: sigma^t and sigma^c
    walked through closures, after a separate n-cycle check."""
    x = first = next(iter(sigma), None)
    orbit = set()
    while x in sigma and x not in orbit:
        orbit.add(x)
        x = sigma[x]
    if not (n > 0 and len(sigma) == len(orbit) == n and x == first):
        raise NotACycle("not an n-cycle")
    d = gcd(n, a)
    t = n // d
    c = pow(a // d, -1, t) if t > 1 else 0

    def power(p, k):
        def apply(x):
            for _ in range(k):
                x = p[x]
            return x

        return apply

    tau = power(sigma, t)
    gamma = power(sigma, c)
    if start is None:
        start = min(sigma)
    grouped = []
    j = start
    for _ in range(t):
        orbit_sum = 0
        x = j
        for _ in range(d):
            orbit_sum += dims[x]
            x = tau(x)
        grouped.append(orbit_sum)
        j = gamma(j)
    return HereditaryType(t, tuple(grouped))


def _outcome(fn, *args):
    try:
        return fn(*args)
    except NotACycle:
        return NotACycle
    except KeyError:
        return KeyError


def test_main2_type_matches_closure_reference():
    rng = random.Random(29)
    kinds = {"type": 0, "not-a-cycle": 0, "start-not-a-label": 0}
    for _ in range(2000):
        labels = rng.sample(range(20), rng.randint(0, 7))
        if rng.random() < 0.5:
            # an n-cycle through the labels in a shuffled order
            order = rng.sample(labels, len(labels))
            succ = {order[k - 1]: x for k, x in enumerate(order)}
            images = [succ[x] for x in labels]
        else:
            images = rng.sample(labels, len(labels))
        if labels and rng.random() < 0.15:
            images[rng.randrange(len(labels))] = rng.choice((20, 21))
        sigma = dict(zip(labels, images))
        dims = {x: rng.randint(1, 4) for x in labels}
        n = len(labels) + (rng.random() < 0.1)
        a = rng.randint(0, 15)
        for start in [None, 20] + labels:
            want = _outcome(reference_main2_type, n, a, dims, sigma, start)
            if want is KeyError:
                # the closures failed on a start that is not a label
                assert start not in sigma
                want = NotACycle
                kinds["start-not-a-label"] += 1
            else:
                kinds["type" if want is not NotACycle else "not-a-cycle"] += 1
            assert _outcome(main2_type, n, a, dims, sigma, start) == want
    assert min(kinds.values()) >= 500, kinds


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
