"""Acceptance suite: one test and one printed pass/fail line per criterion.

Every comparison is exact (integer equality, exact span equality over
Z/p^K); nothing is approximate.  The two timed criteria print their
elapsed time as part of the status line.
"""

import random
import time
from itertools import product
from math import gcd

from headorder.amalgam import (
    WHOLE,
    GluingConstraint,
    amalgam_chain,
    block_head_order,
    validate_amalgam,
)
from headorder.brauer import (
    PlanarBrauerTree,
    build_block,
    hasse_invariant,
    head_order_report,
)
from headorder.circulant import (
    _split,
    certify_cell,
    chain_checkpoints,
    head_order_w,
    main2_type,
)
from headorder.exponent import (
    ExponentOrder,
    glued_chain,
    is_hereditary,
    merge_unreduced,
    scaled_hereditary,
    standard_hereditary,
)
from headorder.oracle import certify_chain
from test_brauer import derive_permutations

GRID = [(n, a) for n in range(2, 11) for a in range(1, 31)]

_chain_cache = {}


def chain_for(n, a):
    if (n, a) not in _chain_cache:
        start = scaled_hereditary((1,) * n, a)
        _chain_cache[(n, a)] = glued_chain(start, a)
    return _chain_cache[(n, a)]


def report(name, ok, extra=""):
    status = "PASS" if ok else "FAIL"
    print(f"{name}: {status}{' (' + extra + ')' if extra else ''}")
    assert ok, name


def test_c1_closed_form_head_order():
    t0 = time.time()
    ok = all(certify_cell(n, a, chain_for(n, a)) for n, a in GRID)
    elapsed = time.time() - t0
    report(
        "criterion 1, closed-form head order on the full grid",
        ok and elapsed < 10.0,
        f"{elapsed:.2f}s",
    )


def _paper_schedule(n, a):
    """(tag, step, depth) of every checkpoint the paper places on the chain."""
    z, b = divmod(a, n)
    if b == 0:
        return [("maximal", a, 0)]
    l0 = (n - 1) // b
    x0 = n - l0 * b
    out = [("reduced-start", z * n, b)]
    for m in range(n - l0):
        out.append((f"early-form(m={m})", z * n + m + 1, max(0, b - m - 1)))
    out.append(("first-plateau", z * n + n - l0, None))
    if 0 < x0 < b:
        m2 = b - x0 - 1 if 2 * x0 >= b else x0 - 1
        out.append((f"midway(m2={m2})", z * n + n - l0 + m2, None))
    if n % b:
        out.append(("head", None, None))
    return out


def test_c2_checkpoint_formulas():
    ok = all(
        [(cp.tag, cp.step, cp.depth) for cp in chain_checkpoints(n, a)]
        == _paper_schedule(n, a)
        and certify_cell(n, a, chain_for(n, a))
        for n, a in GRID
    )
    report("criterion 2, chain checkpoint formulas on the full grid", ok)


def _cyclic_equal(a, b):
    n = len(a)
    return len(b) == n and any(
        tuple(a[(i + r) % n] for i in range(n)) == tuple(b) for r in range(n)
    )


def test_c3_arithmetic_type():
    rng = random.Random(20240817)
    ok = True
    for n, a in GRID:
        perm = list(range(n))
        rng.shuffle(perm)
        sigma = {perm[k]: perm[(k + 1) % n] for k in range(n)}
        dims = {i: rng.randrange(1, 4) for i in range(n)}
        cyc = [perm[0]]
        while len(cyc) < n:
            cyc.append(sigma[cyc[-1]])
        term = chain_for(n, a)[-1][0]
        relabeled = ExponentOrder(tuple(dims[x] for x in cyc), term.M, term.ram)
        got = is_hereditary(merge_unreduced(relabeled))
        want = main2_type(n, a, dims, sigma, start=cyc[0])
        ok = (
            ok
            and got is not None
            and got.blocks == want.blocks == n // gcd(n, a)
            and _cyclic_equal(got.grouped_dims, want.grouped_dims)
        )
        if not ok:
            break
    report("criterion 3, arithmetic hereditary type vs iterative head", ok)


def _all_orders(n, maxent):
    offdiag = [(i, j) for i in range(n) for j in range(n) if i != j]
    for vals in product(range(maxent + 1), repeat=len(offdiag)):
        M = [[0] * n for _ in range(n)]
        for (i, j), v in zip(offdiag, vals):
            M[i][j] = v
        if all(
            M[i][k] + M[k][j] >= M[i][j]
            for i in range(n)
            for j in range(n)
            for k in range(n)
        ):
            yield ExponentOrder((1,) * n, tuple(tuple(r) for r in M))


def _amalgam_cases():
    one = ExponentOrder((1,), ((0,),))
    h2 = standard_hereditary((1, 1))
    h3 = standard_hereditary((1, 1, 1))
    ah2 = scaled_hereditary((1, 1), 2)
    cases = []
    for d in (1, 2):
        cases.append(validate_amalgam(
            [one, one], [GluingConstraint((0, 0), (1, 0), d)]))
    for d1, d2 in ((1, 1), (2, 1), (2, 2), (1, 2)):
        cases.append(validate_amalgam(
            [one, one, one],
            [GluingConstraint((0, 0), (1, 0), d1),
             GluingConstraint((1, 0), (2, 0), d2)]))
    cases.append(validate_amalgam(
        [ah2, ah2], [GluingConstraint((0, 0), (1, 0), 2)]))
    cases.append(validate_amalgam(
        [ah2, ah2],
        [GluingConstraint((0, 0), (1, 0), 2),
         GluingConstraint((0, 1), (1, 1), 2)]))
    cases.append(validate_amalgam(
        [h2, h2], [GluingConstraint((0, 0), (1, 0), 1)]))
    cases.append(validate_amalgam(
        [ah2, one], [GluingConstraint((0, 0), (1, 0), 1)]))
    cases.append(validate_amalgam(
        [ah2, one], [GluingConstraint((0, 0), (1, 0), 2)]))
    cases.append(validate_amalgam(
        [ah2, one, one],
        [GluingConstraint((0, 0), (1, 0), 2),
         GluingConstraint((0, 1), (2, 0), 2)]))
    for d in (1, 2):
        cases.append(validate_amalgam(
            [h2, h2],
            [GluingConstraint((0, WHOLE), (1, WHOLE), d, ("matrix", "matrix"))]))
    cases.append(validate_amalgam(
        [h3, h3],
        [GluingConstraint((0, WHOLE), (1, WHOLE), 2, ("matrix", "matrix"))]))
    cases.append(validate_amalgam(
        [h2, h2, h2],
        [GluingConstraint((0, WHOLE), (1, WHOLE), 2, ("matrix", "matrix")),
         GluingConstraint((1, WHOLE), (2, WHOLE), 1, ("matrix", "matrix"))]))
    return cases


def test_c4_oracle_certification():
    # each order as its one-component chain, then each amalgam's chain
    t0 = time.time()
    orders = [order for n in (1, 2, 3) for order in _all_orders(n, 2)]
    blocks = [validate_amalgam([order], []) for order in orders]
    amalgams = _amalgam_cases()
    ok = all(
        certify_chain(amalgam_chain(B), p) is None for B in blocks + amalgams for p in (2, 3)
    )
    elapsed = time.time() - t0
    report(
        "criterion 4, oracle certification of radical/idealizer/amalgam chains",
        ok and elapsed < 60.0,
        f"{len(orders)} orders, {len(amalgams)} amalgams, {elapsed:.1f}s",
    )


def test_c5_head_order_inequalities():
    ok = True
    for n in range(2, 65):
        for b in range(1, n):
            if n % b == 0:
                continue
            w = head_order_w(n, b).v
            l0, _ = _split(n, b)
            # ring closure in the three difference forms, s = j-i, t = k-j
            for s in range(1, n):
                for t in range(1, n - s):
                    i1 = b - w[n - t] <= w[s + t] - w[s] <= w[t]
                    i2 = b - w[n - s - t] <= w[t] - w[n - s] + b <= w[s + t]
                    i3 = b - w[n - s] <= w[n - t] - w[n - s - t] <= w[s]
                    if not (i1 and i2 and i3):
                        ok = False
            # hereditary steps
            for j in range(2, n + 1):
                if w[j - 1] + w[n + 1 - j] - b not in (0, 1):
                    ok = False
            # boundary values
            if any(w[k] != 1 for k in range(1, l0 + 1)):
                ok = False
            if any(w[n - k] != b for k in range(1, l0 + 1)):
                ok = False
            if w[n - l0 - 1] != b - 1:
                ok = False
        if not ok:
            break
    report("criterion 5, head-order inequality suite up to n = 64", ok)


def _labeled_trees(nv):
    """All labeled trees on nv vertices via their linear codes."""
    if nv == 1:
        return
    if nv == 2:
        yield ((0, 1),)
        return
    for code in product(range(nv), repeat=nv - 2):
        degree = [1] * nv
        for x in code:
            degree[x] += 1
        ptr = sorted(i for i in range(nv) if degree[i] == 1)
        import heapq

        heap = ptr[:]
        heapq.heapify(heap)
        deg = degree[:]
        edges = []
        for x in code:
            leaf = heapq.heappop(heap)
            edges.append((min(leaf, x), max(leaf, x)))
            deg[x] -= 1
            if deg[x] == 1:
                heapq.heappush(heap, x)
        u = heapq.heappop(heap)
        v = heapq.heappop(heap)
        edges.append((min(u, v), max(u, v)))
        yield tuple(edges)


def _rotation_choices(incident):
    """All cyclic orders of each vertex's incident edges (first entry fixed)."""
    from itertools import permutations

    per_vertex = []
    for inc in incident:
        if len(inc) <= 2:
            per_vertex.append([tuple(inc)])
        else:
            head, rest = inc[0], inc[1:]
            per_vertex.append([(head,) + p for p in permutations(rest)])
    for combo in product(*per_vertex):
        yield combo


def c6_trees(a_values=(1, 2)):
    """Every criterion-6 tree: e <= 4 edges with unit dims, every labeled
    tree, planar rotation and exceptional vertex, p in {3, 5, 7} with e
    dividing p - 1, and each a in a_values."""
    for e in range(1, 5):
        nv = e + 1
        primes = [p for p in (3, 5, 7) if (p - 1) % e == 0]
        for edges in _labeled_trees(nv):
            incident = [
                tuple(i for i, (u, v) in enumerate(edges) if w in (u, v))
                for w in range(nv)
            ]
            for rotations in _rotation_choices(incident):
                for exceptional in range(nv):
                    for p in primes:
                        for a in a_values:
                            yield PlanarBrauerTree(
                                exceptional=exceptional,
                                edges=edges,
                                dims=(1,) * e,
                                rotations=rotations,
                                p=p,
                                a=a,
                            )


def _c6_tree_agrees(tree):
    rep = head_order_report(tree)
    types = block_head_order(build_block(tree))
    # the report's sigma at w, the rotation successor, is delta or rho
    # restricted to w
    delta, rho, _ = derive_permutations(tree)
    for w, cyc in enumerate(tree.rotations):
        succ = {i: cyc[(k + 1) % len(cyc)] for k, i in enumerate(cyc)}
        if w != tree.exceptional and succ not in (
            {i: delta[i] for i in cyc},
            {i: rho[i] for i in cyc},
        ):
            return False
    for entry, ht in zip(rep["components"], types):
        if entry["blocks"] != ht.blocks or entry["grouped_dims"] != list(
            ht.grouped_dims
        ):
            return False
    for entry in rep["components"]:
        if entry["exceptional"]:
            continue
        if entry["blocks"] != entry["predicted_blocks"]:
            return False
        if entry["grouped_dims"] != entry["predicted_dims"]:
            return False
        fibers = entry["simple_fibers"]
        n = sum(len(f) for f in fibers.values())
        d = gcd(n, tree.a)
        seen = sorted(x for f in fibers.values() for x in f)
        if seen != list(range(n)):
            return False
        if any(len(f) != d for f in fibers.values()):
            return False
    return True


def test_c6_tree_pipeline():
    ok = True
    checked = 0
    for tree in c6_trees():
        ok = _c6_tree_agrees(tree)
        checked += 1
        if not ok:
            break
    report("criterion 6, tree pipeline agreement", ok, f"{checked} trees")


def test_c7_hasse_arithmetic():
    ok = True
    for m in range(1, 25):
        for r in range(1, m + 1):
            if gcd(r, m) != 1:
                continue
            t, mm = hasse_invariant(r, m)
            if mm != m or not 1 <= t <= m or (r * t) % m != 1 % m:
                ok = False
    report("criterion 7, division-algebra invariant arithmetic", ok)
