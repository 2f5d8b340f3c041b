"""Planar trees, their permutations and the blocks they generate."""

import random
import time
from math import isqrt

import pytest

from headorder.amalgam import WHOLE, amalgam_chain, amalgam_idealizer_step
from headorder.brauer import (
    PSI12,
    PlanarBrauerTree,
    build_block,
    hasse_invariant,
    head_order_report,
    is_prime,
    nonexceptional_vertices,
    validate_tree,
)
from headorder.errors import BadRotation, NotATree, NotCoprime
from headorder.exponent import fixed_point_chain


def star(e, p, a, exceptional=0):
    # exceptional center, e leaves
    edges = tuple((0, i + 1) for i in range(e))
    rotations = (tuple(range(e)),) + tuple((i,) for i in range(e))
    return PlanarBrauerTree(
        exceptional=exceptional,
        edges=edges,
        dims=(1,) * e,
        rotations=rotations,
        p=p,
        a=a,
    )


def path3(p, a, exceptional=0):
    # vertices 0 - 1 - 2 - 3, edges 0, 1, 2
    return PlanarBrauerTree(
        exceptional=exceptional,
        edges=((0, 1), (1, 2), (2, 3)),
        dims=(1, 1, 1),
        rotations=((0,), (0, 1), (1, 2), (2,)),
        p=p,
        a=a,
    )


def test_validate_rejects_cycle():
    with pytest.raises(NotATree):
        PlanarBrauerTree(
            exceptional=0,
            edges=((0, 1), (1, 2), (2, 0)),
            dims=(1, 1, 1),
            rotations=((0, 2), (0, 1), (1, 2)),
            p=7,
            a=1,
        )
    # four vertices and three edges, but the edges close a cycle and leave
    # vertex 3 isolated
    with pytest.raises(NotATree, match="edge 2 closes a cycle"):
        PlanarBrauerTree(
            exceptional=0,
            edges=((0, 1), (1, 2), (2, 0)),
            dims=(1, 1, 1),
            rotations=((0, 2), (0, 1), (1, 2), ()),
            p=7,
            a=1,
        )


class DisjointSets:
    """Union-find over the indices 0..n-1; every root is the smallest index
    of its class.  The reference for the cycle check of validate_tree."""

    def __init__(self, n: int):
        self.parent = list(range(n))

    def find(self, i: int) -> int:
        parent = self.parent
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    def union(self, i: int, j: int) -> bool:
        """Join the classes of i and j; False if they were one class already."""
        ri, rj = self.find(i), self.find(j)
        if ri == rj:
            return False
        self.parent[max(ri, rj)] = min(ri, rj)
        return True


def reference_edge_error(edges, nv):
    """The first NotATree message of the edge loop, found by union-find."""
    sets = DisjointSets(nv)
    for i, (u, v) in enumerate(edges):
        if not (0 <= u < nv and 0 <= v < nv) or u == v:
            return f"edge {i} = ({u},{v}) is not a proper edge"
        if not sets.union(u, v):
            return f"edge {i} closes a cycle"
    return None


def test_validate_tree_matches_union_find():
    rng = random.Random(13)
    # keyed by the last word of the message: "... closes a cycle", "... edge"
    outcomes = {"ok": 0, "cycle": 0, "edge": 0}
    for _ in range(3000):
        nv = rng.randint(2, 12)
        if rng.random() < 0.4:
            # a random tree: vertex k joins an earlier one, then shuffled
            edges = [(rng.randrange(k), k) for k in range(1, nv)]
        else:
            edges = [tuple(rng.sample(range(nv), 2)) for _ in range(nv - 1)]
        rng.shuffle(edges)
        if rng.random() < 0.1:
            k = rng.randrange(nv - 1)
            edges[k] = (edges[k][0], rng.choice((-1, nv, edges[k][0])))
        e = len(edges)
        rotations = tuple(
            tuple(i for i, edge in enumerate(edges) if w in edge) for w in range(nv)
        )
        # the least prime p = 1 mod e, so that only the edges can fail
        p = next(q for q in range(e + 1, 10**4, e) if all(q % r for r in range(2, q)))
        want = reference_edge_error(edges, nv)
        try:
            PlanarBrauerTree(0, tuple(edges), (1,) * e, rotations, p, 1)
            got = None
        except NotATree as exc:
            got = str(exc)
        assert got == want
        outcomes["ok" if want is None else want.split()[-1]] += 1
    assert min(outcomes.values()) >= 200, outcomes


def test_validate_rejects_composite_p():
    # squares of primes need the trial division to reach isqrt(p)
    for p in (25, 49, 91):
        with pytest.raises(ValueError, match=f"p = {p} is not prime"):
            validate_tree(star(1, p, 2))
    assert validate_tree(star(2, 97, 1)).p == 97


def test_is_prime_matches_trial_division():
    def trial_division(p):
        return all(p % q for q in range(2, isqrt(p) + 1))

    assert all(is_prime(p) == trial_division(p) for p in range(2, 10**5))


def test_is_prime_rejects_strong_pseudoprimes():
    # Carmichael numbers, then the least strong pseudoprimes to the bases
    # 2..7, 2..11, 2..13, 2..17 and 2..31
    for n in (561, 41041, 3215031751, 2152302898747, 3474749660383,
              341550071728321, 3825123056546413051):
        assert not is_prime(n), n


def test_validate_rejects_p_beyond_exact_bases():
    # psi_12 is the least strong pseudoprime to all twelve bases 2..37
    assert PSI12 == 399_165_290_221 * 798_330_580_441
    with pytest.raises(ValueError) as exc:
        star(1, PSI12, 1)
    assert str(exc.value) == f"p = {PSI12} is too large to test for primality"
    assert star(1, 10**14 + 31, 1).p == 10**14 + 31
    assert star(2, 2**61 - 1, 1).p == 2**61 - 1


def test_validate_rejects_bad_rotation():
    t = star(2, 3, 1)
    with pytest.raises(BadRotation):
        PlanarBrauerTree(
            exceptional=0,
            edges=t.edges,
            dims=t.dims,
            rotations=((0, 0), (0,), (1,)),
            p=3,
            a=1,
        )


def test_validate_rejects_nondividing_e():
    with pytest.raises(ValueError):
        validate_tree(star(3, 5, 1))  # 3 does not divide 5 - 1 = 4


def test_validate_large_a_is_constant_time():
    # e | p^s - p^(s-1) for all s <= a is decided at s = 1, whatever a is
    t0 = time.perf_counter()
    assert validate_tree(star(2, 3, 10**6)).a == 10**6
    with pytest.raises(ValueError) as exc:
        validate_tree(star(3, 5, 10**6))
    assert time.perf_counter() - t0 < 1.0
    assert str(exc.value) == "e = 3 does not divide p^1 - p^0 = 4"


def test_validate_rejects_noncoprime_descent():
    t = star(2, 3, 1)
    with pytest.raises(NotCoprime):
        PlanarBrauerTree(
            exceptional=0,
            edges=t.edges,
            dims=t.dims,
            rotations=t.rotations,
            p=3,
            a=1,
            m=4,
            galois_r=2,
        )


def _distances(tree):
    adj = [[] for _ in range(tree.n_vertices)]
    for u, v in tree.edges:
        adj[u].append(v)
        adj[v].append(u)
    dist = [-1] * tree.n_vertices
    dist[tree.exceptional] = 0
    queue = [tree.exceptional]
    for w in queue:
        for x in adj[w]:
            if dist[x] < 0:
                dist[x] = dist[w] + 1
                queue.append(x)
    return dist


def derive_permutations(tree):
    """Edge permutations delta, rho and the orbit list r_1..r_{a+e}.

    delta advances each edge to its rotation successor at its even-distance
    endpoint, rho at its odd-distance endpoint (every edge has one of
    each).  The orbit list starts with ``a`` copies of the exceptional
    vertex's cycle, then one cycle per non-exceptional vertex in vertex
    order.  The reference for the sigma of head_order_report.
    """
    dist = _distances(tree)
    delta = {}
    rho = {}
    for w in range(tree.n_vertices):
        cyc = tree.rotations[w]
        target = delta if dist[w] % 2 == 0 else rho
        for k, i in enumerate(cyc):
            target[i] = cyc[(k + 1) % len(cyc)]
    orbits = [tuple(tree.rotations[tree.exceptional])] * tree.a
    for w in range(tree.n_vertices):
        if w != tree.exceptional:
            orbits.append(tuple(tree.rotations[w]))
    return delta, rho, tuple(orbits)


def test_permutations_star():
    t = star(3, 7, 1)
    delta, rho, orbits = derive_permutations(t)
    # the center is at distance 0: delta rotates its cycle, rho fixes leaves
    assert delta == {0: 1, 1: 2, 2: 0}
    assert rho == {0: 0, 1: 1, 2: 2}
    assert orbits == ((0, 1, 2), (0,), (1,), (2,))


def test_permutations_path():
    t = path3(7, 1)
    delta, rho, orbits = derive_permutations(t)
    # distances 0,1,2,3 from vertex 0: delta acts at vertices 0 and 2
    assert delta == {0: 0, 1: 2, 2: 1}
    assert rho == {0: 1, 1: 0, 2: 2}
    assert orbits[0] == (0,)


def test_delta_rho_cover_each_edge_once():
    for t in [star(2, 3, 2), path3(7, 2), path3(7, 1, exceptional=1)]:
        delta, rho, _ = derive_permutations(t)
        assert set(delta) == set(range(t.e))
        assert set(rho) == set(range(t.e))


def test_build_block_shapes():
    t = star(2, 3, 2)
    B = build_block(t)
    # a = 2 stack components plus one per leaf
    assert len(B.components) == 2 + 2
    assert B.components[0].ram == (3 - 1) // 2
    assert B.components[1].ram == (9 - 3) // 2
    assert B.params == (3, 2, 2)
    # one stack gluing plus one per edge
    stack = [g for g in B.gluings if g.right[1] == WHOLE]
    assert len(stack) == 1 and stack[0].depth == (3 - 1) // 2
    edge_gluings = [g for g in B.gluings if g.right[1] != WHOLE]
    assert len(edge_gluings) == 2
    assert all(g.depth == 2 for g in edge_gluings)


def test_build_block_leaf_components_scaled():
    t = star(2, 3, 2)
    B = build_block(t)
    for comp in B.components[2:]:
        assert comp.n == 1 and comp.M == ((0,),)


def test_report_star_consistency():
    t = star(2, 3, 1)
    report = head_order_report(t)
    comps = report["components"]
    assert len(comps) == 1 + 2
    assert comps[0]["exceptional"] is True
    for entry in comps[1:]:
        assert entry["blocks"] == entry["predicted_blocks"]
        assert entry["grouped_dims"] == entry["predicted_dims"]


def test_report_matches_chain_terminal():
    t = path3(7, 1, exceptional=1)
    report = head_order_report(t)
    chain = amalgam_chain(build_block(t))
    assert report["chain_length"] == len(chain) - 1


def _star_cases():
    # star trees, the exceptional vertex at the centre and at a leaf, for
    # p <= 11, every e | p - 1 and p^(a-1) <= 10^4
    for p in (2, 3, 5, 7, 11):
        for e in range(1, p):
            if (p - 1) % e == 0:
                a = 1
                while p ** (a - 1) <= 10**4:
                    yield star(e, p, a, 0)
                    yield star(e, p, a, 1)
                    a += 1


def test_chain_of_component_chains_equals_the_listing():
    # the chain made from the chains of its components equals the listing
    # of one amalgam step per move, state by state, and so does the report
    cases = list(_star_cases())
    assert len(cases) == 172
    for t in cases:
        B = build_block(t)
        listed = fixed_point_chain(amalgam_idealizer_step, B, 10**5)
        chain = amalgam_chain(B)
        assert len(chain) == len(listed)
        assert list(chain) == listed
        assert head_order_report(t)["chain_length"] == len(listed) - 1
    k = len(chain)
    assert chain[-1] == listed[-1] and chain[-k] == listed[0]
    for bad in (k, -k - 1):
        with pytest.raises(IndexError):
            chain[bad]


def test_report_of_a_deep_stack_lists_no_state():
    # the one-edge tree moves p^(a-1) - 1 times, nearly all of them
    # countdown moves that the report counts without making the states
    t0 = time.perf_counter()
    report = head_order_report(star(1, 3, 40))
    assert time.perf_counter() - t0 < 1
    assert report["chain_length"] == 3**39 - 1


def test_report_validates_tree_once(monkeypatch):
    import headorder.brauer as brauer

    calls = []
    checked = brauer.validate_tree
    monkeypatch.setattr(
        brauer, "validate_tree", lambda t: calls.append(t) or checked(t)
    )
    # a tree is checked once, when it is made, and never again
    t = path3(7, 1, exceptional=1)
    assert calls == [t]
    head_order_report(t)
    build_block(t)
    assert calls == [t]
    # so no invalid tree reaches the functions that take one
    with pytest.raises(BadRotation):
        PlanarBrauerTree(t.exceptional, t.edges, t.dims, ((1, 1),) + t.rotations[1:], 7, 1)
    assert len(calls) == 2


def test_report_hasse_field():
    t = star(2, 3, 1)
    desc = PlanarBrauerTree(
        exceptional=0,
        edges=t.edges,
        dims=t.dims,
        rotations=t.rotations,
        p=3,
        a=1,
        m=5,
        galois_r=2,
    )
    report = head_order_report(desc)
    assert report["hasse"] == {"t": 3, "m": 5}  # 2 * 3 = 6 = 1 mod 5


def test_nonexceptional_vertices():
    assert nonexceptional_vertices(star(3, 7, 1)) == (1, 2, 3)
    assert nonexceptional_vertices(path3(7, 1, exceptional=2)) == (0, 1, 3)


def test_hasse_invariant():
    assert hasse_invariant(1, 1) == (1, 1)
    assert hasse_invariant(3, 8) == (3, 8)
    assert hasse_invariant(2, 5) == (3, 5)
    with pytest.raises(NotCoprime):
        hasse_invariant(2, 4)
