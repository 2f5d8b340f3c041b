"""Planar tree input for blocks with cyclic defect group.

A tree with a planar embedding (a cyclic edge order at every vertex) and a
marked exceptional vertex determines, for parameters (p, a), an amalgam of
graduated orders: one component per non-exceptional vertex plus a stack of
``a`` components over increasingly ramified base rings at the exceptional
vertex.  This module derives the edge permutations, builds that amalgam and
reports head-order data per component.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from math import gcd

from .amalgam import WHOLE, AmalgamBlock, GluingConstraint, validate_amalgam
from .circulant import main2_type, simple_module_match
from .errors import BadRotation, NotATree, NotCoprime
from .exponent import is_hereditary, merge_unreduced, scaled_hereditary, standard_hereditary
from .amalgam import amalgam_chain


@dataclass(frozen=True)
class PlanarBrauerTree:
    """Tree with rotations: edges as vertex pairs, one exceptional vertex.

    edges[i] = (u, v) and dims[i] is the multiplicity attached to edge i.
    rotations[w] lists the edges at vertex w in their cyclic planar order.
    m is the index of the character field descent and galois_r the induced
    shift, both 1 when no descent happens.
    """

    exceptional: int
    edges: tuple[tuple[int, int], ...]
    dims: tuple[int, ...]
    rotations: tuple[tuple[int, ...], ...]
    p: int
    a: int
    m: int = 1
    galois_r: int = 1

    @property
    def e(self) -> int:
        return len(self.edges)

    @property
    def n_vertices(self) -> int:
        return len(self.rotations)


def validate_tree(tree: PlanarBrauerTree) -> PlanarBrauerTree:
    e = tree.e
    nv = tree.n_vertices
    if e < 1:
        raise NotATree("need at least one edge")
    if nv != e + 1:
        raise NotATree(f"{nv} vertices with {e} edges is not a tree")
    if len(tree.dims) != e or any(d < 1 for d in tree.dims):
        raise ValueError("need one positive dim per edge")
    if not 0 <= tree.exceptional < nv:
        raise ValueError("exceptional vertex out of range")
    incident = [set() for _ in range(nv)]
    parent = list(range(nv))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for i, (u, v) in enumerate(tree.edges):
        if not (0 <= u < nv and 0 <= v < nv) or u == v:
            raise NotATree(f"edge {i} = ({u},{v}) is not a proper edge")
        incident[u].add(i)
        incident[v].add(i)
        ru, rv = find(u), find(v)
        if ru == rv:
            raise NotATree(f"edge {i} closes a cycle")
        parent[ru] = rv
    for w in range(nv):
        if set(tree.rotations[w]) != incident[w] or len(tree.rotations[w]) != len(
            incident[w]
        ):
            raise BadRotation(
                f"rotation at vertex {w} must list its incident edges once"
            )
    if tree.a < 1 or tree.p < 2:
        raise ValueError("need a >= 1 and p >= 2")
    for s in range(1, tree.a + 1):
        ram = tree.p**s - tree.p ** (s - 1)
        if ram % e != 0:
            raise ValueError(
                f"e = {e} does not divide p^{s} - p^{s-1} = {ram}"
            )
    if gcd(tree.galois_r, tree.m) != 1:
        raise NotCoprime("galois_r must be prime to m")
    return tree


def _distances(tree: PlanarBrauerTree) -> list[int]:
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


def derive_permutations(tree: PlanarBrauerTree):
    """Edge permutations delta, rho and the orbit list r_1..r_{a+e}.

    delta advances each edge to its rotation successor at its even-distance
    endpoint, rho at its odd-distance endpoint (every edge has one of
    each).  The orbit list starts with ``a`` copies of the exceptional
    vertex's cycle, then one cycle per non-exceptional vertex in vertex
    order.
    """
    validate_tree(tree)
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


def nonexceptional_vertices(tree: PlanarBrauerTree) -> tuple[int, ...]:
    return tuple(
        w for w in range(tree.n_vertices) if w != tree.exceptional
    )


def build_block(tree: PlanarBrauerTree) -> AmalgamBlock:
    """The amalgam of graduated orders attached to the tree.

    Components 0..a-1 sit over the exceptional vertex: each is the basic
    hereditary order on its edge cycle, over a ramified base of degree
    (p^s - p^{s-1})/e, successive ones glued as whole components at depth
    (p^{s-1} - 1)/e.  Components a..a+e-1 are a*H_deg(w) per non-exceptional
    vertex w.  Each edge glues its two diagonal blocks entrywise at depth
    a; on the exceptional side the congruence runs through the last (most
    ramified) stack component and carries no entrywise bound there.
    """
    validate_tree(tree)
    p, a, e = tree.p, tree.a, tree.e
    exc_cycle = tree.rotations[tree.exceptional]
    exc_dims = tuple(tree.dims[i] for i in exc_cycle)
    components = []
    for s in range(1, a + 1):
        ram = (p**s - p ** (s - 1)) // e
        components.append(standard_hereditary(exc_dims, ram=ram))
    vertex_of_component = {}
    for c, w in enumerate(nonexceptional_vertices(tree), start=a):
        cyc = tree.rotations[w]
        comp = scaled_hereditary(tuple(tree.dims[i] for i in cyc), a)
        components.append(comp)
        vertex_of_component[w] = c
    gluings = []
    for s in range(2, a + 1):
        y = (p ** (s - 1) - 1) // e
        gluings.append(
            GluingConstraint(
                (s - 2, WHOLE), (s - 1, WHOLE), y, ("matrix", "matrix")
            )
        )
    exc_pos = {i: q for q, i in enumerate(exc_cycle)}
    for i, (u, v) in enumerate(tree.edges):
        sides = []
        for w in (u, v):
            if w == tree.exceptional:
                sides.append(((a - 1, exc_pos[i]), "matrix"))
            else:
                c = vertex_of_component[w]
                sides.append(((c, tree.rotations[w].index(i)), "diagonal"))
        (lpos, lkind), (rpos, rkind) = sides
        gluings.append(GluingConstraint(lpos, rpos, a, (lkind, rkind)))
    return validate_amalgam(components, gluings, params=(p, a, e))


def hasse_invariant(r: int, m: int):
    """The pair (t, m) with r*t = 1 mod m and t in {1..m}."""
    if m < 1:
        raise ValueError("m must be positive")
    if gcd(r, m) != 1:
        raise NotCoprime(f"gcd({r}, {m}) != 1")
    t = pow(r, -1, m) if m > 1 else 1
    if t == 0:
        t = m
    return (t, m)


def head_order_report(tree: PlanarBrauerTree) -> dict:
    """Per-component head data: hereditary types, arithmetic predictions,
    simple-module fibers and the measured chain length."""
    delta, rho, orbits = derive_permutations(tree)
    dist = _distances(tree)
    block = build_block(tree)
    chain = amalgam_chain(block)
    terminal = chain[-1]
    a = tree.a
    comps = []
    for c, comp in enumerate(terminal.components):
        ht = is_hereditary(merge_unreduced(comp))
        if ht is None:
            raise RuntimeError("chain fixed point is not hereditary")
        entry = {
            "component": c,
            "exceptional": c < a,
            "blocks": ht.blocks,
            "grouped_dims": list(ht.grouped_dims),
        }
        comps.append(entry)
    for c, w in enumerate(nonexceptional_vertices(tree), start=a):
        cyc = tree.rotations[w]
        n = len(cyc)
        perm = delta if dist[w] % 2 == 0 else rho
        sigma = {i: perm[i] for i in cyc}
        dims = {i: tree.dims[i] for i in cyc}
        pred = main2_type(n, a, dims, sigma, start=cyc[0])
        comps[c]["predicted_blocks"] = pred.blocks
        comps[c]["predicted_dims"] = list(pred.grouped_dims)
        comps[c]["simple_fibers"] = {
            str(j): list(fiber)
            for j, fiber in simple_module_match(n, a).items()
        }
    report = {
        "chain_length": len(chain) - 1,
        "components": comps,
    }
    if tree.m > 1:
        t, m = hasse_invariant(tree.galois_r, tree.m)
        report["hasse"] = {"t": t, "m": m}
    return report
