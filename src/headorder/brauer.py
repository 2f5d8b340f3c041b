"""Planar tree input for blocks with cyclic defect group.

A tree with a planar embedding (a cyclic edge order at every vertex) and a
marked exceptional vertex determines, for parameters (p, a), an amalgam of
graduated orders: one component per non-exceptional vertex plus a stack of
``a`` components over increasingly ramified base rings at the exceptional
vertex.  This module builds that amalgam and reports head-order data per
component.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd

from .amalgam import (
    WHOLE, AmalgamBlock, GluingConstraint, amalgam_chain, terminal_types, validate_amalgam,
)
from .circulant import main2_type, simple_module_match
from .errors import BadRotation, NotATree, NotCoprime
from .exponent import scaled_hereditary, standard_hereditary


@dataclass(frozen=True)
class PlanarBrauerTree:
    """Tree with rotations: edges as vertex pairs, one exceptional vertex.

    edges[i] = (u, v) and dims[i] is the multiplicity attached to edge i.
    rotations[w] lists the edges at vertex w in their cyclic planar order.
    m is the index of the character field descent and galois_r the induced
    shift, both 1 when no descent happens.  A tree is checked once, when it
    is made, so the functions below take it as valid.
    """

    exceptional: int
    edges: tuple[tuple[int, int], ...]
    dims: tuple[int, ...]
    rotations: tuple[tuple[int, ...], ...]
    p: int
    a: int
    m: int = 1
    galois_r: int = 1

    def __post_init__(self):
        validate_tree(self)

    @property
    def e(self) -> int:
        return len(self.edges)

    @property
    def n_vertices(self) -> int:
        return len(self.rotations)


# Miller-Rabin to the prime bases 2..37 is exact below PSI12 (Sorenson and Webster 2015)
PRIME_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
PSI12 = 318_665_857_834_031_151_167_461


def is_prime(p: int) -> bool:
    """Whether 2 <= p < PSI12 is prime."""
    if any(p % q == 0 for q in PRIME_BASES):
        return p in PRIME_BASES
    s = ((p - 1) & (1 - p)).bit_length() - 1  # 2^s exactly divides p - 1
    for q in PRIME_BASES:
        # a prime p has x = 1 or x^(2^k) = -1 for some k < s
        x = pow(q, (p - 1) >> s, p)
        if x != 1 and all(pow(x, 1 << k, p) != p - 1 for k in range(s)):
            return False
    return True


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
    # the vertex list of each component, shared by its vertices; a join
    # moves the shorter list, so each vertex moves O(log e) times
    component = [[w] for w in range(nv)]
    for i, (u, v) in enumerate(tree.edges):
        if not (0 <= u < nv and 0 <= v < nv) or u == v:
            raise NotATree(f"edge {i} = ({u},{v}) is not a proper edge")
        incident[u].add(i)
        incident[v].add(i)
        big, small = component[u], component[v]
        if big is small:
            raise NotATree(f"edge {i} closes a cycle")
        if len(big) < len(small):
            big, small = small, big
        big.extend(small)
        for w in small:
            component[w] = big
    for w in range(nv):
        if set(tree.rotations[w]) != incident[w] or len(tree.rotations[w]) != len(
            incident[w]
        ):
            raise BadRotation(
                f"rotation at vertex {w} must list its incident edges once"
            )
    if tree.a < 1 or tree.p < 2:
        raise ValueError("need a >= 1 and p >= 2")
    if tree.p >= PSI12:
        raise ValueError(f"p = {tree.p} is too large to test for primality")
    if not is_prime(tree.p):
        raise ValueError(f"p = {tree.p} is not prime")
    # e divides p^s - p^(s-1) = p^(s-1) (p - 1) for every s >= 1 iff it
    # divides the s = 1 term p - 1
    if (tree.p - 1) % e != 0:
        raise ValueError(f"e = {e} does not divide p^1 - p^0 = {tree.p - 1}")
    if tree.m < 1:
        raise ValueError("need m >= 1")
    if gcd(tree.galois_r, tree.m) != 1:
        raise NotCoprime("galois_r must be prime to m")
    return tree


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
    return (pow(r, -1, m) if m > 1 else 1, m)


def head_order_report(tree: PlanarBrauerTree) -> dict:
    """Per-component head data: hereditary types, arithmetic predictions,
    simple-module fibers and the measured chain length.

    sigma at a non-exceptional vertex w is delta or rho restricted to the
    edges at w, which is the rotation successor at w.
    """
    chain = amalgam_chain(build_block(tree))
    a = tree.a
    comps = [
        {
            "component": c,
            "exceptional": c < a,
            "blocks": ht.blocks,
            "grouped_dims": list(ht.grouped_dims),
        }
        for c, ht in enumerate(terminal_types(chain[-1]))
    ]
    for c, w in enumerate(nonexceptional_vertices(tree), start=a):
        cyc = tree.rotations[w]
        n = len(cyc)
        sigma = {i: cyc[(k + 1) % n] for k, i in enumerate(cyc)}
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
