"""Subdirect sums of graduated orders glued by congruences, and their chains.

An AmalgamBlock is a tuple of components (each an ExponentOrder) together
with gluing constraints.  A gluing identifies a diagonal block of one
component with a diagonal block of another modulo the depth-th power of the
uniformizer.  Two congruence flavors appear:

- "diagonal": entrywise congruence on the glued diagonal blocks.  This is
  the flavor that slows the idealizer chain; it contributes the cross-term
  lower bound implemented in exponent.glued_idealizer.  It is only a ring
  when m[q][k] + m[k][q] >= depth for the glued index q, which validation
  enforces.
- "matrix": congruence modulo a power of the radical between whole
  components (both hereditary in every use here).  It never moves the
  component exponents; only its depth counts down.

Both flavors lose exactly one level of depth per idealizer step and the
constraint disappears at depth 0, splitting the components.

The components never interact.  A step moves component c to Id(J(c)),
glued_idealizer(c, depths), depths[q] the largest depth of the
diagonal gluings at block q (0 if none), then lowers every gluing depth by
one.  So after k moves gluing g is at depth g.depth - k while that is
positive, gone afterwards, and block q carries max(D_q - k, 0), D_q its
largest diagonal gluing depth at the start: a function of the start and k
alone.  Hence component c moves as the chain of (order, depths) pairs that
steps the order at its depths and lowers each depth by one, floored at 0,
and is at its move min(k, L_c) after k moves of the amalgam, L_c the moves
of that chain.  A state equals its successor iff it has no gluing left and
each component stays; once the depths are 0 a component that stays, stays.
So the amalgam chain makes max(G, max L_c) moves, G the largest gluing
depth, and its state k is each component at move min(k, L_c) with the
start's gluings lowered by k.  amalgam_chain runs one chain per distinct
(dims, exponent matrix, depths), since a component's ram enters no exponent
computation, and makes a state when it is read.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import StepBudgetExceeded
from .exponent import (
    ExponentOrder,
    HereditaryType,
    LazyChain,
    default_step_budget,
    fixed_point_chain,
    glued_chain,
    glued_idealizer,
    is_hereditary,
)

KINDS = ("diagonal", "matrix")

WHOLE = -1  # block index standing for the whole component (matrix gluings)


@dataclass(frozen=True)
class GluingConstraint:
    """Congruence between block ``left`` and block ``right`` at given depth.

    left and right are (component index, diagonal block index) pairs; a
    block index of WHOLE glues entire components.  kinds gives the flavor
    seen from each side; a "matrix" side never affects that component's
    exponents.
    """

    left: tuple[int, int]
    right: tuple[int, int]
    depth: int
    kinds: tuple[str, str] = ("diagonal", "diagonal")

    def normalized(self) -> "GluingConstraint":
        if self.left > self.right:
            return GluingConstraint(
                self.right, self.left, self.depth, (self.kinds[1], self.kinds[0])
            )
        return self


@dataclass(frozen=True)
class AmalgamBlock:
    """Components glued by congruences."""

    components: tuple[ExponentOrder, ...]
    gluings: tuple[GluingConstraint, ...]
    params: tuple | None = None


def validate_amalgam(components, gluings, params=None) -> AmalgamBlock:
    """Check gluing references, matching dims and ring closure, then wrap.

    Depth-0 gluings are dropped (they constrain nothing).  Gluings are
    stored in a canonical orientation (smaller endpoint first) and sorted.
    """
    components = tuple(components)
    if not components:
        raise ValueError("need at least one component")
    norm = []
    for g in gluings:
        if g.depth < 0:
            raise ValueError("gluing depth must be nonnegative")
        if g.depth == 0:
            continue
        if g.left == g.right:
            raise ValueError(f"gluing joins block {g.left} to itself")
        for kind in g.kinds:
            if kind not in KINDS:
                raise ValueError(f"unknown gluing kind {kind!r}")
        for (c, q), kind in zip((g.left, g.right), g.kinds):
            if not 0 <= c < len(components):
                raise ValueError(f"gluing references missing component {c}")
            comp = components[c]
            if q == WHOLE:
                if kind != "matrix":
                    raise ValueError("whole-component gluing must be matrix kind")
                continue
            if not 0 <= q < comp.n:
                raise ValueError(f"gluing references missing block ({c},{q})")
            if kind == "diagonal":
                for k in range(comp.n):
                    if k != q and comp.M[q][k] + comp.M[k][q] < g.depth:
                        raise ValueError(
                            f"diagonal gluing depth {g.depth} at ({c},{q}) "
                            f"breaks ring closure: m[{q}][{k}] + m[{k}][{q}]"
                            f" = {comp.M[q][k] + comp.M[k][q]}"
                        )
        lc, lq = g.left
        rc, rq = g.right
        if lq != WHOLE and rq != WHOLE:
            if components[lc].dims[lq] != components[rc].dims[rq]:
                raise ValueError(
                    f"glued blocks ({lc},{lq}) and ({rc},{rq}) have unequal dims"
                )
        norm.append(g.normalized())
    norm.sort(key=lambda g: (g.left, g.right, g.depth, g.kinds))
    return AmalgamBlock(components, tuple(norm), params)


def _depth_vectors(B: AmalgamBlock) -> list[list[int]]:
    """Per component, the diagonal-congruence depth seen by each block."""
    depths = [[0] * comp.n for comp in B.components]
    for g in B.gluings:
        for (c, q), kind in zip((g.left, g.right), g.kinds):
            if kind == "diagonal" and q != WHOLE:
                depths[c][q] = max(depths[c][q], g.depth)
    return depths


def amalgam_idealizer_step(B: AmalgamBlock) -> AmalgamBlock:
    """One idealizer-of-radical step of the whole amalgam.

    Every component steps through its constraint-aware idealizer at the
    depth each diagonal block currently carries (a one-block component is
    the maximal order, which every step keeps); then every gluing depth
    drops by one and exhausted gluings disappear.  amalgam_chain makes the
    same states without it (module docstring).
    """
    components = tuple(
        comp if comp.n == 1 else glued_idealizer(comp, depths)
        for comp, depths in zip(B.components, _depth_vectors(B))
    )
    return _lowered(B, components, 1)


def _lowered(B: AmalgamBlock, components, by: int) -> AmalgamBlock:
    """B with these components, every gluing depth lowered by ``by`` and
    the gluings it exhausts dropped."""
    gluings = tuple(
        GluingConstraint(g.left, g.right, g.depth - by, g.kinds)
        for g in B.gluings
        if g.depth > by
    )
    return AmalgamBlock(components, gluings, B.params)


def _component_chain(comp: ExponentOrder, depths: tuple[int, ...], max_steps: int):
    """The (order, depths) chain of one component (module docstring)."""
    if comp.n == 1:
        return [(comp, depths)]  # the maximal order: every step keeps it
    if depths.count(depths[0]) == comp.n:
        return glued_chain(comp, depths[0], max_steps)

    def step(state):
        order, ds = state
        return glued_idealizer(order, ds), tuple(max(d - 1, 0) for d in ds)

    return fixed_point_chain(step, (comp, depths), max_steps)


def amalgam_chain(B: AmalgamBlock, max_steps: int | None = None) -> LazyChain:
    """Iterate amalgam steps until exponents and gluings both stop moving.

    Runs one chain per distinct (dims, exponent matrix, depths) and makes
    each state when it is read (module docstring).  Raises
    StepBudgetExceeded if the moves exceed max_steps.
    """
    if max_steps is None:
        max_steps = max(default_step_budget(c) for c in B.components)
        max_steps += max((g.depth for g in B.gluings), default=0)
    if max_steps < 0:
        raise ValueError("max_steps must be >= 0")
    # components that differ in ram alone share a chain; each gets its ram
    # back when a state is read
    keys = [(c.dims, c.M, tuple(d)) for c, d in zip(B.components, _depth_vectors(B))]
    chains = {}
    for key, comp in zip(keys, B.components):
        if key not in chains:
            chains[key] = _component_chain(comp, key[2], max_steps)
    runs = [chains[key] for key in keys]
    # a gluing of depth <= 0 (validate_amalgam drops them) goes at move 1
    moves = max([max(g.depth, 1) for g in B.gluings] + [len(r) - 1 for r in runs])
    if moves > max_steps:
        raise StepBudgetExceeded(max_steps)

    def state(k):
        if k == 0:
            return B
        components = []
        for comp, r in zip(B.components, runs):
            c = r[min(k, len(r) - 1)][0]
            components.append(c if c.ram == comp.ram else ExponentOrder(c.dims, c.M, comp.ram))
        return _lowered(B, tuple(components), k)

    return LazyChain(moves + 1, state)


def terminal_types(terminal: AmalgamBlock) -> tuple[HereditaryType, ...]:
    """Hereditary type of each component of a chain's fixed point.

    Isomorphic block repeats share one block of the type.
    """
    types = []
    for comp in terminal.components:
        ht = is_hereditary(comp)
        if ht is None:
            raise RuntimeError("chain fixed point is not hereditary")
        types.append(ht)
    return tuple(types)


def block_head_order(B: AmalgamBlock) -> tuple[HereditaryType, ...]:
    """Hereditary type of each component of the chain's fixed point.

    The head order of the block is the direct sum of these components.
    """
    return terminal_types(amalgam_chain(B)[-1])
