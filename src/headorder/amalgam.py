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
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from .exponent import (
    ExponentOrder,
    HereditaryType,
    default_step_budget,
    fixed_point_chain,
    glued_idealizer,
    is_hereditary,
    merge_unreduced,
    radical,
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

    Components step through their constraint-aware idealizer using the
    depth each diagonal block currently carries; afterwards every gluing
    depth drops by one and exhausted gluings disappear.
    """
    depths = _depth_vectors(B)
    new_components = tuple(
        glued_idealizer(comp, radical(comp), depths[c])
        for c, comp in enumerate(B.components)
    )
    new_gluings = tuple(
        replace(g, depth=g.depth - 1) for g in B.gluings if g.depth > 1
    )
    return AmalgamBlock(new_components, new_gluings, B.params)


def amalgam_chain(B: AmalgamBlock, max_steps: int | None = None):
    """Iterate amalgam steps until exponents and gluings both stop moving."""
    if max_steps is None:
        max_steps = max(default_step_budget(c) for c in B.components)
        max_steps += max((g.depth for g in B.gluings), default=0)
    return fixed_point_chain(amalgam_idealizer_step, B, max_steps)


def block_head_order(B: AmalgamBlock) -> tuple[HereditaryType, ...]:
    """Hereditary type of each component of the chain's fixed point.

    Runs the amalgam chain to its end, merges isomorphic block repeats in
    each terminal component and reads off the hereditary shape.  The head
    order of the block is the direct sum of these components.
    """
    terminal = amalgam_chain(B)[-1]
    types = []
    for comp in terminal.components:
        ht = is_hereditary(merge_unreduced(comp))
        if ht is None:
            raise RuntimeError("chain fixed point is not hereditary")
        types.append(ht)
    return tuple(types)
