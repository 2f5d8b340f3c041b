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

Settling: a component that one step leaves unchanged while none of its
diagonal blocks carries a depth is left unchanged by every later step.
Proof: a block's depth is the largest depth of the diagonal gluings at it,
and gluing depths only fall and vanish, so its depths stay zero; with
zero depths the step is Id(J(.)), and the component is already its own
Id(J(.)).  A one-block component, ((0,),), is the maximal order and
settled from the start.  The chain steps no settled component.

Once every component of a state is settled, each later step keeps the
components and lowers every gluing depth by one, so the chain ends D moves
later, D the largest depth left, in the same components with no gluings.
amalgam_chain steps only up to that state and makes the D countdown
states when they are read.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass, field

from .errors import StepBudgetExceeded
from .exponent import (
    ExponentOrder,
    HereditaryType,
    default_step_budget,
    fixed_point_chain,
    glued_idealizer,
    is_hereditary,
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
    """Components glued by congruences.

    ``settled`` holds the indices of components that no later step moves
    (see the module docstring).  amalgam_idealizer_step sets it on the
    blocks it returns; any other block has it empty and is stepped in
    full.
    """

    components: tuple[ExponentOrder, ...]
    gluings: tuple[GluingConstraint, ...]
    params: tuple | None = None
    settled: frozenset = field(
        default=frozenset(), init=False, repr=False, compare=False
    )


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

    Components step through their constraint-aware idealizer using the
    depth each diagonal block currently carries; afterwards every gluing
    depth drops by one and exhausted gluings disappear.  Settled
    components are returned as they are, and the returned block records
    which components are settled.
    """
    depths = _depth_vectors(B)
    settled = B.settled
    components = []
    for c, comp in enumerate(B.components):
        if c not in settled:
            if comp.n == 1:
                settled |= {c}
            else:
                nxt = glued_idealizer(comp, radical(comp), depths[c])
                if nxt != comp:
                    comp = nxt
                elif not any(depths[c]):
                    settled |= {c}
        components.append(comp)
    return _lowered(B, tuple(components), settled, 1)


def _lowered(B: AmalgamBlock, components, settled, by: int) -> AmalgamBlock:
    """B with these components and settled set, every gluing depth lowered
    by ``by`` and the gluings it exhausts dropped."""
    gluings = tuple(
        GluingConstraint(g.left, g.right, g.depth - by, g.kinds)
        for g in B.gluings
        if g.depth > by
    )
    lowered = AmalgamBlock(components, gluings, B.params)
    object.__setattr__(lowered, "settled", settled)
    return lowered


class AmalgamChain(Sequence):
    """The states of an amalgam chain: the stepped ones, up to the first
    state whose components are all settled, then ``countdown`` more that
    only lower its gluing depths (module docstring), made when read."""

    def __init__(self, stepped, countdown: int):
        self._stepped = stepped
        self._len = len(stepped) + countdown

    def __len__(self) -> int:
        return self._len

    def __getitem__(self, k: int) -> AmalgamBlock:
        if k < 0:
            k += self._len
        if not 0 <= k < self._len:
            raise IndexError("amalgam chain index out of range")
        last = len(self._stepped) - 1
        if k <= last:
            return self._stepped[k]
        end = self._stepped[last]
        return _lowered(end, end.components, end.settled, k - last)

    def __eq__(self, other):
        return isinstance(other, Sequence) and list(self) == list(other)

    __hash__ = None


def amalgam_chain(B: AmalgamBlock, max_steps: int | None = None) -> AmalgamChain:
    """Iterate amalgam steps until exponents and gluings both stop moving.

    Steps run up to the first state whose components are all settled; the
    chain then makes as many more moves as its largest gluing depth (module
    docstring).  Raises StepBudgetExceeded if the moves exceed max_steps.
    """
    if max_steps is None:
        max_steps = max(default_step_budget(c) for c in B.components)
        max_steps += max((g.depth for g in B.gluings), default=0)

    def step(state):
        if len(state.settled) == len(state.components):
            return state
        return amalgam_idealizer_step(state)

    stepped = fixed_point_chain(step, B, max_steps)
    countdown = max((g.depth for g in stepped[-1].gluings), default=0)
    if len(stepped) - 1 + countdown > max_steps:
        raise StepBudgetExceeded(max_steps)
    return AmalgamChain(stepped, countdown)


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
