"""Glued sums of components and their idealizer chains."""

from dataclasses import replace

import pytest

from headorder import amalgam
from headorder.amalgam import (
    WHOLE,
    AmalgamBlock,
    GluingConstraint,
    _depth_vectors,
    amalgam_chain,
    amalgam_idealizer_step,
    block_head_order,
    validate_amalgam,
)
from headorder.brauer import PlanarBrauerTree, build_block
from headorder.errors import StepBudgetExceeded
from headorder.exponent import (
    ExponentOrder,
    fixed_point_chain,
    scaled_hereditary,
    standard_hereditary,
)
from headorder.serialize import dumps, loads
from test_acceptance import _amalgam_cases, c6_trees


def pair(depth, scale=1, kinds=("diagonal", "diagonal")):
    comp = scaled_hereditary((1, 1), scale)
    g = GluingConstraint((0, 0), (1, 0), depth, kinds)
    return validate_amalgam((comp, comp), (g,))


def test_validate_rejects_bad_refs():
    comp = standard_hereditary((1, 1))
    with pytest.raises(ValueError):
        validate_amalgam((comp,), (GluingConstraint((0, 0), (1, 0), 1),))
    with pytest.raises(ValueError):
        validate_amalgam((comp, comp), (GluingConstraint((0, 0), (1, 5), 1),))


def test_validate_rejects_dim_mismatch():
    a = standard_hereditary((2, 1))
    b = standard_hereditary((1, 1))
    with pytest.raises(ValueError):
        validate_amalgam((a, b), (GluingConstraint((0, 0), (1, 0), 1),))


def test_validate_rejects_depth_beyond_ring_closure():
    # gluing a diagonal block of H_2 at depth 2 is not multiplicatively
    # closed: the off-diagonal product lands at valuation 1 < 2
    comp = standard_hereditary((1, 1))
    with pytest.raises(ValueError):
        validate_amalgam((comp, comp), (GluingConstraint((0, 0), (1, 0), 2),))
    # depth 2 is fine once the component is 2 H_2
    pair(2, scale=2)


def test_validate_drops_depth_zero():
    B = pair(1)
    comp = B.components[0]
    g0 = GluingConstraint((0, 0), (1, 0), 0)
    assert validate_amalgam((comp, comp), (g0,)).gluings == ()


def test_validate_whole_requires_matrix_kind():
    comp = standard_hereditary((1, 1))
    with pytest.raises(ValueError):
        validate_amalgam(
            (comp, comp),
            (GluingConstraint((0, WHOLE), (1, WHOLE), 1, ("diagonal", "diagonal")),),
        )


def test_normalized_orientation():
    g = GluingConstraint((1, 0), (0, 0), 1, ("matrix", "diagonal"))
    ng = g.normalized()
    assert ng.left == (0, 0) and ng.kinds == ("diagonal", "matrix")


def test_step_reduces_depth_and_drops_exhausted():
    B = pair(2, scale=2)
    B1 = amalgam_idealizer_step(B)
    assert [g.depth for g in B1.gluings] == [1]
    B2 = amalgam_idealizer_step(B1)
    assert B2.gluings == ()


def test_depth_two_pair_steps_to_depth_one_pair():
    # one idealizer step of the depth-2 glued pair gives exactly the
    # depth-1 glued pair with the same component exponents
    B = pair(2, scale=2)
    B1 = amalgam_idealizer_step(B)
    C = pair(1, scale=2)
    assert [g.depth for g in B1.gluings] == [g.depth for g in C.gluings]
    assert all(a.M == b.M for a, b in zip(B1.components, C.components))


def test_chain_terminates_and_is_fixed():
    B = pair(2, scale=2)
    chain = amalgam_chain(B)
    last = chain[-1]
    again = amalgam_idealizer_step(last)
    assert all(a.M == b.M for a, b in zip(again.components, last.components))
    assert again.gluings == last.gluings
    assert last.gluings == ()


def test_glued_chain_slower_than_free():
    # the congruence delays the chain: compare terminal arrival times
    free = validate_amalgam((scaled_hereditary((1, 1), 2),), ())
    glued = pair(2, scale=2)
    assert len(amalgam_chain(glued)) >= len(amalgam_chain(free))


def test_block_head_order_hereditary_components():
    B = pair(2, scale=2)
    types = block_head_order(B)
    assert len(types) == 2
    for ht in types:
        assert sum(ht.grouped_dims) == 2


def test_three_component_star():
    c = scaled_hereditary((1, 1), 2)
    gl = (
        GluingConstraint((0, 0), (1, 0), 2),
        GluingConstraint((0, 1), (2, 0), 2),
    )
    B = validate_amalgam((c, c, c), gl)
    chain = amalgam_chain(B)
    assert chain[-1].gluings == ()
    types = block_head_order(B)
    assert len(types) == 3


def test_matrix_gluing_never_moves_exponents():
    comp = scaled_hereditary((1, 1), 2)
    g = GluingConstraint((0, WHOLE), (1, WHOLE), 2, ("matrix", "matrix"))
    B = validate_amalgam((comp, comp), (g,))
    B1 = amalgam_idealizer_step(B)
    free = amalgam_idealizer_step(validate_amalgam((comp,), ()))
    assert B1.components[0].M == free.components[0].M
    assert [g.depth for g in B1.gluings] == [1]


def test_params_round_along_chain():
    B = AmalgamBlock((scaled_hereditary((1, 1), 1),), (), params=(3, 1, 2))
    assert amalgam_idealizer_step(B).params == (3, 1, 2)


def _equivalence_blocks():
    trees = list(c6_trees((1, 2, 3)))
    blocks = [build_block(t) for t in trees]
    # one variant with non-unit dims per planar shape
    shapes = {(t.edges, t.rotations): t for t in reversed(trees) if t.a == 2}
    for t in shapes.values():
        blocks.append(build_block(replace(t, dims=tuple(range(2, t.e + 2)))))
    # labelings of one tree often build the same block: each is run once
    return dict.fromkeys(blocks + _amalgam_cases())


def test_chain_equals_chain_stepping_every_component():
    # the chains of the distinct components give the states of the
    # one-step listing, which steps every component on every move
    for B in _equivalence_blocks():
        chain = amalgam_chain(B)
        assert list(chain) == fixed_point_chain(amalgam_idealizer_step, B, len(chain) - 1)


def test_chain_states_compare_and_hash_by_structure():
    tree = PlanarBrauerTree(
        exceptional=1, edges=((0, 1), (0, 2)), dims=(1, 1),
        rotations=((0, 1), (0,), (1,)), p=5, a=2,
    )
    chain = amalgam_chain(build_block(tree))
    last = chain[-1]
    assert amalgam_idealizer_step(last) == last
    rebuilt = [
        AmalgamBlock(last.components, last.gluings, last.params),
        validate_amalgam(last.components, last.gluings, last.params),
        replace(last),
        loads(dumps(last)),
        amalgam_chain(build_block(tree))[-1],
    ]
    for block in rebuilt:
        assert block == last and hash(block) == hash(last)
    assert chain[-2] != last


def test_gluing_countdown_counts_every_move():
    # the one-edge tree with p = 7, a = 3 moves 48 times, most of them
    # only counting gluing depths down
    tree = PlanarBrauerTree(
        exceptional=0, edges=((0, 1),), dims=(1,), rotations=((0,), (0,)), p=7, a=3,
    )
    assert len(amalgam_chain(build_block(tree), max_steps=48)) == 49
    with pytest.raises(StepBudgetExceeded) as info:
        amalgam_chain(build_block(tree), max_steps=47)
    assert info.value.max_steps == 47


def test_equal_components_run_one_chain(monkeypatch):
    # the path with 4 edges, exceptional at a leaf: three equal a H_2 with
    # depth a on both blocks, whose chain runs once, and one-block
    # components, which run none
    calls = []
    real = amalgam.glued_chain
    monkeypatch.setattr(
        amalgam, "glued_chain", lambda *args: calls.append(args[:2]) or real(*args)
    )
    tree = PlanarBrauerTree(
        exceptional=0, edges=((0, 1), (1, 2), (2, 3), (3, 4)), dims=(1,) * 4,
        rotations=((0,), (0, 1), (1, 2), (2, 3), (3,)), p=5, a=3,
    )
    B = build_block(tree)
    assert B.components.count(scaled_hereditary((1, 1), 3)) == 3
    chain = amalgam_chain(B)
    assert calls == [(scaled_hereditary((1, 1), 3), 3)]
    assert list(chain) == fixed_point_chain(amalgam_idealizer_step, B, len(chain) - 1)


def test_components_differing_in_ram_run_one_chain(monkeypatch):
    # ram enters no exponent computation: 3 H_3 over three base rings, glued
    # at depth 2 to a fourth, runs one chain per depth vector, and every
    # state gives each component its own ram
    calls = []
    real = amalgam._component_chain
    monkeypatch.setattr(
        amalgam, "_component_chain", lambda *args: calls.append(args[:2]) or real(*args)
    )
    comps = [scaled_hereditary((1, 1, 1), 3, ram) for ram in (1, 2, 4, 2)]
    B = validate_amalgam(comps, [GluingConstraint((2, 0), (3, 0), 2)])
    chain = amalgam_chain(B)
    assert calls == [(comps[0], (0, 0, 0)), (comps[2], (2, 0, 0))]
    assert list(chain) == fixed_point_chain(amalgam_idealizer_step, B, len(chain) - 1)
    for state in chain:
        assert [c.ram for c in state.components] == [1, 2, 4, 2]


def test_unequal_depths_on_one_component():
    # two equal a H_2, one glued at depth 2 on block 0 only: their chains
    # step the depth vectors (2, 0) and (0, 0), and the chain is the
    # one-step listing
    ah2 = scaled_hereditary((1, 1), 2)
    B = validate_amalgam(
        [ah2, ah2, ExponentOrder((1,), ((0,),))], [GluingConstraint((0, 0), (2, 0), 2)]
    )
    assert _depth_vectors(B) == [[2, 0], [0, 0], [2]]
    chain = amalgam_chain(B)
    assert list(chain) == fixed_point_chain(amalgam_idealizer_step, B, len(chain) - 1)
    assert chain[1].components[0] != chain[1].components[1]


def test_depth_zero_gluing_goes_at_move_one():
    # validate_amalgam drops such a gluing; a block made without it still
    # has it at move 0 and not at move 1, as in the one-step listing
    h2 = standard_hereditary((1, 1))
    B = AmalgamBlock((h2, h2), (GluingConstraint((0, 0), (1, 0), 0),))
    chain = amalgam_chain(B)
    assert len(chain) == 2 and chain[0] is B and chain[1].gluings == ()
    assert list(chain) == fixed_point_chain(amalgam_idealizer_step, B, 1)
