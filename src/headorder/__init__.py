"""Radical idealizer chains and head orders of graduated orders.

The package computes with orders over a discrete valuation ring entirely
through integer exponent matrices: radicals, idealizers, idealizer chains
with congruence constraints, closed-form chain checkpoints and head orders
for the cyclically symmetric family, blocks built from planar trees, and a
brute-force finite-algebra oracle certifying the formulas.
"""

from .amalgam import (
    AmalgamBlock,
    GluingConstraint,
    amalgam_chain,
    amalgam_idealizer_step,
    block_head_order,
    validate_amalgam,
)
from .brauer import (
    PlanarBrauerTree,
    build_block,
    hasse_invariant,
    head_order_report,
)
from .circulant import (
    CirculantState,
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
from .exponent import (
    ExponentOrder,
    ExponentIdeal,
    HereditaryType,
    diag_conjugate,
    equal_up_to_diag,
    equal_up_to_diag_and_rotation,
    glued_chain,
    glued_idealizer,
    idealizer,
    idealizer_chain,
    is_hereditary,
    merge_unreduced,
    radical,
    scaled_hereditary,
    standard_hereditary,
    validate_order,
)

__version__ = "0.1.0"
