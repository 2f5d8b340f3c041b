"""Radical idealizer chains and head orders of graduated orders.

The package computes with orders over a discrete valuation ring entirely
through integer exponent matrices: radicals, idealizers, idealizer chains
with congruence constraints, closed-form chain checkpoints and head orders
for the cyclically symmetric family, blocks built from planar trees, and a
brute-force finite-algebra oracle certifying the formulas.
"""

__version__ = "0.1.0"
