"""Command line front end.

Commands operate on JSON documents (see serialize) read from --input, or on
(n, a) grids given with --grid.  Reports are JSON with sorted keys (or a
plain text rendering with --format pretty) and contain no timestamps, so
identical inputs produce byte-identical output.  Exit codes: 0 success or
agreement, 1 verified disagreement, 2 bad input.
"""

from __future__ import annotations

import argparse
import json
import sys

from . import serialize
from .amalgam import AmalgamBlock, amalgam_chain
from .brauer import PlanarBrauerTree, head_order_report
from .circulant import (
    CirculantState,
    anfang_state,
    defm1_state,
    expand,
    head_order_f,
    head_order_w,
    initial_reduction,
    midway_state,
    simple_module_match,
)
from .circulant import _split
from .errors import HeadOrderError, SchemaError
from .exponent import (
    ExponentOrder,
    equal_up_to_diag,
    equal_up_to_diag_and_rotation,
    glued_chain,
    is_hereditary,
    merge_unreduced,
    radical,
    scaled_hereditary,
)

COMMANDS = ("check", "radical", "chain", "head", "closed-form", "tree", "verify", "sweep")


def _read_input(arg):
    if arg is None:
        raise SchemaError("$", "this command requires --input")
    if arg == "-":
        return sys.stdin.read()
    with open(arg) as fh:
        return fh.read()


def _order_doc(order: ExponentOrder) -> dict:
    return serialize.to_document(order)


def _hereditary_doc(order: ExponentOrder):
    ht = is_hereditary(merge_unreduced(order))
    if ht is None:
        return None
    return {"blocks": ht.blocks, "grouped_dims": list(ht.grouped_dims)}


def _closed_form_tag(order: ExponentOrder, depth: int, n: int, a: int):
    """Which closed-form checkpoint of the (n, a) chain this state matches."""
    z, b = divmod(a, n)
    red, _ = initial_reduction(n, a, order.dims)
    if equal_up_to_diag(order.M, expand(red).M) and depth == red.f:
        tag = "reduced-start" if b else "maximal"
        return tag
    if b == 0:
        return None
    l0, x0 = _split(n, b)
    for m in range(n - l0):
        st = anfang_state(n, b, m, order.dims)
        if equal_up_to_diag(order.M, expand(st).M) and depth == st.f:
            return f"early-form(m={m})"
    st1, _ = defm1_state(n, b, order.dims)
    if equal_up_to_diag(order.M, expand(st1).M):
        return "first-plateau"
    if 0 < x0 < b:
        st2, m2 = midway_state(n, b, order.dims)
        if equal_up_to_diag(order.M, expand(st2).M):
            return f"midway(m2={m2})"
    if n % b != 0:
        w = head_order_w(n, b, order.dims)
        if equal_up_to_diag_and_rotation(order.M, expand(w).M):
            return "head"
    return None


def cmd_check(args):
    value = serialize.loads(_read_input(args.input))
    report = {"input_type": type(value).__name__, "valid": True}
    if isinstance(value, CirculantState):
        value = expand(value)
    if isinstance(value, ExponentOrder):
        report["reduced"] = value.is_reduced()
        report["hereditary"] = _hereditary_doc(value)
    return report, 0


def cmd_radical(args):
    value = serialize.loads(_read_input(args.input))
    if isinstance(value, CirculantState):
        value = expand(value)
    if not isinstance(value, ExponentOrder):
        raise SchemaError("$", "radical expects an exponent or circulant document")
    N = radical(value)
    return {"radical": [list(r) for r in N.N]}, 0


def _chain_of(value, max_steps):
    if isinstance(value, CirculantState):
        return glued_chain(expand(value), value.f, max_steps)
    if isinstance(value, ExponentOrder):
        return glued_chain(value, 0, max_steps)
    raise SchemaError("$", "chain expects an exponent, circulant or amalgam document")


def cmd_chain(args):
    value = serialize.loads(_read_input(args.input))
    if isinstance(value, AmalgamBlock):
        chain = amalgam_chain(value, args.max_steps)
        steps = []
        for k, state in enumerate(chain):
            steps.append(
                {
                    "step": k,
                    "components": [[list(r) for r in c.M] for c in state.components],
                    "depths": [g.depth for g in state.gluings],
                }
            )
        return {"steps": steps, "length": len(chain) - 1}, 0
    chain = _chain_of(value, args.max_steps)
    na = None
    if isinstance(value, CirculantState):
        v = value.v
        a = v[-1]
        if value.f == a and all(x in (0, a) for x in v) and a > 0:
            na = (value.n, a)
    steps = []
    for k, (order, depth) in enumerate(chain):
        entry = {"step": k, "matrix": [list(r) for r in order.M], "depth": depth}
        if na is not None:
            tag = _closed_form_tag(order, depth, *na)
            if tag:
                entry["matches"] = tag
        steps.append(entry)
    steps[-1]["hereditary"] = _hereditary_doc(chain[-1][0])
    return {"steps": steps, "length": len(chain) - 1}, 0


def cmd_head(args):
    value = serialize.loads(_read_input(args.input))
    if isinstance(value, AmalgamBlock):
        terminal = amalgam_chain(value, args.max_steps)[-1]
        return {
            "components": [
                {"matrix": [list(r) for r in c.M], "hereditary": _hereditary_doc(c)}
                for c in terminal.components
            ]
        }, 0
    chain = _chain_of(value, args.max_steps)
    head = chain[-1][0]
    return {
        "head": [list(r) for r in head.M],
        "steps": len(chain) - 1,
        "hereditary": _hereditary_doc(head),
    }, 0


def _params_from_input(args):
    doc = json.loads(_read_input(args.input))
    if not isinstance(doc, dict) or "n" not in doc or "a" not in doc:
        raise SchemaError("$", "closed-form expects an object with fields n and a")
    n, a = doc["n"], doc["a"]
    if not (isinstance(n, int) and isinstance(a, int) and n >= 2 and a >= 1):
        raise SchemaError("$", "need integers n >= 2 and a >= 1")
    dims = doc.get("dims")
    return n, a, tuple(dims) if dims else None


def cmd_closed_form(args):
    n, a, dims = _params_from_input(args)
    b = a % n
    report = {"n": n, "a": a, "b": b}
    if b:
        report["head_matrix"] = [list(r) for r in head_order_f(n, a, dims).M]
        if n % b:
            report["head_v"] = list(head_order_w(n, b, dims).v)
        report["simple_fibers"] = {
            str(j): list(f) for j, f in simple_module_match(n, a).items()
        }
    else:
        report["head_matrix"] = None
        report["note"] = "a is a multiple of n: the head order is maximal"
    return report, 0


def cmd_tree(args):
    value = serialize.loads(_read_input(args.input))
    if not isinstance(value, PlanarBrauerTree):
        raise SchemaError("$", "tree expects a tree document")
    return head_order_report(value), 0


def _verify_cell(n: int, a: int, oracle: bool):
    start = scaled_hereditary((1,) * n, a)
    chain = glued_chain(start, a)
    term = chain[-1][0]
    b = a % n
    ok = True
    detail = {}
    if b:
        hf = head_order_f(n, a)
        ok = equal_up_to_diag_and_rotation(term.M, hf.M)
        detail["head_f"] = [list(r) for r in hf.M]
        if n % b:
            w = head_order_w(n, b)
            ok = ok and equal_up_to_diag_and_rotation(term.M, expand(w).M)
            detail["head_v"] = list(w.v)
    else:
        merged = merge_unreduced(term)
        ok = merged.n == 1 and merged.M == ((0,),)
    detail["iterative_head"] = [list(r) for r in term.M]
    detail["steps"] = len(chain) - 1
    if oracle and n <= 3 and a <= 2:
        from .exponent import diag_conjugate, idealizer
        from .oracle import (
            model_from_exponent,
            oracle_idealizer,
            oracle_radical,
            read_exponents,
            truncation_for,
        )

        order = start
        pred = idealizer(order, radical(order))
        t = [pred.M[i][0] for i in range(n)]
        oshift = diag_conjugate(order, t)
        mx = max(2, oshift.max_entry())
        K = truncation_for(mx)
        model = model_from_exponent(oshift, 3, K)
        J = oracle_radical(model)
        got = read_exponents(
            oracle_idealizer(model, J), model.ambient, K - mx - 2
        )[0]
        want = [list(r) for r in diag_conjugate(pred, t).M]
        detail["oracle_first_step_agrees"] = got == want
        ok = ok and got == want
    return ok, detail


def cmd_verify(args):
    n, a, _ = _params_from_input(args)
    ok, detail = _verify_cell(n, a, args.oracle == "on")
    report = {"n": n, "a": a, "agree": ok}
    report.update(detail)
    return report, 0 if ok else 1


def _parse_grid(spec):
    try:
        parts = dict(p.split("=") for p in spec.split(","))
        nlo, nhi = (int(x) for x in parts["n"].split(".."))
        alo, ahi = (int(x) for x in parts["a"].split(".."))
    except (KeyError, ValueError) as exc:
        raise SchemaError("--grid", "expected n=<lo..hi>,a=<lo..hi>") from exc
    return nlo, nhi, alo, ahi


def cmd_sweep(args):
    if not args.grid:
        raise SchemaError("--grid", "sweep requires --grid")
    nlo, nhi, alo, ahi = _parse_grid(args.grid)
    disagreements = []
    cells = 0
    for n in range(nlo, nhi + 1):
        for a in range(alo, ahi + 1):
            ok, _ = _verify_cell(n, a, args.oracle == "on")
            cells += 1
            if not ok:
                disagreements.append({"n": n, "a": a})
    report = {
        "grid": {"n": [nlo, nhi], "a": [alo, ahi]},
        "cells": cells,
        "disagreements": disagreements,
        "agree": not disagreements,
    }
    return report, 0 if not disagreements else 1


def _render_pretty(doc, indent=0):
    pad = "  " * indent
    lines = []
    if isinstance(doc, dict):
        for key in sorted(doc):
            value = doc[key]
            if isinstance(value, (dict, list)) and value and not _is_flat(value):
                lines.append(f"{pad}{key}:")
                lines.extend(_render_pretty(value, indent + 1))
            else:
                lines.append(f"{pad}{key}: {json.dumps(value, sort_keys=True)}")
    elif isinstance(doc, list):
        for item in doc:
            if isinstance(item, (dict, list)) and item and not _is_flat(item):
                lines.append(f"{pad}-")
                lines.extend(_render_pretty(item, indent + 1))
            else:
                lines.append(f"{pad}- {json.dumps(item, sort_keys=True)}")
    else:
        lines.append(f"{pad}{json.dumps(doc, sort_keys=True)}")
    return lines if indent else "\n".join(lines)


def _is_flat(value):
    if isinstance(value, list):
        return all(not isinstance(x, (dict, list)) for x in value)
    return False


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="headorder",
        description="Radical idealizer chains and head orders via exponent matrices",
    )
    parser.add_argument("--command", required=True, choices=COMMANDS)
    parser.add_argument("--input", help="path to a JSON document, or - for stdin")
    parser.add_argument("--max-steps", type=int, default=None)
    parser.add_argument("--oracle", choices=("on", "off"), default="off")
    parser.add_argument("--grid", help="n=<lo..hi>,a=<lo..hi> (sweep)")
    parser.add_argument("--format", choices=("json", "pretty"), default="json")
    args = parser.parse_args(argv)

    handlers = {
        "check": cmd_check,
        "radical": cmd_radical,
        "chain": cmd_chain,
        "head": cmd_head,
        "closed-form": cmd_closed_form,
        "tree": cmd_tree,
        "verify": cmd_verify,
        "sweep": cmd_sweep,
    }
    try:
        report, code = handlers[args.command](args)
    except (HeadOrderError, OSError, json.JSONDecodeError) as exc:
        print(json.dumps({"error": str(exc)}, sort_keys=True), file=sys.stderr)
        return 2
    if args.format == "json":
        print(json.dumps(report, sort_keys=True, indent=1))
    else:
        print(_render_pretty(report))
    return code


if __name__ == "__main__":
    sys.exit(main())
