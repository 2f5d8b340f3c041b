"""Command line front end.

Commands operate on JSON documents (see serialize) read from --input, or on
(n, a) grids given with --grid.  Reports are JSON with sorted keys (or a
plain text rendering with --format pretty) and contain no timestamps, so
identical inputs produce byte-identical output.  Exit codes: 0 success or
agreement, 1 verified disagreement, 2 bad input, 141 stdout closed before
the report was written.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from . import serialize
from .amalgam import AmalgamBlock, GluingConstraint, amalgam_chain, validate_amalgam
from .brauer import PlanarBrauerTree, head_order_report
from .circulant import (
    CirculantState,
    certify_cell,
    chain_checkpoints,
    expand,
    head_order_f,
    head_order_w,
    simple_module_match,
)
from .errors import HeadOrderError, SchemaError, StepBudgetExceeded
from .exponent import (
    ExponentOrder,
    glued_chain,
    is_hereditary,
    radical,
    scaled_hereditary,
    state_key,
)


def _read_input(arg):
    if arg is None:
        raise SchemaError("$", "this command requires --input")
    try:
        if arg == "-":
            return sys.stdin.read()
        with open(arg, encoding="utf-8") as fh:
            return fh.read()
    except UnicodeDecodeError as exc:
        raise SchemaError("$", f"input is not UTF-8 text: {exc}") from exc


def _hereditary_doc(order: ExponentOrder):
    ht = is_hereditary(order)
    if ht is None:
        return None
    return {"blocks": ht.blocks, "grouped_dims": list(ht.grouped_dims)}


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
    # the checkpoints of each state key, in schedule order
    index = {}
    if isinstance(value, CirculantState):
        a = value.v[-1]
        if value.f == a and all(x in (0, a) for x in value.v) and a > 0:
            for cp in chain_checkpoints(value.n, a):
                index.setdefault(cp.v, []).append(cp)
    steps = []
    for k, (order, depth) in enumerate(chain):
        entry = {"step": k, "matrix": [list(r) for r in order.M], "depth": depth}
        # the first checkpoint the state matches by content, whatever its step
        if index:
            candidates = index.get(state_key(chain, k)[0], ())
            tag = next((cp.tag for cp in candidates if cp.depth in (None, depth)), None)
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
    doc = serialize.read_json(_read_input(args.input))
    if not isinstance(doc, dict) or "n" not in doc or "a" not in doc:
        raise SchemaError("$", "closed-form expects an object with fields n and a")
    n, a = doc["n"], doc["a"]
    if not (serialize.is_int(n) and serialize.is_int(a) and n >= 2 and a >= 1):
        raise SchemaError("$", "need integers n >= 2 and a >= 1")
    dims = doc.get("dims")
    if dims is None:
        return n, a, None
    if not (
        isinstance(dims, list)
        and len(dims) == n
        and all(serialize.is_int(d) and d >= 1 for d in dims)
    ):
        raise SchemaError("$.dims", "expected a list of n positive integers")
    return n, a, tuple(dims)


def cmd_closed_form(args):
    n, a, dims = _params_from_input(args)
    b = a % n
    report = {"n": n, "a": a, "b": b}
    if b:
        report["head_matrix"] = [list(r) for r in head_order_f(n, a, dims).M]
        if n % b:
            report["head_v"] = list(head_order_w(n, b).v)
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


ORACLE_CAP = (7, 20)  # verify and sweep run the oracle at n <= 7 and a <= 20


def _verify_cell(n: int, a: int, oracle: bool, max_steps: int | None):
    """(verdict, chain, oracle detail) of the chain from a * H_n at depth a."""
    try:
        chain = glued_chain(scaled_hereditary((1,) * n, a), a, max_steps)
    except StepBudgetExceeded as exc:
        raise SchemaError("--max-steps", f"cell n = {n}, a = {a}: {exc}") from exc
    ok = certify_cell(n, a, chain)
    if not oracle or n > ORACLE_CAP[0] or a > ORACLE_CAP[1]:
        reason = "the oracle certifies only n <= %d and a <= %d" % ORACLE_CAP
        return ok, chain, {"oracle": {"ran": False, "reason": reason}} if oracle else {}
    from .oracle import certify_chain

    # state k is its order with a copy of H_1 glued to each block at the state's depth
    h1 = [ExponentOrder((1,), ((0,),))] * n
    blocks = [
        validate_amalgam([s, *h1], [GluingConstraint((0, q), (q + 1, 0), f) for q in range(n)])
        for s, f in chain
    ]
    k = certify_chain(blocks, 3)
    return ok and k is None, chain, {"oracle": {"ran": True, "first_disagreement": k}}


def cmd_verify(args):
    n, a, _ = _params_from_input(args)
    ok, chain, detail = _verify_cell(n, a, args.oracle == "on", args.max_steps)
    report = {"n": n, "a": a, "agree": ok, "steps": len(chain) - 1, **detail}
    report["iterative_head"] = [list(r) for r in chain[-1][0].M]
    if b := a % n:
        report["head_f"] = [list(r) for r in head_order_f(n, a).M]
        if n % b:
            report["head_v"] = list(head_order_w(n, b).v)
    return report, 0 if ok else 1


def _parse_grid(spec):
    try:
        pairs = [p.split("=") for p in spec.split(",")]
        parts = dict(pairs)
        nlo, nhi = (int(x) for x in parts["n"].split(".."))
        alo, ahi = (int(x) for x in parts["a"].split(".."))
    except (KeyError, ValueError) as exc:
        raise SchemaError("--grid", "expected n=<lo..hi>,a=<lo..hi>") from exc
    if len(pairs) != 2:
        raise SchemaError("--grid", "expected the keys n and a, once each")
    if nlo < 2 or alo < 1:
        raise SchemaError("--grid", "need n >= 2 and a >= 1")
    if nlo > nhi or alo > ahi:
        raise SchemaError("--grid", "empty range: need lo <= hi")
    return nlo, nhi, alo, ahi


def cmd_sweep(args):
    if not args.grid:
        raise SchemaError("--grid", "sweep requires --grid")
    nlo, nhi, alo, ahi = _parse_grid(args.grid)
    disagreements = []
    cells = 0
    for n in range(nlo, nhi + 1):
        for a in range(alo, ahi + 1):
            ok, _, _ = _verify_cell(n, a, args.oracle == "on", args.max_steps)
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
    """One line per item of a dict or list, headed "key:" or "-"; a nonempty
    dict, or a list holding a dict or list, goes on the lines below."""
    pad = "  " * indent
    if isinstance(doc, dict):
        items = [(f"{key}:", doc[key]) for key in sorted(doc)]
    else:
        items = [("-", item) for item in doc]
    lines = []
    for head, value in items:
        if isinstance(value, dict) and value or isinstance(value, list) and any(
            isinstance(x, (dict, list)) for x in value
        ):
            lines.append(f"{pad}{head}")
            lines.extend(_render_pretty(value, indent + 1))
        else:
            lines.append(f"{pad}{head} {json.dumps(value, sort_keys=True)}")
    return lines if indent else "\n".join(lines)


HANDLERS = {
    "check": cmd_check,
    "radical": cmd_radical,
    "chain": cmd_chain,
    "head": cmd_head,
    "closed-form": cmd_closed_form,
    "tree": cmd_tree,
    "verify": cmd_verify,
    "sweep": cmd_sweep,
}

PARSER = argparse.ArgumentParser(
    prog="headorder",
    description="Radical idealizer chains and head orders via exponent matrices",
)
PARSER.add_argument("--command", required=True, choices=HANDLERS)
PARSER.add_argument("--input", help="path to a JSON document, or - for stdin")
PARSER.add_argument(
    "--max-steps", type=int, default=None, help="move budget (chain, head, each verify/sweep cell)"
)
PARSER.add_argument("--oracle", choices=("on", "off"), default="off")
PARSER.add_argument("--grid", help="n=<lo..hi>,a=<lo..hi> (sweep)")
PARSER.add_argument("--format", choices=("json", "pretty"), default="json")


def main(argv=None) -> int:
    args = PARSER.parse_args(argv)
    try:
        if args.max_steps is not None:
            if args.command not in ("chain", "head", "verify", "sweep"):
                raise SchemaError("--max-steps", f"{args.command} takes no step budget")
            if args.max_steps < 0:
                raise SchemaError("--max-steps", "need an integer >= 0")
        report, code = HANDLERS[args.command](args)
    except (HeadOrderError, OSError) as exc:
        print(json.dumps({"error": str(exc)}, sort_keys=True), file=sys.stderr)
        return 2
    if args.format == "json":
        text = serialize.render(report)
    else:
        text = _render_pretty(report)
    try:
        print(text)
        sys.stdout.flush()
    except BrokenPipeError:
        # The reader closed the pipe.  Point stdout at os.devnull so that the
        # interpreter's final flush of the unwritten rest stays quiet, and
        # exit as a process killed by SIGPIPE would.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return 141
    return code


if __name__ == "__main__":
    sys.exit(main())
