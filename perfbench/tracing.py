"""Spans around the public functions of each layer module, from outside ``src/``.

A span is recorded at every call of a listed function: group, start, end,
parent span and operation id.  Spans stay in memory (flat arrays) until the
run ends.  A group's ``calls`` counts entries into the group from outside it
(a call nested in a call of the same group is not counted again); its
``self_s`` is the time its spans cover minus the time their child spans
cover, so nested work is attributed to the innermost listed function.
"""

from __future__ import annotations

import functools
import sys
from array import array
from time import perf_counter

# group -> (module, functions).  A function is wrapped at every module
# attribute that holds it, because several modules bind ``from .x import f``.
GROUPS = {
    "exponent.idealizer": ("exponent", ("idealizer", "glued_idealizer")),
    "exponent.radical": ("exponent", ("_radical_general", "radical")),
    "exponent.chain": ("exponent", ("glued_chain", "idealizer_chain")),
    "exponent.compare": ("exponent", (
        "equal_up_to_diag", "equal_up_to_diag_and_rotation", "is_hereditary",
        "merge_unreduced", "diag_conjugate",
    )),
    "circulant.closed_form": ("circulant", (
        "expand", "initial_reduction", "anfang_state", "defm1_state",
        "midway_state", "head_order_w", "head_order_f", "main2_type",
        "simple_module_match",
    )),
    "amalgam.step": ("amalgam", ("amalgam_idealizer_step",)),
    "amalgam.chain": ("amalgam", ("amalgam_chain",)),
    "amalgam.validate": ("amalgam", ("validate_amalgam",)),
    "brauer.validate_tree": ("brauer", ("validate_tree",)),
    "brauer.build_block": ("brauer", ("build_block",)),
    "brauer.report": ("brauer", ("head_order_report",)),
    "oracle.build_model": ("oracle", ("model_from_exponent", "model_from_amalgam", "build_model")),
    "oracle.radical": ("oracle", ("oracle_radical",)),
    "oracle.radical_modp": ("oracle", ("radical_modp",)),
    "oracle.idealizer": ("oracle", ("oracle_idealizer",)),
    "oracle.read_back": ("oracle", ("read_exponents", "spans_agree")),
    "modular.charpoly": ("modular", ("charpoly_modp",)),
    "modular.howell": ("modular", ("howell",)),
    "modular.right_kernel": ("modular", ("right_kernel", "annihilator")),
    "modular.nullspace": ("modular", ("nullspace_modp", "rref_modp")),
    "modular.reduce": ("modular", ("reduce_against", "in_span")),
    "serialize.loads": ("serialize", ("loads", "from_document")),
    "serialize.dumps": ("serialize", ("dumps", "to_document")),
    "cli.main": ("cli", ("main",)),
}

# (name, unit, better) of every per-layer metric, in report order.  These
# three groups are reported by self time alone.
_SELF_ONLY = ("brauer.build_block", "brauer.report", "oracle.read_back")
PER_LAYER = [
    m
    for g in GROUPS
    for m in ([] if g in _SELF_ONLY else [(f"{g}.calls", "count", "lower")])
    + [(f"{g}.self_s", "s", "lower")]
] + [
    ("amalgam.chain_runs_per_tree", "ratio", "lower"),
    ("brauer.validations_per_tree", "ratio", "lower"),
    ("oracle.model_rank.max", "count", "lower"),
    ("oracle.model_rank.sum", "count", "lower"),
    ("oracle.K.max", "count", "lower"),
    ("cli.exit.0", "count", "higher"),
    ("cli.exit.1", "count", "lower"),
    ("cli.exit.2", "count", "higher"),
    ("cli.malformed_unrejected", "count", "lower"),
    ("trace.untraced_s", "s", "lower"),
    ("trace.traced_s", "s", "lower"),
    ("trace.overhead_s", "s", "lower"),
    ("trace.spans", "count", "lower"),
]


class Tracer:
    """Wraps the listed functions of a loaded package and records spans."""

    def __init__(self, ho):
        self.ho = ho
        self.groups = list(GROUPS)
        self.group = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.op = array("i")
        self.stack = []
        self.op_id = 0
        self.ranks = []
        self.truncations = []
        self.exits = {}
        self._patches = []

    def _wrap(self, gid, fn):
        group, start, end, parent, op, stack = (
            self.group, self.start, self.end, self.parent, self.op, self.stack
        )

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(group)
            group.append(gid)
            parent.append(stack[-1] if stack else -1)
            op.append(self.op_id)
            start.append(0.0)
            end.append(0.0)
            stack.append(idx)
            t0 = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                stack.pop()
                start[idx] = t0
                end[idx] = t1

        return wrapper

    def _observe_model(self, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            model = fn(*args, **kwargs)
            self.ranks.append(model.rank)
            self.truncations.append(model.ambient.K)
            return model

        return wrapper

    def _observe_exit(self, fn):
        exits = self.exits

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            code = 1  # an exception escaping main exits 1
            try:
                code = fn(*args, **kwargs)
                return code
            except SystemExit as exc:
                code = exc.code if isinstance(exc.code, int) else 1
                raise
            finally:
                exits[code] = exits.get(code, 0) + 1

        return wrapper

    def install(self):
        modules = [m for name, m in sys.modules.items()
                   if name == "headorder" or name.startswith("headorder.")]
        for gid, name in enumerate(self.groups):
            modname, fns = GROUPS[name]
            home = getattr(self.ho, modname)
            for fname in fns:
                orig = getattr(home, fname)
                wrapped = self._wrap(gid, orig)
                if fname == "build_model":
                    wrapped = self._observe_model(wrapped)
                elif fname == "main":
                    wrapped = self._observe_exit(wrapped)
                for mod in modules:
                    for attr, value in list(vars(mod).items()):
                        if value is orig:
                            self._patches.append((mod, attr, orig))
                            setattr(mod, attr, wrapped)

    def remove(self):
        for mod, attr, orig in reversed(self._patches):
            setattr(mod, attr, orig)
        self._patches.clear()

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.remove()

    def layer_metrics(self) -> dict:
        """calls and self_s per group, from the recorded spans."""
        n = len(self.group)
        child = [0.0] * n
        for i in range(n):
            p = self.parent[i]
            if p >= 0:
                child[p] += self.end[i] - self.start[i]
        calls = [0] * len(self.groups)
        self_s = [0.0] * len(self.groups)
        for i in range(n):
            g = self.group[i]
            p = self.parent[i]
            if p < 0 or self.group[p] != g:
                calls[g] += 1
            self_s[g] += self.end[i] - self.start[i] - child[i]
        out = {}
        for gid, name in enumerate(self.groups):
            out[f"{name}.calls"] = calls[gid]
            out[f"{name}.self_s"] = self_s[gid]
        out["oracle.model_rank.max"] = max(self.ranks, default=0)
        out["oracle.model_rank.sum"] = sum(self.ranks)
        out["oracle.K.max"] = max(self.truncations, default=0)
        out["trace.spans"] = n
        return out

    def write(self, path, t0: float):
        """Write every span as CSV, times in seconds from t0."""
        with open(path, "w") as fh:
            fh.write("span,name,start_s,end_s,parent,op\n")
            for i in range(len(self.group)):
                fh.write(
                    f"{i},{self.groups[self.group[i]]},{self.start[i] - t0:.9f},"
                    f"{self.end[i] - t0:.9f},{self.parent[i]},{self.op[i]}\n"
                )
