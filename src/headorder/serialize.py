"""JSON schemas for the typed values and their round-trip (de)serialization.

Every document carries a "type" discriminator and a "schema_version".
Serialization is deterministic: keys are emitted in sorted order and all
values are plain integers, strings, lists and objects.  ``render`` writes
documents and the CLI's reports alike.
"""

from __future__ import annotations

import json

from .amalgam import AmalgamBlock, GluingConstraint, validate_amalgam
from .brauer import PlanarBrauerTree
from .circulant import CirculantState
from .errors import HeadOrderError, SchemaError
from .exponent import ExponentOrder, validate_order

SCHEMA_VERSION = 1


def _need(doc, key, path):
    if key not in doc:
        raise SchemaError(f"{path}.{key}", "missing field")
    return doc[key]


def is_int(x) -> bool:
    """A JSON integer: an int that is not a bool (bool subclasses int)."""
    return isinstance(x, int) and not isinstance(x, bool)


def _int(x, path):
    if not is_int(x):
        raise SchemaError(path, "expected an integer")
    return x


def _int_list(x, path):
    if not isinstance(x, list) or not all(map(is_int, x)):
        raise SchemaError(path, "expected a list of integers")
    return x


def _int_matrix(x, path):
    if not isinstance(x, list):
        raise SchemaError(path, "expected a list of rows")
    return [_int_list(row, f"{path}[{i}]") for i, row in enumerate(x)]


def _list(x, path):
    if not isinstance(x, list):
        raise SchemaError(path, "expected a list")
    return x


def _int_pair(x, path):
    if len(_int_list(x, path)) != 2:
        raise SchemaError(path, "expected a pair of integers")
    return tuple(x)


def _str_pair(x, path):
    if not (isinstance(x, list) and len(x) == 2 and all(isinstance(v, str) for v in x)):
        raise SchemaError(path, "expected a pair of strings")
    return tuple(x)


def to_document(value) -> dict:
    if isinstance(value, ExponentOrder):
        return {
            "schema_version": SCHEMA_VERSION,
            "type": "exponent",
            "dims": list(value.dims),
            "matrix": [list(r) for r in value.M],
            "ram": value.ram,
        }
    if isinstance(value, CirculantState):
        return {
            "schema_version": SCHEMA_VERSION,
            "type": "circulant",
            "n": value.n,
            "dims": list(value.dims),
            "v": list(value.v),
            "depth": value.f,
            "ram": value.ram,
        }
    if isinstance(value, AmalgamBlock):
        doc = {
            "schema_version": SCHEMA_VERSION,
            "type": "amalgam",
            "components": [to_document(c) for c in value.components],
            "gluings": [
                {
                    "left": list(g.left),
                    "right": list(g.right),
                    "depth": g.depth,
                    "kinds": list(g.kinds),
                }
                for g in value.gluings
            ],
        }
        if value.params is not None:
            doc["params"] = list(value.params)
        return doc
    if isinstance(value, PlanarBrauerTree):
        return {
            "schema_version": SCHEMA_VERSION,
            "type": "tree",
            "exceptional": value.exceptional,
            "edges": [list(e) for e in value.edges],
            "dims": list(value.dims),
            "rotations": [list(r) for r in value.rotations],
            "p": value.p,
            "a": value.a,
            "e": value.e,
            "m": value.m,
            "r": value.galois_r,
        }
    raise TypeError(f"cannot serialize {type(value).__name__}")


def from_document(doc, path="$"):
    if not isinstance(doc, dict):
        raise SchemaError(path, "expected an object")
    version = _need(doc, "schema_version", path)
    if not is_int(version) or version != SCHEMA_VERSION:
        raise SchemaError(f"{path}.schema_version", f"unsupported version {version}")
    kind = _need(doc, "type", path)
    # a field check names its own path, a constructor's error the document's
    try:
        if kind == "exponent":
            dims = _int_list(_need(doc, "dims", path), f"{path}.dims")
            matrix = _int_matrix(_need(doc, "matrix", path), f"{path}.matrix")
            ram = _int(doc.get("ram", 1), f"{path}.ram")
            return validate_order(matrix, dims, ram=ram)
        if kind == "circulant":
            dims = _int_list(_need(doc, "dims", path), f"{path}.dims")
            v = _int_list(_need(doc, "v", path), f"{path}.v")
            n = _int(_need(doc, "n", path), f"{path}.n")
            if n != len(v):
                raise SchemaError(f"{path}.n", "n must equal len(v)")
            depth = _int(doc.get("depth", 0), f"{path}.depth")
            ram = _int(doc.get("ram", 1), f"{path}.ram")
            return CirculantState(tuple(dims), tuple(v), f=depth, ram=ram)
        if kind == "amalgam":
            comps = []
            for i, c in enumerate(_list(_need(doc, "components", path), f"{path}.components")):
                cpath = f"{path}.components[{i}]"
                comp = from_document(c, cpath)
                if not isinstance(comp, ExponentOrder):
                    raise SchemaError(cpath, "expected an exponent document")
                comps.append(comp)
            gluings = []
            for i, g in enumerate(_list(_need(doc, "gluings", path), f"{path}.gluings")):
                gpath = f"{path}.gluings[{i}]"
                if not isinstance(g, dict):
                    raise SchemaError(gpath, "expected an object")
                gluings.append(
                    GluingConstraint(
                        _int_pair(_need(g, "left", gpath), f"{gpath}.left"),
                        _int_pair(_need(g, "right", gpath), f"{gpath}.right"),
                        _int(_need(g, "depth", gpath), f"{gpath}.depth"),
                        _str_pair(g.get("kinds", ["diagonal", "diagonal"]), f"{gpath}.kinds"),
                    )
                )
            params = (
                tuple(_int_list(doc["params"], f"{path}.params")) if "params" in doc else None
            )
            return validate_amalgam(comps, gluings, params)
        if kind == "tree":
            edges = [
                _int_pair(e, f"{path}.edges[{i}]")
                for i, e in enumerate(_int_matrix(_need(doc, "edges", path), f"{path}.edges"))
            ]
            if "e" in doc and not (is_int(doc["e"]) and doc["e"] == len(edges)):
                raise SchemaError(f"{path}.e", "e must equal the number of edges")
            return PlanarBrauerTree(
                exceptional=_int(_need(doc, "exceptional", path), f"{path}.exceptional"),
                edges=tuple(edges),
                dims=tuple(_int_list(_need(doc, "dims", path), f"{path}.dims")),
                rotations=tuple(
                    tuple(r)
                    for r in _int_matrix(_need(doc, "rotations", path), f"{path}.rotations")
                ),
                p=_int(_need(doc, "p", path), f"{path}.p"),
                a=_int(_need(doc, "a", path), f"{path}.a"),
                m=_int(doc.get("m", 1), f"{path}.m"),
                galois_r=_int(doc.get("r", 1), f"{path}.r"),
            )
    except SchemaError:
        raise
    except (ValueError, HeadOrderError) as exc:
        raise SchemaError(path, str(exc)) from exc
    raise SchemaError(f"{path}.type", f"unknown type {kind!r}")


_STRING = json.encoder.encode_basestring_ascii  # json.dumps's escaping


def render(value) -> str:
    """Exactly ``json.dumps(value, sort_keys=True, indent=1)``, for dicts with
    str keys, lists, tuples, ints, strs, True, False and None.

    Anything else, such as a float, a set or a non-str key, raises
    TypeError.  A list of ints only (no bools) is joined in one call.
    """
    return _render(value, "\n")


def _render(value, nl):
    # nl: a newline and the indent of the line that holds value
    if isinstance(value, str):
        return _STRING(value)
    if value is None:
        return "null"
    if value is True:
        return "true"
    if value is False:
        return "false"
    if isinstance(value, int):
        return int.__repr__(value)
    inner = nl + " "
    if isinstance(value, (list, tuple)):
        if not value:
            return "[]"
        if set(map(type, value)) == {int}:
            items = map(int.__repr__, value)
        else:
            items = [_render(item, inner) for item in value]
        return "[" + inner + ("," + inner).join(items) + nl + "]"
    if isinstance(value, dict):
        if not value:
            return "{}"
        if not all(isinstance(key, str) for key in value):
            raise TypeError("cannot render a key that is not a str")
        items = [_STRING(key) + ": " + _render(value[key], inner) for key in sorted(value)]
        return "{" + inner + ("," + inner).join(items) + nl + "}"
    raise TypeError(f"cannot render {type(value).__name__}")


def dumps(value) -> str:
    return render(to_document(value))


def read_json(text: str):
    """The parsed JSON value; text that does not parse, nests too deeply or
    holds an integer too long to convert raises SchemaError at "$"."""
    try:
        return json.loads(text)
    except ValueError as exc:  # JSONDecodeError, or the int digit limit
        raise SchemaError("$", f"invalid JSON: {exc}") from exc
    except RecursionError as exc:
        raise SchemaError("$", "invalid JSON: nested too deeply") from exc


def loads(text: str):
    return from_document(read_json(text))
