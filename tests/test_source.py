"""Source hygiene of the package, checked with the standard library only."""

import ast
import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "headorder"
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")


def unused_imports(source: str) -> list[str]:
    """Names bound by an import that the module neither uses nor exports."""
    tree = ast.parse(source)
    imported = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                imported.append(alias.asname or alias.name.split(".")[0])
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    exported = set()
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            exported = set(ast.literal_eval(node.value))
    return [name for name in imported if name not in used | exported]


def test_unused_imports_are_detected():
    source = "from __future__ import annotations\nimport os\nimport a.b\nfrom c import d, e as f\n"
    assert unused_imports(source) == ["os", "a", "d", "f"]
    assert unused_imports(source + "__all__ = ['d']\nos.sep, a, f\n") == []


@pytest.mark.parametrize("path", MODULES, ids=[p.name for p in MODULES])
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []


def _referenced(trees) -> set[str]:
    """Names, attribute names and imported names that the trees mention."""
    out = set()
    for tree in trees:
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                out.add(node.id)
            elif isinstance(node, ast.Attribute):
                out.add(node.attr)
            elif isinstance(node, (ast.Import, ast.ImportFrom)):
                out.update(alias.name.split(".")[-1] for alias in node.names)
    return out


def _public_definitions(tree):
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            targets = [node.name]
        elif isinstance(node, ast.Assign):
            targets = [t.id for t in node.targets if isinstance(t, ast.Name)]
        elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
            targets = [node.target.id]
        else:
            continue
        for name in targets:
            if not name.startswith("_"):
                yield name, node


def unreferenced_names(sources: dict, text: str) -> list[str]:
    """Public top-level names of the modules in ``sources`` (name -> source)
    that no other module, their own module outside the definition, nor
    ``text`` (matched as a whole word) refers to: helpers only tests use."""
    trees = {name: ast.parse(source) for name, source in sources.items()}
    out = []
    for module, tree in trees.items():
        others = _referenced(t for m, t in trees.items() if m != module)
        for name, node in _public_definitions(tree):
            own = _referenced(n for n in tree.body if n is not node)
            if name not in others | own and not re.search(rf"\b{name}\b", text):
                out.append(f"{module}.{name}")
    return out


def test_unreferenced_names_are_detected():
    sources = {
        "a": "X = 1\ndef f(): return f()\ndef g(): pass\ndef _h(): pass\nclass C: pass\n",
        "b": "from .a import g\nimport c\nc.D\n",
        "c": "D = 2\nE: int = 3\ndef used(): pass\nused()\n",
    }
    assert unreferenced_names(sources, "") == ["a.X", "a.f", "a.C", "c.E"]
    assert unreferenced_names(sources, "see `f` and C.x, not X1") == ["a.X", "c.E"]


def test_no_helper_that_only_tests_use():
    # README.md and perfbench/ count as users; tests do not
    text = "".join(
        p.read_text() for p in [ROOT / "README.md", *sorted((ROOT / "perfbench").glob("*.py"))]
    )
    assert unreferenced_names({p.stem: p.read_text() for p in MODULES}, text) == []
