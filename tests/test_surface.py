"""Every public name of the library has a caller in the library or the benchmark.

The public names are the module-level functions and classes of
src/comatroid/*.py and the methods of those classes, leaving out names that
start with an underscore. A reference is a Name or Attribute node, or a string
constant spelling the name, in any module of src/comatroid/ other than
__init__.py (whose imports and __all__ only re-export) or of perfbench/; the
strings count because perfbench/tracing.py names the methods it patches as
strings. Tests do not count as callers.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "comatroid"


def _public(name):
    return not name.startswith("_")


def public_names():
    """(qualified name, bare name) of every public def, class and method."""
    out = []
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for node in tree.body:
            if not isinstance(node, (ast.FunctionDef, ast.ClassDef)) or not _public(node.name):
                continue
            out.append((f"{path.stem}.{node.name}", node.name))
            if isinstance(node, ast.ClassDef):
                out.extend((f"{path.stem}.{node.name}.{item.name}", item.name)
                           for item in node.body
                           if isinstance(item, ast.FunctionDef) and _public(item.name))
    return out


def referenced_names():
    paths = [p for p in PACKAGE.glob("*.py") if p.name != "__init__.py"]
    paths += (ROOT / "perfbench").glob("*.py")
    seen = set()
    for path in paths:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Name):
                seen.add(node.id)
            elif isinstance(node, ast.Attribute):
                seen.add(node.attr)
            elif isinstance(node, ast.Constant) and isinstance(node.value, str):
                if node.value.isidentifier():
                    seen.add(node.value)
    return seen


def test_every_public_name_has_a_caller():
    seen = referenced_names()
    unused = sorted(qual for qual, name in public_names() if name not in seen)
    assert unused == []
