"""Every module-level import of the package is used by its module."""
import ast
import pathlib

import pytest

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "rlentropy"


def unused_imports(source):
    """(line, name) of each name a module-level import binds that the
    module never reads; ``__future__`` imports bind no name."""
    tree = ast.parse(source)
    bound = []
    for node in tree.body:
        if isinstance(node, ast.Import):
            bound += [(node.lineno, (a.asname or a.name).split(".")[0])
                      for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            bound += [(node.lineno, a.asname or a.name) for a in node.names]
    read = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return [(line, name) for line, name in bound if name not in read]


def test_unused_imports_are_found():
    assert unused_imports("from __future__ import annotations\n"
                          "import os.path\nimport numpy as np\n"
                          "from collections import Counter, deque\n"
                          "def f():\n    import sys\n"
                          "    return np.zeros(1), deque(), os.sep\n") == \
        [(4, "Counter")]


# __init__.py imports to re-export
@pytest.mark.parametrize("path", sorted(p.name for p in SRC.glob("*.py")
                                        if p.name != "__init__.py"))
def test_module_imports_are_used(path):
    assert unused_imports((SRC / path).read_text()) == []
