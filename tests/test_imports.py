"""No module imports a name it never uses.

Each package and test module is parsed with `ast`; a name that a
module-level import binds must appear somewhere in the module as a name
(an attribute of it, `np.zeros`, counts as `np`). Imports from
`__future__` bind nothing and are skipped.
"""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
MODULES = sorted([*(ROOT / "src" / "photoninject").glob("*.py"),
                  *(ROOT / "tests").glob("*.py")])


def unused_imports(source: str) -> list[str]:
    """The names that module-level imports in `source` bind and that no
    `ast.Name` in it reads, in the order they are imported."""
    tree = ast.parse(source)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    unused = []
    for statement in tree.body:
        if isinstance(statement, ast.ImportFrom) and \
                statement.module == "__future__":
            continue
        if isinstance(statement, (ast.Import, ast.ImportFrom)):
            for alias in statement.names:
                # `import a.b` binds `a`
                name = alias.asname or alias.name.partition(".")[0]
                if name not in used:
                    unused.append(name)
    return unused


def test_the_check_sees_an_unused_import():
    assert unused_imports("from __future__ import annotations\n"
                          "import os.path\nimport numpy as np\n"
                          "from a import b, c as d\nnp.zeros(d)\n") == \
        ["os", "b"]


@pytest.mark.parametrize("path", MODULES,
                         ids=[f"{p.parent.name}/{p.name}" for p in MODULES])
def test_no_unused_module_level_import(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []
