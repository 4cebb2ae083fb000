"""No module of halidon imports a name that it never uses.

No linter ships with the project, so this walks each module's syntax
tree: every name that an import binds must be read somewhere in the
module, as a name or as the root of an attribute chain.  __init__.py is
exempt, since its imports are the package's re-exports, and so is
`from __future__ import annotations`, which binds nothing the code
reads.
"""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "halidon"
MODULES = sorted(
    p.name for p in PACKAGE.glob("*.py") if p.name != "__init__.py"
)


def unused_imports(source: str) -> list[str]:
    """`line N: name` for each imported name that `source` never reads."""
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                # `import a.b` binds a; `from m import x as y` binds y
                name = alias.asname or alias.name.partition(".")[0]
                imported.setdefault(name, node.lineno)
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [
        f"line {line}: {name}"
        for name, line in imported.items()
        if name not in read
    ]


@pytest.mark.parametrize("module", MODULES)
def test_every_imported_name_is_used(module):
    assert unused_imports((PACKAGE / module).read_text(encoding="utf-8")) == []


def test_an_unused_import_is_named():
    source = (
        "import os, re.sub\n"
        "from .errors import NotAUnit, MalformedFile as Bad\n"
        "def f():\n"
        "    import json\n"
        "    return os.sep, Bad\n"
    )
    assert unused_imports(source) == [
        "line 1: re", "line 2: NotAUnit", "line 4: json"
    ]
