"""Every module-level import under ``src/repro`` is read by its module.

An import that nothing in its module reads is dead weight, and it
misstates what the module depends on.  The check walks each module's
top-level import statements, skipping ``from __future__``, and counts a
bound name as read when it appears as a name anywhere in the module
(annotations included) or in the module's ``__all__``.  An import marked
``# noqa: F401`` on its first line is a deliberate re-export and passes:
``faults/plan.py`` re-exports the fault sites' canonical spellings.
"""

from __future__ import annotations

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "repro"


def _unread_imports(path: Path) -> list[tuple[int, str]]:
    """(line, name) of each import of ``path`` that nothing reads."""
    source = path.read_text(encoding="utf-8")
    tree = ast.parse(source)
    lines = source.splitlines()
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__"
                for t in node.targets):
            read.update(ast.literal_eval(node.value))
    out = []
    for node in tree.body:
        if isinstance(node, ast.Import):
            names = [a.asname or a.name.partition(".")[0] for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            names = [a.asname or a.name for a in node.names]
        else:
            continue
        if "# noqa: F401" in lines[node.lineno - 1]:
            continue
        out += [(node.lineno, name) for name in names if name not in read]
    return out


def test_every_module_level_import_is_read():
    unread = [f"{path.relative_to(SRC.parent)}:{line}: {name}"
              for path in sorted(SRC.rglob("*.py"))
              for line, name in _unread_imports(path)]
    assert not unread, f"imported but never read: {unread}"


def test_the_check_sees_an_unread_import(tmp_path):
    module = tmp_path / "mod.py"
    module.write_text("from __future__ import annotations\n"
                      "import os\nimport os.path as p\n"
                      "from dataclasses import dataclass, field\n"
                      "from typing import (  # noqa: F401  (re-export)\n"
                      "    Any,\n)\n"
                      "__all__ = ['field']\n"
                      "def f(x: p.PathLike) -> None:\n    pass\n",
                      encoding="utf-8")
    assert _unread_imports(module) == [(2, "os"), (4, "dataclass")]
