"""Every definition under ``src/repro`` has a caller outside the tests.

ROADMAP item 16's rule: ``src/`` holds only what a run executes.  A
function or class whose only callers are tests is a test oracle, a test
driver or a device model kept on purpose, listed in :data:`KEEP` with
the reason, or it is dead and goes, together with its tests.

The check matches names: a definition passes when its name appears as a
word somewhere in ``src/repro`` outside its own body, import lines and
``__all__``, or anywhere in ``benchmarks/``, ``examples/`` or
``tools/``.  So a method whose name recurs elsewhere (``probe``,
``inc``) passes unseen: this is a backstop, not the audit.
"""

from __future__ import annotations

import ast
import re
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "repro"
OTHER_DIRS = ("benchmarks", "examples", "tools")

#: Definitions whose only callers are tests, each with why it stays.
KEEP = {
    "fft_radix2_reference":
        "oracle: the specification FFT the NumPy golden model is checked "
        "against",
    "demodulate": "oracle: inverts qam.modulate in the QAM tests",
    "canonical_bytes": "oracle: byte identity of merged metric snapshots",
    "merge_all": "oracle: the K-way merge law of metric snapshots",
    "check_registry": "oracle: the fault-site registry's self-audit",
    "assert_no_vm_leaks": "oracle: nothing a killed VM owned survives it",
    "l1_entry_addr":
        "oracle: the walk address the fast path's differential tests "
        "compare against",
    "run_until": "driver: runs the engine's events up to a cycle",
    "pending_count": "driver: the engine's live event count",
    "exception_depth": "driver: the CPU's exception nesting depth",
    "run_bench": "driver: builds a bench artifact in-process",
    "set_priority": "device model: the GIC's priority register",
    "spsr": "device model: the banked RegisterFile's saved PSRs",
}

_WORD = re.compile(r"\w+")


def _skipped_lines(tree: ast.Module) -> set[int]:
    """Import statements and ``__all__`` assignments: naming a
    definition there is not calling it."""
    out: set[int] = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)) or (
                isinstance(node, ast.Assign)
                and any(isinstance(t, ast.Name) and t.id == "__all__"
                        for t in node.targets)):
            out.update(range(node.lineno, node.end_lineno + 1))
    return out


def _scan() -> tuple[Counter, list[tuple[str, str, int, int]]]:
    """Word counts over every scanned line, and each ``src/repro``
    definition as (name, file, first line, words of its name inside
    its own body)."""
    total: Counter = Counter()
    defs = []
    files = sorted(SRC.rglob("*.py")) + sorted(
        p for d in OTHER_DIRS for p in (ROOT / d).rglob("*.py"))
    for path in files:
        source = path.read_text(encoding="utf-8")
        tree = ast.parse(source)
        skipped = _skipped_lines(tree)
        lines = [[] if i in skipped else _WORD.findall(line)
                 for i, line in enumerate(source.splitlines(), 1)]
        for words in lines:
            total.update(words)
        if SRC not in path.parents:
            continue
        for node in ast.walk(tree):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                     ast.ClassDef)):
                continue
            name = node.name
            if name.startswith("__") and name.endswith("__"):
                continue
            first = min([node.lineno]
                        + [d.lineno for d in node.decorator_list])
            own = sum(words.count(name)
                      for words in lines[first - 1:node.end_lineno])
            defs.append((name, str(path.relative_to(ROOT)), first, own))
    return total, defs


def _unreferenced() -> dict[str, list[str]]:
    """Name -> definition sites of every definition nothing outside the
    tests names."""
    total, defs = _scan()
    out: dict[str, list[str]] = {}
    for name, where, line, own in defs:
        if total[name] == own:
            out.setdefault(name, []).append(f"{where}:{line}")
    return out


def test_every_src_definition_has_a_caller_or_a_reason():
    unreferenced = _unreferenced()
    unexplained = {name: sites for name, sites in unreferenced.items()
                   if name not in KEEP}
    assert not unexplained, (
        "defined under src/repro but named nowhere outside the tests: "
        "delete it (with its tests), move it under tests/, or list it in "
        f"KEEP with the reason: {unexplained}")
    stale = sorted(set(KEEP) - set(unreferenced))
    assert not stale, (
        f"KEEP entries that have a caller or no definition any more: {stale}")
