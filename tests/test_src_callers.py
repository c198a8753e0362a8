"""Every definition, option and field under ``src/repro`` is used.

ROADMAP item 16's rule: ``src/`` holds only what a run executes.  Three
AST checks over one walk of the tree hold it:

* **Definitions.**  A function or class passes when its name appears as
  a word somewhere in ``src/repro`` outside its own body, import lines
  and ``__all__``, or anywhere in ``benchmarks/``, ``examples/`` or
  ``tools/``.  A definition whose only callers are tests is a test
  oracle, a test driver or a device model kept on purpose, listed in
  :data:`KEEP` with the reason, or it is dead and goes, together with
  its tests.  The check matches names, so a method whose name recurs
  elsewhere passes unseen: this is a backstop, not the audit.
* **Parameters.**  Every defaulted parameter of a ``def`` under
  ``src/repro`` is passed (by keyword, by position, or through
  ``*args``/``**kwargs``) by some call of that name in ``src/``,
  ``benchmarks/``, ``examples/`` or ``tools/``; an ``__init__``'s
  callers are calls of its class.  An option only a test sets is a test
  seam and is listed in :data:`KEEP_PARAMS` with the reason; otherwise
  it goes and its default becomes the code.
* **Fields.**  Every field of a ``@dataclass`` under ``src/repro`` is
  read: an attribute load of its name anywhere in ``src/``,
  ``benchmarks/``, ``examples/``, ``tools/`` or ``tests/``, or its name
  as a string constant outside ``tests/`` (``getattr``, ``asdict``
  keys).  Strings in tests do not count: there they are mostly payload
  keys.  A field nothing reads goes with the code that writes it, or is
  listed in :data:`KEEP_FIELDS`.
"""

from __future__ import annotations

import ast
import functools
import re
from collections import Counter
from pathlib import Path
from typing import Iterator

import pytest

ROOT = Path(__file__).resolve().parents[1]
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

#: Defaulted parameters that no call outside the tests passes, as
#: ``"callee(parameter)"``, each with why it stays.
KEEP_PARAMS = {
    "main(argv)": "the CLI entry point: tests pass argv, a shell does not",
    "run(max_iterations)":
        "runaway guard of MiniNova.run and NativeSystem.run that a test "
        "trips",
    "Tracer(capacity)": "test seam: tests overflow a small ring",
    "histogram(buckets)":
        "test seam: the bucket-boundary and merge tests set their own "
        "ladders",
    "run_explore(max_runs)":
        "test seam: bounds random mode's runtime in the tests",
    "run_explore(max_shrinks)":
        "test seam: bounds the shrinker's runtime in the tests",
    "make_restartable_task(stats)":
        "test seam: the lifecycle tests observe the frames a task did",
    "GuestExecutor(seed)":
        "test seam: ROADMAP item 7 seeds guest memory traffic from the "
        "scenario seed through it",
    "TrafficModel(burst_period_ticks)":
        "traffic shape: kept with the model's other parameters (PR 25)",
    "TrafficModel(burst_factor)":
        "traffic shape: kept with the model's other parameters (PR 25)",
    "decode(state)": "oracle: adpcm.decode resumes from a codec state",
    "AdpcmState(predictor)": "oracle: the ADPCM codec's state",
    "AdpcmState(index)": "oracle: the ADPCM codec's state",
    "checkpoint(since)":
        "BoardServer.checkpoint: BoardLink.call dispatches it by name",
    "kill(reason)": "BoardServer.kill: BoardLink.call dispatches it by name",
    "run_bench(guests)":
        "test seam: the run_bench driver's short-profile override",
    "run_bench(ms)":
        "test seam: the run_bench driver's short-profile override",
    "build_native(iterations)":
        "test seam: a bounded native T_hw run to compare with a "
        "virtualized one",
    "build_native(with_workloads)":
        "test seam: a native scenario without the GSM/ADPCM load",
    "build_native(task_set)":
        "test seam: a native scenario on one bitstream",
    "build_native(machine_config)":
        "test seam: the native scenario with the fast path off",
    "map_page(ng)":
        "test seam: the fast path's equivalence tests map global small "
        "pages; runs map global memory only as kernel sections",
}

#: Dataclass fields that nothing reads, as ``"Class.field"``, each with
#: why it stays.
KEEP_FIELDS = {
    "RecoveryPath.description":
        "documentation the fault registry carries with each recovery path",
}

_WORD = re.compile(r"\w+")


def _modules(root: Path) -> Iterator[tuple[str, Path, str, ast.Module]]:
    """(role, path, source, tree) of every scanned file under ``root``:
    role ``src`` for ``src/repro``, ``other`` for ``benchmarks/``,
    ``examples/`` and ``tools/``, ``tests`` for ``tests/``."""
    for role, dirs in (("src", ("src/repro",)), ("other", OTHER_DIRS),
                       ("tests", ("tests",))):
        for d in dirs:
            for path in sorted((root / d).rglob("*.py")):
                source = path.read_text(encoding="utf-8")
                yield role, path, source, ast.parse(source)


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


def _scan(root: Path = ROOT
          ) -> tuple[Counter, list[tuple[str, str, int, int]]]:
    """Word counts over every scanned line outside the tests, and each
    ``src/repro`` definition as (name, file, first line, words of its
    name inside its own body)."""
    total: Counter = Counter()
    defs = []
    for role, path, source, tree in _modules(root):
        if role == "tests":
            continue
        skipped = _skipped_lines(tree)
        lines = [[] if i in skipped else _WORD.findall(line)
                 for i, line in enumerate(source.splitlines(), 1)]
        for words in lines:
            total.update(words)
        if role != "src":
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
            defs.append((name, str(path.relative_to(root)), first, own))
    return total, defs


def _unreferenced(root: Path = ROOT) -> dict[str, list[str]]:
    """Name -> definition sites of every definition nothing outside the
    tests names."""
    total, defs = _scan(root)
    out: dict[str, list[str]] = {}
    for name, where, line, own in defs:
        if total[name] == own:
            out.setdefault(name, []).append(f"{where}:{line}")
    return out


def _is_dataclass(node: ast.ClassDef) -> bool:
    for dec in node.decorator_list:
        f = dec.func if isinstance(dec, ast.Call) else dec
        if (isinstance(f, ast.Name) and f.id == "dataclass") or (
                isinstance(f, ast.Attribute) and f.attr == "dataclass"):
            return True
    return False


def _defaulted_params(node, cls: ast.ClassDef | None):
    """(callee, parameter, positional index or None) of each defaulted
    parameter of ``node``; the index does not count ``self``/``cls``."""
    a = node.args
    callee = cls.name if cls is not None and node.name == "__init__" \
        else node.name
    bound = cls is not None and not any(
        isinstance(d, ast.Name) and d.id == "staticmethod"
        for d in node.decorator_list)
    positional = a.posonlyargs + a.args
    first = len(positional) - len(a.defaults)
    for i, arg in enumerate(positional[first:], first):
        yield callee, arg.arg, i - bound
    for arg, default in zip(a.kwonlyargs, a.kw_defaults):
        if default is not None:
            yield callee, arg.arg, None


def _passes(call: ast.Call, param: str, index: int | None) -> bool:
    if any(k.arg is None or k.arg == param for k in call.keywords):
        return True
    if index is None:
        return False
    return any(isinstance(a, ast.Starred) or i == index
               for i, a in enumerate(call.args[:index + 1]))


@functools.lru_cache(maxsize=None)
def _audit(root: Path = ROOT) -> tuple[dict[str, list[str]],
                                       dict[str, list[str]]]:
    """``"callee(parameter)"`` -> sites of every defaulted parameter no
    call outside the tests passes, and ``"Class.field"`` -> sites of
    every dataclass field nothing reads."""
    params, fields = [], []
    calls: dict[str, list[ast.Call]] = {}
    loads: set[str] = set()
    strings: set[str] = set()
    for role, path, _, tree in _modules(root):
        where = str(path.relative_to(root))
        owner: dict[ast.AST, ast.ClassDef] = {}
        # ast.walk visits a class before the statements of its body.
        for node in ast.walk(tree):
            if isinstance(node, ast.Attribute) \
                    and isinstance(node.ctx, ast.Load):
                loads.add(node.attr)
            if role == "tests":
                continue
            if isinstance(node, ast.Constant) and isinstance(node.value, str):
                strings.add(node.value)
            elif isinstance(node, ast.Call):
                f = node.func
                name = f.id if isinstance(f, ast.Name) else \
                    f.attr if isinstance(f, ast.Attribute) else None
                calls.setdefault(name, []).append(node)
            if role != "src":
                continue
            if isinstance(node, ast.ClassDef):
                for item in node.body:
                    owner[item] = node
                    if _is_dataclass(node) \
                            and isinstance(item, ast.AnnAssign) \
                            and isinstance(item.target, ast.Name):
                        fields.append((node.name, item.target.id,
                                       f"{where}:{item.lineno}"))
            elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                params += [(p, f"{where}:{node.lineno}")
                           for p in _defaulted_params(node, owner.get(node))]
    unpassed: dict[str, list[str]] = {}
    for (callee, param, index), site in params:
        if not any(_passes(c, param, index) for c in calls.get(callee, ())):
            unpassed.setdefault(f"{callee}({param})", []).append(site)
    unread: dict[str, list[str]] = {}
    for cls, name, site in fields:
        if name not in loads and name not in strings:
            unread.setdefault(f"{cls}.{name}", []).append(site)
    return unpassed, unread


def _verdict(found: dict[str, list[str]],
             keep: dict[str, str]) -> tuple[dict[str, list[str]], list[str]]:
    """The findings ``keep`` does not explain, and its stale entries:
    those with nothing left to explain."""
    return ({k: v for k, v in found.items() if k not in keep},
            sorted(set(keep) - set(found)))


def test_every_src_definition_has_a_caller_or_a_reason():
    unexplained, stale = _verdict(_unreferenced(), KEEP)
    assert not unexplained, (
        "defined under src/repro but named nowhere outside the tests: "
        "delete it (with its tests), move it under tests/, or list it in "
        f"KEEP with the reason: {unexplained}")
    assert not stale, (
        f"KEEP entries that have a caller or no definition any more: {stale}")


def test_every_defaulted_parameter_is_passed_or_kept():
    unexplained, stale = _verdict(_audit()[0], KEEP_PARAMS)
    assert not unexplained, (
        "defaulted parameters no call outside the tests passes: replace "
        "each with its default, or list it in KEEP_PARAMS with the "
        f"reason: {unexplained}")
    assert not stale, (
        f"KEEP_PARAMS entries that a call passes or that no longer "
        f"exist: {stale}")


def test_every_dataclass_field_is_read_or_kept():
    unexplained, stale = _verdict(_audit()[1], KEEP_FIELDS)
    assert not unexplained, (
        "dataclass fields nothing reads: delete each with the code that "
        f"writes it, or list it in KEEP_FIELDS with the reason: "
        f"{unexplained}")
    assert not stale, (
        f"KEEP_FIELDS entries that are read or no longer exist: {stale}")


@pytest.fixture
def tree(tmp_path):
    """A miniature repository: one ``src/repro`` module, a tool that
    uses part of it and a test that uses more."""
    for d in ("src/repro", "tools", "tests"):
        (tmp_path / d).mkdir(parents=True)
    (tmp_path / "src" / "repro" / "mod.py").write_text(
        "from dataclasses import dataclass\n"
        "@dataclass(frozen=True)\n"
        "class Point:\n"
        "    x: int\n    y: int = 0\n    tag: str = ''\n    note: str = ''\n"
        "class Box:\n"
        "    def __init__(self, w=1, h=2, *, d=3):\n        self.w = w\n"
        "    def grow(self, by=1, *, twice=False):\n        return by\n"
        "    @staticmethod\n"
        "    def make(w=1):\n        return Box(w)\n"
        "def run(n, *, seed=7, limit=None, mode='a'):\n"
        "    def step(k=1):\n        return k\n"
        "    return step\n",
        encoding="utf-8")
    (tmp_path / "tools" / "use.py").write_text(
        "from repro.mod import Box, Point, run\n"
        "p = Point(1)\nprint(p.x, getattr(p, 'tag'))\n"
        "Box(5).grow(*[2])\nBox.make(**{})\n"
        "run(1, seed=3)\n",
        encoding="utf-8")
    (tmp_path / "tests" / "test_use.py").write_text(
        "from repro.mod import Box, Point, run\n"
        "def test_it():\n"
        "    run(1, limit=2, mode='b')\n    Box(h=4, d=5)\n"
        "    assert {'note': 1} and Point(1).y == 0\n",
        encoding="utf-8")
    return tmp_path


def test_the_parameter_rule_sees_never_passed_parameters(tree):
    """Tests are not callers; ``*args``, ``**kwargs`` and positions
    pass; an ``__init__`` is called by its class's name."""
    unpassed, _ = _audit(tree)
    assert sorted(unpassed) == ["Box(d)", "Box(h)", "grow(twice)",
                                "run(limit)", "run(mode)", "step(k)"]
    assert unpassed["run(limit)"] == ["src/repro/mod.py:16"]
    unexplained, stale = _verdict(unpassed, {
        "Box(d)": "kept", "Box(h)": "kept", "grow(twice)": "kept",
        "run(limit)": "kept", "step(k)": "kept", "run(seed)": "stale"})
    assert list(unexplained) == ["run(mode)"] and stale == ["run(seed)"]


def test_the_field_rule_sees_a_never_read_field(tree):
    """Attribute loads count anywhere, string constants outside the
    tests only."""
    _, unread = _audit(tree)
    assert unread == {"Point.note": ["src/repro/mod.py:7"]}
    unexplained, stale = _verdict(unread, {"Point.tag": "stale"})
    assert list(unexplained) == ["Point.note"] and stale == ["Point.tag"]
