"""The instrumentation contract holds: every event a real scenario emits
is documented in docs/OBSERVABILITY.md, and the CI catalog checker agrees
with the code."""

from __future__ import annotations

import importlib.util
import re
import subprocess
import sys
from pathlib import Path

import pytest

from repro.eval.scenarios import build_native, build_virtualized
from repro.kernel.core import KernelConfig

REPO = Path(__file__).resolve().parents[2]
DOC = REPO / "docs" / "OBSERVABILITY.md"
CHECK_TOOL = REPO / "tools" / "check_event_catalog.py"

DOC_ROW_RE = re.compile(r"^\|\s*`([a-z0-9_]+)`\s*\|\s*(default|verbose)\s*\|")


def documented_events() -> dict[str, str]:
    out = {}
    for line in DOC.read_text().splitlines():
        m = DOC_ROW_RE.match(line.strip())
        if m:
            out[m.group(1)] = m.group(2)
    return out


def test_doc_catalog_parses():
    cat = documented_events()
    assert len(cat) >= 15
    assert cat["vm_switch"] == "default"
    assert cat["hypercall"] == "verbose"


@pytest.mark.parametrize("verbose", [False, True])
def test_quickstart_scenario_events_all_documented(verbose):
    sc = build_virtualized(
        2, seed=3, kernel_config=KernelConfig(trace_verbose=verbose))
    sc.run_ms(80.0)
    emitted = {e.name for e in sc.tracer.events}
    assert emitted, "scenario produced no trace events"
    catalog = documented_events()
    undocumented = emitted - set(catalog)
    assert not undocumented, (
        f"events emitted but absent from docs/OBSERVABILITY.md: "
        f"{sorted(undocumented)}")
    if verbose:
        assert "hypercall" in emitted
    else:
        # verbose-level events must stay quiet at the default level
        assert not emitted & {n for n, lvl in catalog.items()
                              if lvl == "verbose"}


def test_native_port_events_all_documented():
    sc = build_native(seed=3)
    sc.run_ms(80.0)
    emitted = {e.name for e in sc.tracer.events}
    assert emitted
    assert emitted <= set(documented_events())


def test_emitted_categories_are_declared():
    from repro.obs.trace import CATEGORIES
    sc = build_virtualized(1, seed=3,
                           kernel_config=KernelConfig(trace_verbose=True))
    sc.run_ms(80.0)
    assert {e.cat for e in sc.tracer.events} <= set(CATEGORIES)


def test_check_tool_passes_on_current_tree():
    proc = subprocess.run([sys.executable, str(CHECK_TOOL)],
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert "event catalog OK" in proc.stdout


def _load_check_tool():
    spec = importlib.util.spec_from_file_location("check_event_catalog",
                                                  CHECK_TOOL)
    tool = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tool)
    return tool


@pytest.mark.parametrize("row, flagged", [
    ("| `hwreq_queued` | default | `vm`, `rid` |", "hwreq_queued: rid"),
    # A span's keywords must be on both its rows.
    ("| `mgr_exec_end` | default | `vm`, `rid` |", "mgr_exec_end: rid"),
])
def test_check_tool_flags_an_undocumented_info_key(tmp_path, monkeypatch,
                                                   row, flagged):
    tool = _load_check_tool()
    assert tool.undocumented_info_keys() == {}
    text = DOC.read_text()
    assert text.count(row) == 1
    doc = tmp_path / "OBSERVABILITY.md"
    doc.write_text(text.replace(row, row.replace(", `rid`", "")))
    monkeypatch.setattr(tool, "DOC", doc)
    assert set(tool.undocumented_info_keys()) == {flagged}
