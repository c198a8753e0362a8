#!/usr/bin/env python3
"""Check that docs/OBSERVABILITY.md's catalogs match the code.

**Events** — scans ``src/repro`` for trace-event emission sites::

    .mark("name", ...)          -> name
    .mark_at(t, "name", ...)    -> name
    .span("name", ...)          -> name_start, name_end

and parses the catalog tables of docs/OBSERVABILITY.md (rows of the form
``| `name` | default/verbose | ...``).  Every keyword a literal site passes
(other than ``cat``) must also appear, backticked, in that event's "Info
keys" cell; a span's keywords on both its ``_start`` and ``_end`` rows.

**Metrics** — scans for registration sites
(``.counter("x.y")`` / ``.gauge("x.y")`` / ``.histogram("x.y")``), parses
the §6 metrics catalog (dotted backticked names in the first table cell),
and additionally runs a small scenario to collect every metric name
*registered at runtime*, which must be a subset of the documented set.

**Stream records** — scans ``src/repro/obs`` for telemetry-stream
record emissions (``._emit("type", ...)``) and checks them against the
§10 wire-schema table (rows of the form ``| `type` | stream | ...``).

**Fault sites** — imports the fault-site registry
(``repro.faults.registry.ALL_SITES``) and checks it against the site
table of docs/FAULTS.md §1 (rows whose first cell is a dotted
backticked name), so the documented fault surface can never drift from
the authoritative registry.

**Doc links** — scans README.md, DESIGN.md and every page under
``docs/`` for ``docs/<page>.md`` references and fails if a referenced
page does not exist, so the docs index can never silently dangle.

Exits non-zero, listing the difference, if any side has a name the other
lacks.  Run by CI next to the test suite; run it locally with
``python tools/check_event_catalog.py``.

Only string-literal names are recognised.  If you must compute an event
or metric name dynamically (don't), add a ``# obs-event: name`` /
``# obs-metric: x.y`` comment on the emitting line so the check can see
it.
"""

from __future__ import annotations

import ast
import re
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
SRC = REPO / "src" / "repro"
DOC = REPO / "docs" / "OBSERVABILITY.md"

MARK_RE = re.compile(r'\.mark\(\s*"([a-z0-9_]+)"')
MARK_AT_RE = re.compile(r'\.mark_at\([^"]*?"([a-z0-9_]+)"')
SPAN_RE = re.compile(r'\.span\(\s*"([a-z0-9_]+)"')
ANNOT_RE = re.compile(r"#\s*obs-event:\s*([a-z0-9_]+)")

#: catalog rows: | `name` | default | ... / | `name` | verbose | ...
DOC_ROW_RE = re.compile(r"^\|\s*`([a-z0-9_]+)`\s*\|\s*(default|verbose)\s*\|")

#: metric registrations: .counter("kernel.irqs"), .histogram(\n "x.y")...
METRIC_RE = re.compile(
    r'\.(?:counter|gauge|histogram)\(\s*"([a-z0-9_]+(?:\.[a-z0-9_]+)+)"')
METRIC_ANNOT_RE = re.compile(r"#\s*obs-metric:\s*([a-z0-9_.]+)")

#: metric catalog rows: dotted backticked names in the first table cell
#: (a cell may list several, e.g. `pcap.transfers`, `pcap.bytes_moved`).
DOC_METRIC_CELL_RE = re.compile(r"^\|([^|]+)\|")
DOC_METRIC_NAME_RE = re.compile(r"`([a-z0-9_]+(?:\.[a-z0-9_]+)+)`")


def events_in_code() -> dict[str, set[str]]:
    """Event name -> set of emitting files (src/repro-relative)."""
    out: dict[str, set[str]] = {}

    def add(name: str, rel: str) -> None:
        out.setdefault(name, set()).add(rel)

    for path in sorted(SRC.rglob("*.py")):
        rel = path.relative_to(SRC).as_posix()
        if rel.startswith("obs/"):
            continue  # the tracing layer itself, not an instrumentation site
        text = path.read_text()
        for rx in (MARK_RE, MARK_AT_RE, ANNOT_RE):
            for m in rx.finditer(text):
                add(m.group(1), rel)
        for m in SPAN_RE.finditer(text):
            add(m.group(1) + "_start", rel)
            add(m.group(1) + "_end", rel)
    return out


#: tracer methods and the position of their literal event-name argument.
_EMITTERS = {"mark": 0, "mark_at": 1, "span": 0}


def info_keys_in_code() -> dict[tuple[str, str], set[str]]:
    """(event name, info keyword) -> set of emitting files, from the
    literal-name ``.mark``/``.mark_at``/``.span`` call sites."""
    out: dict[tuple[str, str], set[str]] = {}
    for path in sorted(SRC.rglob("*.py")):
        rel = path.relative_to(SRC).as_posix()
        if rel.startswith("obs/"):
            continue
        for node in ast.walk(ast.parse(path.read_text())):
            if not (isinstance(node, ast.Call)
                    and isinstance(node.func, ast.Attribute)
                    and node.func.attr in _EMITTERS):
                continue
            pos = _EMITTERS[node.func.attr]
            arg = node.args[pos] if len(node.args) > pos else None
            if not (isinstance(arg, ast.Constant)
                    and isinstance(arg.value, str)):
                continue
            names = ([arg.value + "_start", arg.value + "_end"]
                     if node.func.attr == "span" else [arg.value])
            for kw in node.keywords:
                if kw.arg not in (None, "cat"):
                    for name in names:
                        out.setdefault((name, kw.arg), set()).add(rel)
    return out


def info_keys_in_doc() -> dict[str, set[str]]:
    """Event name -> the backticked names in its "Info keys" cell."""
    out: dict[str, set[str]] = {}
    for line in DOC.read_text().splitlines():
        if DOC_ROW_RE.match(line.strip()):
            cells = line.strip().split("|")
            out[cells[1].strip().strip("`")] = set(
                re.findall(r"`([a-z0-9_]+)`", cells[3]))
    return out


def undocumented_info_keys() -> dict[str, set[str]]:
    """``"event: keyword"`` -> emitting files, for every keyword a
    literal site passes that its event's documented row lacks (an
    undocumented event is the event check's finding, not this one's)."""
    doc = info_keys_in_doc()
    return {f"{name}: {key}": files
            for (name, key), files in info_keys_in_code().items()
            if name in doc and key not in doc[name]}


def events_in_doc() -> dict[str, str]:
    """Event name -> level, from the catalog tables."""
    out: dict[str, str] = {}
    for line in DOC.read_text().splitlines():
        m = DOC_ROW_RE.match(line.strip())
        if m:
            out[m.group(1)] = m.group(2)
    return out


def metrics_in_code() -> dict[str, set[str]]:
    """Metric name -> set of registering files (src/repro-relative).

    Unlike the event scan, ``obs/`` is *included*: only literal dotted
    names match, so the registry implementation itself stays invisible
    while e.g. the accountant's own histogram registration is seen.
    """
    out: dict[str, set[str]] = {}
    for path in sorted(SRC.rglob("*.py")):
        rel = path.relative_to(SRC).as_posix()
        text = path.read_text()
        for rx in (METRIC_RE, METRIC_ANNOT_RE):
            for m in rx.finditer(text):
                out.setdefault(m.group(1), set()).add(rel)
    return out


def metrics_in_doc() -> set[str]:
    """Every dotted metric name from the §6 catalog table."""
    out: set[str] = set()
    for line in DOC.read_text().splitlines():
        cell = DOC_METRIC_CELL_RE.match(line.strip())
        if cell:
            out.update(DOC_METRIC_NAME_RE.findall(cell.group(1)))
    return out


#: telemetry-stream record emissions, only inside obs/ (the stream bus
#: and its subscribers own the wire schema; nothing else emits records).
STREAM_EMIT_RE = re.compile(r'\._emit\(\s*"([a-z0-9_]+)"')
STREAM_ANNOT_RE = re.compile(r"#\s*obs-stream:\s*([a-z0-9_]+)")

#: §10 wire-schema rows: | `type` | stream | ...
DOC_STREAM_ROW_RE = re.compile(r"^\|\s*`([a-z0-9_]+)`\s*\|\s*stream\s*\|")


def stream_records_in_code() -> dict[str, set[str]]:
    """Stream record type -> set of emitting files (src/repro-relative)."""
    out: dict[str, set[str]] = {}
    for path in sorted((SRC / "obs").rglob("*.py")):
        rel = path.relative_to(SRC).as_posix()
        text = path.read_text()
        for rx in (STREAM_EMIT_RE, STREAM_ANNOT_RE):
            for m in rx.finditer(text):
                out.setdefault(m.group(1), set()).add(rel)
    return out


def stream_records_in_doc() -> set[str]:
    """Record types from the §10 wire-schema table."""
    out: set[str] = set()
    for line in DOC.read_text().splitlines():
        m = DOC_STREAM_ROW_RE.match(line.strip())
        if m:
            out.add(m.group(1))
    return out


FAULT_DOC = REPO / "docs" / "FAULTS.md"

#: §1 site-table rows: a dotted backticked site name in the first cell.
DOC_SITE_ROW_RE = re.compile(r"^\|\s*`([a-z0-9_]+(?:\.[a-z0-9_]+)+)`\s*\|")


def fault_sites_in_doc() -> set[str]:
    """Fault-site names from the docs/FAULTS.md §1 table."""
    out: set[str] = set()
    for line in FAULT_DOC.read_text().splitlines():
        m = DOC_SITE_ROW_RE.match(line.strip())
        if m:
            out.add(m.group(1))
    return out


def fault_sites_in_registry() -> set[str]:
    """The authoritative site list from the fault-site registry."""
    sys.path.insert(0, str(REPO / "src"))
    from repro.faults.registry import ALL_SITES
    return set(ALL_SITES)


#: ``docs/<page>.md`` references in prose (README, DESIGN, docs/ pages).
DOC_LINK_RE = re.compile(r"docs/([A-Za-z0-9_][A-Za-z0-9_.-]*\.md)")


def doc_links() -> dict[str, set[str]]:
    """Referenced docs page name -> set of referencing files."""
    out: dict[str, set[str]] = {}
    sources = [REPO / "README.md", REPO / "DESIGN.md"]
    sources += sorted((REPO / "docs").glob("*.md"))
    for path in sources:
        if not path.exists():
            continue
        rel = path.relative_to(REPO).as_posix()
        for m in DOC_LINK_RE.finditer(path.read_text()):
            out.setdefault(m.group(1), set()).add(rel)
    return out


def metrics_at_runtime() -> set[str]:
    """Metric names actually registered by a small scenario run."""
    sys.path.insert(0, str(REPO / "src"))
    from repro.eval.scenarios import build_native, build_virtualized

    names: set[str] = set()
    for sc in (build_virtualized(1, seed=1), build_native(seed=1)):
        sc.run_ms(30)
        reg = sc.metrics
        for group in (reg.counters(), reg.gauges(), reg.histograms()):
            names.update(m.name for m in group)
    return names


def _report(kind: str, missing_doc: list[str], stale_doc: list[str],
            sites: dict[str, set[str]] | None = None,
            doc: str = "docs/OBSERVABILITY.md") -> bool:
    if missing_doc:
        print(f"{kind} in src/repro but missing from {doc}:",
              file=sys.stderr)
        for name in missing_doc:
            where = (f"  ({', '.join(sorted(sites[name]))})"
                     if sites and name in sites else "")
            print(f"  {name}{where}", file=sys.stderr)
    if stale_doc:
        print(f"{kind} documented in {doc} but absent from "
              "src/repro:", file=sys.stderr)
        for name in stale_doc:
            print(f"  {name}", file=sys.stderr)
    return bool(missing_doc or stale_doc)


def main() -> int:
    code = events_in_code()
    doc = events_in_doc()
    if not code:
        print("error: found no emission sites under src/repro — "
              "the scanner regexes are probably broken", file=sys.stderr)
        return 2
    if not doc:
        print(f"error: found no catalog rows in {DOC} — "
              "the table format changed?", file=sys.stderr)
        return 2

    failed = _report("events", sorted(set(code) - set(doc)),
                     sorted(set(doc) - set(code)), code)

    k_code = info_keys_in_code()
    if not k_code:
        print("error: found no info keywords at emission sites — the "
              "info-key scanner is probably broken", file=sys.stderr)
        return 2
    k_missing = undocumented_info_keys()
    failed |= _report("info keys", sorted(k_missing), [], k_missing)

    m_code = metrics_in_code()
    m_doc = metrics_in_doc()
    if not m_code or not m_doc:
        print("error: found no metric registrations or no metric catalog "
              "rows — the metric scanner is probably broken", file=sys.stderr)
        return 2
    failed |= _report("metrics", sorted(set(m_code) - m_doc),
                      sorted(m_doc - set(m_code)), m_code)

    s_code = stream_records_in_code()
    s_doc = stream_records_in_doc()
    if not s_code or not s_doc:
        print("error: found no stream-record emissions or no §10 wire-schema "
              "rows — the stream scanner is probably broken", file=sys.stderr)
        return 2
    failed |= _report("stream records", sorted(set(s_code) - s_doc),
                      sorted(s_doc - set(s_code)), s_code)

    f_reg = fault_sites_in_registry()
    f_doc = fault_sites_in_doc()
    if not f_reg or not f_doc:
        print("error: found no registry fault sites or no site-table rows "
              "in docs/FAULTS.md — the site scanner is probably broken",
              file=sys.stderr)
        return 2
    failed |= _report("fault sites", sorted(f_reg - f_doc),
                      sorted(f_doc - f_reg), doc="docs/FAULTS.md §1")

    m_runtime = metrics_at_runtime()
    undoc_runtime = sorted(m_runtime - m_doc)
    if undoc_runtime:
        print("metrics registered at runtime but missing from "
              "docs/OBSERVABILITY.md:", file=sys.stderr)
        for name in undoc_runtime:
            print(f"  {name}", file=sys.stderr)
        failed = True

    links = doc_links()
    if not links:
        print("error: found no docs/*.md references in README/DESIGN/docs — "
              "the doc-link scanner is probably broken", file=sys.stderr)
        return 2
    broken = sorted(n for n in links if not (REPO / "docs" / n).exists())
    if broken:
        print("docs/ pages referenced but missing:", file=sys.stderr)
        for name in broken:
            print(f"  docs/{name}  (referenced from "
                  f"{', '.join(sorted(links[name]))})", file=sys.stderr)
        failed = True

    if failed:
        return 1
    print(f"event catalog OK: {len(doc)} events, "
          f"{len({f for fs in code.values() for f in fs})} emitting modules")
    print(f"info keys OK: {len(k_code)} event/keyword pairs, all documented")
    print(f"metric catalog OK: {len(m_doc)} metrics documented, "
          f"{len(m_runtime)} registered at runtime")
    print(f"stream schema OK: {len(s_doc)} record types documented")
    print(f"fault sites OK: {len(f_reg)} registered, all in docs/FAULTS.md")
    print(f"doc links OK: {len(links)} docs pages referenced, all present")
    return 0


if __name__ == "__main__":
    sys.exit(main())
