"""Flight-recorder contracts: determinism, schema, trigger paths, CLI.

The headline property (docs/OBSERVABILITY.md §13): same seed + same
injected fault ⇒ byte-identical post-mortem bundles.
"""

from __future__ import annotations

import json

import pytest

from repro.eval.scenarios import build_virtualized
from repro.faults.explore import run_explore
from repro.obs.flight import (
    FLIGHT_SCHEMA_VERSION,
    FlightRecorder,
    load_bundle,
    maybe_dump,
    render_bundle,
    validate_bundle,
    write_bundle,
)


def _soak_bundle(path, seed=42):
    """The bundle of one random ``service.crash`` run: nothing fails, so
    the recorder keeps the first schedule in which the fault fired."""
    run_explore(budget=0, seed=seed, random_target=1,
                random_sites=("service.crash",), max_runs=3,
                flight_path=str(path))
    return path


class TestDeterminism:
    def test_same_seed_same_fault_byte_identical(self, tmp_path):
        a = _soak_bundle(tmp_path / "a.json")
        b = _soak_bundle(tmp_path / "b.json")
        assert a.read_bytes() == b.read_bytes()
        assert validate_bundle(json.loads(a.read_text())) == []

    def test_different_seed_differs(self, tmp_path):
        a = _soak_bundle(tmp_path / "a.json", seed=42)
        b = _soak_bundle(tmp_path / "b.json", seed=43)
        assert a.read_bytes() != b.read_bytes()

    def test_write_load_round_trip(self, tmp_path):
        path = _soak_bundle(tmp_path / "a.json")
        bundle = load_bundle(str(path))
        out = tmp_path / "rt.json"
        write_bundle(bundle, str(out))
        assert out.read_bytes() == path.read_bytes()


class TestTriggers:
    def test_first_wins_later_suppressed(self):
        sc = build_virtualized(1, seed=1)
        sc.run_ms(10)
        fr = FlightRecorder().arm(sc.kernel, seed=1)
        first = fr.dump("invariant_violation", where="test")
        again = fr.dump("unhandled_exception", error="X")
        assert again is first
        assert fr.suppressed == 1
        assert first["reason"] == "invariant_violation"
        assert first["info"] == {"where": "test"}

    def test_maybe_dump_noop_without_recorder(self):
        sc = build_virtualized(1, seed=1)
        assert sc.kernel.flight is None
        assert maybe_dump(sc.kernel, "whatever") is None

    def test_unhandled_exception_in_run_loop_dumps(self, tmp_path):
        sc = build_virtualized(1, seed=1)
        out = tmp_path / "crash.json"
        FlightRecorder(str(out)).arm(sc.kernel, seed=1,
                                     context={"origin": "test"})

        def boom():
            raise RuntimeError("injected for the recorder")

        sc.kernel.sim.schedule(1000, boom)
        with pytest.raises(RuntimeError, match="injected"):
            sc.kernel.run(until_cycles=sc.kernel.sim.now + 1_000_000)
        bundle = load_bundle(str(out))
        assert validate_bundle(bundle) == []
        assert bundle["reason"] == "unhandled_exception"
        assert bundle["info"] == {"error": "RuntimeError",
                                  "detail": "injected for the recorder"}
        assert bundle["context"] == {"origin": "test"}

    def test_dump_unarmed_raises(self):
        with pytest.raises(ValueError, match="not armed"):
            FlightRecorder().dump("x")


class TestBundleShape:
    @pytest.fixture(scope="class")
    def bundle(self, tmp_path_factory):
        path = _soak_bundle(tmp_path_factory.mktemp("flight") / "b.json")
        return load_bundle(str(path))

    def test_schema_valid(self, bundle):
        assert validate_bundle(bundle) == []
        assert bundle["schema_version"] == FLIGHT_SCHEMA_VERSION

    def test_fault_plan_captured(self, bundle):
        plan = bundle["fault_plan"]
        assert plan["seed"] == 42
        assert bundle["reason"] == "fault_replay"
        assert plan["sites"]["service.crash"]["fires"] >= 1

    def test_trace_tail_ordered(self, bundle):
        ts = [e["t"] for e in bundle["trace_tail"]]
        assert ts == sorted(ts) and ts

    def test_metrics_and_ledger_present(self, bundle):
        assert bundle["metrics"]["counters"]
        assert bundle["ledger"]["vms"]

    def test_validate_flags_garbage(self):
        assert validate_bundle("nope") == ["bundle is not a JSON object"]
        problems = validate_bundle({"schema_version": "x"})
        assert any("missing key" in p for p in problems)
        assert any("'reason'" in p for p in problems)

    def test_render_mentions_the_essentials(self, bundle):
        text = render_bundle(bundle)
        assert "=== post-mortem bundle ===" in text
        assert f"reason:  {bundle['reason']}" in text
        assert "fault plan (seed 42):" in text
        assert "trace tail:" in text


class TestPostmortemCli:
    def test_summary_and_json_modes(self, tmp_path, capsys):
        from repro.__main__ import main
        path = _soak_bundle(tmp_path / "b.json")
        assert main(["postmortem", str(path)]) == 0
        assert "=== post-mortem bundle ===" in capsys.readouterr().out
        assert main(["postmortem", str(path), "--json"]) == 0
        parsed = json.loads(capsys.readouterr().out)
        assert validate_bundle(parsed) == []

    def test_invalid_bundle_exits_2(self, tmp_path, capsys):
        from repro.__main__ import main
        bad = tmp_path / "bad.json"
        bad.write_text('{"schema_version": 1}\n')
        assert main(["postmortem", str(bad)]) == 2
        assert "missing key" in capsys.readouterr().err

    def test_missing_file_exits_2(self, tmp_path):
        from repro.__main__ import main
        assert main(["postmortem", str(tmp_path / "nope.json")]) == 2
