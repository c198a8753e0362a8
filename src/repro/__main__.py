"""Command-line interface: ``python -m repro <command>``.

Commands:

* ``run``      — run a virtualized (or native) scenario and print a report;
  ``--trace-out FILE`` additionally writes a Chrome trace-event JSON
  (load it in chrome://tracing or https://ui.perfetto.dev) and
  ``--metrics`` prints the kernel's counter/histogram registry
  (see docs/OBSERVABILITY.md for the event and metric catalog)
* ``table3``   — regenerate Table III (+ Fig. 9) and print both
* ``bench``    — run the paper scenario and write a schema-versioned
  ``BENCH_<name>.json`` latency/accounting artifact (``--quick`` for the
  profile of the committed baseline; see docs/BENCHMARKS.md)
* ``inventory``— list the hardware-task library and the fabric floorplan
* ``fleet``    — run a supervised multi-board fleet with open-loop tenant
  traffic (docs/FLEET.md): placement, heartbeat failure detection and
  checkpoint-based live migration across board fault domains.
  ``--migration-demo`` proves a cross-board migration bit-exact,
  ``--bench`` writes the ``BENCH_fleet_quick.json`` latency artifact
* ``explore``  — the fault-schedule runner (docs/FAULTS.md §5):
  coverage-guided exploration under ``--budget`` (a clean pilot
  harvests trigger windows, then single- and two-fault schedules run
  with invariant sweeps as the oracle, gated on a recovery-path
  coverage floor), the canned ``--named`` schedules including the
  ``surge`` SLO series, and ``--random N --sites a,b`` seeded fault
  draws until N faults fired; failing schedules are delta-debugged to
  minimal repro JSONs replayable via ``--repro``; ``--list`` prints the
  fault sites and named schedules
* ``postmortem`` — validate and pretty-print a flight-recorder bundle
  (docs/OBSERVABILITY.md §13)

``fleet`` and ``explore`` distinguish failure classes in their exit
code: an actual invariant violation exits 4, any other failed check (or
a random-mode fire target not reached) exits 1, and an ``explore`` run
that is clean but misses an SLO gate or its coverage floor exits 3
(docs/RECOVERY.md §10).

``run``, ``bench`` and ``explore`` take ``--stream-out FILE`` to write
the JSONL telemetry stream (deterministic metric deltas at a sim-cycle
cadence — docs/OBSERVABILITY.md §10) and ``run``/``bench`` take ``--slo
FILE`` to evaluate a declarative SLO config on it; any breach exits
with status 3.  ``run`` keeps a flight recorder armed: an invariant
violation or unhandled exception dumps a post-mortem bundle (default
``FLIGHT_run.json``; ``--flight-out`` overrides, and on ``explore``
enables it).
"""

from __future__ import annotations

import argparse
import sys

from .common.units import cycles_to_ms, ms_to_cycles


def _run_observed(sc, args, ms: float, *, source: str,
                  meta: dict | None = None):
    """Run scenario ``sc`` for ``ms`` simulated milliseconds with the
    telemetry ``args`` asked for: a JSONL stream (``--stream-out``)
    and/or an SLO engine (``--slo``) riding on it.

    Returns ``(stream, engine)``, each None when not asked for; exits
    with code 2 via SystemExit on a bad SLO config or an unwritable
    stream path, before anything runs.
    """
    stream = engine = sink = None
    if args.stream_out or args.slo:
        from .obs.slo import SloEngine, load_slo_config
        from .obs.stream import TelemetryStream

        rules = None
        if args.slo:
            try:
                rules = load_slo_config(args.slo)
            except (OSError, ValueError) as exc:
                print(f"error: bad SLO config {args.slo}: {exc}",
                      file=sys.stderr)
                raise SystemExit(2)
        if args.stream_out:
            try:
                sink = open(args.stream_out, "w", encoding="utf-8")
            except OSError as exc:
                print(f"error: cannot write stream to {args.stream_out}: "
                      f"{exc}", file=sys.stderr)
                raise SystemExit(2)
        stream = TelemetryStream(
            sc.metrics,
            interval_cycles=ms_to_cycles(args.stream_interval_ms,
                                         sc.machine.params.cpu.hz),
            sink=sink, source=source, seed=args.seed, meta=meta)
        if rules is not None:
            engine = SloEngine(rules, metrics=sc.metrics)
            engine.attach(stream)
        stream.attach(sc.machine.sim)
    try:
        sc.run_ms(ms)
    finally:
        if stream is not None:
            stream.close()
        if sink is not None:
            sink.close()
    return stream, engine


def _report_slo(s: dict) -> int:
    """Print the verdict of an SLO summary (``SloEngine.summary()``);
    return the command exit code."""
    from .obs.slo import EXIT_SLO_BREACH

    if s["ok"]:
        print(f"SLO: {len(s['rules'])} rule(s), {s['evaluations']} "
              f"evaluations, no breaches")
        return 0
    print(f"SLO BREACH: {len(s['breaches'])} breach(es) across "
          f"{len(s['rules'])} rule(s)", file=sys.stderr)
    for b in s["breaches"]:
        print(f"  {b['slo']} ({b['kind']}) at cycle {b['t']}: "
              f"observed {b['observed']} vs limit {b['limit']}",
              file=sys.stderr)
    return EXIT_SLO_BREACH


def cmd_run(args: argparse.Namespace) -> int:
    from .eval.report import scenario_report
    from .eval.scenarios import build_native, build_virtualized
    from .kernel.core import KernelConfig

    if args.native:
        sc = build_native(seed=args.seed, verify=args.verify)
    else:
        kcfg = KernelConfig(trace_verbose=args.trace_verbose)
        sc = build_virtualized(args.guests, seed=args.seed,
                               verify=args.verify, kernel_config=kcfg)
        # Always-on incident recording: a violation or crash during the
        # run dumps a deterministic post-mortem bundle (§13).
        from .obs.flight import FlightRecorder
        FlightRecorder(args.flight_out or "FLIGHT_run.json").arm(
            sc.kernel, seed=args.seed,
            context={"command": "run", "guests": args.guests, "ms": args.ms})
    stream, engine = _run_observed(sc, args, args.ms, source="run")
    print(scenario_report(sc))
    if args.trace_out:
        from .obs.export import write_chrome_trace
        try:
            n = write_chrome_trace(sc.tracer, args.trace_out,
                                   hz=sc.machine.params.cpu.hz)
        except OSError as exc:
            print(f"error: cannot write trace to {args.trace_out}: {exc}",
                  file=sys.stderr)
            return 1
        dropped = sc.tracer.dropped
        print(f"\nwrote {n} trace events to {args.trace_out}"
              + (f" ({dropped} oldest events dropped by the ring)"
                 if dropped else ""))
    if args.metrics:
        print()
        print(sc.metrics.render())
    if stream is not None and args.stream_out:
        print(f"wrote {stream.records} telemetry records "
              f"({stream.deltas} deltas) to {args.stream_out}")
    if engine is not None:
        return _report_slo(engine.summary())
    return 0


def cmd_table3(args: argparse.Namespace) -> int:
    from .eval.fig9 import degradation_from_table3
    from .eval.table3 import run_table3

    t3 = run_table3(completions_per_config=args.completions, seed=args.seed)
    print(t3.format())
    print()
    print(degradation_from_table3(t3).format())
    return 0


def cmd_bench(args: argparse.Namespace) -> int:
    from .eval.bench import (bench_payload, bench_scenario,
                             default_artifact_path, write_bench)
    from .obs.analytics import SeriesSummary

    name = "quick" if args.quick else args.name
    sc, ms = bench_scenario(name, guests=args.guests, ms=args.ms,
                            seed=args.seed)
    _, engine = _run_observed(sc, args, ms, source=f"bench:{name}",
                              meta={"guests": len(sc.guests), "ms": ms})
    payload = bench_payload(sc, name, ms=ms, seed=args.seed)
    if engine is not None:
        # The only key --slo adds, so default artifacts stay identical.
        payload["slo"] = engine.summary()
    out = args.out or default_artifact_path(name)
    try:
        write_bench(payload, out)
    except OSError as exc:
        print(f"error: cannot write benchmark artifact to {out}: {exc}",
              file=sys.stderr)
        return 1
    hz = payload["scenario"]["cpu_hz"]
    print(f"bench '{name}': {payload['scenario']['guests']} guests, "
          f"{payload['scenario']['ms']:g} ms simulated "
          f"({payload['totals']['cycles']} cycles) -> {out}")
    print(f"{'series':26} {'count':>6} {'p50':>10} {'p90':>10} "
          f"{'p99':>10}  unit")
    for sname, s in payload["series"].items():
        if not s["count"]:
            continue
        us = SeriesSummary(**s).scaled(1e6 / hz, "us")
        print(f"{sname:26} {us.count:>6} {us.p50:>10.2f} {us.p90:>10.2f} "
              f"{us.p99:>10.2f}  {us.unit}")
    acct = payload["accounting"]
    print(f"accounting: {len(acct['vms'])} VMs, "
          f"kernel {acct['kernel_cycles']} cycles, "
          f"idle {acct['idle_cycles']} cycles, "
          f"accounted {acct['total_accounted']} cycles")
    if args.stream_out:
        print(f"wrote telemetry stream to {args.stream_out}")
    if "slo" in payload:
        return _report_slo(payload["slo"])
    return 0


def _write_json(payload, out: str | None) -> bool:
    """Write ``payload`` as sorted-keys JSON to ``out`` (stdout if None);
    False (after reporting) when the file cannot be written."""
    import json

    text = json.dumps(payload, indent=2, sort_keys=True) + "\n"
    if not out:
        sys.stdout.write(text)
        return True
    try:
        with open(out, "w", encoding="utf-8") as f:
            f.write(text)
    except OSError as exc:
        print(f"error: cannot write {out}: {exc}", file=sys.stderr)
        return False
    print(f"wrote {out}")
    return True


def _open_record_bus(path: str | None, *, source: str, seed: int):
    """A pure record bus (no registry, no cadence) writing JSONL to
    ``path``, its ``header`` already written: returns ``(stream, sink)``,
    both None without a path; exits 2 via SystemExit when the file cannot
    be opened."""
    if not path:
        return None, None
    from .obs.stream import TelemetryStream

    try:
        sink = open(path, "w", encoding="utf-8")
    except OSError as exc:
        print(f"error: cannot write stream to {path}: {exc}",
              file=sys.stderr)
        raise SystemExit(2)
    bus = TelemetryStream(None, interval_cycles=1, sink=sink,
                          source=source, seed=seed)
    bus.emit_header()
    return bus, sink


def cmd_fleet(args: argparse.Namespace) -> int:
    from .faults.explore import incident_exit_code
    from .fleet.dispatcher import FleetConfig
    from .fleet.harness import (make_kill_schedule, run_fleet,
                                run_fleet_bench, run_migration_demo)

    if args.migration_demo:
        demo = run_migration_demo(seed=args.seed)
        if not _write_json(demo, args.out):
            return 1
        if not demo["ok"]:
            print("MIGRATION DEMO: resumed output not bit-exact or "
                  "tenant did not finish", file=sys.stderr)
        return 0 if demo["ok"] else 1

    if args.bench:
        from .eval.bench import default_artifact_path, write_bench

        payload = run_fleet_bench(seed=args.seed)
        out = args.out or default_artifact_path(payload["name"])
        try:
            write_bench(payload, out)
        except OSError as exc:
            print(f"error: cannot write benchmark artifact to {out}: {exc}",
                  file=sys.stderr)
            return 1
        lat = payload["series"]["fleet_request_latency_cycles"]
        print(f"fleet bench: {lat['count']} requests served, "
              f"p50 {lat['p50']:.0f} / p99 {lat['p99']:.0f} cycles -> {out}")
        return 0

    try:
        cfg = FleetConfig(boards=args.boards, seed=args.seed,
                          ticks=args.ticks, tick_ms=args.tick_ms,
                          tenants_per_board=args.tenants_per_board,
                          rate_per_tick=args.rate)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    kills = make_kill_schedule(cfg, kills=args.kills) if args.kills else ()
    # Record bus: one ``shard`` snapshot per board plus the merged
    # ``aggregate`` fleet view.
    stream, sink = _open_record_bus(args.stream_out, source="fleet",
                                    seed=args.seed)
    try:
        payload = run_fleet(cfg, kills=kills, stream=stream,
                            flight_path=args.flight_out)
    finally:
        if stream is not None:
            stream.close()
            sink.close()
    if not _write_json(payload, args.out):
        return 1
    f = payload["fleet"]
    r = payload["requests"]
    print(f"fleet: {len(payload['kills_fired'])} kills fired, "
          f"{f['boards_declared_dead']} boards declared dead, "
          f"{f['migrations']} migrations, {r['served']} requests "
          f"served, {len(payload['violations'])} violations",
          file=sys.stderr)
    if stream is not None:
        print(f"wrote {stream.records} telemetry records "
              f"to {args.stream_out}", file=sys.stderr)
    if not payload["ok"]:
        reason = ("invariant_violation" if payload["violations"]
                  or any(payload["board_violations"].values())
                  else "checks_failed")
        print(f"FLEET: {reason}", file=sys.stderr)
        return incident_exit_code({"incident": reason})
    return 0


def _print_catalog() -> None:
    """``explore --list``: the fault-site registry and named schedules."""
    from .faults.explore import NAMED, NAMED_ALL, RANDOM_SITES
    from .faults.registry import SITES

    print("fault sites (FaultSpec.site; docs/FAULTS.md §1):")
    for name, s in SITES.items():
        rnd = "  [--random]" if name in RANDOM_SITES else ""
        print(f"  {name:22s} [{s.layer}] {s.effect}{rnd}")
        if s.targets:
            print(f"  {'':22s}   {s.target_param}: {', '.join(s.targets)}")
        print(f"  {'':22s}   recovery: {', '.join(s.recovery_paths)}")
    print()
    print("named schedules (--named NAME|all):")
    for name in NAMED_ALL:
        note = (NAMED[name][0] if name in NAMED else
                "baseline + x4/x8/x16 traffic surges, retry storm and "
                "board crash; SLO-gated, plus the brownout demo")
        print(f"  {name:14s} {note}")


def cmd_explore(args: argparse.Namespace) -> int:
    import json
    import os

    from .faults.explore import (incident_exit_code, replay_repro,
                                 run_explore)

    if args.list:
        _print_catalog()
        return 0
    if args.repro:
        try:
            with open(args.repro, encoding="utf-8") as f:
                repro = json.load(f)
        except (OSError, ValueError) as exc:
            print(f"error: cannot read repro {args.repro}: {exc}",
                  file=sys.stderr)
            return 2
        try:
            result = replay_repro(repro, flight_path=args.flight_out)
        except (KeyError, ValueError) as exc:
            print(f"error: malformed repro {args.repro}: {exc}",
                  file=sys.stderr)
            return 2
        print(json.dumps(result, indent=2, sort_keys=True))
        if result["reproduced"]:
            print("REPRO: failure reproduced byte-identically",
                  file=sys.stderr)
            return 0
        print("REPRO: did not reproduce (deterministic="
              f"{result['deterministic']}, still_failing="
              f"{result['still_failing']})", file=sys.stderr)
        return 1

    if bool(args.random) != bool(args.sites):
        print("error: --random N and --sites a,b go together",
              file=sys.stderr)
        return 2
    budget = args.budget
    if budget is None:
        budget = 0 if (args.named or args.random) else 150
    # Record bus: one ``explore_schedule`` record per executed
    # schedule, one ``explore_failure`` per shrunk failure.
    stream, sink = _open_record_bus(args.stream_out, source="explore",
                                    seed=args.seed)
    try:
        payload = run_explore(
            budget=budget, seed=args.seed, floor=args.coverage_floor,
            mutate=args.mutate, include_fleet=not args.no_fleet,
            named=[args.named] if args.named else (),
            random_target=args.random or 0,
            random_sites=args.sites.split(",") if args.sites else (),
            stream=stream, flight_path=args.flight_out)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    finally:
        if stream is not None:
            stream.close()
            sink.close()
    if not _write_json(payload, args.out):
        return 1
    if args.repro_out and payload["repros"]:
        try:
            os.makedirs(args.repro_out, exist_ok=True)
            for repro in payload["repros"]:
                name = repro["from_schedule"].replace("/", "-")
                path = os.path.join(args.repro_out, f"REPRO_{name}.json")
                with open(path, "w", encoding="utf-8") as f:
                    json.dump(repro, f, indent=2, sort_keys=True)
                    f.write("\n")
                print(f"wrote {path}", file=sys.stderr)
        except OSError as exc:
            print(f"error: cannot write repros to {args.repro_out}: {exc}",
                  file=sys.stderr)
            return 1
    t = payload["totals"]
    cov = payload["coverage"]
    gate = (f"floor {cov['floor']:.0%}" if payload["budget"] > 0
            else "not gated")
    print(f"explore: {t['executed']} schedules ({t['singles']} singles, "
          f"{t['pairs']} pairs), {t['failures']} failures, "
          f"sites {cov['site_fraction']:.0%}, "
          f"paths {cov['path_fraction']:.0%} ({gate})", file=sys.stderr)
    if payload["random"] is not None:
        r = payload["random"]
        print(f"random: {r['faults_fired']}/{r['target']} faults fired "
              f"in {r['runs']} runs", file=sys.stderr)
    if payload["slo"] is not None:
        print("surge SLO gates: " + ", ".join(
            f"{k} {'ok' if g['ok'] else 'BREACH'}"
            for k, g in payload["slo"].items()), file=sys.stderr)
    if stream is not None:
        print(f"wrote {stream.records} telemetry records "
              f"to {args.stream_out}", file=sys.stderr)
    if payload["incident"] is not None:
        print(f"EXPLORE: {payload['incident']}", file=sys.stderr)
    return incident_exit_code(payload)


def cmd_postmortem(args: argparse.Namespace) -> int:
    import json

    from .obs.flight import load_bundle, render_bundle, validate_bundle

    try:
        bundle = load_bundle(args.bundle)
    except (OSError, ValueError) as exc:
        print(f"error: cannot read bundle {args.bundle}: {exc}",
              file=sys.stderr)
        return 2
    problems = validate_bundle(bundle)
    if problems:
        print(f"invalid post-mortem bundle {args.bundle}:", file=sys.stderr)
        for p in problems:
            print(f"  {p}", file=sys.stderr)
        return 2
    if args.json:
        print(json.dumps(bundle, indent=2, sort_keys=True))
    else:
        print(render_bundle(bundle))
    return 0


def cmd_inventory(args: argparse.Namespace) -> int:
    from .machine import Machine

    m = Machine()
    print("hardware-task library:")
    for name in sorted(m.bitstreams.tasks()):
        core = m.bitstreams.core(name)
        bit = m.bitstreams.get(name)
        fits = [p.prr_id for p in m.prrs if core.resources.fits_in(p.capacity)]
        ms = cycles_to_ms(m.pcap.transfer_cycles(bit.size), m.params.cpu.hz)
        print(f"  {name:8s} bitstream {bit.size:>7d} B  reconfig {ms:5.2f} ms"
              f"  PRRs {fits}")
    print("fabric floorplan:")
    for p in m.prrs:
        c = p.capacity
        print(f"  PRR{p.prr_id}: {c.luts} LUTs, {c.bram} BRAM, {c.dsp} DSP")
    return 0


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(prog="python -m repro", description=__doc__)
    sub = ap.add_subparsers(dest="cmd", required=True)

    p_run = sub.add_parser("run", help="run a scenario and print a report")
    p_run.add_argument("--guests", type=int, default=2)
    p_run.add_argument("--native", action="store_true")
    p_run.add_argument("--ms", type=float, default=200.0,
                       help="simulated milliseconds")
    p_run.add_argument("--seed", type=int, default=1)
    p_run.add_argument("--verify", action="store_true",
                       help="check every hardware result against the golden model")
    p_run.add_argument("--trace-out", metavar="FILE", default=None,
                       help="write a Chrome trace-event JSON "
                            "(chrome://tracing / Perfetto) after the run")
    p_run.add_argument("--trace-verbose", action="store_true",
                       help="also emit high-rate events (per-hypercall, "
                            "per-vIRQ; see docs/OBSERVABILITY.md)")
    p_run.add_argument("--metrics", action="store_true",
                       help="print the kernel metrics registry "
                            "(counters, gauges, histograms)")
    _add_stream_args(p_run)
    p_run.add_argument("--slo", metavar="FILE", default=None,
                       help="evaluate a declarative SLO config on the "
                            "stream; any breach exits 3 "
                            "(docs/OBSERVABILITY.md §12)")
    p_run.add_argument("--flight-out", metavar="FILE", default=None,
                       help="post-mortem bundle path "
                            "(default: FLIGHT_run.json)")
    p_run.set_defaults(fn=cmd_run)

    p_t3 = sub.add_parser("table3", help="regenerate Table III and Fig. 9")
    p_t3.add_argument("--completions", type=int, default=50)
    p_t3.add_argument("--seed", type=int, default=1)
    p_t3.set_defaults(fn=cmd_table3)

    p_bench = sub.add_parser(
        "bench", help="run the paper scenario, write BENCH_<name>.json")
    p_bench.add_argument("--name", default="paper",
                         help="bench profile / artifact name (default: paper)")
    p_bench.add_argument("--quick", action="store_true",
                         help="CI smoke profile (fewer guests, shorter run)")
    p_bench.add_argument("--guests", type=int, default=None,
                         help="override the profile's guest count")
    p_bench.add_argument("--ms", type=float, default=None,
                         help="override the profile's simulated milliseconds")
    p_bench.add_argument("--seed", type=int, default=1)
    p_bench.add_argument("--out", metavar="FILE", default=None,
                         help="artifact path (default: BENCH_<name>.json)")
    _add_stream_args(p_bench)
    p_bench.add_argument("--slo", metavar="FILE", default=None,
                         help="evaluate a declarative SLO config on the "
                              "stream; any breach exits 3")
    p_bench.set_defaults(fn=cmd_bench)

    p_inv = sub.add_parser("inventory", help="task library + floorplan")
    p_inv.set_defaults(fn=cmd_inventory)

    p_fleet = sub.add_parser(
        "fleet", help="supervised multi-board fleet with live migration "
                      "(docs/FLEET.md)")
    p_fleet.add_argument("--boards", type=int, default=4,
                         help="number of boards (default: 4)")
    p_fleet.add_argument("--tenants-per-board", type=int, default=2,
                         help="initial tenants per board (default: 2)")
    p_fleet.add_argument("--ticks", type=int, default=32,
                         help="dispatcher ticks to run (default: 32)")
    p_fleet.add_argument("--tick-ms", type=float, default=2.0,
                         help="simulated milliseconds per tick "
                              "(default: 2.0)")
    p_fleet.add_argument("--seed", type=int, default=1)
    p_fleet.add_argument("--rate", type=float, default=0.1,
                         help="mean request arrivals per tenant per tick "
                              "(default: 0.1)")
    p_fleet.add_argument("--kills", type=int, default=0, metavar="N",
                         help="schedule N seeded board faults in this run "
                              "(crash/hang/partition)")
    p_fleet.add_argument("--migration-demo", action="store_true",
                         help="run the live-migration acceptance proof: "
                              "crash a board mid-workload, finish on a "
                              "survivor, diff the output bit-exactly")
    p_fleet.add_argument("--bench", action="store_true",
                         help="write the fleet quick-bench artifact "
                              "(BENCH_fleet_quick.json) instead of a "
                              "report")
    p_fleet.add_argument("--out", metavar="FILE", default=None,
                         help="write the JSON result (or bench artifact) "
                              "to FILE instead of stdout")
    p_fleet.add_argument("--stream-out", metavar="FILE", default=None,
                         help="write per-board shard snapshots + the "
                              "merged aggregate view as JSONL telemetry")
    p_fleet.add_argument("--flight-out", metavar="FILE", default=None,
                         help="arm a flight recorder: dump a post-mortem "
                              "bundle from the implicated board on the "
                              "first fleet invariant violation")
    p_fleet.set_defaults(fn=cmd_fleet)

    p_explore = sub.add_parser(
        "explore", help="the fault-schedule runner: coverage-guided "
                        "exploration, named schedules and seeded random "
                        "faults, with delta-debugged minimal repros "
                        "(docs/FAULTS.md §5)")
    p_explore.add_argument("--budget", type=int, default=None,
                           help="exploration schedule budget (default: "
                                "150, or 0 with --named/--random)")
    p_explore.add_argument("--named", default=None, metavar="NAME|all",
                           help="run one named schedule, or 'all' (see "
                                "--list)")
    p_explore.add_argument("--random", type=int, default=None, metavar="N",
                           help="random mode: seeded fault draws over "
                                "--sites until N faults fired")
    p_explore.add_argument("--sites", default=None, metavar="A,B",
                           help="random-mode sites (service.crash, "
                                "service.hang, vm.kill, board.*)")
    p_explore.add_argument("--list", action="store_true",
                           help="list the fault sites and named schedules "
                                "and exit")
    p_explore.add_argument("--seed", type=int, default=7)
    p_explore.add_argument("--coverage-floor", type=float, default=0.9,
                           metavar="FRAC",
                           help="minimum fraction of registered recovery "
                                "paths that must fire (default: 0.9; all "
                                "sites must always fire)")
    p_explore.add_argument("--mutate", default=None, metavar="NAME",
                           help="disable one recovery path before every "
                                "inline run (self-test mode; also via "
                                "REPRO_EXPLORE_MUTATE)")
    p_explore.add_argument("--no-fleet", action="store_true",
                           help="skip the fleet schedules in exploration "
                                "and 'surge' in --named all")
    p_explore.add_argument("--repro", metavar="FILE", default=None,
                           help="replay a shrunk repro JSON twice and "
                                "verify the byte-identical failure "
                                "instead of exploring")
    p_explore.add_argument("--out", metavar="FILE", default=None,
                           help="write the JSON payload to FILE instead "
                                "of stdout")
    p_explore.add_argument("--repro-out", metavar="DIR", default=None,
                           help="write each shrunk repro as "
                                "DIR/REPRO_<schedule>.json")
    p_explore.add_argument("--stream-out", metavar="FILE", default=None,
                           help="write explore_schedule/explore_failure "
                                "records as JSONL telemetry")
    p_explore.add_argument("--flight-out", metavar="FILE", default=None,
                           help="dump a post-mortem bundle for the first "
                                "failing schedule, else for the first "
                                "schedule in which a fault fired")
    p_explore.set_defaults(fn=cmd_explore)

    p_pm = sub.add_parser(
        "postmortem", help="validate + pretty-print a flight-recorder "
                           "bundle (docs/OBSERVABILITY.md §13)")
    p_pm.add_argument("bundle", help="bundle path (FLIGHT_*.json)")
    p_pm.add_argument("--json", action="store_true",
                      help="dump the validated bundle as JSON instead of "
                           "the summary")
    p_pm.set_defaults(fn=cmd_postmortem)

    args = ap.parse_args(argv)
    return args.fn(args)


def _interval_ms(text: str) -> float:
    """argparse type of ``--stream-interval-ms``: a finite cadence of at
    least one simulated cycle."""
    value = float(text)
    if not (value < float("inf") and ms_to_cycles(value) >= 1):
        raise argparse.ArgumentTypeError(
            f"must be a positive number of milliseconds, got {text}")
    return value


def _add_stream_args(p: argparse.ArgumentParser) -> None:
    from .obs.stream import DEFAULT_INTERVAL_MS

    p.add_argument("--stream-out", metavar="FILE", default=None,
                   help="write the JSONL telemetry stream (deterministic "
                        "metric deltas; docs/OBSERVABILITY.md §10)")
    p.add_argument("--stream-interval-ms", type=_interval_ms,
                   default=DEFAULT_INTERVAL_MS, metavar="MS",
                   help="emission cadence in simulated milliseconds "
                        f"(default: {DEFAULT_INTERVAL_MS:g})")


if __name__ == "__main__":
    sys.exit(main())
