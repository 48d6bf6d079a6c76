"""Command-line interface: ``python -m repro <experiment>``.

Gives every table, figure, and ablation a shell-invokable entry point,
plus a fault-demo command that prints a Covirt crash dossier.
"""

from __future__ import annotations

import argparse
import sys
from typing import Callable

from repro.harness import experiments as ex
from repro.harness.env import CovirtEnvironment


def _figure(
    title: str, rows: Callable[[CovirtEnvironment], list[dict]]
) -> Callable[[], "ex.ExperimentResult"]:
    """A paper figure's rows, run on a fresh environment, as a table."""

    def driver() -> ex.ExperimentResult:
        return ex.ExperimentResult.from_rows(title, rows(CovirtEnvironment()))

    driver.__doc__ = rows.__doc__
    return driver


#: experiment name → driver
EXPERIMENTS: dict[str, Callable[[], "ex.ExperimentResult"]] = {
    "table1": ex.run_table1,
    "fig3": _figure("Fig. 3: Selfish-Detour noise profile", ex.fig3),
    "fig4": _figure("Fig. 4: XEMEM attach delay", ex.fig4),
    "fig5a": _figure("Fig. 5a: STREAM (1 core)", ex.fig5a),
    "fig5b": _figure("Fig. 5b: RandomAccess (1 core)", ex.fig5b),
    "fig6": _figure(
        "Fig. 6: MiniFE scaling over CPU-core/NUMA-zone layouts", ex.fig6
    ),
    "fig7": _figure(
        "Fig. 7: HPCG scaling over CPU-core/NUMA-zone layouts", ex.fig7
    ),
    "fig8": _figure("Fig. 8: LAMMPS loop times, 8c/2n", ex.fig8),
    "ablation-coalescing": ex.run_ablation_coalescing,
    "ablation-ipi-mode": ex.run_ablation_ipi_mode,
    "ablation-async": ex.run_ablation_async_config,
    "motivation": ex.run_motivation_fullvirt,
    "isolation": ex.run_isolation_corun,
    "integration-spectrum": ex.run_integration_spectrum,
    "sensitivity": ex.run_sensitivity,
}


def run_experiments(names: list[str], json_dir: str | None = None) -> int:
    for name in names:
        driver = EXPERIMENTS.get(name)
        if driver is None:
            print(f"unknown experiment {name!r}; "
                  f"choose from: {', '.join(sorted(EXPERIMENTS))}", file=sys.stderr)
            return 2
        result = driver()
        print(result.render())
        if json_dir is not None:
            path = result.save(json_dir, name)
            print(f"[wrote {path}]")
        print()
    return 0


def run_fault_demo() -> int:
    """Crash a protected enclave and print its dossier."""
    from repro.core.faults import EnclaveFaultError
    from repro.core.features import CovirtConfig
    from repro.harness.env import CovirtEnvironment, Layout

    GiB = 1 << 30
    env = CovirtEnvironment()
    enclave = env.launch(
        Layout("2c/2n", {0: 1, 1: 1}, {0: GiB, 1: GiB}),
        CovirtConfig.full(),
        name="demo",
    )
    enclave.kernel.console.append("worker: entering exchange phase")
    bsp = enclave.assignment.core_ids[0]
    enclave.port.send_ipi(bsp, 0, 99)  # errant, dropped
    try:
        enclave.port.read(bsp, 50 * GiB, 8)
    except EnclaveFaultError:
        pass
    print(env.controller.dossiers[enclave.enclave_id].render())
    print(f"\nhost survived: {env.host.alive}; "
          f"resources reclaimed: {env.host.owner_summary()}")
    return 0


def run_recovery_demo() -> int:
    """Inject every terminating Section-V fault class into supervised
    enclaves under restart-with-backoff and print per-class MTTR."""
    from repro.core.commands import CommandType
    from repro.core.faults import EnclaveFaultError
    from repro.core.features import CovirtConfig
    from repro.harness.env import CovirtEnvironment, Layout
    from repro.hw.interrupts import ExceptionVector
    from repro.recovery import RecoveryMetrics, RecoveryPhase, RestartWithBackoff

    GiB = 1 << 30
    MiB = 1 << 20
    layout = Layout("2c/2n", {0: 1, 1: 1}, {0: GiB, 1: GiB})

    def policy() -> RestartWithBackoff:
        return RestartWithBackoff(base_delay_cycles=100_000)

    def wild_read(env: CovirtEnvironment):
        """Memory-map misconfiguration: read far outside the enclave."""
        svc = env.launch_supervised(layout, CovirtConfig.full(), policy(), name="wild")
        bsp = svc.enclave.assignment.core_ids[0]
        try:
            svc.enclave.port.read(bsp, 50 * GiB, 8)
        except EnclaveFaultError:
            pass
        return svc

    def stale_segment(env: CovirtEnvironment):
        """The paper's crash anecdote: touch a buggily-reclaimed segment."""
        config = CovirtConfig.memory_only()
        owner = env.launch(layout, config, name="owner")
        svc = env.launch_supervised(layout, config, policy(), name="attacher")
        task = owner.kernel.spawn("exporter", mem_bytes=MiB)
        seg = env.mcp.xemem.make(
            owner.enclave_id, "shared", task.slices[0].start, MiB
        )
        env.mcp.xemem.attach(svc.enclave.enclave_id, seg.segid)
        core = svc.enclave.assignment.core_ids[0]
        svc.enclave.kernel.touch(core, task.slices[0].start, 8)  # warm: works
        env.mcp.xemem.force_remove_buggy(seg.segid)
        try:
            svc.enclave.kernel.touch(core, task.slices[0].start, 8, write=True)
        except EnclaveFaultError:
            pass
        return svc

    def double_fault(env: CovirtEnvironment):
        """Abort-class exception with exception interposition on."""
        svc = env.launch_supervised(layout, CovirtConfig.full(), policy(), name="df")
        bsp = svc.enclave.assignment.core_ids[0]
        try:
            svc.enclave.port.raise_exception(bsp, ExceptionVector.DOUBLE_FAULT)
        except EnclaveFaultError:
            pass
        return svc

    def triple_fault(env: CovirtEnvironment):
        """Abort escalation without exception interposition: the guest's
        unhandled abort becomes a triple fault, which VMX always exits on."""
        from repro.core.features import Feature

        svc = env.launch_supervised(
            layout, CovirtConfig(features=Feature.MEMORY), policy(), name="tf"
        )
        bsp = svc.enclave.assignment.core_ids[0]
        try:
            svc.enclave.port.raise_exception(bsp, ExceptionVector.DOUBLE_FAULT)
        except EnclaveFaultError:
            pass
        return svc

    def controller_terminate(env: CovirtEnvironment):
        """Administrative TERMINATE through the command queue."""
        svc = env.launch_supervised(layout, CovirtConfig.full(), policy(), name="ctl")
        ctx = env.controller.context_for(svc.enclave.enclave_id)
        bsp = svc.enclave.assignment.core_ids[0]
        env.controller.issue_command_to(ctx, bsp, CommandType.TERMINATE)
        return svc

    scenarios = [
        ("memory-map misconfiguration", wild_read),
        ("stale XEMEM segment", stale_segment),
        ("double fault", double_fault),
        ("triple fault", triple_fault),
        ("controller terminate", controller_terminate),
    ]
    combined = RecoveryMetrics()
    failures = 0
    for label, scenario in scenarios:
        env = CovirtEnvironment()
        svc = scenario(env)
        recovered = svc.phase is RecoveryPhase.RUNNING and svc.incarnation > 1
        print(
            f"{label:32s} fault: {svc.history[-1].describe() if svc.history else '-':45s} "
            f"→ {svc.phase.value}"
            + (f" (incarnation {svc.incarnation})" if recovered else "")
        )
        if not recovered:
            failures += 1
        for rec in env.recovery.metrics.records:
            combined.record(rec)
        combined.counters.checkpoints_taken += (
            env.recovery.metrics.counters.checkpoints_taken
        )
        combined.counters.checkpoint_cycles += (
            env.recovery.metrics.counters.checkpoint_cycles
        )
    print()
    print(combined.render())
    print(
        "\n(MSR and I/O-port abuse are deny-and-log under Covirt —"
        " no termination, so nothing to recover.)"
    )
    return 1 if failures else 0


def _prepare_postmortem_dir(path: str) -> str | None:
    """Make ``--postmortem-dir`` usable before the scenario runs: create
    it (parents included) if missing and prove it is writable with a
    probe file.  Returns a one-line error string on failure so callers
    never surface a traceback for a bad path."""
    import os
    from pathlib import Path

    target = Path(path)
    try:
        target.mkdir(parents=True, exist_ok=True)
        probe = target / ".write-probe"
        probe.write_bytes(b"")
        os.unlink(probe)
    except OSError as exc:
        return f"trace-export: cannot write post-mortems to {path!r}: {exc}"
    return None


def run_trace_export(args) -> int:
    """Run the canonical demo scenario and export its span stream as
    Chrome-trace JSON (loads in Perfetto / chrome://tracing)."""
    from repro.obs import validate_chrome_trace, write_chrome_trace
    from repro.obs.export import chrome_trace
    from repro.obs.scenario import run_canonical_scenario

    if args.postmortem_dir is not None:
        problem = _prepare_postmortem_dir(args.postmortem_dir)
        if problem is not None:
            print(problem, file=sys.stderr)
            return 2
    env = run_canonical_scenario(
        seed=args.seed, postmortem_dir=args.postmortem_dir
    )
    tracer = env.machine.obs.tracer
    if args.golden:
        for line in tracer.golden_lines():
            print(line)
        return 0
    doc = chrome_trace(tracer.spans)
    problems = validate_chrome_trace(doc)
    if problems:  # pragma: no cover - would be a bug in the exporter
        for problem in problems:
            print(f"invalid trace: {problem}", file=sys.stderr)
        return 1
    events = write_chrome_trace(tracer.spans, args.out)
    print(
        f"[wrote {args.out}: {events} events, {len(tracer.spans)} spans"
        f" ({tracer.dropped} dropped)]"
    )
    for path in env.machine.obs.flight.dumped_paths:
        print(f"[wrote post-mortem {path}]")
    return 0


def run_trace_analyze(args) -> int:
    """Analyze an exported trace: critical paths, exit attribution,
    rollups — or a structural diff between two traces."""
    from repro.obs.analyze import (
        diff_traces,
        load_trace,
        render_diff,
        render_report,
    )

    model = load_trace(args.trace)
    if args.diff is not None:
        other = load_trace(args.diff)
        diff = diff_traces(model, other, threshold=args.threshold)
        print(
            render_diff(diff, source_a=args.trace, source_b=args.diff),
            end="",
        )
        return 1 if (args.fail_on_diff and not diff.empty) else 0
    print(render_report(model, source=args.trace, top_k=args.top_k), end="")
    return 0


def bench_compare_main(argv: list[str] | None = None) -> int:
    """The ``bench-compare`` entry point (also used by
    ``benchmarks/sentinel.py``): compare two BENCH_*.json sets against
    the tolerance bands; exit 1 on regression."""
    import argparse as _argparse

    from repro.obs.sentinel import (
        ToleranceError,
        compare_sets,
        load_tolerances,
        render_markdown,
    )

    parser = _argparse.ArgumentParser(
        prog="bench-compare",
        description="Compare two BENCH_*.json sets against tolerance bands.",
    )
    parser.add_argument("baseline", help="directory with baseline BENCH_*.json")
    parser.add_argument("candidate", help="directory with candidate BENCH_*.json")
    parser.add_argument(
        "--tolerances",
        default="benchmarks/tolerances.json",
        help="tolerance-band config (default: benchmarks/tolerances.json)",
    )
    parser.add_argument(
        "--out", metavar="FILE", default=None,
        help="also write the markdown report to FILE",
    )
    args = parser.parse_args(argv)
    try:
        tolerances = load_tolerances(args.tolerances)
    except (OSError, ValueError) as exc:
        print(f"bench-compare: bad tolerances: {exc}", file=sys.stderr)
        return 2
    report = compare_sets(args.baseline, args.candidate, tolerances)
    rendered = render_markdown(
        report, baseline_label=args.baseline, candidate_label=args.candidate
    )
    if args.out is not None:
        from pathlib import Path

        Path(args.out).write_text(rendered)
    print(rendered, end="")
    return 0 if report.ok else 1


def run_metrics_dump(args) -> int:
    """Run the canonical demo scenario and dump its metrics registry."""
    import json

    from repro.obs.scenario import run_canonical_scenario

    env = run_canonical_scenario(seed=args.seed)
    metrics = env.machine.obs.metrics
    if args.prom:
        print(metrics.render_prom(), end="")
    elif args.json:
        print(json.dumps(metrics.to_dict(), indent=1, sort_keys=True))
    else:
        print(metrics.render_text())
        print()
        print("exits by reason:")
        for reason, count in metrics.exit_counts_by_reason().items():
            print(f"  {reason:24s} {count}")
    return 0


def run_bench_validate(args) -> int:
    """Validate BENCH_*.json files against the covirt-bench schema."""
    import json
    from pathlib import Path

    from repro.obs import validate_bench

    paths = sorted(
        Path(p) for pattern in (args.paths or ["BENCH_*.json"])
        for p in (
            [pattern] if Path(pattern).is_file() else Path(".").glob(pattern)
        )
    )
    if not paths:
        print("no BENCH_*.json files found", file=sys.stderr)
        return 2
    bad = 0
    for path in paths:
        try:
            doc = json.loads(path.read_text())
        except (OSError, ValueError) as exc:
            print(f"{path}: unreadable: {exc}")
            bad += 1
            continue
        problems = validate_bench(doc)
        if problems:
            bad += 1
            print(f"{path}: INVALID")
            for problem in problems:
                print(f"  - {problem}")
        else:
            exits = sum(doc["exits_by_reason"].values())
            print(f"{path}: ok ({doc['bench']}, {exits} exits)")
    return 1 if bad else 0


# Exit-code contract for the fuzz family (fuzz / replay / shrink /
# distill / sweep), pinned by tests/fuzz/test_cli_exitcodes.py:
#   0 — clean: no finding, no divergence;
#   1 — a *finding*: an oracle violation or unexpected exception was
#       (re)produced, or a corpus replay diverged;
#   2 — internal error: bad arguments, unreadable/incompatible corpus
#       entries, or a crash in the tool itself.
FUZZ_EXIT_HELP = (
    "exit status: 0 clean, 1 finding (oracle violation, unexpected "
    "exception, or replay divergence), 2 internal error"
)


def _fuzz_internal_error(tool: str, exc: Exception) -> int:
    import traceback

    traceback.print_exc()
    print(f"{tool}: internal error: {exc}", file=sys.stderr)
    return 2


def _run_fuzz_single(args) -> int:
    """One seeded run: print the transcript and verdict."""
    from repro.fuzz import FuzzEngine, SCHEDULES, save_run, shrink_run

    if args.schedule not in SCHEDULES:
        print(
            f"unknown schedule {args.schedule!r}; "
            f"choose from: {', '.join(sorted(SCHEDULES))}",
            file=sys.stderr,
        )
        return 2
    engine = FuzzEngine(seed=args.seed, schedule=args.schedule)
    run = engine.run(args.steps if args.steps is not None else 200)
    for step in run.steps:
        print(step.describe())
    print()
    print(run.describe())
    print(engine.coverage.describe())
    if args.save is not None:
        path = save_run(run, args.save)
        print(f"[wrote {path}]")
    if run.failure is not None and args.shrink_on_failure:
        result = shrink_run(run)
        print(result.describe())
        if args.save is not None:
            path = save_run(result.minimized, args.save)
            print(f"[wrote shrunk reproducer {path}]")
    return 1 if run.failure is not None else 0


def _run_fuzz_campaign(args) -> int:
    """Coverage-guided (or pure-random) parallel campaign."""
    from repro.fuzz import FuzzCampaign, save_campaign

    if not args.continuous and not args.budget:
        print(
            "fuzz: campaign mode needs --budget N (or --continuous "
            "--max-seconds S)",
            file=sys.stderr,
        )
        return 2
    schedules = None
    if args.schedules:
        schedules = tuple(
            s.strip() for s in args.schedules.split(",") if s.strip()
        )
    try:
        campaign = FuzzCampaign(
            args.budget or 0,
            workers=args.workers,
            steps=args.steps if args.steps is not None else 60,
            schedules=schedules,
            guided=not args.random,
            seed=args.seed,
        )
    except ValueError as exc:
        print(f"fuzz: {exc}", file=sys.stderr)
        return 2
    progress = None if args.quiet else lambda line: print(line, flush=True)
    if args.continuous:
        result = campaign.run_continuous(args.max_seconds, progress=progress)
    else:
        result = campaign.run(progress=progress)
    print(result.describe())
    print(result.distilled().describe())
    for run in result.findings:
        print(f"FINDING: {run.describe()}")
    if args.out is not None:
        summary = save_campaign(result, args.out, shrink=args.shrink_on_failure)
        print(
            f"[wrote campaign artifacts to {args.out}: "
            f"{len(summary['files']['corpus'])} corpus entries, "
            f"{len(summary['files']['findings'])} finding files]"
        )
    return 1 if result.findings else 0


def run_fuzz(args) -> int:
    """Fuzz entry point: a single transcripted run by default, a
    parallel coverage-guided campaign with ``--budget``/``--continuous``."""
    try:
        if args.budget is not None or args.continuous:
            return _run_fuzz_campaign(args)
        return _run_fuzz_single(args)
    except Exception as exc:
        return _fuzz_internal_error("fuzz", exc)


def run_replay(args) -> int:
    """Re-execute recorded corpus runs; fail on any divergence."""
    from pathlib import Path

    from repro.fuzz import load_corpus, replay_run
    from repro.fuzz.corpus import load_run

    target = Path(args.path)
    try:
        entries = (
            load_corpus(target)
            if target.is_dir()
            else [(target, load_run(target))]
        )
    except (OSError, ValueError) as exc:
        print(f"replay: {exc}", file=sys.stderr)
        return 2
    if not entries:
        print(f"no corpus entries under {target}", file=sys.stderr)
        return 2
    try:
        divergent = 0
        for path, run in entries:
            result = replay_run(run)
            status = "ok" if result.matches else "DIVERGED"
            print(f"{path.name:60s} {run.describe()}")
            print(f"{'':60s} replay: {status}")
            if not result.matches:
                divergent += 1
                for diff in result.diffs:
                    print(f"{'':62s} {diff}")
        print(
            f"\n{len(entries) - divergent}/{len(entries)} corpus entries "
            f"reproduced byte-for-byte"
        )
        return 1 if divergent else 0
    except Exception as exc:
        return _fuzz_internal_error("replay", exc)


def run_shrink(args) -> int:
    """Minimize a recorded failing run to its shortest reproducer."""
    from repro.fuzz import save_run, shrink_run
    from repro.fuzz.corpus import load_run

    try:
        run = load_run(args.path)
    except (OSError, ValueError) as exc:
        print(f"shrink: {exc}", file=sys.stderr)
        return 2
    if run.failure is None:
        print(f"{args.path} recorded a clean run; nothing to shrink")
        return 0
    try:
        result = shrink_run(run, max_executions=args.max_executions)
        print(result.describe())
        for step in result.minimized.steps:
            print(step.describe())
        if args.save is not None:
            path = save_run(result.minimized, args.save)
            print(f"[wrote {path}]")
        if result.minimized.failure is None:
            # The recorded failure no longer reproduces — the bug it
            # pinned is gone (or the entry is stale).  Clean exit.
            print("recorded failure no longer reproduces")
            return 0
        # The minimized run still reproduces a genuine finding.
        return 1
    except Exception as exc:
        return _fuzz_internal_error("shrink", exc)


def run_distill(args) -> int:
    """Reduce a corpus directory to a minimal-covering subset."""
    from repro.fuzz import distill_runs, load_corpus, save_run

    try:
        entries = load_corpus(args.path)
    except (OSError, ValueError) as exc:
        print(f"distill: {exc}", file=sys.stderr)
        return 2
    if not entries:
        print(f"no corpus entries under {args.path}", file=sys.stderr)
        return 2
    try:
        result = distill_runs([run for _, run in entries])
        print(result.describe())
        kept_fps = {run.fingerprint for run in result.kept}
        for path, run in entries:
            marker = "keep" if run.fingerprint in kept_fps else "drop"
            print(f"  {marker}  {path.name}  ({len(run.coverage)} edges)")
        if args.out is not None:
            for run in result.kept:
                save_run(run, args.out)
            print(f"[wrote {len(result.kept)} distilled entries to {args.out}]")
        if args.prune:
            pruned = 0
            for path, run in entries:
                if run.fingerprint not in kept_fps:
                    path.unlink()
                    pruned += 1
            print(f"[pruned {pruned} subsumed entries from {args.path}]")
        return 0
    except Exception as exc:
        return _fuzz_internal_error("distill", exc)


def _run_sweep_inner(args) -> int:
    """Scenario sweep: resolve the spec, execute the grid, emit stats
    artifacts.  Follows the fuzz-family exit contract: 0 clean, 1 when
    any cell run ends in an oracle violation or unexpected exception,
    2 on bad input or a crash in the harness itself."""
    import json
    from pathlib import Path

    from repro.sweep import (
        SweepExecutor,
        SweepSpec,
        full_spec,
        quick_spec,
        render_markdown,
        write_artifacts,
    )

    try:
        if args.spec is not None:
            spec = SweepSpec.from_dict(
                json.loads(Path(args.spec).read_text())
            )
        elif args.quick:
            spec = quick_spec(base_seed=args.seed)
        else:
            spec = full_spec(base_seed=args.seed)
        if args.seeds is not None:
            import dataclasses

            spec = dataclasses.replace(
                spec, seeds_per_cell=int(args.seeds)
            )
        if args.list_cells:
            for cell in spec.cells():
                print(cell.cell_id())
            print(spec.describe())
            return 0
        executor = SweepExecutor(spec, workers=args.workers)
    except (OSError, ValueError) as exc:
        print(f"sweep: {exc}", file=sys.stderr)
        return 2
    progress = None if args.quiet else lambda line: print(line, flush=True)
    result = executor.run(progress=progress)
    print(result.describe())
    print()
    print(render_markdown(result), end="")
    for cell_id, run in result.failures:
        print(
            f"FINDING: {cell_id} seed={run.seed}: "
            f"{run.failure['kind']} — {run.failure['detail']}"
        )
    if args.out is not None:
        quick = bool(args.quick) if args.spec is None else False
        paths = write_artifacts(result, args.out, quick=quick)
        print(
            f"[wrote {', '.join(p.name for p in paths.values())} "
            f"to {args.out}]"
        )
    return 1 if result.failures else 0


def run_sweep(args) -> int:
    try:
        return _run_sweep_inner(args)
    except Exception as exc:
        return _fuzz_internal_error("sweep", exc)


def run_serve_demo(args) -> int:
    """The docs/serving.md quickstart, executable: drive one session
    through its whole lifecycle against a covirt-serve daemon.  By
    default the demo self-hosts a daemon on a background thread; with
    ``--connect`` it exercises an external one (the CI smoke job)."""
    import json

    from repro.serve.client import ServeClient
    from repro.serve.daemon import ServeDaemon

    daemon = None
    endpoint = args.connect
    if endpoint is None:
        daemon = ServeDaemon(tcp=("127.0.0.1", 0))
        daemon.start()
        endpoint = daemon.endpoint

    def show(label: str, result) -> None:
        print(f"--> {label}")
        print(f"    {json.dumps(result, sort_keys=True)}")

    try:
        with ServeClient(endpoint, tenant="demo") as client:
            show("ping", client.ping())
            launched = client.launch(scenario=args.scenario, seed=args.seed)
            sid = launched["session_id"]
            show("session.launch", launched)
            show("session.step", client.step(sid, steps=5))
            show("session.run", client.run(sid, cycles=200_000_000))
            inspected = client.inspect(sid)
            show("session.inspect", {
                k: inspected[k]
                for k in ("session_id", "state", "clock", "steps_applied",
                          "enclaves", "postmortems")
            })
            show("session.inject", client.inject(
                sid, "touch_outside", {"slot": 0, "page": 7, "write": False}
            ))
            trace = client.trace(sid, cursor=0, limit=5)
            show("session.trace", {
                "events": len(trace["events"]),
                "cursor": trace["cursor"],
                "dropped": trace["dropped"],
                "recorded": trace["recorded"],
            })
            show("session.kill", client.kill(sid))
            show("stats", client.stats())
            if args.shutdown:
                show("shutdown", client.shutdown())
    finally:
        if daemon is not None:
            daemon.stop()
    print("serve-demo: ok")
    return 0


def main(argv: list[str] | None = None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    if argv and argv[0] == "serve":
        # Hand everything after "serve" to the daemon's own parser.
        # argparse REMAINDER cannot capture a leading option token
        # (e.g. ``repro serve --help``), so route before parsing.
        from repro.serve.daemon import main as serve_main

        return serve_main(argv[1:])
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Covirt reproduction: regenerate the paper's evaluation.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    run = sub.add_parser("run", help="run one or more experiments")
    run.add_argument(
        "experiments",
        nargs="+",
        metavar="EXPERIMENT",
        help=f"one of: {', '.join(sorted(EXPERIMENTS))}, or 'all'",
    )
    run.add_argument(
        "--json",
        metavar="DIR",
        default=None,
        help="also write machine-readable results to DIR/<experiment>.json",
    )
    sub.add_parser("list", help="list available experiments")
    sub.add_parser("fault-demo", help="crash an enclave, print its dossier")
    sub.add_parser(
        "recovery-demo",
        help="inject the terminating fault gallery under supervision, "
        "print per-fault-class MTTR",
    )
    sub.add_parser(
        "verify", help="check every paper shape claim against its band"
    )
    trace = sub.add_parser(
        "trace-export",
        help="run the canonical demo scenario, export spans as "
        "Chrome-trace/Perfetto JSON (see docs/observability.md)",
    )
    trace.add_argument("--seed", type=int, default=0xC0517)
    trace.add_argument(
        "--out", metavar="FILE", default="trace.json", help="output path"
    )
    trace.add_argument(
        "--golden",
        action="store_true",
        help="print the timestamp-free golden transcript instead of "
        "writing a trace file",
    )
    trace.add_argument(
        "--postmortem-dir",
        metavar="DIR",
        default=None,
        help="write the run's post-mortem bundles (the containment fault"
        " produces one) into DIR as sorted-key JSON",
    )
    tana = sub.add_parser(
        "trace-analyze",
        help="critical paths, exit-latency attribution, and rollups for "
        "an exported trace; --diff compares two traces structurally",
    )
    tana.add_argument(
        "trace", help="Chrome-trace JSON (trace-export) or golden transcript"
    )
    tana.add_argument(
        "--diff", metavar="TRACE", default=None,
        help="second trace: report added/removed/retimed span paths",
    )
    tana.add_argument(
        "--threshold", type=float, default=0.05,
        help="relative retiming threshold for --diff (default 0.05)",
    )
    tana.add_argument(
        "--top-k", type=int, default=10,
        help="rows in the exit-attribution table (default 10)",
    )
    tana.add_argument(
        "--fail-on-diff", action="store_true",
        help="exit 1 when --diff finds any structural difference",
    )
    bcmp = sub.add_parser(
        "bench-compare",
        help="compare two BENCH_*.json sets against tolerance bands "
        "(benchmarks/tolerances.json); exit 1 on regression",
        add_help=False,
    )
    bcmp.add_argument("rest", nargs=argparse.REMAINDER)
    mdump = sub.add_parser(
        "metrics-dump",
        help="run the canonical demo scenario, dump the metrics registry",
    )
    mdump.add_argument("--seed", type=int, default=0xC0517)
    mdump.add_argument(
        "--json", action="store_true", help="JSON instead of text"
    )
    mdump.add_argument(
        "--prom", action="store_true",
        help="Prometheus text exposition (v0.0.4) instead of text",
    )
    bval = sub.add_parser(
        "bench-validate",
        help="validate BENCH_*.json files against the covirt-bench schema",
    )
    bval.add_argument(
        "paths", nargs="*", metavar="PATH",
        help="files or globs (default: BENCH_*.json in the CWD)",
    )
    fuzz = sub.add_parser(
        "fuzz",
        help="seeded deterministic fault-injection fuzzing; --budget/"
        "--continuous runs a coverage-guided parallel campaign "
        "(see docs/fuzzing.md)",
        epilog=FUZZ_EXIT_HELP,
    )
    fuzz.add_argument("--seed", type=int, default=0xC0517)
    fuzz.add_argument(
        "--steps", type=int, default=None,
        help="actions per run (default: 200 single-run, 60 in a campaign)",
    )
    fuzz.add_argument(
        "--schedule",
        default="baseline",
        help="single-run action-mix weight table: baseline, hostile, "
        "churn, recovery",
    )
    fuzz.add_argument(
        "--save", metavar="DIR", default=None,
        help="single-run mode: serialize the run to DIR",
    )
    fuzz.add_argument(
        "--shrink-on-failure",
        action="store_true",
        help="minimize failing sequences (ddmin) before exiting",
    )
    fuzz.add_argument(
        "--budget", type=int, default=None, metavar="N",
        help="campaign mode: execute exactly N runs (deterministic in "
        "--seed regardless of --workers)",
    )
    fuzz.add_argument(
        "--workers", type=int, default=1, metavar="K",
        help="campaign mode: multiprocessing workers (default 1)",
    )
    fuzz.add_argument(
        "--schedules", default=None, metavar="A,B,...",
        help="campaign mode: comma-separated schedule rotation "
        "(default: all four)",
    )
    fuzz.add_argument(
        "--random", action="store_true",
        help="campaign mode: disable coverage guidance (pure-random "
        "baseline; fresh seeds only, no mutation)",
    )
    fuzz.add_argument(
        "--continuous", action="store_true",
        help="campaign mode: keep fuzzing until --max-seconds elapses "
        "(the nightly bug-mining farm)",
    )
    fuzz.add_argument(
        "--max-seconds", type=float, default=300.0, metavar="S",
        help="wall-clock bound for --continuous (default 300)",
    )
    fuzz.add_argument(
        "--out", metavar="DIR", default=None,
        help="campaign mode: write distilled corpus, findings, "
        "coverage.json, summary.json under DIR",
    )
    fuzz.add_argument(
        "--quiet", action="store_true",
        help="campaign mode: suppress per-batch progress lines",
    )
    distill = sub.add_parser(
        "distill",
        help="reduce a corpus directory to a minimal-covering subset "
        "(greedy set cover over coverage edges; failures always kept)",
        epilog=FUZZ_EXIT_HELP,
    )
    distill.add_argument("path", help="corpus directory")
    distill.add_argument(
        "--out", metavar="DIR", default=None,
        help="write the distilled entries to DIR",
    )
    distill.add_argument(
        "--prune", action="store_true",
        help="delete subsumed entries from the corpus directory in place",
    )
    sweep = sub.add_parser(
        "sweep",
        help="scenario sweep + adaptation harness: run a cell grid of "
        "(schedule x enclaves x NUMA x workloads x adaptation x policy) "
        "seeds and emit per-cell stats artifacts (see docs/scenarios.md)",
        epilog=FUZZ_EXIT_HELP,
    )
    sweep.add_argument("--seed", type=int, default=0xC0517)
    sweep.add_argument(
        "--quick", action="store_true",
        help="the small CI grid (6 cells x 2 seeds) instead of the "
        "full one",
    )
    sweep.add_argument(
        "--spec", metavar="FILE", default=None,
        help="load a covirt-sweep-spec JSON grid instead of the "
        "built-in quick/full presets",
    )
    sweep.add_argument(
        "--seeds", type=int, default=None, metavar="N",
        help="override the spec's seeds_per_cell",
    )
    sweep.add_argument(
        "--workers", type=int, default=1, metavar="K",
        help="multiprocessing workers; artifacts are byte-identical "
        "for any value (default 1)",
    )
    sweep.add_argument(
        "--out", metavar="DIR", default=None,
        help="write sweep.json, tables.md, boxplot.json, and "
        "BENCH_sweep.json under DIR",
    )
    sweep.add_argument(
        "--list-cells", action="store_true",
        help="print the grid's cell ids and exit without running",
    )
    sweep.add_argument(
        "--quiet", action="store_true",
        help="suppress per-batch progress lines",
    )
    # "serve" is routed to the daemon's own parser before parse_args
    # (see the top of this function); registered here for help listing.
    sub.add_parser(
        "serve",
        help="run the covirt-serve multi-tenant session daemon "
        "(see docs/serving.md)",
        add_help=False,
    )
    sdemo = sub.add_parser(
        "serve-demo",
        help="drive one session through launch/step/run/inspect/inject/"
        "trace/kill against a covirt-serve daemon",
    )
    sdemo.add_argument("--seed", type=int, default=0xC0517)
    sdemo.add_argument(
        "--scenario", default="baseline",
        help="fuzz schedule to serve: baseline, hostile, churn, recovery",
    )
    sdemo.add_argument(
        "--connect", metavar="SPEC", default=None,
        help="use an external daemon at unix:PATH or tcp:HOST:PORT "
        "instead of self-hosting one",
    )
    sdemo.add_argument(
        "--shutdown", action="store_true",
        help="ask the daemon to shut down at the end (CI smoke)",
    )
    top = sub.add_parser(
        "top",
        help="live dashboard over a covirt-serve daemon's telemetry "
        "plane (interval-polling, curses-free)",
    )
    top.add_argument(
        "--connect", metavar="SPEC", required=True,
        help="daemon endpoint: unix:PATH or tcp:HOST:PORT",
    )
    top.add_argument(
        "--tenant", default="_top",
        help="tenant name for the dashboard connection (default _top)",
    )
    top.add_argument(
        "--interval", type=float, default=2.0, metavar="S",
        help="seconds between snapshot polls (default 2.0)",
    )
    top.add_argument(
        "--iterations", type=int, default=None, metavar="N",
        help="redraw N times then exit (default: until Ctrl-C)",
    )
    top.add_argument(
        "--once", action="store_true",
        help="render a single snapshot and exit",
    )
    top.add_argument(
        "--plain", action="store_true",
        help="append frames instead of clearing the screen (CI logs)",
    )
    top.add_argument(
        "--json", action="store_true",
        help="print the raw telemetry.snapshot document and exit",
    )
    top.add_argument(
        "--probe", type=float, default=None, metavar="SECONDS",
        help="CI smoke: subscribe, stir traffic, schema-validate every "
        "received frame for SECONDS; exit 1 on any invalid frame",
    )
    top.add_argument(
        "--min-frames", type=int, default=1, metavar="N",
        help="--probe fails unless at least N frames arrive (default 1)",
    )
    replay = sub.add_parser(
        "replay",
        help="re-execute a recorded fuzz run (file or corpus dir)",
        epilog=FUZZ_EXIT_HELP,
    )
    replay.add_argument("path", help="corpus .json file or directory")
    shrink = sub.add_parser(
        "shrink",
        help="minimize a recorded failing run (ddmin)",
        epilog=FUZZ_EXIT_HELP,
    )
    shrink.add_argument("path", help="corpus .json file")
    shrink.add_argument("--max-executions", type=int, default=200)
    shrink.add_argument(
        "--save", metavar="DIR", default=None, help="write the minimized run to DIR"
    )
    args = parser.parse_args(argv)

    if args.command == "verify":
        from repro.harness.verify import run_verification

        report, ok = run_verification()
        print(report)
        print("\nALL CLAIMS REPRODUCED" if ok else "\nSOME CLAIMS OUT OF BAND")
        return 0 if ok else 1
    if args.command == "list":
        for name in sorted(EXPERIMENTS):
            print(f"  {name:22s} {EXPERIMENTS[name].__doc__.splitlines()[0]}")
        return 0
    if args.command == "trace-export":
        return run_trace_export(args)
    if args.command == "trace-analyze":
        return run_trace_analyze(args)
    if args.command == "bench-compare":
        return bench_compare_main(args.rest)
    if args.command == "metrics-dump":
        return run_metrics_dump(args)
    if args.command == "bench-validate":
        return run_bench_validate(args)
    if args.command == "fault-demo":
        return run_fault_demo()
    if args.command == "recovery-demo":
        return run_recovery_demo()
    if args.command == "serve-demo":
        return run_serve_demo(args)
    if args.command == "top":
        from repro.serve.top import run_top

        return run_top(args)
    if args.command == "fuzz":
        return run_fuzz(args)
    if args.command == "replay":
        return run_replay(args)
    if args.command == "shrink":
        return run_shrink(args)
    if args.command == "distill":
        return run_distill(args)
    if args.command == "sweep":
        return run_sweep(args)
    names = list(EXPERIMENTS) if args.experiments == ["all"] else args.experiments
    return run_experiments(names, json_dir=args.json)


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
