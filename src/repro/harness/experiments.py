"""Experiment drivers: one per table/figure in the paper's evaluation.

Figs. 3-8 are one row function per panel (:func:`fig3` ... :func:`fig8`):
each runs the paper's sweep on the environment it is given and returns
one dict per measurement.  Those rows are the single definition of the
figure.  ``benchmarks/runner.py`` writes them into ``BENCH_fig*.json``,
:mod:`repro.harness.verify` measures the paper's claims from them, and
``python -m repro run`` renders them through
:meth:`ExperimentResult.from_rows`.  Table I and the experiments beyond
the paper (ablations, motivation, isolation, integration, sensitivity)
return an :class:`ExperimentResult` directly.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable

from repro.core.features import CovirtConfig, EVALUATION_CONFIGS
from repro.harness.env import (
    CovirtEnvironment,
    EVALUATION_LAYOUTS,
    MICROBENCH_LAYOUT,
    Layout,
)
from repro.harness.report import format_rows
from repro.hw.clock import CYCLES_PER_US
from repro.hw.memory import page_align_up
from repro.workloads.base import Workload, WorkloadResult
from repro.workloads.hpcg import Hpcg
from repro.workloads.lammps import LAMMPS_PROBLEMS, Lammps
from repro.workloads.minife import MiniFE
from repro.workloads.randomaccess import RandomAccess
from repro.workloads.registry import format_table1
from repro.workloads.selfish import SelfishDetour
from repro.workloads.stream import Stream

MiB = 1 << 20
GiB = 1 << 30


def experiment_rng(name: str):
    """The named RNG stream an experiment draws from.

    All harness-level randomness goes through here (one stream per
    experiment, derived from the repo-wide default seed) so any sweep
    is reproducible from the stream name printed in its notes.
    """
    from repro.fuzz.rng import named_stream

    return named_stream(f"experiments.{name}")


@dataclass
class ExperimentResult:
    """Rows + rendered table for one experiment."""

    experiment: str
    headers: list[str]
    rows: list[list[Any]]
    notes: str = ""

    @classmethod
    def from_rows(
        cls, experiment: str, rows: list[dict[str, Any]]
    ) -> "ExperimentResult":
        """A figure's rows as a table: one column per row key, plus each
        row's ``overhead`` vs native when the rows carry cycle counts."""
        headers = list(rows[0])
        cells = [list(row.values()) for row in rows]
        if "elapsed_cycles" in headers:
            headers.append("overhead")
            for row_cells, overhead in zip(cells, overheads(rows)):
                row_cells.append(f"{overhead * 100:+.2f}%")
        return cls(experiment, headers, cells)

    def render(self) -> str:
        table = format_rows(self.headers, self.rows, title=self.experiment)
        return f"{table}\n{self.notes}" if self.notes else table

    def column(self, name: str) -> list[Any]:
        idx = self.headers.index(name)
        return [row[idx] for row in self.rows]

    def to_dict(self) -> dict[str, Any]:
        """Machine-readable form: one record per row."""
        return {
            "experiment": self.experiment,
            "notes": self.notes,
            "records": [dict(zip(self.headers, row)) for row in self.rows],
        }

    def to_json(self, indent: int = 2) -> str:
        import json

        return json.dumps(self.to_dict(), indent=indent, default=str)

    def save(self, directory: str | Path, name: str) -> Path:
        """Write the JSON artifact to ``directory/name.json``."""
        directory = Path(directory)
        directory.mkdir(parents=True, exist_ok=True)
        path = directory / f"{name}.json"
        path.write_text(self.to_json() + "\n")
        return path


# -- Table I -----------------------------------------------------------


def run_table1(validate_kernels: bool = False) -> ExperimentResult:
    """Table I: benchmark versions and parameters.

    With ``validate_kernels=True`` also runs every benchmark's
    reference kernel from its deterministic named RNG stream, so the
    table doubles as a smoke test of the numerical cores."""
    from repro.workloads.registry import BENCHMARK_TABLE

    rows = [list(w.table_row()) for w in BENCHMARK_TABLE]
    notes = format_table1()
    if validate_kernels:
        lines = []
        for w in BENCHMARK_TABLE:
            rng = experiment_rng(f"table1.{w.name}")
            results = w.reference_kernel(rng.numpy_generator())
            lines.append(
                f"{w.name}: kernel ok ({len(results)} checks; {rng.describe()})"
            )
        notes += "\n" + "\n".join(lines)
    return ExperimentResult(
        experiment="Table I: Benchmark Versions and Parameters",
        headers=["Benchmark Name", "Version", "Parameters"],
        rows=rows,
        notes=notes,
    )


# -- Figs. 3-8: one row function per figure panel ---------------------------
#
# ``quick`` trims each sweep (fewer configs, layouts, sizes) for the CI
# smoke job.


def _configs(quick: bool) -> list[tuple[str, CovirtConfig | None]]:
    if quick:
        return [EVALUATION_CONFIGS[0], EVALUATION_CONFIGS[3]]
    return list(EVALUATION_CONFIGS)


def _row(res: WorkloadResult) -> dict[str, Any]:
    return {
        "workload": res.workload,
        "config": res.config_label,
        "layout": res.layout_label,
        "ncores": res.ncores,
        "elapsed_cycles": res.elapsed_cycles,
        "fom": round(res.fom, 4),
        "fom_name": res.fom_name,
        "higher_is_better": res.higher_is_better,
    }


def _sweep(
    env: CovirtEnvironment,
    workload_factory: Callable[[], Workload],
    layouts: list[Layout],
    quick: bool,
) -> list[dict[str, Any]]:
    """One workload x each layout x the evaluation configs, one enclave
    at a time on ``env``'s machine."""
    rows = []
    for layout in layouts:
        for label, config in _configs(quick):
            workload = workload_factory()
            enclave = env.launch(layout, config, name=f"{workload.name}-{label}")
            rows.append(_row(env.engine.run(workload, enclave)))
            env.teardown(enclave)
    return rows


def overheads(rows: list[dict[str, Any]]) -> list[float]:
    """Each row's slowdown versus the native row with the same workload
    and layout: ``elapsed_cycles / native elapsed_cycles - 1``."""
    native = {
        (row["workload"], row["layout"]): row["elapsed_cycles"]
        for row in rows
        if row["config"] == "native"
    }
    return [
        row["elapsed_cycles"] / native[row["workload"], row["layout"]] - 1.0
        for row in rows
    ]


def fig3(env: CovirtEnvironment, quick: bool = False) -> list[dict[str, Any]]:
    """Fig. 3: Selfish-Detour noise profile across configurations.

    Expected shape: detour *counts* identical in every configuration
    (virtualization adds no noise events), durations shifted by at most
    the exit cost on interrupt-virtualizing configs.
    """
    duration = 0.5 if quick else 10.0
    rows = _sweep(env, lambda: SelfishDetour(duration), [MICROBENCH_LAYOUT], quick)
    workload = SelfishDetour(duration)
    for row in rows:
        trace = workload.sample(row["config"])
        row["detours"] = trace.count
        row["max_detour_us"] = round(trace.max_detour_us(), 3)
        row["noise_fraction"] = trace.noise_fraction
    return rows


def fig4(env: CovirtEnvironment, quick: bool = False) -> list[dict[str, Any]]:
    """Fig. 4: XEMEM attach latency vs region size, Covirt on/off.

    Two enclaves per mode (owner exports, attacher attaches); latency is
    TSC-sampled on the attaching core around the attach call, exactly as
    the paper measures it, and also lands in the ``bench.attach_cycles``
    histogram.  Expected shape: the curves overlap, because Covirt's EPT
    update rides the existing control path.
    """
    sizes_mb = [1, 16, 256] if quick else [1, 4, 16, 64, 256, 1024]
    attach_hist = env.machine.obs.metrics.histogram(
        "bench.attach_cycles", "XEMEM attach latency (cycles)"
    )
    rows = []
    for mode, config in [
        ("covirt-off", None),
        ("covirt-on", CovirtConfig.memory_only()),
    ]:
        owner = env.launch(
            Layout("owner", {0: 1}, {0: 4 * GiB}), config, name=f"owner-{mode}"
        )
        attacher = env.launch(
            Layout("attacher", {1: 1}, {1: 2 * GiB}), config,
            name=f"attacher-{mode}",
        )
        task = owner.kernel.spawn(
            "exporter", mem_bytes=page_align_up(1100 * MiB)
        )
        base = task.slices[0].start
        attach_core = attacher.assignment.core_ids[0]
        core = env.machine.core(attach_core)
        for i, size_mb in enumerate(sizes_mb):
            seg = env.mcp.xemem.make(
                owner.enclave_id, f"{mode}-region-{i}", base, size_mb * MiB
            )
            t0 = core.read_tsc()
            env.mcp.xemem.attach(
                attacher.enclave_id, seg.segid, core_hint=attach_core
            )
            cycles = core.read_tsc() - t0
            attach_hist.observe(cycles, mode=mode)
            env.mcp.xemem.detach(
                attacher.enclave_id, seg.segid, core_hint=attach_core
            )
            env.mcp.xemem.remove(seg.segid)
            rows.append(
                {
                    "region_mb": size_mb,
                    "mode": mode,
                    "attach_us": round(cycles / CYCLES_PER_US, 3),
                }
            )
        env.teardown(attacher)
        env.teardown(owner)
    return rows


def fig5a(env: CovirtEnvironment, quick: bool = False) -> list[dict[str, Any]]:
    """Fig. 5a: STREAM across configs — no noticeable overhead.

    Sequential traffic amortises EPT walks, so every config runs ~native.
    """
    return _sweep(env, Stream, [MICROBENCH_LAYOUT], quick)


def fig5b(env: CovirtEnvironment, quick: bool = False) -> list[dict[str, Any]]:
    """Fig. 5b: RandomAccess — ~1.8 % (mem), worst case ~3.1 % (mem+IPI).

    TLB-hostile updates expose the nested-walk cost.
    """
    return _sweep(env, RandomAccess, [MICROBENCH_LAYOUT], quick)


def _layouts(quick: bool) -> list[Layout]:
    return EVALUATION_LAYOUTS[:1] if quick else EVALUATION_LAYOUTS


def fig6(env: CovirtEnvironment, quick: bool = False) -> list[dict[str, Any]]:
    """Fig. 6: MiniFE over core/NUMA layouts — no noticeable overhead."""
    return _sweep(env, MiniFE, _layouts(quick), quick)


def fig7(env: CovirtEnvironment, quick: bool = False) -> list[dict[str, Any]]:
    """Fig. 7: HPCG over layouts — constant ~1.4 % worst-case penalty."""
    return _sweep(env, Hpcg, _layouts(quick), quick)


def fig8(env: CovirtEnvironment, quick: bool = False) -> list[dict[str, Any]]:
    """Fig. 8: LAMMPS loop times, 8 cores / 2 zones.

    Expected shape: lj/eam/chain near-identical across configs; chute
    the most protection-sensitive, with native / covirt-none fastest.
    """
    problems = sorted(LAMMPS_PROBLEMS)
    if quick:
        problems = problems[:1]
    rows = []
    for problem in problems:
        rows += _sweep(
            env, lambda: Lammps(problem), [EVALUATION_LAYOUTS[3]], quick
        )
    return rows


# -- ablations (design choices DESIGN.md calls out; beyond the paper) -------


def run_ablation_coalescing() -> ExperimentResult:
    """EPT large-page coalescing on/off: entry counts and the
    RandomAccess overhead that 4K-only tables would cost."""
    from repro.core.features import Feature
    from repro.hw.memory import PAGE_SIZE, PAGE_SIZE_1G, PAGE_SIZE_2M

    # A 1 GiB enclave keeps the 4K-only table at ~256k entries while
    # still dwarfing the RandomAccess working set.
    layout = Layout("1c/1n", {0: 1}, {0: 1 << 30})
    rows: list[list[Any]] = []
    native = None
    for label, coalesce in [("2M/1G coalescing", True), ("4K-only", False)]:
        config = CovirtConfig(
            features=Feature.MEMORY | Feature.EXCEPTIONS,
            ept_coalescing=coalesce,
        )
        env = CovirtEnvironment()
        if native is None:
            base = env.launch(layout, None, "native")
            native = env.engine.run(RandomAccess(), base)
            env.teardown(base)
        enclave = env.launch(layout, config)
        counts = enclave.virt_context.ept.entry_counts()
        result = env.engine.run(RandomAccess(), enclave)
        env.teardown(enclave)
        rows.append(
            [
                label,
                counts[PAGE_SIZE_1G],
                counts[PAGE_SIZE_2M],
                counts[PAGE_SIZE],
                f"{result.overhead_vs(native) * 100:+.2f}%",
            ]
        )
    return ExperimentResult(
        experiment="Ablation: EPT page coalescing (RandomAccess, 1 core)",
        headers=["EPT mode", "1G entries", "2M entries", "4K entries",
                 "overhead vs native"],
        rows=rows,
        notes="Large pages shrink both the table and the nested-walk cost.",
    )


def run_ablation_ipi_mode() -> ExperimentResult:
    """Trap-and-emulate vs posted-interrupt delivery (Section IV-C)."""
    from repro.core.features import Feature, IpiMode
    from repro.workloads.lammps import Lammps

    rows: list[list[Any]] = []
    for mode in (IpiMode.POSTED, IpiMode.TRAP):
        config = CovirtConfig(
            features=Feature.MEMORY | Feature.IPI | Feature.EXCEPTIONS,
            ipi_mode=mode,
        )
        for workload in (RandomAccess(), Lammps("chute")):
            env = CovirtEnvironment()
            native_enclave = env.launch(MICROBENCH_LAYOUT, None, "native")
            native = env.engine.run(workload, native_enclave)
            env.teardown(native_enclave)
            enclave = env.launch(MICROBENCH_LAYOUT, config)
            # Drive a doorbell through the real delivery engine so the
            # exit/posted counters reflect the mode.
            env.mcp.channels[enclave.enclave_id].host_send("ping", None)
            counters = enclave.virt_context.aggregate_counters()
            result = env.engine.run(workload, enclave)
            env.teardown(enclave)
            rows.append(
                [
                    mode.value,
                    workload.name,
                    f"{result.overhead_vs(native) * 100:+.2f}%",
                    counters.exits.get("external_interrupt", 0),
                    counters.posted_deliveries,
                ]
            )
    return ExperimentResult(
        experiment="Ablation: IPI protection delivery mode",
        headers=["mode", "workload", "overhead vs native",
                 "recv exits/doorbell", "posted/doorbell"],
        rows=rows,
        notes="Posted interrupts remove the receive-side exit entirely.",
    )


def run_motivation_fullvirt() -> ExperimentResult:
    """The Section-I motivation, quantified: Covirt vs a conventional VM.

    Traditional virtualization would also isolate co-kernels, but at the
    cost the community rejected; this sweep shows the factor."""
    from repro.baselines.fullvirt import TraditionalVmm
    from repro.hw.clock import CYCLES_PER_US

    vmm = TraditionalVmm()
    rows: list[list[Any]] = []
    for workload_factory in (Stream, RandomAccess, Hpcg):
        workload = workload_factory()
        env = CovirtEnvironment()
        native_enclave = env.launch(MICROBENCH_LAYOUT, None, "native")
        native = env.engine.run(workload, native_enclave)
        env.teardown(native_enclave)
        covirt_enclave = env.launch(
            MICROBENCH_LAYOUT, CovirtConfig.memory_ipi(), "covirt"
        )
        covirt = env.engine.run(workload_factory(), covirt_enclave)
        env.teardown(covirt_enclave)
        fullvirt = vmm.run(workload_factory(), ncores=1)
        rows.append(
            [
                workload.name,
                f"{covirt.overhead_vs(native) * 100:+.2f}%",
                f"{fullvirt.overhead_vs(native) * 100:+.2f}%",
            ]
        )
    # IPC: one 4 KiB message across the OS/R boundary.
    ipc = vmm.ipc_message_cost(4096)
    rows.append(
        [
            "IPC (4 KiB msg)",
            f"{vmm.covirt_message_cost(4096) / CYCLES_PER_US:.2f} us",
            f"{ipc.total / CYCLES_PER_US:.2f} us",
        ]
    )
    # Dynamic memory: a 64 MiB attach.
    rows.append(
        [
            "attach 64 MiB",
            f"{DEFAULT_COSTS_ATTACH(64):.1f} us",
            f"{vmm.attach_latency_cycles(64 << 20, vcpus=1) / CYCLES_PER_US:.1f} us",
        ]
    )
    return ExperimentResult(
        experiment="Motivation: Covirt vs traditional virtualization",
        headers=["metric", "covirt (vs native)", "traditional VM (vs native)"],
        rows=rows,
        notes="Conventional VMs isolate too — at the overhead co-kernels reject.",
    )


def DEFAULT_COSTS_ATTACH(size_mb: int) -> float:
    """Covirt-side attach latency in microseconds (cost model)."""
    from repro.perf.costs import DEFAULT_COSTS

    return DEFAULT_COSTS.xemem_attach_cycles(
        size_mb << 20, covirt=True
    ) / CYCLES_PER_US


def run_isolation_corun() -> ExperimentResult:
    """Performance isolation under co-running enclaves (the co-kernel
    premise Covirt must not break): interference flows only through the
    shared memory system, and protection features don't change it."""
    from repro.workloads.selfish import SelfishDetour

    GiB_ = 1 << 30
    rows: list[list[Any]] = []
    for label, config in [("native", None), ("covirt-mem+ipi", CovirtConfig.memory_ipi())]:
        solo_env = CovirtEnvironment()
        solo = solo_env.engine.run(
            Stream(),
            solo_env.launch(Layout("2c/z0", {0: 2}, {0: 2 * GiB_}), config, "solo"),
        )
        scenarios = [
            ("vs STREAM, same zone", Layout("2c/z0", {0: 2}, {0: 2 * GiB_}),
             Stream()),
            ("vs STREAM, other zone", Layout("2c/z1", {1: 2}, {1: 2 * GiB_}),
             Stream()),
            ("vs spin loop, same zone", Layout("2c/z0", {0: 2}, {0: 2 * GiB_}),
             SelfishDetour(1.0)),
        ]
        for desc, other_layout, other_workload in scenarios:
            env = CovirtEnvironment()
            subject = env.launch(
                Layout("2c/z0", {0: 2}, {0: 2 * GiB_}), config, "subject"
            )
            neighbour = env.launch(other_layout, config, "neighbour")
            results = env.engine.run_concurrent(
                [(Stream(), subject), (other_workload, neighbour)]
            )
            slowdown = results[0].elapsed_cycles / solo.elapsed_cycles - 1.0
            rows.append([label, desc, f"{slowdown * 100:+.2f}%"])
    return ExperimentResult(
        experiment="Isolation: STREAM enclave vs co-running neighbours",
        headers=["config", "neighbour", "slowdown vs solo"],
        rows=rows,
        notes="Only same-zone memory pressure interferes; Covirt changes nothing.",
    )


def run_integration_spectrum() -> ExperimentResult:
    """Section III-A's integration axis, quantified: the cost of one
    delegated system call under each co-kernel architecture, native and
    under Covirt memory protection."""
    from repro.harness.env import CovirtEnvironment as _Env
    from repro.hw.clock import CYCLES_PER_US
    from repro.kitten.syscalls import Syscall

    GiB_ = 1 << 30
    rows: list[list[Any]] = []
    for label, config in [("native", None), ("covirt-mem", CovirtConfig.memory_only())]:
        # Hobbes/Pisces: channel round trip to the host proxy.
        env = _Env()
        enclave = env.launch(
            Layout("2c", {0: 1, 1: 1}, {0: GiB_, 1: GiB_}), config, "hobbes"
        )
        task = enclave.kernel.spawn("app")
        core = env.machine.core(enclave.assignment.core_ids[0])
        t0 = core.read_tsc()
        fd = enclave.kernel.syscall(task, Syscall.OPEN, "/etc/hostname")
        enclave.kernel.syscall(task, Syscall.READ, fd, 64)
        hobbes_us = (core.read_tsc() - t0) / 2 / CYCLES_PER_US
        rows.append([label, "Pisces/Hobbes (channel)", round(hobbes_us, 2)])
        # IHK/McKernel: proxy process.
        from repro.ihk import IhkModule

        env = _Env()
        ihk = IhkModule(env.machine, env.host)
        env.controller.interpose_on(ihk)
        os_index = ihk.reserve({0: 1, 1: 1}, {0: GiB_, 1: GiB_})
        mcos = env.controller.launch_via(lambda: ihk.boot(os_index), config)
        process = mcos.kernel.spawn_process("app")
        core = env.machine.core(mcos.assignment.core_ids[0])
        t0 = core.read_tsc()
        fd = mcos.kernel.syscall(process, Syscall.OPEN, "/etc/hostname")
        mcos.kernel.syscall(process, Syscall.READ, fd, 64)
        ihk_us = (core.read_tsc() - t0) / 2 / CYCLES_PER_US
        rows.append([label, "IHK/McKernel (proxy process)", round(ihk_us, 2)])
        # mOS: in-kernel trampoline.
        from repro.mos import MosStack

        env = _Env()
        mos = MosStack(env.machine, env.host)
        env.controller.interpose_on(mos)
        partition = env.controller.launch_via(
            lambda: mos.designate({0: 2}, {0: 2 * GiB_}), config
        )
        lwk = partition.kernel
        process = lwk.spawn_process("app")
        core = env.machine.core(partition.assignment.core_ids[0])
        t0 = core.read_tsc()
        fd = lwk.syscall(process, Syscall.OPEN, "/etc/hostname")
        lwk.syscall(process, Syscall.READ, fd, 64)
        mos_us = (core.read_tsc() - t0) / 2 / CYCLES_PER_US
        rows.append([label, "mOS (in-kernel trampoline)", round(mos_us, 2)])
    return ExperimentResult(
        experiment="Integration spectrum: one delegated syscall (us)",
        headers=["config", "architecture", "syscall latency (us)"],
        rows=rows,
        notes="Higher integration → cheaper delegation; Covirt's cost is"
        " architecture-independent.",
    )


def run_sensitivity() -> ExperimentResult:
    """Robustness of the headline result to the calibrated constants.

    Sweeps the two most influential cost-model inputs — the nested-walk
    increment and the VM-exit round trip — across a 4x range and reports
    the RandomAccess overheads.  The *qualitative* conclusions (ordering
    of configurations, sub-5 % magnitudes at plausible constants) should
    hold everywhere in the neighbourhood of the calibration."""
    from dataclasses import replace

    from repro.perf.costs import DEFAULT_COSTS

    rows: list[list[Any]] = []
    for walk_scale in (0.5, 1.0, 2.0):
        for exit_scale in (0.5, 1.0, 2.0):
            costs = replace(
                DEFAULT_COSTS,
                ept_extra_4k=DEFAULT_COSTS.ept_extra_4k * walk_scale,
                ept_extra_2m=DEFAULT_COSTS.ept_extra_2m * walk_scale,
                ept_extra_1g=DEFAULT_COSTS.ept_extra_1g * walk_scale,
                vm_exit_round_trip=int(
                    DEFAULT_COSTS.vm_exit_round_trip * exit_scale
                ),
            )
            overheads = {}
            env = CovirtEnvironment(costs=costs)
            native = env.engine.run(
                RandomAccess(), env.launch(MICROBENCH_LAYOUT, None, "n")
            )
            for label, config in EVALUATION_CONFIGS[2:]:  # mem, mem+ipi
                env_c = CovirtEnvironment(costs=costs)
                result = env_c.engine.run(
                    RandomAccess(), env_c.launch(MICROBENCH_LAYOUT, config)
                )
                overheads[label] = result.overhead_vs(native) * 100
            rows.append(
                [
                    f"x{walk_scale}",
                    f"x{exit_scale}",
                    f"{overheads['covirt-mem']:+.2f}%",
                    f"{overheads['covirt-mem+ipi']:+.2f}%",
                    "yes"
                    if overheads["covirt-mem"] < overheads["covirt-mem+ipi"] < 10
                    else "NO",
                ]
            )
    return ExperimentResult(
        experiment="Sensitivity: RandomAccess overhead vs cost-model constants",
        headers=["EPT-walk scale", "exit-cost scale", "covirt-mem",
                 "covirt-mem+ipi", "ordering holds"],
        rows=rows,
        notes="Qualitative conclusions survive 4x swings in the calibration.",
    )


def run_ablation_async_config(attaches: int = 16) -> ExperimentResult:
    """Asynchronous (command-queue) vs synchronous configuration updates.

    The synchronous variant interrupts every enclave core on each grant
    — the conventional-hypervisor behaviour Covirt's split architecture
    avoids."""
    rows: list[list[Any]] = []
    for label, synchronous in [("asynchronous (Covirt)", False),
                               ("synchronous (conventional)", True)]:
        env = CovirtEnvironment(synchronous_updates=synchronous)
        owner = env.controller.launch(
            Layout("owner", {0: 1}, {0: 2048 * MiB}).spec("owner"),
            CovirtConfig.memory_only(),
        )
        attacher = env.controller.launch(
            Layout("attacher", {1: 2}, {1: 1024 * MiB}).spec("attacher"),
            CovirtConfig.memory_only(),
        )
        task = owner.kernel.spawn("exporter", mem_bytes=64 * MiB)
        core = attacher.assignment.core_ids[0]
        t0 = env.machine.core(core).read_tsc()
        for i in range(attaches):
            seg = env.mcp.xemem.make(
                owner.enclave_id, f"s{i}", task.slices[0].start, 16 * MiB
            )
            env.mcp.xemem.attach(attacher.enclave_id, seg.segid, core_hint=core)
            env.mcp.xemem.detach(attacher.enclave_id, seg.segid, core_hint=core)
            env.mcp.xemem.remove(seg.segid)
        elapsed_us = (env.machine.core(core).read_tsc() - t0) / CYCLES_PER_US
        counters = attacher.virt_context.aggregate_counters()
        rows.append(
            [
                label,
                attaches,
                round(elapsed_us, 1),
                counters.commands_serviced,
                counters.exits.get("exception_or_nmi", 0),
            ]
        )
    return ExperimentResult(
        experiment="Ablation: asynchronous vs synchronous config updates",
        headers=["controller mode", "attach/detach cycles", "elapsed (us)",
                 "commands serviced", "NMI exits"],
        rows=rows,
        notes="Async updates interrupt guests only on unmap (TLB flush);"
        " sync mode also interrupts on every grant.",
    )
