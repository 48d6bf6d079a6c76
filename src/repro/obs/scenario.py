"""The canonical observability scenario.

One deterministic boot → protection-probe → reconfiguration → fault
containment → recovery → checkpoint run, used by three consumers:

* ``python -m repro trace-export`` — renders this run's span stream as
  Chrome-trace JSON;
* ``python -m repro metrics-dump`` — renders the same run's metrics;
* ``tests/obs/test_golden_traces.py`` — pins the timestamp-free golden
  transcript of the span stream, so renaming or dropping an exit-path
  span fails CI.

Everything here is a pure function of ``seed`` (and the simulator is
deterministic by construction), so two runs produce byte-identical
span streams and metric dumps.
"""

from __future__ import annotations

from pathlib import Path

from repro.core.commands import CommandType
from repro.core.faults import EnclaveFaultError
from repro.core.features import CovirtConfig
from repro.fuzz.rng import DEFAULT_SEED
from repro.harness.env import CovirtEnvironment, Layout
from repro.hw.ioports import SERIAL_COM1
from repro.hw.memory import PAGE_SIZE
from repro.hw.msr import MSR
from repro.pisces.enclave import Enclave
from repro.recovery.policy import RestartWithBackoff
from repro.xemem.segment import HOST_ENCLAVE_ID

GiB = 1 << 30

#: Wild address the containment fault dereferences (host half of DRAM).
WILD_ADDR = 50 * GiB

CANONICAL_LAYOUT = Layout(
    "canon-2c/2n", {0: 1, 1: 1}, {0: GiB, 1: GiB}
)


def protection_probe(env: CovirtEnvironment, enclave: Enclave) -> None:
    """Exercise every non-fatal protection path once, so a run records
    a spread of exit reasons: trapped MSR read, denied sensitive MSR
    write, denied host I/O port access, CPUID/XSETBV emulation, a
    filtered IPI, and an NMI-doorbell command drain."""
    bsp = enclave.assignment.core_ids[0]
    port = enclave.port
    port.rdmsr(bsp, MSR.IA32_FS_BASE)
    port.wrmsr(bsp, MSR.IA32_FS_BASE, 0x7F00_0000)
    port.wrmsr(bsp, MSR.IA32_APIC_BASE, 0xFEE0_0000)  # sensitive: denied
    port.io_in(bsp, SERIAL_COM1)  # host-owned: denied, floats 0xFF
    port.cpuid(bsp, 0)
    port.xsetbv(bsp, 0x7)
    # Whitelist starts empty: an unsanctioned IPI is filtered, not sent.
    port.send_ipi(bsp, (bsp + 1) % env.machine.num_cores, 99)
    ctx = env.controller.context_for(enclave.enclave_id)
    if ctx is not None:
        env.controller.issue_command(ctx, CommandType.PING)


def run_canonical_scenario(
    seed: int = DEFAULT_SEED,
    postmortem_dir: str | Path | None = None,
) -> CovirtEnvironment:
    """Run the canonical demo and return its environment, closed:
    everything it recorded (spans, metrics, post-mortems) stays
    readable.

    With ``postmortem_dir`` set, the flight recorder writes every
    post-mortem bundle the run triggers (the containment fault produces
    at least one) into that directory as sorted-key JSON.
    """
    env = CovirtEnvironment()
    if postmortem_dir is not None:
        env.machine.obs.flight.dump_dir = Path(postmortem_dir)
    tracer = env.machine.obs.tracer

    with tracer.span("scenario.boot", category="scenario", track="scenario"):
        service = env.launch_supervised(
            CANONICAL_LAYOUT,
            CovirtConfig.full(),
            RestartWithBackoff(base_delay_cycles=100_000),
            name="canonical",
        )

    with tracer.span("scenario.probe", category="scenario", track="scenario"):
        protection_probe(env, service.enclave)

    with tracer.span(
        "scenario.reconfigure", category="scenario", track="scenario"
    ):
        # Hot-add then hot-remove memory: an EPT map (no coordination)
        # followed by an unmap + machine-wide TLB-shootdown drain.
        eid = service.enclave.enclave_id
        region = env.mcp.kmod.add_memory(eid, 16 * PAGE_SIZE, 0)
        env.mcp.kmod.remove_memory(eid, region)

    with tracer.span("scenario.share", category="scenario", track="scenario"):
        # Resource-sharing traffic: a host-owned XEMEM segment attached
        # and detached by the enclave, plus one command-channel round
        # trip — so the xemem.* and hobbes.cmd spans are pinned by the
        # golden transcript.
        eid = service.enclave.enclave_id
        segment = env.mcp.xemem.make(
            HOST_ENCLAVE_ID, "canon-shared", 48 * GiB, 16 * PAGE_SIZE
        )
        env.mcp.xemem.attach(eid, segment.segid)
        env.mcp.xemem.detach(eid, segment.segid)
        env.mcp.xemem.remove(segment.segid)
        channel = env.mcp.channels[eid]
        channel.host_send("ping", {"n": 1})
        channel.enclave_recv()
        channel.enclave_send("pong", {"n": 1})
        channel.host_recv()

    with tracer.span("scenario.fault", category="scenario", track="scenario"):
        # The paper's containment story: a wild read far outside the
        # enclave EPT-faults, the enclave is terminated, the supervisor
        # scrubs, relaunches, and replays — all inside this span.
        bsp = service.enclave.assignment.core_ids[0]
        try:
            service.enclave.port.read(bsp, WILD_ADDR, 8)
        except EnclaveFaultError:
            pass

    with tracer.span(
        "scenario.checkpoint", category="scenario", track="scenario"
    ):
        env.recovery.checkpoint_now("canonical")

    with tracer.span("scenario.fuzz", category="scenario", track="scenario"):
        # A short seeded fuzz burst on the same machine, so fuzz-step
        # spans are part of the pinned transcript too.
        from repro.fuzz.engine import FuzzEngine

        FuzzEngine(seed=seed, schedule="baseline", env=env).run(8)

    env.close()
    return env
