#!/usr/bin/env python3
"""The Section-V bug gallery: every fault class the paper discusses,
each injected twice — into a native enclave and into a Covirt enclave —
so the blast radius difference is visible side by side.

Faults covered:
  1. stale XEMEM segment   (the paper's large-scale crash anecdote)
  2. memory-map misconfiguration (access outside the enclave)
  3. errant IPI             (spoofed interrupt at another OS/R)
  4. sensitive MSR write    (IA32_APIC_BASE)
  5. host-owned I/O port write (RTC index)
  6. double fault           (abort-class exception)
"""

from repro import CovirtConfig, CovirtEnvironment
from repro.core.faults import EnclaveFaultError
from repro.harness.env import Layout
from repro.hw.interrupts import ExceptionVector
from repro.hw.ioports import RTC_INDEX
from repro.hw.msr import MSR
from repro.kitten.syscalls import Syscall
from repro.linuxhost.host import HostPanic

GiB = 1 << 30
MiB = 1 << 20
LAYOUT = Layout("2c/2n", {0: 1, 1: 1}, {0: GiB, 1: GiB})


def banner(text: str) -> None:
    print(f"\n=== {text} " + "=" * max(0, 60 - len(text)))


def outcome(env, enclave, what_happened: str) -> None:
    print(f"  outcome: {what_happened}")
    print(f"  enclave: {enclave.state.value:10s}  host alive: {env.host.alive}"
          f"  host integrity: {'ok' if env.host.verify_integrity() else 'CORRUPTED'}")


def stale_segment(env, protected: bool):
    config = CovirtConfig.memory_only() if protected else None
    owner = env.launch(LAYOUT, config, name="owner")
    attacher = env.launch(LAYOUT, config, name="attacher")
    task = owner.kernel.spawn("exporter", mem_bytes=MiB)
    segid = owner.kernel.syscall(
        task, Syscall.XEMEM_MAKE, "shared", task.slices[0].start, MiB
    )
    env.mcp.xemem.attach(attacher.enclave_id, segid)
    addr = task.slices[0].start
    core = attacher.assignment.core_ids[0]
    attacher.kernel.touch(core, addr, 8)  # warm: the segment works
    # The buggy cleanup: host reclaims, attacher's memmap stays stale.
    env.mcp.xemem.force_remove_buggy(segid)
    try:
        attacher.kernel.touch(core, addr, 8, write=True)
        outcome(env, attacher,
                "stale access WROTE INTO RECLAIMED HOST MEMORY (silent corruption)")
    except EnclaveFaultError as fault:
        outcome(env, attacher, f"terminated cleanly: {fault.fault.kind.value}")


def wild_access(env, protected: bool):
    config = CovirtConfig.memory_only() if protected else None
    enclave = env.launch(LAYOUT, config, name="wild")
    bsp = enclave.assignment.core_ids[0]
    try:
        enclave.port.write(bsp, env.machine.topology.zones[1].mem_start
                           + 16 * 4096, b"\x00" * 8)
        outcome(env, enclave, "wild write LANDED ON A HOST CANARY PAGE")
    except EnclaveFaultError as fault:
        outcome(env, enclave, f"terminated cleanly: {fault.fault.kind.value}")


def errant_ipi(env, protected: bool):
    config = CovirtConfig.memory_ipi() if protected else None
    attacker = env.launch(LAYOUT, config, name="attacker")
    victim = env.launch(LAYOUT, None, name="victim")
    vcore = victim.assignment.core_ids[0]
    delivered = attacker.port.send_ipi(
        attacker.assignment.core_ids[0], vcore, 150
    )
    spoofed = 150 in {i.vector for i in victim.kernel.irq_log[vcore]}
    if spoofed:
        outcome(env, attacker, "victim RECEIVED A SPOOFED INTERRUPT")
    else:
        ctx = attacker.virt_context
        outcome(env, attacker,
                f"IPI dropped by whitelist ({ctx.whitelist.dropped[-1].reason})")


def msr_abuse(env, protected: bool):
    config = CovirtConfig.full() if protected else None
    enclave = env.launch(LAYOUT, config, name="msr")
    bsp = enclave.assignment.core_ids[0]
    enclave.port.wrmsr(bsp, MSR.IA32_APIC_BASE, 0xDEAD000)
    landed = env.machine.core(bsp).msrs.peek(MSR.IA32_APIC_BASE) == 0xDEAD000
    outcome(env, enclave,
            "IA32_APIC_BASE CLOBBERED (interrupt routing destroyed)"
            if landed else "sensitive WRMSR denied and logged")


def port_abuse(env, protected: bool):
    config = CovirtConfig.full() if protected else None
    enclave = env.launch(LAYOUT, config, name="io")
    bsp = enclave.assignment.core_ids[0]
    before = env.machine.ioports.peek(RTC_INDEX)
    enclave.port.io_out(bsp, RTC_INDEX, 0x8F)
    landed = env.machine.ioports.peek(RTC_INDEX) != before
    outcome(env, enclave,
            "host RTC index register CLOBBERED" if landed
            else "OUT to host-owned port swallowed")


def double_fault(env, protected: bool):
    config = CovirtConfig.full() if protected else None
    enclave = env.launch(LAYOUT, config, name="df")
    bsp = enclave.assignment.core_ids[0]
    try:
        enclave.port.raise_exception(bsp, ExceptionVector.DOUBLE_FAULT)
        outcome(env, enclave, "nothing happened (?)")
    except EnclaveFaultError as fault:
        outcome(env, enclave, f"abort contained: {fault.fault.kind.value}")
    except HostPanic as panic:
        print(f"  outcome: NODE DOWN — {panic}")
        print(f"  enclave: -          host alive: {env.host.alive}")


SCENARIOS = [
    ("stale XEMEM segment", stale_segment),
    ("memory-map misconfiguration", wild_access),
    ("errant IPI", errant_ipi),
    ("sensitive MSR write", msr_abuse),
    ("host-owned I/O port write", port_abuse),
    ("double fault", double_fault),
]


def main() -> None:
    for name, scenario in SCENARIOS:
        for protected in (False, True):
            banner(f"{name} — {'WITH' if protected else 'WITHOUT'} Covirt")
            with CovirtEnvironment() as env:
                scenario(env, protected=protected)
    print("\nEvery fault class: native = corruption or node death;"
          " Covirt = one enclave terminated, node intact.")


if __name__ == "__main__":
    main()
