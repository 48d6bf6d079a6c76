#!/usr/bin/env python3
"""Errant-IPI filtering under load.

A misbehaving co-kernel sprays IPIs across the whole machine — at host
cores, at another enclave, at unallocated vectors.  Without Covirt,
every one of them lands (spoofed interrupts, scrambled device-driver
state).  With IPI protection, only the legitimately granted channel
gets through, every drop is logged with enough context to debug, and
the enclave keeps running (errant IPIs are dropped, not fatal).
"""

from repro import CovirtConfig, CovirtEnvironment
from repro.harness.env import Layout
from repro.hobbes.registry import FIRST_DYNAMIC_VECTOR

GiB = 1 << 30
LAYOUT = Layout("2c/2n", {0: 1, 1: 1}, {0: GiB, 1: GiB})


def spray(env, attacker, targets, vectors):
    """Fire an IPI at every (core, vector) pair; return delivery count."""
    src = attacker.assignment.core_ids[0]
    delivered = 0
    for dest in targets:
        for vector in vectors:
            if attacker.port.send_ipi(src, dest, vector):
                delivered += 1
    return delivered


def storm(env: CovirtEnvironment, protected: bool) -> None:
    """One spray, with or without Covirt's IPI protection."""
    mode = "WITH Covirt IPI protection" if protected else "WITHOUT Covirt"
    config = CovirtConfig.memory_ipi() if protected else None
    attacker = env.launch(LAYOUT, config, "attacker")
    bystander = env.launch(LAYOUT, None, "bystander")

    # One legitimate channel: attacker may signal the bystander's BSP.
    legit_core = bystander.assignment.core_ids[0]
    grant = env.mcp.vectors.allocate(
        dest_core=legit_core,
        dest_enclave_id=bystander.enclave_id,
        allowed_senders={attacker.enclave_id},
        purpose="legitimate channel",
    )

    host_cores = sorted(env.host.online_cores)[:4]
    vectors = [FIRST_DYNAMIC_VECTOR + i * 16 for i in range(8)]
    targets = host_cores + list(bystander.assignment.core_ids)

    sent = len(targets) * len(vectors) + 1
    delivered = spray(env, attacker, targets, vectors)
    # ... plus the one legitimate doorbell:
    legit_ok = attacker.port.send_ipi(
        attacker.assignment.core_ids[0], legit_core, grant.vector
    )
    delivered += int(legit_ok)

    print(f"\n=== {mode} ===")
    print(f"IPIs sent: {sent}, delivered: {delivered}, "
          f"legitimate doorbell delivered: {legit_ok}")
    spoofed = [
        irq.vector
        for irq in bystander.kernel.irq_log[legit_core]
        if irq.vector != grant.vector
    ]
    print(f"spoofed interrupts at the bystander: {len(spoofed)}")
    if protected:
        ctx = attacker.virt_context
        ipis = env.machine.obs.metrics.hypervisor_counts(
            enclave=attacker.enclave_id
        )["ipis"]
        print(f"whitelist drops logged: {len(ctx.whitelist.dropped)} "
              f"(forwarded: {ipis.get('forwarded', 0)})")
        first = ctx.whitelist.dropped[0]
        print(f"  first drop: core {first.msg.dest_core} vector "
              f"{first.msg.vector} @ tsc {first.tsc} — {first.reason}")
        print(f"attacker still running: {attacker.is_running} "
              "(errant IPIs are dropped, not fatal)")
    assert legit_ok, "the granted channel must always work"


def main() -> None:
    for protected in (False, True):
        with CovirtEnvironment() as env:
            storm(env, protected)


if __name__ == "__main__":
    main()
