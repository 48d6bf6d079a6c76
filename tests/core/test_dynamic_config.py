"""Dynamic reconfiguration: the controller's ordering protocol.

These tests exercise the paper's central mechanism — asynchronous
configuration updates with map-before-notify / unmap-then-flush
ordering — including the stale-TLB window that makes the flush command
necessary.
"""

import pytest

from repro.core.commands import CommandType
from repro.core.controller import CovirtIoctl
from repro.core.faults import EnclaveFaultError
from repro.core.features import CovirtConfig
from repro.harness.env import CovirtEnvironment, Layout
from repro.pisces.enclave import EnclaveState

GiB = 1 << 30
MiB = 1 << 20

LAYOUT = Layout("2c/2n", {0: 1, 1: 1}, {0: GiB, 1: GiB})


@pytest.fixture
def env():
    return CovirtEnvironment()


def commands(env, enclave):
    """Commands the enclave's hypervisors serviced, by type (from the
    machine's metrics registry)."""
    return env.machine.obs.metrics.hypervisor_counts(
        enclave=enclave.enclave_id
    )["commands"]


@pytest.fixture
def pair(env):
    owner = env.launch(LAYOUT, CovirtConfig.memory_only(), "owner")
    attacher = env.launch(LAYOUT, CovirtConfig.memory_only(), "attacher")
    return env, owner, attacher


class TestMemoryHotplug:
    def test_hot_add_maps_ept_before_kernel_notification(self, env):
        enclave = env.launch(LAYOUT, CovirtConfig.memory_only())
        ctx = enclave.virt_context
        observed = []
        original = enclave.kernel.memory_hotplug_add

        def spy(region):
            # By the time the co-kernel hears about the memory, the EPT
            # mapping must already exist.
            observed.append(ctx.ept.table.is_mapped(region.start))
            return original(region)

        enclave.kernel.memory_hotplug_add = spy
        env.mcp.kmod.add_memory(enclave.enclave_id, 4 * MiB, 0)
        assert observed == [True]

    def test_hot_add_usable_immediately(self, env):
        enclave = env.launch(LAYOUT, CovirtConfig.memory_only())
        region = env.mcp.kmod.add_memory(enclave.enclave_id, 4 * MiB, 0)
        bsp = enclave.assignment.core_ids[0]
        enclave.kernel.touch(bsp, region.start, 8, write=True)
        assert enclave.state is EnclaveState.RUNNING

    def test_hot_remove_unmaps_and_flushes(self, env):
        enclave = env.launch(LAYOUT, CovirtConfig.memory_only())
        ctx = enclave.virt_context
        region = env.mcp.kmod.add_memory(enclave.enclave_id, 4 * MiB, 0)
        bsp = enclave.assignment.core_ids[0]
        enclave.kernel.touch(bsp, region.start, 8)  # warm the TLB
        assert env.machine.core(bsp).tlb.contains_translation_for(region.start)
        flushes_before = commands(env, enclave).get("MEMORY_UPDATE", 0)
        env.mcp.kmod.remove_memory(enclave.enclave_id, region)
        assert not ctx.ept.table.is_mapped(region.start)
        assert commands(env, enclave)["MEMORY_UPDATE"] >= flushes_before + 2
        assert not env.machine.core(bsp).tlb.contains_translation_for(region.start)

    def test_stale_tlb_window_without_flush_is_a_real_hole(self, env):
        """Demonstrates *why* the flush command exists: unmap the EPT by
        hand (no command) and a warm TLB still translates."""
        enclave = env.launch(LAYOUT, CovirtConfig.memory_only())
        ctx = enclave.virt_context
        region = env.mcp.kmod.add_memory(enclave.enclave_id, 4 * MiB, 0)
        bsp = enclave.assignment.core_ids[0]
        enclave.kernel.touch(bsp, region.start, 8)
        # Rogue unmap without the flush command:
        ctx.ept.unmap_region(region)
        enclave.port.read(bsp, region.start, 8)  # still works — the hole
        assert enclave.state is EnclaveState.RUNNING
        # Now flush, as the real protocol would:
        env.controller.issue_memory_update(ctx)
        with pytest.raises(EnclaveFaultError):
            enclave.port.read(bsp, region.start, 8)

    def test_buggy_cleanup_plus_covirt_contains(self, env):
        """The paper's stale-mapping anecdote, end to end through
        Pisces hot-remove."""
        enclave = env.launch(LAYOUT, CovirtConfig.memory_only())
        region = env.mcp.kmod.add_memory(enclave.enclave_id, 4 * MiB, 0)
        enclave.kernel.buggy_cleanup = True
        env.mcp.kmod.remove_memory(enclave.enclave_id, region)
        bsp = enclave.assignment.core_ids[0]
        assert enclave.kernel.memmap.contains(region.start)  # stale belief
        with pytest.raises(EnclaveFaultError):
            enclave.kernel.touch(bsp, region.start, 8)
        assert enclave.state is EnclaveState.FAILED
        assert env.host.alive and env.host.verify_integrity()

    def test_buggy_cleanup_without_covirt_corrupts_host(self, env):
        enclave = env.launch(LAYOUT, None)
        region = env.mcp.kmod.add_memory(enclave.enclave_id, 4 * MiB, 0)
        enclave.kernel.buggy_cleanup = True
        env.mcp.kmod.remove_memory(enclave.enclave_id, region)
        bsp = enclave.assignment.core_ids[0]
        # The kernel happily writes through its stale map into memory the
        # host has already reclaimed.
        enclave.kernel.touch(bsp, region.start, 8, write=True)
        assert enclave.state is EnclaveState.RUNNING
        assert env.machine.memory.read(region.start, 8) == b"\xab" * 8
        from repro.linuxhost.host import LINUX_OWNER

        assert env.machine.memory.owner_of(region.start) == LINUX_OWNER


class TestXememIntegration:
    def test_attach_maps_attacher_ept(self, pair):
        env, owner, attacher = pair
        task = owner.kernel.spawn("p", mem_bytes=2 * MiB)
        seg = env.mcp.xemem.make(
            owner.enclave_id, "buf", task.slices[0].start, 2 * MiB
        )
        actx = attacher.virt_context
        assert not actx.ept.table.is_mapped(seg.start)
        env.mcp.xemem.attach(attacher.enclave_id, seg.segid)
        assert actx.ept.table.is_mapped(seg.start)
        # And the attacher can genuinely touch it under protection.
        attacher.kernel.touch(attacher.assignment.core_ids[0], seg.start, 8)

    def test_detach_unmaps_and_faults_after(self, pair):
        env, owner, attacher = pair
        task = owner.kernel.spawn("p", mem_bytes=2 * MiB)
        seg = env.mcp.xemem.make(
            owner.enclave_id, "buf", task.slices[0].start, 2 * MiB
        )
        env.mcp.xemem.attach(attacher.enclave_id, seg.segid)
        core = attacher.assignment.core_ids[0]
        attacher.kernel.touch(core, seg.start, 8)
        env.mcp.xemem.detach(attacher.enclave_id, seg.segid)
        with pytest.raises(EnclaveFaultError):
            attacher.port.read(core, seg.start, 8)

    def test_stale_segment_scenario_contained(self, pair):
        """Section V's XEMEM cleanup bug with Covirt on: the enclave
        holding stale state dies; owner, host, everyone else lives."""
        env, owner, attacher = pair
        task = owner.kernel.spawn("p", mem_bytes=2 * MiB)
        seg = env.mcp.xemem.make(
            owner.enclave_id, "buf", task.slices[0].start, 2 * MiB
        )
        env.mcp.xemem.attach(attacher.enclave_id, seg.segid)
        core = attacher.assignment.core_ids[0]
        attacher.kernel.touch(core, seg.start, 8)  # warm TLB, to be nasty
        env.mcp.xemem.force_remove_buggy(seg.segid)
        with pytest.raises(EnclaveFaultError):
            attacher.kernel.touch(core, seg.start, 8)
        assert attacher.state is EnclaveState.FAILED
        assert owner.state is EnclaveState.RUNNING
        assert env.host.alive


class TestCommandPath:
    def test_ping_through_nmi_doorbell(self, env):
        enclave = env.launch(LAYOUT, CovirtConfig.memory_only())
        answered = env.mcp.kmod.ioctl(CovirtIoctl.PING, enclave.enclave_id)
        assert answered == len(enclave.assignment.core_ids)
        assert sum(commands(env, enclave).values()) >= answered

    def test_nmi_exits_accounted(self, env):
        enclave = env.launch(LAYOUT, CovirtConfig.memory_only())
        env.mcp.kmod.ioctl(CovirtIoctl.PING, enclave.enclave_id)
        counts = env.mcp.kmod.ioctl(CovirtIoctl.COUNTERS, enclave.enclave_id)
        assert counts["exits"]["exception_or_nmi"] >= 1

    def test_terminate_command(self, env):
        enclave = env.launch(LAYOUT, CovirtConfig.memory_only())
        ctx = enclave.virt_context
        env.controller.issue_command(ctx, CommandType.TERMINATE)
        assert enclave.state is EnclaveState.FAILED

    def test_status_ioctl(self, env):
        enclave = env.launch(LAYOUT, CovirtConfig.memory_ipi())
        status = env.mcp.kmod.ioctl(CovirtIoctl.STATUS, enclave.enclave_id)
        assert status["protected"]
        assert status["ipi_mode"] == "posted"
        assert status["ept_mapped_bytes"] == enclave.assignment.total_memory
        native = env.launch(LAYOUT, None, "n")
        assert not env.mcp.kmod.ioctl(CovirtIoctl.STATUS, native.enclave_id)[
            "protected"
        ]

    def test_counters_ioctl_rejects_native(self, env):
        native = env.launch(LAYOUT, None)
        with pytest.raises(KeyError):
            env.mcp.kmod.ioctl(CovirtIoctl.COUNTERS, native.enclave_id)


class TestTeardown:
    def test_covirt_private_memory_returned(self, env):
        from repro.linuxhost.host import LINUX_OWNER

        before = env.host.owner_summary()[LINUX_OWNER]
        enclave = env.launch(LAYOUT, CovirtConfig.full())
        env.mcp.shutdown_enclave(enclave.enclave_id)
        assert env.host.owner_summary()[LINUX_OWNER] == before
        assert env.controller.context_for(enclave.enclave_id) is None

    def test_synchronous_update_ablation_pauses_cores(self):
        env = CovirtEnvironment(synchronous_updates=True)
        enclave = env.launch(LAYOUT, CovirtConfig.memory_only())
        before = sum(commands(env, enclave).values())
        env.mcp.kmod.add_memory(enclave.enclave_id, 4 * MiB, 0)
        # In synchronous mode even a grow-only change interrupted every
        # core; the asynchronous design (default) would not.
        assert sum(commands(env, enclave).values()) > before

    def test_async_grant_does_not_interrupt_guest(self, env):
        enclave = env.launch(LAYOUT, CovirtConfig.memory_only())
        before = sum(commands(env, enclave).values())
        env.mcp.kmod.add_memory(enclave.enclave_id, 4 * MiB, 0)
        assert sum(commands(env, enclave).values()) == before
