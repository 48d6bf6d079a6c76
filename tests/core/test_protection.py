"""Covirt protection features, exercised through booted enclaves.

These are the tests that make the paper's protection claims concrete:
each feature is driven through the virtualized access port of a real
(simulated) enclave, with the native port as the control group.
"""

import pytest

from repro.core.controller import CovirtController
from repro.core.execution import VirtualizedAccessPort
from repro.core.faults import EnclaveFaultError, FaultKind
from repro.core.features import CovirtConfig, Feature, IpiMode
from repro.harness.env import CovirtEnvironment, Layout
from repro.hw.apic import DeliveryMode
from repro.hw.interrupts import ExceptionVector
from repro.hw.ioports import RTC_INDEX
from repro.hw.msr import MSR
from repro.kitten.syscalls import Syscall
from repro.linuxhost.host import HostPanic
from repro.obs import metric_names
from repro.pisces.enclave import EnclaveState, NativeAccessPort
from repro.vmx.vapic import VapicMode

GiB = 1 << 30
MiB = 1 << 20

LAYOUT = Layout("2c/2n", {0: 1, 1: 1}, {0: GiB, 1: GiB})


@pytest.fixture
def env():
    return CovirtEnvironment()


def launch(env, config, name="e"):
    return env.launch(LAYOUT, config, name=name)


def counts(env, enclave, **labels):
    """The enclave's hypervisor counts, read from the machine's registry."""
    return env.machine.obs.metrics.hypervisor_counts(
        enclave=enclave.enclave_id, **labels
    )


class TestBootTransparency:
    def test_protected_enclave_boots_normally(self, env):
        enclave = launch(env, CovirtConfig.full())
        assert enclave.state is EnclaveState.RUNNING
        assert isinstance(enclave.port, VirtualizedAccessPort)
        assert enclave.kernel.console[0].startswith("Kitten booting")

    def test_native_enclave_unchanged(self, env):
        enclave = launch(env, None)
        assert isinstance(enclave.port, NativeAccessPort)
        assert enclave.virt_context is None

    def test_kernel_sees_same_boot_params_either_way(self, env):
        protected = launch(env, CovirtConfig.full(), "p")
        native = launch(env, None, "n")
        assert (
            protected.kernel.params.core_ids
            == protected.assignment.core_ids
        )
        assert len(protected.kernel.params.regions) == len(
            native.kernel.params.regions
        )

    def test_cpuid_identical_native_vs_guest(self, env):
        """Zero abstraction: the guest sees the real processor."""
        protected = launch(env, CovirtConfig.full(), "p")
        native = launch(env, None, "n")
        pc = protected.assignment.core_ids[0]
        nc = native.assignment.core_ids[0]
        for leaf in (0, 1, 0xB):
            guest = protected.port.cpuid(pc, leaf)
            host = native.port.cpuid(nc, leaf)
            # APIC ids differ per core; mask them out of leaf 1.
            if leaf == 1:
                guest = (guest[0], 0, guest[2], guest[3])
                host = (host[0], 0, host[2], host[3])
            if leaf == 0xB:
                guest = guest[:3]
                host = host[:3]
            assert guest == host

    def test_vm_entries_counted(self, env):
        enclave = launch(env, CovirtConfig.full())
        for core_id in enclave.assignment.core_ids:
            assert env.machine.core(core_id).vm_entries == 1

    def test_hypervisor_private_memory_not_in_ept(self, env):
        enclave = launch(env, CovirtConfig.full())
        ctx = enclave.virt_context
        assert not ctx.ept.table.is_mapped(ctx.private_region.start)

    def test_ept_is_identity_of_assignment(self, env):
        enclave = launch(env, CovirtConfig.memory_only())
        ctx = enclave.virt_context
        assert ctx.ept.table.is_identity
        assert ctx.ept.mapped_bytes == enclave.assignment.total_memory


class TestMemoryProtection:
    def test_out_of_enclave_access_terminates(self, env):
        enclave = launch(env, CovirtConfig.memory_only())
        bsp = enclave.assignment.core_ids[0]
        with pytest.raises(EnclaveFaultError) as exc:
            enclave.port.read(bsp, 40 * GiB, 8)
        assert exc.value.fault.kind is FaultKind.EPT_VIOLATION
        assert enclave.state is EnclaveState.FAILED

    def test_native_out_of_enclave_access_corrupts_silently(self, env):
        """The control group: without Covirt the same bug scribbles on
        host memory and nothing notices until the canary check."""
        enclave = launch(env, None)
        bsp = enclave.assignment.core_ids[0]
        zone1 = env.machine.topology.zones[1]
        canary = zone1.mem_start + 16 * 4096
        enclave.port.write(bsp, canary, b"\x00" * 8)
        assert enclave.state is EnclaveState.RUNNING  # nothing stopped it
        assert not env.host.verify_integrity()

    def test_without_memory_feature_access_passes(self, env):
        enclave = launch(env, CovirtConfig.none())
        bsp = enclave.assignment.core_ids[0]
        # No EPT: the access is unchecked (and dangerous) — covirt-none
        # deliberately provides no memory protection.
        enclave.port.read(bsp, 40 * GiB, 8)
        assert enclave.state is EnclaveState.RUNNING

    def test_in_enclave_access_fine(self, env):
        enclave = launch(env, CovirtConfig.memory_only())
        bsp = enclave.assignment.core_ids[0]
        addr = enclave.assignment.regions[0].start + 2 * MiB
        enclave.port.write(bsp, addr, b"covirt")
        assert enclave.port.read(bsp, addr, 6) == b"covirt"

    def test_fault_reclaims_resources_and_spares_host(self, env):
        from repro.linuxhost.host import LINUX_OWNER

        before = env.host.owner_summary()[LINUX_OWNER]
        enclave = launch(env, CovirtConfig.memory_only())
        bsp = enclave.assignment.core_ids[0]
        with pytest.raises(EnclaveFaultError):
            enclave.port.read(bsp, 40 * GiB, 8)
        assert env.host.alive and env.host.verify_integrity()
        assert env.host.owner_summary()[LINUX_OWNER] == before
        assert env.controller.fault_log[-1].enclave_id == enclave.enclave_id

    def test_sibling_enclave_survives(self, env):
        victim = launch(env, CovirtConfig.memory_only(), "victim")
        sibling = launch(env, CovirtConfig.memory_only(), "sibling")
        with pytest.raises(EnclaveFaultError):
            victim.port.read(victim.assignment.core_ids[0], 40 * GiB, 8)
        assert sibling.state is EnclaveState.RUNNING
        addr = sibling.assignment.regions[0].start + 2 * MiB
        sibling.port.read(sibling.assignment.core_ids[0], addr, 8)


class TestIpiProtection:
    def test_unwhitelisted_ipi_dropped(self, env):
        enclave = launch(env, CovirtConfig.memory_ipi())
        bsp = enclave.assignment.core_ids[0]
        host_core = min(env.host.online_cores)
        delivered_before = len(env.machine.core(host_core).apic.delivered())
        ok = enclave.port.send_ipi(bsp, host_core, 200)
        assert not ok
        assert len(env.machine.core(host_core).apic.delivered()) == delivered_before
        ctx = enclave.virt_context
        assert ctx.whitelist.dropped[-1].msg.vector == 200
        assert enclave.state is EnclaveState.RUNNING  # drop, not terminate

    def test_granted_ipi_forwarded(self, env):
        enclave = launch(env, CovirtConfig.memory_ipi())
        channel = env.mcp.channels[enclave.enclave_id]
        grant = channel.to_host_grant
        ok = enclave.port.send_ipi(
            enclave.assignment.core_ids[0], grant.dest_core, grant.vector
        )
        assert ok
        assert counts(env, enclave)["ipis"]["forwarded"] >= 1

    def test_native_errant_ipi_hits_victim(self, env):
        """Control group: a native enclave can spoof interrupts at
        anyone."""
        attacker = launch(env, None)
        victim = launch(env, CovirtConfig.none(), "victim")
        vcore = victim.assignment.core_ids[0]
        attacker.port.send_ipi(attacker.assignment.core_ids[0], vcore, 150)
        assert 150 in {i.vector for i in victim.kernel.irq_log[vcore]}

    def test_guest_nmi_transmission_always_denied(self, env):
        enclave = launch(env, CovirtConfig.memory_ipi())
        ok = enclave.port.send_ipi(
            enclave.assignment.core_ids[0], 0, 2, DeliveryMode.NMI
        )
        assert not ok

    def test_whitelist_follows_vector_revocation(self, env):
        enclave = launch(env, CovirtConfig.memory_ipi())
        ctx = enclave.virt_context
        grant = env.mcp.vectors.allocate(
            dest_core=min(env.host.online_cores),
            dest_enclave_id=0,
            allowed_senders={enclave.enclave_id},
        )
        assert (grant.dest_core, grant.vector) in ctx.whitelist.allowed_pairs()
        env.mcp.vectors.revoke(grant)
        assert (grant.dest_core, grant.vector) not in ctx.whitelist.allowed_pairs()

    def test_posted_mode_selected_on_capable_hardware(self, env):
        enclave = launch(env, CovirtConfig.memory_ipi())
        vmcs = next(iter(enclave.virt_context.vmcs.values()))
        assert vmcs.controls.vapic_mode is VapicMode.POSTED
        assert vmcs.pi_descriptor is not None

    def test_trap_mode_fallback(self, env):
        config = CovirtConfig(
            features=Feature.MEMORY | Feature.IPI,
            hw_has_posted_interrupts=False,
        )
        enclave = launch(env, config)
        vmcs = next(iter(enclave.virt_context.vmcs.values()))
        assert vmcs.controls.vapic_mode is VapicMode.TRAP

    def test_incoming_ipi_posted_without_exit(self, env):
        enclave = launch(env, CovirtConfig.memory_ipi())
        bsp = enclave.assignment.core_ids[0]
        exits = counts(env, enclave, core=bsp)["exits"]
        exits_before = exits.get("external_interrupt", 0)
        # Host doorbell into the enclave (granted at wiring time).
        env.mcp.channels[enclave.enclave_id].host_send("ping", None)
        after = counts(env, enclave, core=bsp)
        assert after["ipis"]["posted"] >= 1
        assert after["exits"].get("external_interrupt", 0) == exits_before
        assert enclave.kernel.irq_log[bsp]  # the guest did receive it

    def test_incoming_ipi_exits_in_trap_mode(self, env):
        config = CovirtConfig(
            features=Feature.MEMORY | Feature.IPI,
            hw_has_posted_interrupts=False,
        )
        enclave = launch(env, config)
        bsp = enclave.assignment.core_ids[0]
        env.mcp.channels[enclave.enclave_id].host_send("ping", None)
        assert counts(env, enclave, core=bsp)["exits"]["external_interrupt"] >= 1


class TestIpiCounts:
    """Each IPI a hypervisor handles is one ``covirt.ipis`` sample,
    labelled by outcome, core and enclave like the other hypervisor
    counts."""

    def ipi_samples(self, env):
        return env.machine.obs.metrics.get(metric_names.IPIS).samples()

    def test_forwarded(self, env):
        enclave = launch(env, CovirtConfig.memory_ipi())
        bsp = enclave.assignment.core_ids[0]
        grant = env.mcp.channels[enclave.enclave_id].to_host_grant
        assert enclave.port.send_ipi(bsp, grant.dest_core, grant.vector)
        assert self.ipi_samples(env) == [
            ({"core": str(bsp), "enclave": "1", "outcome": "forwarded"}, 1)
        ]
        assert counts(env, enclave)["ipis"] == {"forwarded": 1}

    def test_filtered(self, env):
        enclave = launch(env, CovirtConfig.memory_ipi())
        bsp = enclave.assignment.core_ids[0]
        assert not enclave.port.send_ipi(bsp, min(env.host.online_cores), 200)
        assert self.ipi_samples(env) == [
            ({"core": str(bsp), "enclave": "1", "outcome": "filtered"}, 1)
        ]
        assert counts(env, enclave)["ipis"] == {"filtered": 1}

    def test_posted(self, env):
        enclave = launch(env, CovirtConfig.memory_ipi())
        bsp = enclave.assignment.core_ids[0]
        env.mcp.channels[enclave.enclave_id].host_send("ping", None)
        assert self.ipi_samples(env) == [
            ({"core": str(bsp), "enclave": "1", "outcome": "posted"}, 1)
        ]
        assert counts(env, enclave, core=bsp)["ipis"] == {"posted": 1}
        other = enclave.assignment.core_ids[1]
        assert counts(env, enclave, core=other)["ipis"] == {}


class TestMsrProtection:
    def test_sensitive_write_denied_and_logged(self, env):
        enclave = launch(env, CovirtConfig.full())
        bsp = enclave.assignment.core_ids[0]
        before = env.machine.core(bsp).msrs.peek(MSR.IA32_APIC_BASE)
        enclave.port.wrmsr(bsp, MSR.IA32_APIC_BASE, 0xDEAD000)
        assert env.machine.core(bsp).msrs.peek(MSR.IA32_APIC_BASE) == before
        assert enclave.virt_context.denied_msr_writes[-1][1] == MSR.IA32_APIC_BASE

    def test_benign_msr_passes_through_without_exit(self, env):
        enclave = launch(env, CovirtConfig.full())
        bsp = enclave.assignment.core_ids[0]
        exits_before = counts(env, enclave)["exits"].get("msr_write", 0)
        enclave.port.wrmsr(bsp, MSR.IA32_FS_BASE, 0x7000)
        assert enclave.port.rdmsr(bsp, MSR.IA32_FS_BASE) == 0x7000
        assert counts(env, enclave)["exits"].get("msr_write", 0) == exits_before

    def test_trapped_read_emulated_with_real_value(self, env):
        enclave = launch(env, CovirtConfig.full())
        bsp = enclave.assignment.core_ids[0]
        value = enclave.port.rdmsr(bsp, MSR.IA32_APIC_BASE)
        assert value == env.machine.core(bsp).msrs.peek(MSR.IA32_APIC_BASE)
        assert counts(env, enclave)["exits"]["msr_read"] >= 1

    def test_native_sensitive_write_goes_through(self, env):
        enclave = launch(env, None)
        bsp = enclave.assignment.core_ids[0]
        enclave.port.wrmsr(bsp, MSR.IA32_APIC_BASE, 0xDEAD000)
        assert env.machine.core(bsp).msrs.peek(MSR.IA32_APIC_BASE) == 0xDEAD000

    def test_msr_feature_off_means_no_filtering(self, env):
        enclave = launch(env, CovirtConfig.memory_only())
        bsp = enclave.assignment.core_ids[0]
        enclave.port.wrmsr(bsp, MSR.IA32_APIC_BASE, 0xDEAD000)
        assert env.machine.core(bsp).msrs.peek(MSR.IA32_APIC_BASE) == 0xDEAD000


class TestIoProtection:
    def test_host_port_write_swallowed(self, env):
        enclave = launch(env, CovirtConfig.full())
        bsp = enclave.assignment.core_ids[0]
        before = env.machine.ioports.peek(RTC_INDEX)
        enclave.port.io_out(bsp, RTC_INDEX, 0x8F)
        assert env.machine.ioports.peek(RTC_INDEX) == before
        assert enclave.virt_context.denied_io[-1][1] == RTC_INDEX

    def test_host_port_read_floats_high(self, env):
        enclave = launch(env, CovirtConfig.full())
        bsp = enclave.assignment.core_ids[0]
        env.machine.ioports.write(RTC_INDEX, 0x42)
        assert enclave.port.io_in(bsp, RTC_INDEX) == 0xFF

    def test_native_port_write_lands(self, env):
        enclave = launch(env, None)
        bsp = enclave.assignment.core_ids[0]
        enclave.port.io_out(bsp, RTC_INDEX, 0x8F)
        assert env.machine.ioports.peek(RTC_INDEX) == 0x8F


class TestExceptionContainment:
    def test_double_fault_contained_with_feature(self, env):
        enclave = launch(env, CovirtConfig.full())
        bsp = enclave.assignment.core_ids[0]
        with pytest.raises(EnclaveFaultError) as exc:
            enclave.port.raise_exception(bsp, ExceptionVector.DOUBLE_FAULT)
        assert exc.value.fault.kind is FaultKind.ABORT_EXCEPTION
        assert env.host.alive

    def test_double_fault_contained_even_without_feature(self, env):
        """VMX architecture: a guest triple fault always exits."""
        enclave = launch(env, CovirtConfig.none())
        bsp = enclave.assignment.core_ids[0]
        with pytest.raises(EnclaveFaultError) as exc:
            enclave.port.raise_exception(bsp, ExceptionVector.DOUBLE_FAULT)
        assert exc.value.fault.kind is FaultKind.TRIPLE_FAULT
        assert env.host.alive

    def test_native_double_fault_kills_the_node(self, env):
        enclave = launch(env, None)
        bsp = enclave.assignment.core_ids[0]
        with pytest.raises(HostPanic):
            enclave.port.raise_exception(bsp, ExceptionVector.DOUBLE_FAULT)
        assert not env.host.alive

    def test_page_fault_is_guests_problem(self, env):
        enclave = launch(env, CovirtConfig.full())
        bsp = enclave.assignment.core_ids[0]
        enclave.port.raise_exception(bsp, ExceptionVector.PAGE_FAULT)
        assert enclave.state is EnclaveState.RUNNING


class TestEmulatedInstructions:
    def test_xsetbv_emulated(self, env):
        enclave = launch(env, CovirtConfig.full())
        bsp = enclave.assignment.core_ids[0]
        assert enclave.port.xsetbv(bsp, 0x7)
        assert counts(env, enclave)["exits"]["xsetbv"] == 1

    def test_hlt_parks_the_core(self, env):
        enclave = launch(env, CovirtConfig.full())
        bsp = enclave.assignment.core_ids[0]
        enclave.port.hlt(bsp)
        assert env.machine.core(bsp).halted
        assert counts(env, enclave)["exits"]["hlt"] == 1
        # HLT is not a fault: the enclave is still alive.
        assert enclave.state is EnclaveState.RUNNING

    def test_interrupt_wakes_halted_core(self, env):
        enclave = launch(env, CovirtConfig.full())
        bsp = enclave.assignment.core_ids[0]
        enclave.port.hlt(bsp)
        assert env.machine.core(bsp).halted
        # The channel doorbell is the canonical wake-up.
        env.mcp.channels[enclave.enclave_id].host_send("wake", None)
        assert not env.machine.core(bsp).halted
