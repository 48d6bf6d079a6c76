"""End-to-end integration: the whole stack, composed applications,
faults under load, and multi-enclave survivability."""

import numpy as np
import pytest

from repro.core.faults import EnclaveFaultError
from repro.core.features import CovirtConfig
from repro.harness.env import CovirtEnvironment, Layout
from repro.hw.interrupts import ExceptionVector
from repro.kitten.syscalls import Syscall
from repro.linuxhost.host import LINUX_OWNER
from repro.pisces.enclave import EnclaveState
from repro.workloads.hpcg import Hpcg
from repro.workloads.stream import Stream

GiB = 1 << 30
MiB = 1 << 20

SMALL = Layout("2c/2n", {0: 1, 1: 1}, {0: GiB, 1: GiB})


@pytest.fixture
def env():
    return CovirtEnvironment()


class TestComposedApplication:
    """A Hobbes-style composition: simulation enclave produces data into
    an XEMEM segment; analytics enclave consumes it; both protected."""

    def test_producer_consumer_pipeline(self, env):
        sim = env.launch(SMALL, CovirtConfig.memory_ipi(), "sim")
        analytics = env.launch(SMALL, CovirtConfig.memory_ipi(), "analytics")
        producer = sim.kernel.spawn("producer", mem_bytes=MiB)
        consumer = analytics.kernel.spawn("consumer", mem_bytes=MiB)

        segid = sim.kernel.syscall(
            producer, Syscall.XEMEM_MAKE, "pipeline",
            producer.slices[0].start, MiB,
        )
        addr = analytics.kernel.syscall(consumer, Syscall.XEMEM_ATTACH, segid)

        # Producer writes real data through the protected port.
        payload = np.arange(64, dtype=np.uint8).tobytes()
        score = sim.assignment.core_ids[0]
        sim.port.write(score, producer.slices[0].start, payload)

        # Consumer reads it back through *its* protected port.
        acore = analytics.assignment.core_ids[0]
        assert analytics.port.read(acore, addr, 64) == payload

        # Doorbell from producer to consumer over a granted vector.
        grant = env.mcp.vectors.allocate(
            dest_core=acore,
            dest_enclave_id=analytics.enclave_id,
            allowed_senders={sim.enclave_id},
            purpose="pipeline doorbell",
        )
        assert sim.port.send_ipi(score, acore, grant.vector)
        assert grant.vector in {
            i.vector for i in analytics.kernel.irq_log[acore]
        }

        # Clean teardown leaves the machine pristine.
        analytics.kernel.syscall(consumer, Syscall.XEMEM_DETACH, segid)
        env.mcp.xemem.remove(segid)
        env.mcp.shutdown_enclave(sim.enclave_id)
        env.mcp.shutdown_enclave(analytics.enclave_id)
        assert env.host.is_pristine()

    def test_pipeline_survives_producer_crash(self, env):
        sim = env.launch(SMALL, CovirtConfig.memory_ipi(), "sim")
        analytics = env.launch(SMALL, CovirtConfig.memory_ipi(), "analytics")
        producer = sim.kernel.spawn("producer", mem_bytes=MiB)
        consumer = analytics.kernel.spawn("consumer", mem_bytes=MiB)
        segid = sim.kernel.syscall(
            producer, Syscall.XEMEM_MAKE, "pipeline",
            producer.slices[0].start, MiB,
        )
        analytics.kernel.syscall(consumer, Syscall.XEMEM_ATTACH, segid)

        # The producer's kernel wanders off the reservation.
        with pytest.raises(EnclaveFaultError):
            sim.port.read(sim.assignment.core_ids[0], 50 * GiB, 8)

        assert sim.state is EnclaveState.FAILED
        assert analytics.state is EnclaveState.RUNNING
        # The MCP revoked the dead producer's segment from the consumer.
        assert not analytics.kernel.memmap.contains(producer.slices[0].start)
        notified = [
            n for n in env.mcp.notifications
            if n.enclave_id == analytics.enclave_id
        ]
        assert notified and "revoked" in notified[0].what
        # Consumer keeps computing.
        env.engine.run(Stream(), analytics)


class TestMixedFleet:
    def test_native_and_protected_coexist(self, env):
        protected = env.launch(SMALL, CovirtConfig.full(), "p")
        native = env.launch(SMALL, None, "n")
        assert protected.virt_context is not None
        assert native.virt_context is None
        r1 = env.engine.run(Hpcg(), protected)
        r0 = env.engine.run(Hpcg(), native)
        assert 0.0 < r1.overhead_vs(r0) < 0.03

    def test_serial_fault_storm_never_reaches_host(self, env):
        """Boot, crash, reclaim, repeat — ownership must be conserved
        through every cycle."""
        for i in range(4):
            enclave = env.launch(SMALL, CovirtConfig.memory_only(), f"victim{i}")
            with pytest.raises(EnclaveFaultError):
                enclave.port.read(enclave.assignment.core_ids[0], 50 * GiB, 8)
            assert enclave.state is EnclaveState.FAILED
        assert env.host.alive and env.host.verify_integrity()
        assert env.host.is_pristine()
        assert len(env.controller.fault_log) == 4

    def test_three_enclaves_one_dies_two_work(self, env):
        a = env.launch(SMALL, CovirtConfig.memory_only(), "a")
        b = env.launch(SMALL, CovirtConfig.memory_only(), "b")
        c = env.launch(SMALL, None, "c")
        with pytest.raises(EnclaveFaultError):
            b.port.raise_exception(
                b.assignment.core_ids[0], ExceptionVector.DOUBLE_FAULT
            )
        for survivor in (a, c):
            assert survivor.state is EnclaveState.RUNNING
            task = survivor.kernel.spawn("work", mem_bytes=4096)
            assert survivor.kernel.syscall(task, Syscall.GETPID) == task.tid

    def test_forwarding_keeps_working_after_sibling_death(self, env):
        victim = env.launch(SMALL, CovirtConfig.memory_only(), "victim")
        worker = env.launch(SMALL, CovirtConfig.memory_only(), "worker")
        with pytest.raises(EnclaveFaultError):
            victim.port.read(victim.assignment.core_ids[0], 50 * GiB, 8)
        task = worker.kernel.spawn("app")
        fd = worker.kernel.syscall(task, Syscall.OPEN, "/etc/hostname")
        assert worker.kernel.syscall(task, Syscall.READ, fd, 64).startswith(
            b"hobbes"
        )


class TestWorkloadOnStack:
    def test_full_sweep_one_environment(self, env):
        """All four configs, booted sequentially in one environment."""
        from repro.core.features import EVALUATION_CONFIGS

        foms = {}
        for label, config in EVALUATION_CONFIGS:
            enclave = env.launch(SMALL, config, name=label)
            result = env.engine.run(Stream(), enclave)
            foms[label] = result.fom
            env.teardown(enclave)
        assert foms["native"] >= foms["covirt-mem+ipi"] > 0

    def test_counters_populated_by_real_traffic(self, env):
        enclave = env.launch(SMALL, CovirtConfig.full())
        bsp = enclave.assignment.core_ids[0]
        enclave.port.cpuid(bsp, 1)
        enclave.port.rdmsr(bsp, 0x1B)
        env.mcp.kmod.ioctl(202, enclave.enclave_id)  # covirt PING
        counts = env.mcp.kmod.ioctl(201, enclave.enclave_id)  # covirt COUNTERS
        assert counts["exits"]["cpuid"] == 1
        assert counts["exits"]["msr_read"] == 1
        assert sum(counts["commands"].values()) >= 2
        assert env.machine.obs.metrics.hypervisor_counts()["exit_cycles"] > 0
