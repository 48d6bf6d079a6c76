"""mOS: the extreme-integration co-kernel, native and under Covirt."""

import pytest

from repro.core.faults import EnclaveFaultError
from repro.core.features import CovirtConfig
from repro.harness.env import CovirtEnvironment
from repro.hw.memory import OwnershipError
from repro.kitten.syscalls import Syscall, SyscallError
from repro.mos import MosError, MosLwk, MosStack
from repro.pisces.enclave import EnclaveState

GiB = 1 << 30
MiB = 1 << 20


@pytest.fixture
def env():
    return CovirtEnvironment()


@pytest.fixture
def mos(env):
    stack = MosStack(env.machine, env.host)
    env.controller.interpose_on(stack)
    return stack


def designate(env, mos, config=None):
    return env.controller.launch_via(
        lambda: mos.designate({0: 2}, {0: 2 * GiB}), config
    )


class TestDesignation:
    def test_boot_time_designation(self, env, mos):
        partition = designate(env, mos)
        assert partition.state is EnclaveState.RUNNING
        assert isinstance(partition.kernel, MosLwk)
        assert "mOS LWK online" in partition.kernel.console[0]

    def test_designation_is_once_only(self, env, mos):
        designate(env, mos)
        with pytest.raises(MosError):
            mos.designate({1: 1}, {1: GiB})

    def test_short_core_zone_rolls_back(self, env, mos):
        online = set(env.host.online_cores)
        with pytest.raises(MosError):
            mos.designate({0: 2, 1: 99}, {0: GiB})
        assert env.host.online_cores == online
        assert env.host.is_pristine()
        assert mos.partition is None

    def test_short_memory_zone_rolls_back(self, env, mos):
        online = set(env.host.online_cores)
        with pytest.raises(OwnershipError):
            mos.designate({0: 1}, {0: GiB, 1: 1 << 50})
        assert env.host.is_pristine()
        assert env.host.online_cores == online
        assert mos.partition is None
        partition = designate(env, mos)
        assert partition.state is EnclaveState.RUNNING

    def test_lwk_cores_are_tickless(self, env, mos):
        partition = designate(env, mos)
        for core_id in partition.assignment.core_ids:
            assert env.machine.core(core_id).apic.timer_period is None

    def test_shared_window_mapped_and_linux_owned(self, env, mos):
        from repro.linuxhost.host import LINUX_OWNER

        partition = designate(env, mos)
        window = mos.shared_window
        assert partition.kernel.pgtable.covers(window.start, window.size)
        # The window is genuinely *shared*: Linux still owns it.
        assert env.machine.memory.region_owner(window) == LINUX_OWNER


class TestEmbeddedSyscalls:
    def test_trampoline_not_channel(self, env, mos):
        """mOS delegation is a function call: orders cheaper than the
        Hobbes channel round trip (the integration payoff)."""
        from repro.mos.stack import MOS_SYSCALL_TRAMPOLINE_CYCLES
        from repro.perf.costs import DEFAULT_COSTS

        assert MOS_SYSCALL_TRAMPOLINE_CYCLES * 10 < DEFAULT_COSTS.channel_rtt
        partition = designate(env, mos)
        lwk = partition.kernel
        process = lwk.spawn_process("app")
        fd = lwk.syscall(process, Syscall.OPEN, "/etc/hostname")
        assert lwk.syscall(process, Syscall.READ, fd, 64) == b"hobbes-node-0\n"
        assert lwk.trampoline_cycles > 0

    def test_syscalls_touch_shared_kernel_state(self, env, mos):
        partition = designate(env, mos, CovirtConfig.memory_only())
        lwk = partition.kernel
        process = lwk.spawn_process("app")
        # The trampolined call reads the shared window through the
        # *protected* port — and is allowed to.
        lwk.syscall(process, Syscall.OPEN, "/etc/hostname")
        assert partition.state is EnclaveState.RUNNING


class TestCovirtOnMos:
    def test_extension_ioctls_start_at_the_covirt_base(self, env, mos):
        with pytest.raises(MosError):
            mos.register_ioctl(7, lambda arg: arg)
        with pytest.raises(MosError):
            mos.register_ioctl(203, lambda arg: arg)  # Covirt's DOSSIER
        with pytest.raises(MosError):
            mos.ioctl(7)

    def test_protected_designation(self, env, mos):
        partition = designate(env, mos, CovirtConfig.memory_only())
        status = mos.ioctl(200, partition.enclave_id)
        assert status["protected"]
        # The EPT covers the partition *plus* the shared window — more
        # than the assignment, by exactly the window's size.
        ctx = env.controller.context_for(partition.enclave_id)
        assert (
            ctx.ept.mapped_bytes
            == partition.assignment.total_memory + mos.shared_window.size
        )

    def test_shared_window_access_allowed(self, env, mos):
        partition = designate(env, mos, CovirtConfig.memory_only())
        bsp = partition.assignment.core_ids[0]
        partition.kernel.touch(bsp, mos.shared_window.start, 8)
        assert partition.state is EnclaveState.RUNNING

    def test_linux_memory_outside_window_contained(self, env, mos):
        """High integration narrows, but does not erase, the boundary."""
        partition = designate(env, mos, CovirtConfig.memory_only())
        bsp = partition.assignment.core_ids[0]
        zone1 = env.machine.topology.zones[1]
        with pytest.raises(EnclaveFaultError):
            partition.port.read(bsp, zone1.mem_start + 16 * 4096, 8)
        assert partition.state is EnclaveState.FAILED
        assert env.host.alive and env.host.verify_integrity()

    def test_native_mos_fault_would_hit_linux(self, env, mos):
        partition = designate(env, mos)
        bsp = partition.assignment.core_ids[0]
        zone1 = env.machine.topology.zones[1]
        partition.port.write(bsp, zone1.mem_start + 16 * 4096, b"\x00" * 8)
        assert not env.host.verify_integrity()

    def test_fault_dossier_for_mos(self, env, mos):
        partition = designate(env, mos, CovirtConfig.memory_only())
        bsp = partition.assignment.core_ids[0]
        with pytest.raises(EnclaveFaultError):
            partition.port.read(bsp, 50 * GiB, 8)
        dossier = mos.ioctl(203, partition.enclave_id)
        assert dossier["fault"]["enclave_id"] == partition.enclave_id
