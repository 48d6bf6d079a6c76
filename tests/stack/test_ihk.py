"""IHK/McKernel: the second co-kernel framework, native and protected.

These tests substantiate the paper's generalisation claim: Covirt
interposes on IHK through the identical seams it uses for Pisces, and
the protection semantics carry over unchanged.
"""

import pytest

from repro.core.faults import EnclaveFaultError
from repro.core.features import CovirtConfig
from repro.harness.env import CovirtEnvironment
from repro.ihk.mckernel import McKernel
from repro.ihk.module import IHK_ID_BASE, IhkError, IhkIoctl, IhkModule
from repro.kitten.syscalls import Syscall, SyscallError
from repro.pisces.enclave import EnclaveState

GiB = 1 << 30
MiB = 1 << 20


@pytest.fixture
def env():
    return CovirtEnvironment()


@pytest.fixture
def ihk(env):
    module = IhkModule(env.machine, env.host)
    env.controller.interpose_on(module)
    return module


def boot_instance(env, ihk, config=None):
    os_index = ihk.reserve({0: 1, 1: 1}, {0: GiB, 1: GiB})
    env.controller.launch_via(lambda: ihk.boot(os_index), config)
    return os_index, ihk.instance(os_index)


class TestLifecycle:
    def test_reserve_boot_destroy(self, env, ihk):
        os_index, enclave = boot_instance(env, ihk)
        assert enclave.state is EnclaveState.RUNNING
        assert isinstance(enclave.kernel, McKernel)
        assert enclave.enclave_id >= IHK_ID_BASE
        assert "McKernel booting" in enclave.kernel.console[0]
        ihk.destroy(os_index)
        assert env.host.is_pristine()

    def test_destroy_forgets_the_instance(self, env, ihk):
        os_index, enclave = boot_instance(env, ihk)
        ihk.destroy(os_index)
        assert enclave.state is EnclaveState.DESTROYED
        assert ihk.enclaves == {}
        with pytest.raises(IhkError):
            ihk.ioctl(IhkIoctl.QUERY_STATUS, os_index)

    def test_reserve_rolls_back_on_failure(self, env, ihk):
        with pytest.raises(IhkError):
            ihk.reserve({0: 99}, {0: GiB})
        assert env.host.is_pristine()

    def test_zero_size_zone_is_skipped(self, env, ihk):
        os_index = ihk.reserve({0: 1}, {0: GiB, 1: 0})
        enclave = ihk.boot(os_index)
        assert enclave.state is EnclaveState.RUNNING
        assert [r.size for r in enclave.assignment.regions] == [GiB]
        ihk.destroy(os_index)
        assert env.host.is_pristine()

    def test_failed_reserve_does_not_advance_the_index(self, env, ihk):
        with pytest.raises(IhkError):
            ihk.reserve({0: 99}, {0: GiB})
        assert ihk.reserve({0: 1}, {0: GiB}) == 0

    def test_extension_ioctls_start_at_the_covirt_base(self, env, ihk):
        # 151 is IhkIoctl.BOOT: an extension there could never be reached.
        with pytest.raises(IhkError):
            ihk.register_ioctl(IhkIoctl.BOOT, lambda arg: arg)
        with pytest.raises(IhkError):
            ihk.register_ioctl(200, lambda arg: arg)  # Covirt's STATUS
        ihk.register_ioctl(250, lambda arg: arg * 2)
        assert ihk.ioctl(250, 21) == 42
        with pytest.raises(IhkError):
            ihk.ioctl(251)

    def test_ioctl_abi(self, env, ihk):
        os_index = ihk.ioctl(IhkIoctl.RESERVE, ({0: 1}, {0: GiB}))
        ihk.ioctl(IhkIoctl.BOOT, os_index)
        assert ihk.ioctl(IhkIoctl.QUERY_STATUS, os_index) is EnclaveState.RUNNING
        ihk.ioctl(IhkIoctl.DESTROY, os_index)

    def test_coexists_with_pisces_enclaves(self, env, ihk):
        from repro.harness.env import Layout

        pisces = env.launch(
            Layout("2c/2n", {0: 1, 1: 1}, {0: GiB, 1: GiB}),
            CovirtConfig.memory_only(),
            "pisces-side",
        )
        _os_index, mcos = boot_instance(env, ihk, CovirtConfig.memory_only())
        assert pisces.state is EnclaveState.RUNNING
        assert mcos.state is EnclaveState.RUNNING
        assert not set(pisces.assignment.core_ids) & set(
            mcos.assignment.core_ids
        )


class TestProxyProcess:
    def test_every_process_gets_a_host_twin(self, env, ihk):
        _idx, enclave = boot_instance(env, ihk)
        process = enclave.kernel.spawn_process("app", mem_bytes=MiB)
        assert process.proxy is not None
        assert process.proxy.mck_pid == process.pid
        assert process.proxy.covers(process.ranges[0][0], MiB)

    def test_delegation_through_proxy(self, env, ihk):
        _idx, enclave = boot_instance(env, ihk)
        kernel = enclave.kernel
        process = kernel.spawn_process("app")
        fd = kernel.syscall(process, Syscall.OPEN, "/etc/hostname")
        data = kernel.syscall(process, Syscall.READ, fd, 64)
        assert data == b"hobbes-node-0\n"
        assert process.proxy.delegations == 2

    def test_write_validates_replicated_buffer(self, env, ihk):
        _idx, enclave = boot_instance(env, ihk)
        kernel = enclave.kernel
        process = kernel.spawn_process("app", mem_bytes=MiB)
        addr = process.ranges[0][0]
        assert kernel.syscall(process, Syscall.WRITE, 1, addr, 16) == 16

    def test_correct_munmap_fails_delegation_cleanly(self, env, ihk):
        """With replica kept in sync, a use-after-unmap is rejected with
        EFAULT at the proxy — a clean, diagnosable error."""
        _idx, enclave = boot_instance(env, ihk)
        kernel = enclave.kernel
        process = kernel.spawn_process("app", mem_bytes=MiB)
        start, size = process.ranges[0]
        kernel.munmap_process(process, start, size, buggy=False)
        with pytest.raises(SyscallError):
            kernel.syscall(process, Syscall.WRITE, 1, start, 16)

    def test_replica_desync_is_silent_stale_state(self, env, ihk):
        """The IHK-flavoured stale-state bug: munmap that forgets the
        proxy twin leaves the replica covering freed memory, and the
        delegation *silently succeeds* on stale data — exactly the
        hard-to-diagnose class Section V describes."""
        _idx, enclave = boot_instance(env, ihk)
        kernel = enclave.kernel
        process = kernel.spawn_process("app", mem_bytes=MiB)
        start, size = process.ranges[0]
        kernel.munmap_process(process, start, size, buggy=True)
        assert not process.owns(start)  # the LWK freed it...
        assert process.proxy.covers(start, 16)  # ...the twin disagrees
        # The delegation goes through anyway: silent stale read.
        assert kernel.syscall(process, Syscall.WRITE, 1, start, 16) == 16

    def test_mckernel_handles_almost_nothing_locally(self, env, ihk):
        _idx, enclave = boot_instance(env, ihk)
        process = enclave.kernel.spawn_process("app")
        with pytest.raises(SyscallError):
            enclave.kernel.syscall(process, Syscall.MMAP, 4096)


class TestCovirtOnIhk:
    def test_protected_boot_is_transparent(self, env, ihk):
        _idx, enclave = boot_instance(env, ihk, CovirtConfig.memory_only())
        assert isinstance(enclave.kernel, McKernel)
        status = ihk.ioctl(200, enclave.enclave_id)  # COVIRT_STATUS
        assert status["protected"]
        assert status["ept_mapped_bytes"] == enclave.assignment.total_memory

    def test_wild_access_contained_and_reclaimed(self, env, ihk):
        os_index, enclave = boot_instance(env, ihk, CovirtConfig.memory_only())
        bsp = enclave.assignment.core_ids[0]
        with pytest.raises(EnclaveFaultError):
            enclave.port.read(bsp, 50 * GiB, 8)
        assert enclave.state is EnclaveState.FAILED
        assert env.host.alive and env.host.verify_integrity()
        assert env.host.is_pristine()
        assert enclave.enclave_id in env.controller.dossiers

    def test_pisces_survives_ihk_crash(self, env, ihk):
        from repro.harness.env import Layout

        pisces = env.launch(
            Layout("2c/2n", {0: 1, 1: 1}, {0: GiB, 1: GiB}),
            CovirtConfig.memory_only(),
            "pisces-side",
        )
        _idx, mcos = boot_instance(env, ihk, CovirtConfig.memory_only())
        with pytest.raises(EnclaveFaultError):
            mcos.port.read(mcos.assignment.core_ids[0], 50 * GiB, 8)
        assert pisces.state is EnclaveState.RUNNING
        # And the Pisces enclave still works end to end.
        task = pisces.kernel.spawn("w", mem_bytes=4096)
        assert pisces.kernel.syscall(task, Syscall.GETPID) == task.tid

    def test_proxy_delegation_works_under_covirt(self, env, ihk):
        _idx, enclave = boot_instance(env, ihk, CovirtConfig.memory_only())
        kernel = enclave.kernel
        process = kernel.spawn_process("app", mem_bytes=MiB)
        addr = process.ranges[0][0]
        # The buffer read crosses the *protected* port.
        assert kernel.syscall(process, Syscall.WRITE, 1, addr, 8) == 8
