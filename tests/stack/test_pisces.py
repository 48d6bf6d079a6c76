"""Pisces: specs, boot params, enclave lifecycle, the ioctl ABI."""

import pytest

from repro.core.faults import EnclaveFaultError
from repro.core.features import CovirtConfig
from repro.harness.env import CovirtEnvironment, Layout
from repro.hw.machine import Machine, MachineConfig
from repro.hw.memory import MemoryRegion, PAGE_SIZE
from repro.ihk import IhkError, IhkModule
from repro.linuxhost.host import LINUX_OWNER, LinuxHost
from repro.mos import MosError, MosStack
from repro.pisces.bootparams import BOOT_PARAMS_MAGIC, PiscesBootParams
from repro.pisces.enclave import EnclaveDead, EnclaveState, FaultRecord
from repro.pisces.kmod import PiscesError, PiscesIoctl, PiscesKmod
from repro.pisces.resources import ResourceSpec, enclave_owner

GiB = 1 << 30
MiB = 1 << 20


@pytest.fixture
def machine():
    return Machine(MachineConfig.paper_testbed())


@pytest.fixture
def host(machine):
    return LinuxHost(machine)


@pytest.fixture
def kmod(machine, host):
    return PiscesKmod(machine, host)


def spec(ncores=2, nzones=2, mem=2 * GiB):
    return ResourceSpec.evaluation_layout(ncores, nzones, mem, "t")


class TestResourceSpec:
    def test_evaluation_layout_splits_evenly(self):
        s = ResourceSpec.evaluation_layout(4, 2, 14 * GiB)
        assert s.cores_per_zone == {0: 2, 1: 2}
        assert s.total_cores == 4
        assert abs(s.total_memory - 14 * GiB) < 2 * PAGE_SIZE

    def test_uneven_split_rejected(self):
        with pytest.raises(ValueError):
            ResourceSpec.evaluation_layout(3, 2, GiB)

    def test_needs_cores_and_memory(self):
        with pytest.raises(ValueError):
            ResourceSpec(cores_per_zone={0: 0}, mem_per_zone={0: GiB})
        with pytest.raises(ValueError):
            ResourceSpec(cores_per_zone={0: 1}, mem_per_zone={0: 0})


class TestBootParams:
    def test_pack_unpack_roundtrip(self):
        params = PiscesBootParams(
            enclave_id=7,
            core_ids=[0, 1, 6],
            regions=[MemoryRegion(0x100000, 0x200000, 1)],
            channel_addr=0xBEEF000,
        )
        clone = PiscesBootParams.unpack(params.pack())
        assert clone.enclave_id == 7
        assert clone.core_ids == [0, 1, 6]
        assert clone.regions == params.regions
        assert clone.channel_addr == 0xBEEF000

    def test_memory_roundtrip(self, machine):
        params = PiscesBootParams(1, [0], [MemoryRegion(0, PAGE_SIZE)])
        params.write_to(machine.memory, 0x5000)
        clone = PiscesBootParams.read_from(machine.memory, 0x5000)
        assert clone.enclave_id == 1
        assert clone.address == 0x5000

    def test_bad_magic_rejected(self):
        params = PiscesBootParams(1, [0], [MemoryRegion(0, PAGE_SIZE)])
        data = bytearray(params.pack())
        data[0] ^= 0xFF
        with pytest.raises(ValueError):
            PiscesBootParams.unpack(bytes(data))

    def test_magic_constant(self):
        assert BOOT_PARAMS_MAGIC == 0x50534345


class TestEnclaveLifecycle:
    def test_create_partitions_resources(self, machine, host, kmod):
        enclave = kmod.create_enclave(spec())
        assert enclave.state is EnclaveState.CREATED
        owner = enclave_owner(enclave.enclave_id)
        assert machine.memory.total_owned(owner) == enclave.assignment.total_memory
        for core_id in enclave.assignment.core_ids:
            assert core_id not in host.online_cores

    def test_cores_placed_per_zone(self, machine, kmod):
        enclave = kmod.create_enclave(spec(ncores=4))
        zones = [machine.core(c).zone for c in enclave.assignment.core_ids]
        assert zones.count(0) == 2 and zones.count(1) == 2

    def test_create_rolls_back_on_failure(self, machine, host, kmod):
        before = dict(host.owner_summary())
        online = set(host.online_cores)
        # Ask for more cores than a zone has.
        bad = ResourceSpec(cores_per_zone={0: 99}, mem_per_zone={0: GiB})
        with pytest.raises(PiscesError):
            kmod.create_enclave(bad)
        assert host.owner_summary() == before
        assert host.online_cores == online

    def test_boot_writes_params_and_runs_kernel(self, machine, kmod):
        enclave = kmod.create_enclave(spec())
        kmod.boot_enclave(enclave.enclave_id)
        assert enclave.state is EnclaveState.RUNNING
        assert enclave.kernel is not None
        assert enclave.kernel.params.enclave_id == enclave.enclave_id
        assert enclave.kernel.memmap.total_bytes == enclave.assignment.total_memory
        assert sorted(enclave.kernel.online_cores) == sorted(
            enclave.assignment.core_ids
        )

    def test_double_boot_rejected(self, kmod):
        enclave = kmod.create_enclave(spec())
        kmod.boot_enclave(enclave.enclave_id)
        with pytest.raises(PiscesError):
            kmod.boot_enclave(enclave.enclave_id)

    def test_destroy_returns_everything(self, machine, host, kmod):
        before = host.owner_summary()[LINUX_OWNER]
        enclave = kmod.create_enclave(spec())
        kmod.boot_enclave(enclave.enclave_id)
        kmod.destroy_enclave(enclave.enclave_id)
        assert enclave.state is EnclaveState.DESTROYED
        assert host.owner_summary()[LINUX_OWNER] == before
        assert len(host.online_cores) == machine.num_cores

    def test_destroy_forgets_the_enclave(self, kmod):
        enclave = kmod.create_enclave(spec())
        kmod.boot_enclave(enclave.enclave_id)
        kmod.destroy_enclave(enclave.enclave_id)
        assert enclave.enclave_id not in kmod.enclaves
        with pytest.raises(PiscesError):
            kmod.ioctl(PiscesIoctl.ENCLAVE_STATUS, enclave.enclave_id)

    def test_launch_teardown_cycles_keep_the_registry_flat(self):
        env = CovirtEnvironment()
        kmod = env.mcp.kmod
        layout = Layout("1c/1n", {0: 1}, {0: 256 * MiB})
        before = len(kmod.enclaves)
        for i in range(10):
            enclave = env.launch(layout, CovirtConfig.full(), name=f"cycle-{i}")
            env.teardown(enclave)
            assert len(kmod.enclaves) == before

    def test_failed_enclave_stays_registered(self):
        env = CovirtEnvironment()
        enclave = env.launch(
            Layout("1c/1n", {0: 1}, {0: 256 * MiB}), CovirtConfig.full()
        )
        with pytest.raises(EnclaveFaultError):
            enclave.port.read(enclave.assignment.core_ids[0], 50 * GiB, 8)
        env.teardown(enclave)
        assert enclave.state is EnclaveState.FAILED
        assert env.mcp.kmod.enclave(enclave.enclave_id) is enclave

    def test_two_enclaves_coexist(self, kmod):
        e1 = kmod.create_enclave(spec())
        e2 = kmod.create_enclave(spec())
        assert e1.enclave_id != e2.enclave_id
        assert not set(e1.assignment.core_ids) & set(e2.assignment.core_ids)
        for r1 in e1.assignment.regions:
            for r2 in e2.assignment.regions:
                assert not r1.overlaps(r2)


class TestMemoryHotplug:
    def test_add_memory_updates_kernel_map(self, kmod):
        enclave = kmod.create_enclave(spec())
        kmod.boot_enclave(enclave.enclave_id)
        before = enclave.kernel.memmap.total_bytes
        region = kmod.add_memory(enclave.enclave_id, 4 * MiB, 0)
        assert enclave.kernel.memmap.total_bytes == before + region.size
        assert region in enclave.assignment.regions

    def test_remove_memory_full_path(self, machine, host, kmod):
        enclave = kmod.create_enclave(spec())
        kmod.boot_enclave(enclave.enclave_id)
        region = kmod.add_memory(enclave.enclave_id, 4 * MiB, 0)
        kmod.remove_memory(enclave.enclave_id, region)
        assert not enclave.kernel.memmap.contains(region.start)
        assert machine.memory.region_owner(region) == LINUX_OWNER

    def test_remove_unassigned_region_rejected(self, kmod):
        enclave = kmod.create_enclave(spec())
        kmod.boot_enclave(enclave.enclave_id)
        with pytest.raises(PiscesError):
            kmod.remove_memory(
                enclave.enclave_id, MemoryRegion(0, PAGE_SIZE)
            )

    def test_hotplug_requires_running(self, kmod):
        enclave = kmod.create_enclave(spec())
        with pytest.raises(EnclaveDead):
            kmod.add_memory(enclave.enclave_id, MiB, 0)


class TestTermination:
    def test_terminate_parks_cores(self, machine, kmod):
        enclave = kmod.create_enclave(spec())
        kmod.boot_enclave(enclave.enclave_id)
        fault = FaultRecord("ept_violation", "test", 0, 0)
        kmod.terminate_enclave(enclave.enclave_id, fault)
        assert enclave.state is EnclaveState.FAILED
        assert enclave.fault is fault
        for core_id in enclave.assignment.core_ids:
            assert machine.core(core_id).halted

    def test_reclaim_requires_stopped(self, kmod):
        enclave = kmod.create_enclave(spec())
        kmod.boot_enclave(enclave.enclave_id)
        with pytest.raises(PiscesError):
            kmod.reclaim_enclave(enclave.enclave_id)


class TestIoctlAbi:
    def test_base_commands(self, kmod):
        enclave = kmod.ioctl(PiscesIoctl.CREATE_ENCLAVE, spec())
        kmod.ioctl(PiscesIoctl.BOOT_ENCLAVE, enclave.enclave_id)
        assert kmod.ioctl(PiscesIoctl.ENCLAVE_STATUS, enclave.enclave_id) is (
            EnclaveState.RUNNING
        )
        kmod.ioctl(PiscesIoctl.DESTROY_ENCLAVE, enclave.enclave_id)

    def test_unknown_command(self, kmod):
        with pytest.raises(PiscesError):
            kmod.ioctl(9999)

    def test_extension_registration(self, kmod):
        kmod.register_ioctl(250, lambda arg: arg * 2)
        assert kmod.ioctl(250, 21) == 42

    def test_extension_cannot_shadow_base(self, kmod):
        with pytest.raises(PiscesError):
            kmod.register_ioctl(100, lambda arg: None)

    def test_extension_cannot_double_register(self, kmod):
        kmod.register_ioctl(250, lambda arg: None)
        with pytest.raises(PiscesError):
            kmod.register_ioctl(250, lambda arg: None)

    @pytest.mark.parametrize(
        "framework, error",
        [(None, PiscesError), (IhkModule, IhkError), (MosStack, MosError)],
        ids=["pisces", "ihk", "mos"],
    )
    def test_covirt_range_registered_on_every_framework(self, framework, error):
        env = CovirtEnvironment()
        if framework is None:
            target = env.mcp.kmod
        else:
            target = framework(env.machine, env.host)
            env.controller.interpose_on(target)
        for cmd in (200, 201, 202, 203):
            with pytest.raises(error, match="already registered"):
                target.register_ioctl(cmd, lambda arg: None)
        assert target.ioctl(200, 12345) == {"protected": False}
