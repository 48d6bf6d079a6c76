"""The Kitten kernel proper.

One :class:`KittenKernel` instance runs per enclave.  The guest-kernel
surface it shares with the other co-kernels (boot-parameter parse,
core bring-up, IRQ dispatch, hotplug, XEMEM mappings, ``touch``) is
:class:`repro.pisces.guest.GuestKernel`; this module adds what is
Kitten's own: a contiguous bump allocator per region, run-to-completion
tasks, and the syscall table workloads run on.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any

from repro.hw.apic import DeliveryMode
from repro.hw.machine import Machine
from repro.hw.memory import MemoryRegion, PAGE_SIZE, page_align_up
from repro.kitten.sched import Scheduler
from repro.kitten.syscalls import (
    DELEGATED_SYSCALLS,
    EINVAL,
    ENOMEM,
    ENOSYS,
    LOCAL_SYSCALLS,
    Syscall,
    SyscallError,
)
from repro.kitten.task import MemorySlice, Task, TaskState
from repro.pisces.bootparams import PiscesBootParams
from repro.pisces.guest import GuestKernel

if TYPE_CHECKING:  # pragma: no cover
    from repro.pisces.enclave import Enclave

#: Kitten keeps the local APIC timer nearly silent: one housekeeping
#: tick every 100 ms (LWKs minimise timer interrupts; Section IV-C).
HOUSEKEEPING_TICK_CYCLES = 170_000_000

#: First megabyte of the first region is kernel image + boot structures.
KERNEL_RESERVED_BYTES = 1 << 20


class GuestPageFault(Exception):
    """A task touched memory outside its allocation (guest-level #PF)."""


class KittenKernel(GuestKernel):
    """The LWK instance managing one enclave's resources."""

    BANNER = "Kitten booting: enclave {enclave_id}, {ncores} cores, {mib} MiB"
    TIMER_PERIOD = HOUSEKEEPING_TICK_CYCLES
    TOUCH_FILL = b"\xAB"
    UNMAPPED_ERROR = GuestPageFault
    UNMAPPED_MESSAGE = "kitten: {addr:#x} not mapped in guest page tables"

    def __init__(
        self, machine: Machine, enclave: "Enclave", params: PiscesBootParams
    ) -> None:
        super().__init__(machine, enclave, params)
        self.sched = Scheduler([params.core_ids[0]])
        self.tasks: dict[int, Task] = {}
        self._next_tid = 1
        # Bump allocator per region, skipping the kernel image.
        first = params.regions[0]
        self._alloc_cursor: dict[int, int] = {
            r.start: (
                r.start + KERNEL_RESERVED_BYTES if r.start == first.start else r.start
            )
            for r in params.regions
        }

    @classmethod
    def boot(cls, machine: Machine, enclave: "Enclave") -> "KittenKernel":
        # Defined here rather than inherited: perfbench/layers.py traces
        # ``KittenKernel.boot`` by reading it from this class's __dict__.
        return super().boot(machine, enclave)

    def join_secondary_core(self, core_id: int) -> None:
        super().join_secondary_core(core_id)
        self.sched.add_core(core_id)

    def shutdown(self) -> None:
        super().shutdown()
        for task in self.tasks.values():
            if task.state in (TaskState.READY, TaskState.RUNNING, TaskState.BLOCKED):
                task.kill()

    def send_ipi(
        self, from_core: int, dest_core: int, vector: int,
        mode: DeliveryMode = DeliveryMode.FIXED,
    ) -> bool:
        """Kernel-level IPI transmission (goes through the port)."""
        assert self.enclave.port is not None
        return self.enclave.port.send_ipi(from_core, dest_core, vector, mode)

    # -- memory ------------------------------------------------------------

    def kmalloc(self, size: int, zone_pref: int | None = None) -> MemorySlice:
        """Contiguous physical allocation (Kitten's signature policy)."""
        size = page_align_up(size)
        regions = sorted(
            self.params.regions,
            key=lambda r: (r.zone != zone_pref, r.start),
        )
        for region in regions:
            cursor = self._alloc_cursor.get(region.start)
            if cursor is None:
                continue
            if cursor + size <= region.end:
                self._alloc_cursor[region.start] = cursor + size
                return MemorySlice(cursor, size)
        raise SyscallError(ENOMEM, f"kitten: cannot allocate {size:#x} bytes")

    def memory_hotplug_add(self, region: MemoryRegion) -> None:
        super().memory_hotplug_add(region)
        self._alloc_cursor[region.start] = region.start

    def memory_hotplug_remove(self, region: MemoryRegion) -> bool:
        self._alloc_cursor.pop(region.start, None)
        return super().memory_hotplug_remove(region)

    def inject_stale_mapping(self, start: int, size: int) -> None:
        """Fault-injection helper: make the kernel *believe* it owns
        [start, +size) — memory map and page tables both — the way a
        missed cleanup would."""
        assert self.pgtable is not None
        self.memmap.add(start, size)
        self.pgtable.map(start, start, size)

    # -- tasks & syscalls ----------------------------------------------

    def spawn(self, name: str, mem_bytes: int = PAGE_SIZE, core_id: int | None = None) -> Task:
        task = Task(self._next_tid, name, self.params.enclave_id)
        self._next_tid += 1
        if mem_bytes:
            task.slices.append(self.kmalloc(mem_bytes))
        self.tasks[task.tid] = task
        self.sched.enqueue(task, core_id if core_id is not None else self.sched.least_loaded_core())
        return task

    def syscall(self, task: Task, nr: int, *args: Any) -> Any:
        """System-call entry."""
        try:
            syscall = Syscall(nr)
        except ValueError:
            raise SyscallError(ENOSYS, f"unknown syscall {nr}") from None
        if syscall in DELEGATED_SYSCALLS:
            if self.hobbes_client is None:
                raise SyscallError(
                    ENOSYS, f"{syscall.name} requires Hobbes forwarding"
                )
            return self.hobbes_client.forward_syscall(task, syscall, args)
        if syscall not in LOCAL_SYSCALLS:
            raise SyscallError(ENOSYS, f"{syscall.name} not supported")
        return self._local_syscall(task, syscall, args)

    def _local_syscall(self, task: Task, syscall: Syscall, args: tuple) -> Any:
        if syscall is Syscall.GETPID or syscall is Syscall.GETTID:
            return task.tid
        if syscall is Syscall.UNAME:
            return "Kitten co-kernel (repro) 4.0"
        if syscall is Syscall.EXIT:
            task.exit(args[0] if args else 0)
            if task.bound_core is not None:
                self.sched.task_done(task.bound_core)
            return 0
        if syscall is Syscall.WRITE:
            fd, text = args[0], args[1]
            if fd not in (1, 2):
                raise SyscallError(EINVAL, f"write: bad fd {fd}")
            self.console.append(str(text))
            return len(str(text))
        if syscall in (Syscall.MMAP, Syscall.BRK):
            size = args[0]
            chunk = self.kmalloc(size)
            task.slices.append(chunk)
            return chunk.start
        if syscall in (
            Syscall.XEMEM_MAKE,
            Syscall.XEMEM_GET,
            Syscall.XEMEM_ATTACH,
            Syscall.XEMEM_DETACH,
        ):
            if self.hobbes_client is None:
                raise SyscallError(ENOSYS, "XEMEM requires the Hobbes runtime")
            return self.hobbes_client.xemem_syscall(task, syscall, args)
        raise SyscallError(ENOSYS, f"{syscall.name} unhandled")  # pragma: no cover

    def user_access(
        self, task: Task, core_id: int, addr: int, length: int, *, write: bool
    ) -> bytes | None:
        """User-mode access: checked against the task's allocation plus
        its XEMEM attachments, then issued through the kernel path."""
        if not (task.owns_addr(addr, length) or self._in_attachment(task, addr, length)):
            task.kill()
            raise GuestPageFault(
                f"task {task.tid} segfault at {addr:#x} (+{length})"
            )
        return self.touch(core_id, addr, length, write=write)

    def _in_attachment(self, task: Task, addr: int, length: int) -> bool:
        if self.hobbes_client is None:
            return False
        return self.hobbes_client.attachment_covers(task, addr, length)
