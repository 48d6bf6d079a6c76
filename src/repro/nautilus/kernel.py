"""The Nautilus aerokernel.

Boots through the guest-kernel surface every co-kernel shares
(:class:`~repro.pisces.guest.GuestKernel`: boot from the trampoline's
boot-parameter structure, memory map + hotplug, interrupt injection,
console, shutdown) and puts an aerokernel's execution model on top:
cooperative fibers in a single kernel-wide address space, per-core run
queues with explicit yield, and no timer interrupts at all.
"""

from __future__ import annotations

import enum
from collections import deque
from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable

from repro.hw.machine import Machine
from repro.hw.memory import PAGE_SIZE, page_align_up
from repro.pisces.bootparams import PiscesBootParams
from repro.pisces.guest import GuestKernel

if TYPE_CHECKING:  # pragma: no cover
    from repro.pisces.enclave import Enclave

#: Nautilus reserves the first 2 MiB of its first region for the kernel
#: image and per-core stacks (it links runtimes into the kernel, so the
#: image is bigger than Kitten's).
KERNEL_RESERVED_BYTES = 2 << 20


class FiberState(enum.Enum):
    READY = "ready"
    RUNNING = "running"
    YIELDED = "yielded"
    DONE = "done"


@dataclass
class Fiber:
    """A ring-0 lightweight thread."""

    fid: int
    name: str
    core_id: int
    state: FiberState = FiberState.READY
    #: Cooperative body: called once per dispatch; returning False means
    #: the fiber is finished.
    body: Callable[["Fiber"], bool] | None = None
    #: Scratch heap carved from the kernel allocator.
    heap_start: int = 0
    heap_bytes: int = 0
    dispatches: int = 0

    def owns_addr(self, addr: int, length: int = 1) -> bool:
        return (
            self.heap_start <= addr
            and addr + length <= self.heap_start + self.heap_bytes
        )


class NautilusKernel(GuestKernel):
    """One aerokernel instance managing an enclave."""

    BANNER = (
        "Nautilus aerokernel booting: enclave {enclave_id}, "
        "{ncores} cores, timer masked"
    )
    # The aerokernel masks the timer entirely: scheduling is
    # cooperative, so there is *zero* periodic noise.
    TIMER_PERIOD = None
    TOUCH_FILL = b"\xaa"
    UNMAPPED_ERROR = MemoryError
    UNMAPPED_MESSAGE = "nautilus: {addr:#x} not in memory map"
    #: One flat kernel-wide mapping: accesses are checked against the
    #: memory map.
    PAGE_TABLES = False

    def __init__(
        self, machine: Machine, enclave: "Enclave", params: PiscesBootParams
    ) -> None:
        super().__init__(machine, enclave, params)
        self._next_fid = 1
        self.fibers: dict[int, Fiber] = {}
        self._run_queues: dict[int, deque[Fiber]] = {params.core_ids[0]: deque()}
        first = params.regions[0]
        self._alloc_cursor = first.start + KERNEL_RESERVED_BYTES
        self._alloc_region_idx = 0

    def join_secondary_core(self, core_id: int) -> None:
        super().join_secondary_core(core_id)
        self._run_queues[core_id] = deque()

    def shutdown(self) -> None:
        super().shutdown()
        for fiber in self.fibers.values():
            if fiber.state is not FiberState.DONE:
                fiber.state = FiberState.DONE

    # -- memory ------------------------------------------------------------

    def kmalloc_bytes(self, size: int) -> int:
        """Bump allocation out of the global kernel heap."""
        size = page_align_up(size)
        regions = self.params.regions
        while self._alloc_region_idx < len(regions):
            region = regions[self._alloc_region_idx]
            cursor = max(self._alloc_cursor, region.start)
            if cursor + size <= region.end:
                self._alloc_cursor = cursor + size
                return cursor
            self._alloc_region_idx += 1
            if self._alloc_region_idx < len(regions):
                self._alloc_cursor = regions[self._alloc_region_idx].start
        raise MemoryError(f"nautilus: cannot allocate {size:#x} bytes")

    # -- fibers ------------------------------------------------------------

    def spawn_fiber(
        self,
        name: str,
        body: Callable[[Fiber], bool] | None = None,
        core_id: int | None = None,
        heap_bytes: int = PAGE_SIZE,
    ) -> Fiber:
        if core_id is None:
            core_id = min(
                self._run_queues, key=lambda c: len(self._run_queues[c])
            )
        if core_id not in self._run_queues:
            raise ValueError(f"core {core_id} not online in this enclave")
        fiber = Fiber(
            fid=self._next_fid,
            name=name,
            core_id=core_id,
            body=body,
            heap_bytes=heap_bytes,
        )
        if heap_bytes:
            fiber.heap_start = self.kmalloc_bytes(heap_bytes)
        self._next_fid += 1
        self.fibers[fiber.fid] = fiber
        self._run_queues[core_id].append(fiber)
        return fiber

    def run_core(self, core_id: int, max_dispatches: int = 100) -> int:
        """Cooperative dispatch loop for one core; returns dispatches."""
        queue = self._run_queues[core_id]
        dispatched = 0
        while queue and dispatched < max_dispatches:
            fiber = queue.popleft()
            if fiber.state is FiberState.DONE:
                continue
            fiber.state = FiberState.RUNNING
            fiber.dispatches += 1
            dispatched += 1
            keep_going = fiber.body(fiber) if fiber.body is not None else False
            if keep_going:
                fiber.state = FiberState.YIELDED
                queue.append(fiber)  # explicit yield: back of the queue
            else:
                fiber.state = FiberState.DONE
        return dispatched

    def pending_fibers(self, core_id: int) -> int:
        return len(self._run_queues[core_id])
