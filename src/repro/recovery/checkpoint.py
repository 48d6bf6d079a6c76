"""Periodic, incremental enclave checkpoints.

A checkpoint is everything the recovery supervisor needs to rebuild an
enclave's *service* after Covirt terminates it: the resource assignment
(cores and NUMA memory per zone), the Kitten task table, the XEMEM
export records (with their attachers), the vector grants the enclave
participated in, and the unacknowledged controller command queue.

Checkpointing is **incremental** in the copy-on-write style: each
section carries a fingerprint, and a new checkpoint only re-copies (and
only pays cycles for) sections whose fingerprint changed since the last
one.  All costs are charged to the simulated clock through the cycle
cost model, so checkpoint overhead shows up in MTTR and counter reports
exactly like every other control-path cost in the reproduction.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

from repro.core.commands import CommandType
from repro.hw.machine import Machine
from repro.perf.costs import CostModel
from repro.pisces.resources import ResourceSpec
from repro.xemem.segment import HOST_ENCLAVE_ID

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.controller import EnclaveVirtContext
    from repro.hobbes.master import MasterControlProcess
    from repro.pisces.enclave import Enclave

#: Sentinel used in grant records for "the supervised enclave itself",
#: so the record survives the id change a relaunch brings.
SERVICE = -1


@dataclass(frozen=True)
class TaskRecord:
    """One live task in the Kitten task table."""

    tid: int
    name: str
    mem_bytes: int
    #: Index into the enclave's core list (absolute core ids change on
    #: relaunch/failover; indexes are stable).
    core_index: int | None


@dataclass(frozen=True)
class SegmentRecord:
    """One XEMEM segment the enclave had exported."""

    name: str
    size: int
    #: Name of the task whose memory backed the export ("" = kernel).
    owner_task: str
    #: Enclave ids attached at checkpoint time (HOST_ENCLAVE_ID included).
    attachers: tuple[int, ...]


@dataclass(frozen=True)
class GrantRecord:
    """One vector grant involving the enclave (channel doorbells are
    excluded — the relaunch path re-wires those itself)."""

    dest_core_index: int | None  #: index if the service owned the dest core
    dest_core: int  #: absolute core id (used when index is None)
    dest_enclave: int  #: SERVICE or a foreign enclave id
    senders: tuple[int, ...]  #: SERVICE markers mixed with foreign ids
    purpose: str


@dataclass(frozen=True)
class ResourceRecord:
    """Zone-shaped view of the enclave's assignment at checkpoint time
    (captures hot-added memory the original spec never knew about).

    ``mem_per_zone`` lists the boot region's zone first and the other
    zones in the order their regions were added, so a relaunch from it
    puts the boot region first again and the hot-added memory of other
    zones after it."""

    cores_per_zone: tuple[tuple[int, int], ...]
    mem_per_zone: tuple[tuple[int, int], ...]
    core_ids: tuple[int, ...]
    kernel_type: str
    name: str

    def to_spec(self) -> ResourceSpec:
        return ResourceSpec(
            cores_per_zone=dict(self.cores_per_zone),
            mem_per_zone=dict(self.mem_per_zone),
            name=self.name,
            kernel_type=self.kernel_type,
        )


@dataclass
class EnclaveCheckpoint:
    """One complete restorable snapshot."""

    enclave_id: int
    tsc: int
    generation: int
    resources: ResourceRecord
    tasks: tuple[TaskRecord, ...]
    segments: tuple[SegmentRecord, ...]
    grants: tuple[GrantRecord, ...]
    #: core index → pending command types, oldest first.
    pending_commands: tuple[tuple[int, tuple[CommandType, ...]], ...] = ()
    console_tail: tuple[str, ...] = ()
    #: Sections actually copied (vs. reused) when this was taken.
    dirty_sections: tuple[str, ...] = ()
    cost_cycles: int = 0

    @property
    def approx_bytes(self) -> int:
        """Deterministic estimate of the serialized snapshot size, fed
        to the ``recovery.checkpoint_bytes`` histogram.  Nominal record
        sizes, not Python object sizes, so the number is stable across
        interpreter versions."""
        return (
            256  # header + resource record
            + 16 * len(self.resources.core_ids)
            + 64 * len(self.tasks)
            + 96 * len(self.segments)
            + 64 * len(self.grants)
            + sum(16 * (1 + len(cmds)) for _, cmds in self.pending_commands)
            + sum(len(line) for line in self.console_tail)
        )


class CheckpointManager:
    """Takes and stores per-enclave incremental checkpoints."""

    def __init__(
        self,
        machine: Machine,
        mcp: "MasterControlProcess",
        costs: CostModel,
        interval_cycles: int = 50_000_000,
    ) -> None:
        self.machine = machine
        self.mcp = mcp
        self.costs = costs
        self.interval_cycles = interval_cycles
        self.latest: dict[int, EnclaveCheckpoint] = {}
        self._generation: dict[int, int] = {}

    # -- section capture -------------------------------------------------

    def _resources(self, enclave: "Enclave") -> ResourceRecord:
        cores_per_zone: dict[int, int] = {}
        for core_id in enclave.assignment.core_ids:
            zone = self.machine.core(core_id).zone
            cores_per_zone[zone] = cores_per_zone.get(zone, 0) + 1
        mem_per_zone: dict[int, int] = {}
        for region in enclave.assignment.regions:
            mem_per_zone[region.zone] = mem_per_zone.get(region.zone, 0) + region.size
        return ResourceRecord(
            cores_per_zone=tuple(sorted(cores_per_zone.items())),
            mem_per_zone=tuple(mem_per_zone.items()),
            core_ids=tuple(enclave.assignment.core_ids),
            kernel_type=enclave.spec.kernel_type,
            name=enclave.name,
        )

    def _tasks(self, enclave: "Enclave") -> tuple[TaskRecord, ...]:
        kernel = enclave.kernel
        if kernel is None or not hasattr(kernel, "tasks"):
            return ()
        from repro.kitten.task import TaskState

        records = []
        core_ids = list(enclave.assignment.core_ids)
        for task in kernel.tasks.values():
            if task.state in (TaskState.EXITED, TaskState.KILLED):
                continue
            core_index = (
                core_ids.index(task.bound_core)
                if task.bound_core in core_ids
                else None
            )
            records.append(
                TaskRecord(task.tid, task.name, task.memory_bytes, core_index)
            )
        return tuple(records)

    def _segments(self, enclave: "Enclave") -> tuple[SegmentRecord, ...]:
        kernel = enclave.kernel
        records = []
        for segment in self.mcp.xemem.names.segments_owned_by(enclave.enclave_id):
            owner_task = ""
            if kernel is not None and hasattr(kernel, "tasks"):
                for task in kernel.tasks.values():
                    if task.owns_addr(segment.start, segment.size):
                        owner_task = task.name
                        break
            records.append(
                SegmentRecord(
                    name=segment.name,
                    size=segment.size,
                    owner_task=owner_task,
                    attachers=tuple(sorted(segment.attachments)),
                )
            )
        return tuple(records)

    def _grants(self, enclave: "Enclave") -> tuple[GrantRecord, ...]:
        eid = enclave.enclave_id
        core_ids = list(enclave.assignment.core_ids)
        records = []
        for grant in self.mcp.vectors.grants_involving(eid):
            if grant.purpose.startswith("channel doorbell"):
                continue  # _wire_runtime recreates these on relaunch
            dest_index = (
                core_ids.index(grant.dest_core)
                if grant.dest_core in core_ids
                else None
            )
            senders = tuple(
                sorted(SERVICE if s == eid else s for s in grant.allowed_senders)
            )
            records.append(
                GrantRecord(
                    dest_core_index=dest_index,
                    dest_core=grant.dest_core,
                    dest_enclave=SERVICE if grant.dest_enclave_id == eid else grant.dest_enclave_id,
                    senders=senders,
                    purpose=grant.purpose,
                )
            )
        return tuple(sorted(records, key=lambda r: r.purpose))

    def _pending(
        self, ctx: "EnclaveVirtContext | None", enclave: "Enclave"
    ) -> tuple[tuple[int, tuple[CommandType, ...]], ...]:
        if ctx is None:
            return ()
        core_ids = list(enclave.assignment.core_ids)
        snap = []
        for core_id, queue in ctx.queues.items():
            pending = tuple(cmd.type for cmd in queue.snapshot_pending())
            if pending:
                snap.append((core_ids.index(core_id), pending))
        return tuple(snap)

    # -- checkpoint ------------------------------------------------------

    def checkpoint(self, enclave: "Enclave") -> EnclaveCheckpoint:
        """Take an incremental checkpoint of a running enclave."""
        eid = enclave.enclave_id
        ctx = getattr(enclave, "virt_context", None)
        previous = self.latest.get(eid)
        sections = {
            "resources": (self._resources(enclave), self.costs.checkpoint_per_region),
            "tasks": (self._tasks(enclave), self.costs.checkpoint_per_task),
            "segments": (self._segments(enclave), self.costs.checkpoint_per_segment),
            "grants": (self._grants(enclave), self.costs.checkpoint_per_grant),
            "commands": (self._pending(ctx, enclave), self.costs.checkpoint_per_command),
        }
        cost = self.costs.checkpoint_base
        dirty: list[str] = []
        for name, (captured, per_record) in sections.items():
            prior = getattr(previous, self._attr(name), None) if previous else None
            if previous is None or prior != captured:
                dirty.append(name)
                records = len(captured) if isinstance(captured, tuple) else 1
                cost += self.costs.checkpoint_section_cost(per_record, records)
        kernel = enclave.kernel
        console_tail = (
            tuple(kernel.console[-8:])
            if kernel is not None and hasattr(kernel, "console")
            else ()
        )
        generation = self._generation.get(eid, 0) + 1
        self._generation[eid] = generation
        # The honest part: checkpointing takes time on the host control
        # path, and that time is visible to every core on the machine.
        self.machine.clock.advance(cost)
        cp = EnclaveCheckpoint(
            enclave_id=eid,
            tsc=self.machine.clock.now,
            generation=generation,
            resources=sections["resources"][0],
            tasks=sections["tasks"][0],
            segments=sections["segments"][0],
            grants=sections["grants"][0],
            pending_commands=sections["commands"][0],
            console_tail=console_tail,
            dirty_sections=tuple(dirty),
            cost_cycles=cost,
        )
        self.latest[eid] = cp
        return cp

    @staticmethod
    def _attr(section: str) -> str:
        return {"commands": "pending_commands"}.get(section, section)

    def due(self, enclave_id: int) -> bool:
        """Has the periodic interval elapsed since the last checkpoint?"""
        previous = self.latest.get(enclave_id)
        if previous is None:
            return True
        return self.machine.clock.now - previous.tsc >= self.interval_cycles

    def rebase(self, old_enclave_id: int, new_enclave: "Enclave") -> EnclaveCheckpoint:
        """After a recovery, move the service's checkpoint chain onto
        the successor enclave and take its baseline."""
        self.latest.pop(old_enclave_id, None)
        self._generation.pop(old_enclave_id, None)
        return self.checkpoint(new_enclave)

    def drop(self, enclave_id: int) -> None:
        self.latest.pop(enclave_id, None)
        self._generation.pop(enclave_id, None)


def attachers_still_running(
    record: SegmentRecord, mcp: "MasterControlProcess"
) -> list[int]:
    """Which of a segment's checkpointed attachers can be re-attached."""
    alive = []
    for attacher_id in record.attachers:
        if attacher_id == HOST_ENCLAVE_ID:
            alive.append(attacher_id)
            continue
        enclave = mcp.kmod.enclaves.get(attacher_id)
        if enclave is not None and enclave.is_running:
            alive.append(attacher_id)
    return alive
