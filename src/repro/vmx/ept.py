"""Extended (nested) page tables.

The EPT is Covirt's primary enforcement mechanism: the controller builds
an *identity map* of exactly the physical regions assigned to an enclave,
and any guest access outside those regions takes an EPT violation exit.

Mappings exist at 4 KiB, 2 MiB and 1 GiB granularity.  ``map_region``
greedily coalesces into the largest page size that alignment permits —
the optimization the paper calls out — and ``unmap_region`` splinters
large pages when an unmap cuts through one, exactly as a real EPT
manager must.

The table stores one extent per ``map_region`` call
(:class:`repro.hw.extents.PageExtents`) with its host−guest offset,
usable page sizes and permissions.  Entries are derived arithmetically
from each extent's greedy decomposition and :class:`EptMapping` values
are built on lookup.  Extents of separate calls are never merged: one
could take a 1 GiB page across the seam and move the entry counts the
miss-penalty model reads.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator

from repro.hw.extents import PageExtents
from repro.hw.memory import (
    PAGE_SIZE,
    PAGE_SIZE_1G,
    PAGE_SIZES_DESC,
    is_page_aligned,
)


class EptError(Exception):
    """Structural misuse of the EPT (overlapping map, bad alignment)."""


@dataclass(frozen=True)
class EptPermissions:
    """EPT entry permission bits."""

    read: bool = True
    write: bool = True
    execute: bool = True

    def allows(self, *, write: bool = False, execute: bool = False) -> bool:
        if not self.read and not write and not execute:
            return False
        if write and not self.write:
            return False
        if execute and not self.execute:
            return False
        return self.read or write or execute

    @classmethod
    def full(cls) -> "EptPermissions":
        """Covirt maps everything with full access: violations mean the
        address is *outside* the enclave, not a page-permission subtlety."""
        return cls(True, True, True)


@dataclass(frozen=True)
class EptMapping:
    """One EPT entry: a guest-physical page mapped to a host-physical page."""

    guest_page: int
    host_page: int
    page_size: int
    perms: EptPermissions

    def __post_init__(self) -> None:
        if self.page_size not in PAGE_SIZES_DESC:
            raise EptError(f"unsupported page size {self.page_size:#x}")
        if self.guest_page % self.page_size or self.host_page % self.page_size:
            raise EptError(
                f"mapping {self.guest_page:#x}->{self.host_page:#x} not "
                f"aligned to {self.page_size:#x}"
            )

    @property
    def guest_end(self) -> int:
        return self.guest_page + self.page_size

    @property
    def is_identity(self) -> bool:
        return self.guest_page == self.host_page

    def translate(self, gpa: int) -> int:
        if not self.guest_page <= gpa < self.guest_end:
            raise EptError(f"gpa {gpa:#x} outside mapping")
        return self.host_page + (gpa - self.guest_page)


@dataclass(frozen=True)
class EptViolationInfo:
    """Exit qualification for an EPT violation."""

    gpa: int
    is_write: bool
    is_exec: bool

    def describe(self) -> str:
        kind = "exec" if self.is_exec else ("write" if self.is_write else "read")
        return f"EPT violation: {kind} of unmapped gpa {self.gpa:#x}"


class ExtendedPageTable:
    """A software EPT for one enclave.

    The table is shared by every core of the enclave (as on hardware,
    where all VMCSs point at the same EPT root); per-core staleness lives
    in each core's TLB, not here.
    """

    def __init__(self) -> None:
        self._pages = PageExtents(PAGE_SIZES_DESC)
        #: Monotonic generation number, bumped on every structural change;
        #: lets cores detect they are running on stale translations.
        self.generation: int = 0

    def __len__(self) -> int:
        return sum(self._pages.counts.values())

    # -- mapping -------------------------------------------------------

    def map_region(
        self,
        guest_start: int,
        size: int,
        host_start: int | None = None,
        perms: EptPermissions | None = None,
        coalesce: bool = True,
    ) -> int:
        """Map ``[guest_start, +size)`` — identity map unless ``host_start``.

        Greedily uses 1 GiB and 2 MiB pages where alignment of both sides
        allows (disable with ``coalesce=False`` for the ablation study).
        Returns the entries created.  Raises :class:`EptError` if any
        byte of the range is already mapped: Covirt's controller is the
        single writer and never double-maps.
        """
        if size <= 0 or not is_page_aligned(size) or not is_page_aligned(guest_start):
            raise EptError(f"bad map range [{guest_start:#x},+{size:#x})")
        if host_start is None:
            host_start = guest_start
        if not is_page_aligned(host_start):
            raise EptError(f"host start {host_start:#x} not aligned")
        if self.overlaps(guest_start, size):
            raise EptError(
                f"map [{guest_start:#x},+{size:#x}) overlaps existing mapping"
            )
        perms = perms or EptPermissions.full()
        offset = host_start - guest_start
        sizes = self._pages.allowed(offset, PAGE_SIZE_1G if coalesce else PAGE_SIZE)
        self.generation += 1
        return self._pages.add(guest_start, guest_start + size, offset, sizes, perms)

    def unmap_region(self, guest_start: int, size: int) -> int:
        """Unmap ``[guest_start, +size)``; returns bytes unmapped.

        Large pages that straddle the boundary are splintered into the
        smallest granularity needed so the remainder stays mapped.
        Unmapping a range that is not fully mapped raises — the
        controller tracks what it mapped and never blind-unmaps.
        """
        if size <= 0 or not is_page_aligned(size) or not is_page_aligned(guest_start):
            raise EptError(f"bad unmap range [{guest_start:#x},+{size:#x})")
        end = guest_start + size
        covered = sum(
            min(e, end) - max(s, guest_start)
            for s, e, _ in self._pages.extents.overlapping(guest_start, end)
        )
        if covered != size:
            raise EptError(
                f"unmap [{guest_start:#x},+{size:#x}) covers only "
                f"{covered:#x} mapped bytes"
            )
        self._pages.remove(guest_start, end)
        self.generation += 1
        return size

    # -- lookup --------------------------------------------------------

    def find_mapping(self, gpa: int) -> EptMapping | None:
        """The entry covering ``gpa``, if any (O(log extents))."""
        leaf = self._pages.leaf(gpa)
        if leaf is None:
            return None
        base, page_size, offset, perms = leaf
        return EptMapping(base, base + offset, page_size, perms)

    def translate(
        self, gpa: int, *, write: bool = False, execute: bool = False
    ) -> tuple[int, EptMapping] | EptViolationInfo:
        """Walk the table: host address on success, violation info on miss."""
        mapping = self.find_mapping(gpa)
        if mapping is None or not mapping.perms.allows(write=write, execute=execute):
            return EptViolationInfo(gpa=gpa, is_write=write, is_exec=execute)
        return mapping.translate(gpa), mapping

    def is_mapped(self, gpa: int) -> bool:
        return self._pages.extents.index(gpa) >= 0

    def overlaps(self, start: int, size: int) -> bool:
        return bool(self._pages.extents.span(start, start + size))

    # -- introspection -------------------------------------------------

    def mappings(self) -> Iterator[EptMapping]:
        """Every entry, in guest-address order (built lazily)."""
        for base, page_size, offset, perms in self._pages.leaves():
            yield EptMapping(base, base + offset, page_size, perms)

    @property
    def mapped_bytes(self) -> int:
        return sum(size * n for size, n in self._pages.counts.items())

    def count_by_size(self) -> dict[int, int]:
        """{page_size: count} — how well coalescing did."""
        return dict(self._pages.counts)

    @property
    def is_identity(self) -> bool:
        return all(offset == 0 for _, _, (offset, _, _) in self._pages.extents)

    def check_invariants(self) -> None:
        """No overlaps, all aligned, entry counts consistent: O(extents)."""
        self._pages.check_invariants()
