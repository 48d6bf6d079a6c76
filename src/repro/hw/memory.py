"""Physical memory with page-granular ownership.

The machine's DRAM is modelled two ways at once:

* **Ownership** is tracked exactly, via an interval map from physical
  address ranges to an owner label (the host OS, an enclave id, or the
  free pool).  Every protection decision Covirt makes about memory reduces
  to a question against this map, so it is fully functional.  The map is
  an extent map (:mod:`repro.hw.extents`, the structure the page tables
  and EPTs share) that always covers all of DRAM and coalesces equal
  neighbours, so an ownership change costs one bisection and a splice.
* **Contents** are backed lazily: a 4 KiB ``bytearray`` page is
  materialised only when something writes it (unbacked pages read as
  zero).  A 64 GiB machine therefore costs nothing until touched, and the
  model needs nothing beyond the standard library: numpy is imported on
  first use, by the workload reference kernels only.

Addresses and sizes are plain integers in bytes.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Hashable, Iterator

from repro.hw.extents import ExtentMap

PAGE_SHIFT = 12
PAGE_SIZE = 1 << PAGE_SHIFT  # 4 KiB
PAGE_SIZE_2M = 1 << 21
PAGE_SIZE_1G = 1 << 30
#: Leaf page sizes from largest to smallest, for greedy coalescing.
PAGE_SIZES_DESC = (PAGE_SIZE_1G, PAGE_SIZE_2M, PAGE_SIZE)

#: Owner label for unassigned memory.
FREE = "free"


def page_align_down(addr: int) -> int:
    """Round ``addr`` down to a 4 KiB boundary."""
    return addr & ~(PAGE_SIZE - 1)


def page_align_up(addr: int) -> int:
    """Round ``addr`` up to a 4 KiB boundary."""
    return (addr + PAGE_SIZE - 1) & ~(PAGE_SIZE - 1)


def is_page_aligned(addr: int) -> bool:
    return addr & (PAGE_SIZE - 1) == 0


class OwnershipError(Exception):
    """An operation violated the physical-memory ownership discipline."""


@dataclass(frozen=True)
class MemoryRegion:
    """A page-aligned, contiguous range of physical memory.

    Regions are the unit of resource assignment in the co-kernel stack:
    Pisces hands whole regions to enclaves, XEMEM shares sub-ranges of
    them, and Covirt maps them into EPTs.
    """

    start: int
    size: int
    zone: int = 0

    def __post_init__(self) -> None:
        if self.size <= 0:
            raise ValueError(f"region size must be positive, got {self.size}")
        if not is_page_aligned(self.start) or not is_page_aligned(self.size):
            raise ValueError(
                f"region [{self.start:#x}, +{self.size:#x}) is not page aligned"
            )

    @property
    def end(self) -> int:
        """One past the last byte of the region."""
        return self.start + self.size

    @property
    def num_pages(self) -> int:
        return self.size >> PAGE_SHIFT

    def contains(self, addr: int) -> bool:
        return self.start <= addr < self.end

    def contains_range(self, start: int, size: int) -> bool:
        return self.start <= start and start + size <= self.end

    def overlaps(self, other: "MemoryRegion") -> bool:
        return self.start < other.end and other.start < self.end

    def split(self, offset: int) -> tuple["MemoryRegion", "MemoryRegion"]:
        """Split into two regions at ``offset`` bytes from the start."""
        if not 0 < offset < self.size or not is_page_aligned(offset):
            raise ValueError(f"bad split offset {offset:#x}")
        return (
            MemoryRegion(self.start, offset, self.zone),
            MemoryRegion(self.start + offset, self.size - offset, self.zone),
        )

    def __repr__(self) -> str:
        return f"MemoryRegion({self.start:#x}..{self.end:#x}, zone={self.zone})"


class IntervalMap(ExtentMap):
    """An extent map that covers ``[start, end)`` completely and coalesces
    adjacent extents with equal values: physical-memory ownership."""

    def __init__(self, start: int, end: int, initial: Hashable) -> None:
        if end <= start:
            raise ValueError("empty interval map")
        super().__init__()
        self.insert(start, end, initial)
        self.start = start
        self.end = end

    def get(self, point: int) -> Hashable:
        """Value at ``point``."""
        if not self.start <= point < self.end:
            raise KeyError(f"point {point:#x} outside map range")
        return self._values[self.index(point)]

    def set(self, start: int, end: int, value: Hashable) -> None:
        """Assign ``value`` over [start, end), splitting as needed."""
        if end <= start:
            raise ValueError("empty assignment")
        if start < self.start or end > self.end:
            raise KeyError(
                f"assignment [{start:#x},{end:#x}) outside map "
                f"[{self.start:#x},{self.end:#x})"
            )
        inside = self.cut(start, end)
        lo, hi = inside.start, inside.stop
        # Absorb equal-valued neighbours so the map stays coalesced.
        if lo and self._values[lo - 1] == value:
            lo -= 1
            start = self._starts[lo]
        if hi < len(self) and self._values[hi] == value:
            end = self._ends[hi]
            hi += 1
        self._starts[lo:hi] = [start]
        self._ends[lo:hi] = [end]
        self._values[lo:hi] = [value]

    def intervals(self) -> Iterator[tuple[int, int, Hashable]]:
        """Yield (start, end, value) for every interval, in order."""
        return iter(self)

    def intervals_in(self, start: int, end: int) -> Iterator[tuple[int, int, Hashable]]:
        """Yield intervals clipped to [start, end)."""
        for s, e, v in self.overlapping(start, end):
            yield max(s, start), min(e, end), v

    def uniform_value(self, start: int, end: int) -> Hashable | None:
        """If [start, end) maps to a single value, return it, else None."""
        values = [v for _, _, v in self.overlapping(start, end)]
        # Coalesced neighbours differ; outside the map this raises IndexError.
        return values[0] if len(values) <= 1 else None

    def find(self, value: Hashable) -> list[tuple[int, int]]:
        """All intervals currently holding ``value``."""
        return [(s, e) for s, e, v in self if v == value]

    def check_invariants(self) -> None:
        """Raise AssertionError if structural invariants are broken."""
        super().check_invariants()
        assert self._starts[0] == self.start and self._ends[-1] == self.end
        for i in range(1, len(self)):
            assert self._ends[i - 1] == self._starts[i], "gap"
            assert self._values[i - 1] != self._values[i], "uncoalesced"


class PhysicalMemory:
    """The machine's DRAM: exact ownership plus lazily backed contents."""

    def __init__(self, size: int) -> None:
        if size <= 0 or not is_page_aligned(size):
            raise ValueError("memory size must be a positive page multiple")
        self.size = size
        self._owners = IntervalMap(0, size, FREE)
        self._pages: dict[int, bytearray] = {}
        #: Pages currently materialised (for tests / introspection).
        self.resident_pages = 0

    # -- ownership ---------------------------------------------------------

    def owner_of(self, addr: int) -> Hashable:
        """Owner label of the page containing ``addr``."""
        return self._owners.get(addr)

    def region_owner(self, region: MemoryRegion) -> Hashable | None:
        """Single owner of the whole region, or None if mixed."""
        return self._owners.uniform_value(region.start, region.end)

    def set_owner(self, region: MemoryRegion, owner: Hashable) -> None:
        """Assign every page of ``region`` to ``owner`` unconditionally."""
        self._owners.set(region.start, region.end, owner)

    def transfer(
        self, region: MemoryRegion, expected: Hashable, new_owner: Hashable
    ) -> None:
        """Move ``region`` from ``expected`` to ``new_owner``.

        Raises :class:`OwnershipError` if any page of the region is not
        currently owned by ``expected`` — this is the check that makes
        double-grants and double-frees structurally impossible.
        """
        current = self._owners.uniform_value(region.start, region.end)
        if current != expected:
            raise OwnershipError(
                f"region {region} owned by {current!r}, expected {expected!r}"
            )
        self._owners.set(region.start, region.end, new_owner)

    def owned_by(self, owner: Hashable) -> list[MemoryRegion]:
        """All regions currently owned by ``owner``."""
        return [
            MemoryRegion(s, e - s) for s, e in self._owners.find(owner)
        ]

    def total_owned(self, owner: Hashable) -> int:
        """Bytes owned by ``owner``."""
        return sum(e - s for s, e in self._owners.find(owner))

    def allocate(
        self,
        size: int,
        owner: Hashable,
        *,
        within: tuple[int, int] | None = None,
        alignment: int = PAGE_SIZE,
    ) -> MemoryRegion:
        """Carve a free region of ``size`` bytes and assign it to ``owner``.

        ``within`` restricts the search to an address window (used for
        NUMA-zone-local allocation); ``alignment`` must be a power of two
        page multiple.
        """
        size = page_align_up(size)
        if alignment < PAGE_SIZE or alignment & (alignment - 1):
            raise ValueError("alignment must be a power-of-two page multiple")
        lo, hi = within if within is not None else (0, self.size)
        for s, e in self._owners.find(FREE):
            s = max(s, lo)
            e = min(e, hi)
            aligned = (s + alignment - 1) & ~(alignment - 1)
            if aligned + size <= e:
                region = MemoryRegion(aligned, size)
                self._owners.set(aligned, aligned + size, owner)
                return region
        raise OwnershipError(
            f"no free region of {size:#x} bytes in window [{lo:#x},{hi:#x})"
        )

    def release(self, region: MemoryRegion, expected: Hashable) -> None:
        """Return a region to the free pool, verifying current ownership."""
        self.transfer(region, expected, FREE)
        self._drop_backing(region)

    # -- contents ----------------------------------------------------------

    def _page(self, frame: int) -> bytearray:
        """The backing page of ``frame``, materialised (zeroed) if needed."""
        page = self._pages.get(frame)
        if page is None:
            page = self._pages[frame] = bytearray(PAGE_SIZE)
            self.resident_pages += 1
        return page

    def _drop_backing(self, region: MemoryRegion) -> None:
        lo, hi = region.start >> PAGE_SHIFT, region.end >> PAGE_SHIFT
        for frame in [f for f in self._pages if lo <= f < hi]:
            del self._pages[frame]
            self.resident_pages -= 1

    def read(self, addr: int, length: int) -> bytes:
        """Read raw bytes; unbacked pages read as zero."""
        if addr < 0 or addr + length > self.size:
            raise ValueError(f"read [{addr:#x},+{length}) out of range")
        out = bytearray(length)
        pos = 0
        while pos < length:
            frame = (addr + pos) >> PAGE_SHIFT
            off = (addr + pos) & (PAGE_SIZE - 1)
            chunk = min(length - pos, PAGE_SIZE - off)
            page = self._pages.get(frame)
            if page is not None:
                out[pos : pos + chunk] = page[off : off + chunk]
            pos += chunk
        return bytes(out)

    def write(self, addr: int, data: bytes) -> None:
        """Write the bytes of ``data`` (any buffer), materialising pages as
        needed."""
        # Work in bytes: len() and slices of a buffer of multi-byte items
        # count items, and a slice assignment of the wrong length would
        # resize the page.
        data = memoryview(data).cast("B")
        length = len(data)
        if addr < 0 or addr + length > self.size:
            raise ValueError(f"write [{addr:#x},+{length}) out of range")
        pos = 0
        while pos < length:
            frame = (addr + pos) >> PAGE_SHIFT
            off = (addr + pos) & (PAGE_SIZE - 1)
            chunk = min(length - pos, PAGE_SIZE - off)
            self._page(frame)[off : off + chunk] = data[pos : pos + chunk]
            pos += chunk

    def read_u64(self, addr: int) -> int:
        return int.from_bytes(self.read(addr, 8), "little")

    def write_u64(self, addr: int, value: int) -> None:
        self.write(addr, int(value).to_bytes(8, "little"))

    def check_invariants(self) -> None:
        self._owners.check_invariants()
