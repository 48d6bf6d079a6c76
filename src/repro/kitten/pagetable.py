"""x86-64 four-level guest page tables.

Kitten maps its world identity-style, but it still builds four-level
page tables: PML4 → PDPT → PD → PT, with 1 GiB and 2 MiB huge-page entries
where alignment allows (LWKs lean hard on huge pages).  The walker
reports how many levels it touched, which is what makes guest-side
translation costs and the "identity mappings make nested paging cheap"
story concrete.

This is the *guest's own* translation structure — the layer above the
EPT.  A correct Kitten's page tables cover exactly its memory map; the
fault-injection knobs desynchronise the two layers the way real bugs do.

The tables store one extent per :meth:`GuestPageTable.map` call
(:class:`repro.hw.extents.PageExtents`) with its phys−virt offset,
usable leaf sizes and writability.  Leaf counts, a walk's page size and
depth, and coverage are derived arithmetically from each extent's greedy
decomposition, equal to what building every leaf and splitting huge
leaves on unmap would hold.  Extents of separate calls are never merged:
one could take a huge page across the seam.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.hw.extents import PageExtents, leaf_at
from repro.hw.memory import (
    PAGE_SIZE,
    PAGE_SIZE_1G,
    PAGE_SIZE_2M,
    PAGE_SIZES_DESC,
    is_page_aligned,
)

#: Levels a walk touches to reach a leaf of each size (PML4 → PDPT → PD → PT).
_LEVELS = {PAGE_SIZE_1G: 2, PAGE_SIZE_2M: 3, PAGE_SIZE: 4}


class PageTableError(Exception):
    pass


@dataclass(frozen=True)
class WalkResult:
    """Outcome of a successful page walk."""

    paddr: int
    page_size: int
    writable: bool
    levels_touched: int


class GuestPageTable:
    """A guest's four-level translation structure."""

    def __init__(self) -> None:
        self._pages = PageExtents(PAGE_SIZES_DESC)
        #: Leaf entries installed per page size, for introspection.
        self.leaf_count: dict[int, int] = self._pages.counts

    # -- mapping -------------------------------------------------------

    def map(
        self,
        virt: int,
        phys: int,
        size: int,
        *,
        writable: bool = True,
        max_page: int = PAGE_SIZE_1G,
    ) -> int:
        """Map [virt, +size) → [phys, +size); returns leaf entries made.

        Greedily uses 1 GiB / 2 MiB leaves where both addresses align
        (capped by ``max_page``).  Overlapping an existing mapping is an
        error — Kitten never double-maps.
        """
        if not (is_page_aligned(virt) and is_page_aligned(phys) and is_page_aligned(size)) or size <= 0:
            raise PageTableError(f"bad map [{virt:#x},+{size:#x})")
        end = virt + size
        sizes = self._pages.allowed(phys - virt, max_page)
        clash = self._pages.extents.span(virt, end)
        if clash:
            # Name the first new leaf that lands on an existing mapping.
            first = max(virt, self._pages.extents[clash.start][0])
            base, page_size = leaf_at(first, virt, end, sizes)
            if self.walk(first).page_size > page_size:
                raise PageTableError(
                    f"{base:#x}: huge mapping already covers this range"
                )
            raise PageTableError(f"{base:#x} already mapped")
        return self._pages.add(virt, end, phys - virt, sizes, writable)

    def unmap(self, virt: int, size: int) -> int:
        """Unmap [virt, +size); huge leaves are split when partially
        covered.  Returns leaf entries removed (post-split)."""
        if not is_page_aligned(virt) or not is_page_aligned(size) or size <= 0:
            raise PageTableError(f"bad unmap [{virt:#x},+{size:#x})")
        gap = self._pages.extents.first_gap(virt, virt + size)
        if gap is not None:
            raise PageTableError(f"{gap:#x} not mapped")
        return self._pages.remove(virt, virt + size)

    # -- walking ---------------------------------------------------------

    def walk(self, vaddr: int) -> WalkResult | None:
        """Translate ``vaddr``; None on a guest page fault."""
        leaf = self._pages.leaf(vaddr)
        if leaf is None:
            return None
        _, page_size, offset, writable = leaf
        return WalkResult(vaddr + offset, page_size, writable, _LEVELS[page_size])

    def translate(self, vaddr: int, *, write: bool = False) -> WalkResult | None:
        result = self.walk(vaddr)
        if result is None or (write and not result.writable):
            return None
        return result

    def covers(self, addr: int, length: int) -> bool:
        """Is [addr, +length) fully mapped?"""
        return self._pages.extents.first_gap(addr, addr + max(length, 1)) is None

    # -- introspection -------------------------------------------------

    def mapped_bytes(self) -> int:
        return sum(size * count for size, count in self.leaf_count.items())
