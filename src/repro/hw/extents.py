"""Sorted extent maps: the one interval structure of the simulator.

:class:`ExtentMap` keeps sorted, disjoint half-open ``[start, end)``
extents, each with a value, in parallel lists searched by bisection.
Physical-memory ownership (:class:`repro.hw.memory.IntervalMap`) is an
extent map that covers all of DRAM and coalesces equal neighbours.

:class:`PageExtents` backs Kitten's guest page tables and Covirt's EPTs
with one extent per map call, valued ``(offset, sizes, attr)``: the
phys−virt offset, the page sizes the call may use and a permission
payload.  No 4K/2M/1G leaf is ever built.  Leaves follow from the
extent's greedy page decomposition, which is unique — each leaf is the
largest allowed aligned block inside its extent — so cutting an extent
on unmap keeps exactly the leaves a split-on-unmap table keeps.
Extents of different map calls are never merged: a merged extent's
decomposition can differ at the seam (one 1 GiB page across two calls),
and with it every leaf count and EPT miss penalty.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from typing import Any, Iterator

#: Page sizes, largest first; the last is the base page.
Sizes = tuple[int, ...]


class ExtentMap:
    """Sorted, disjoint ``[start, end)`` extents, each with a value."""

    def __init__(self) -> None:
        self._starts: list[int] = []
        self._ends: list[int] = []
        self._values: list[Any] = []

    def __len__(self) -> int:
        return len(self._starts)

    def __iter__(self) -> Iterator[tuple[int, int, Any]]:
        return zip(self._starts, self._ends, self._values)

    def __getitem__(self, i: int) -> tuple[int, int, Any]:
        return self._starts[i], self._ends[i], self._values[i]

    def index(self, point: int) -> int:
        """Index of the extent holding ``point``, or -1."""
        i = bisect_right(self._starts, point) - 1
        return i if i >= 0 and point < self._ends[i] else -1

    def span(self, start: int, end: int) -> range:
        """Indices of the extents overlapping ``[start, end)``."""
        return range(bisect_right(self._ends, start), bisect_left(self._starts, end))

    def overlapping(self, start: int, end: int) -> list[tuple[int, int, Any]]:
        """The extents overlapping ``[start, end)``, unclipped."""
        return [self[i] for i in self.span(start, end)]

    def first_gap(self, start: int, end: int) -> int | None:
        """Lowest point of ``[start, end)`` in no extent, or None."""
        for s, e, _ in self.overlapping(start, end):
            if s > start:
                break
            start = e
        return start if start < end else None

    def insert(self, start: int, end: int, value: Any) -> int:
        """Add ``[start, end)`` (overlapping nothing); returns its index."""
        i = bisect_left(self._starts, start)
        self._starts.insert(i, start)
        self._ends.insert(i, end)
        self._values.insert(i, value)
        return i

    def cut(self, start: int, end: int) -> range:
        """Split the extents straddling ``start`` or ``end`` there (both
        halves keep the value); returns the indices of the extents now
        inside ``[start, end)``."""
        for point in (start, end):
            i = self.index(point)
            if i >= 0 and self._starts[i] < point:
                self._starts.insert(i + 1, point)
                self._ends.insert(i + 1, self._ends[i])
                self._values.insert(i + 1, self._values[i])
                self._ends[i] = point
        return self.span(start, end)

    def delete(self, indices: range) -> None:
        """Drop the extents at a contiguous index range."""
        del self._starts[indices.start : indices.stop]
        del self._ends[indices.start : indices.stop]
        del self._values[indices.start : indices.stop]

    def check_invariants(self) -> None:
        """Assert the extents are non-empty, sorted and disjoint."""
        for i, (start, end, _) in enumerate(self):
            assert start < end, f"empty extent at {start:#x}"
            assert not i or self._ends[i - 1] <= start, f"overlap at {start:#x}"


def page_counts(start: int, end: int, sizes: Sizes) -> list[tuple[int, int]]:
    """``(page_size, leaves)`` for each size in the greedy decomposition of
    base-page-aligned ``[start, end)``.  Pages of a size or larger fill
    exactly the range's interior aligned to that size, so each size adds
    the growth of its interior over the next larger size's."""
    counts, covered = [], 0
    for size in sizes:
        inner = max(0, end // size * size - -(-start // size) * size)
        counts.append((size, (inner - covered) // size))
        covered = inner
    return counts


def leaf_at(addr: int, start: int, end: int, sizes: Sizes) -> tuple[int, int]:
    """``(base, page_size)`` of the greedy-decomposition page of
    ``[start, end)`` that holds ``addr``."""
    for size in sizes:
        base = addr & -size
        if start <= base and base + size <= end:
            return base, size
    raise ValueError(f"{addr:#x} outside [{start:#x}, {end:#x})")


class PageExtents:
    """Translation extents with running per-page-size leaf counts."""

    def __init__(self, sizes: Sizes) -> None:
        #: Every page size, largest first.
        self.sizes = sizes
        self.extents = ExtentMap()
        #: Leaf entries per page size, smallest first.
        self.counts: dict[int, int] = dict.fromkeys(reversed(sizes), 0)

    def allowed(self, offset: int, max_page: int) -> Sizes:
        """Page sizes up to ``max_page`` that keep both sides aligned."""
        return tuple(s for s in self.sizes if s <= max_page and offset % s == 0)

    def _tally(self, start: int, end: int, sizes: Sizes, sign: int) -> int:
        """Add ``sign`` times the leaves of ``[start, end)`` to
        :attr:`counts`; returns how many leaves that range holds."""
        leaves = 0
        for size, n in page_counts(start, end, sizes):
            self.counts[size] += sign * n
            leaves += n
        return leaves

    def add(self, start: int, end: int, offset: int, sizes: Sizes, attr: Any) -> int:
        """Map ``[start, end)`` as one extent; returns the leaves it holds."""
        self.extents.insert(start, end, (offset, sizes, attr))
        return self._tally(start, end, sizes, 1)

    def remove(self, start: int, end: int) -> int:
        """Unmap ``[start, end)`` (fully mapped), cutting the extents at
        its edges; returns the leaves removed."""
        removed = 0
        for s, e, (_, sizes, _) in self.extents.overlapping(start, end):
            self._tally(s, e, sizes, -1)
            if s < start:
                self._tally(s, start, sizes, 1)
            if e > end:
                self._tally(end, e, sizes, 1)
            removed += self._tally(max(s, start), min(e, end), sizes, 0)
        self.extents.delete(self.extents.cut(start, end))
        return removed

    def leaf(self, addr: int) -> tuple[int, int, int, Any] | None:
        """``(base, page_size, offset, attr)`` of the leaf at ``addr``, or None."""
        i = self.extents.index(addr)
        if i < 0:
            return None
        start, end, (offset, sizes, attr) = self.extents[i]
        base, size = leaf_at(addr, start, end, sizes)
        return base, size, offset, attr

    def leaves(self) -> Iterator[tuple[int, int, int, Any]]:
        """Every leaf as ``(base, page_size, offset, attr)``, in address order."""
        for start, end, (offset, sizes, attr) in self.extents:
            base = start
            while base < end:
                base, size = leaf_at(base, start, end, sizes)
                yield base, size, offset, attr
                base += size

    def check_invariants(self) -> None:
        """Extents disjoint and base-page aligned, each using exactly the
        sizes its offset allows up to its largest, and the running counts
        equal a recount."""
        self.extents.check_invariants()
        counts = dict.fromkeys(self.counts, 0)
        for start, end, (offset, sizes, _) in self.extents:
            assert not (start | end) % self.sizes[-1], f"unaligned extent at {start:#x}"
            assert sizes == self.allowed(offset, sizes[0]), (
                f"extent at {start:#x} uses page sizes its offset forbids"
            )
            for size, n in page_counts(start, end, sizes):
                counts[size] += n
        assert counts == self.counts, "leaf counts drifted"
