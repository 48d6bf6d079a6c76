"""Extent maps, and a differential check of the extent-backed page tables.

Guest page tables and EPTs keep one extent per map call and derive every
leaf from the extent's greedy page decomposition.  :class:`LeafModel`
below is the per-leaf algorithm they replace: install greedy 4K/2M/1G
leaves, and on unmap split a straddling leaf into next-size leaves until
the cut lands on leaf edges.  Random map/unmap sequences over a universe
that crosses 2 MiB and 1 GiB boundaries must give identical leaf counts,
walks, EPT entries, coverage and error messages in both.
"""

from __future__ import annotations

from bisect import bisect_left

import pytest

from repro.fuzz.rng import named_stream
from repro.hw.extents import ExtentMap, leaf_at, page_counts
from repro.hw.memory import PAGE_SIZE, PAGE_SIZE_1G, PAGE_SIZE_2M
from repro.kitten.pagetable import GuestPageTable, PageTableError
from repro.vmx.ept import EptError, EptMapping, EptPermissions, ExtendedPageTable

SIZES = (PAGE_SIZE_1G, PAGE_SIZE_2M, PAGE_SIZE)
LEVELS = {PAGE_SIZE_1G: 2, PAGE_SIZE_2M: 3, PAGE_SIZE: 4}
UNIVERSE = 2 * PAGE_SIZE_1G + 2 * PAGE_SIZE_2M
#: Addresses on and one page either side of 2 MiB and 1 GiB boundaries.
POINTS = sorted(
    {
        p
        for g in range(3)
        for m in (-1, 0, 1, 2)
        for k in (-1, 0, 1)
        if 0 <= (p := g * PAGE_SIZE_1G + m * PAGE_SIZE_2M + k * PAGE_SIZE) <= UNIVERSE
    }
)
OFFSETS = (0, PAGE_SIZE, PAGE_SIZE_2M, 3 * PAGE_SIZE_2M, PAGE_SIZE_1G)
READ_ONLY = EptPermissions(read=True, write=False, execute=False)


class LeafModel:
    """Reference: one dict entry per leaf, ``base -> (size, phys, attr)``."""

    def __init__(self) -> None:
        self.leaves: dict[int, tuple[int, int, object]] = {}

    def leaf(self, addr: int) -> int | None:
        for size in SIZES:
            base = addr & -size
            entry = self.leaves.get(base)
            if entry is not None and entry[0] == size:
                return base
        return None

    def counts(self) -> dict[int, int]:
        counts = dict.fromkeys(reversed(SIZES), 0)
        for size, _, _ in self.leaves.values():
            counts[size] += 1
        return counts

    def map(self, virt: int, phys: int, size: int, sizes, attr) -> int | str:
        """Leaves created, or the first conflict's message (no change)."""
        plan = []
        while size:
            page = next(
                s for s in sizes if virt % s == 0 and phys % s == 0 and size >= s
            )
            plan.append((virt, phys, page))
            virt, phys, size = virt + page, phys + page, size - page
        bases = sorted(self.leaves)
        for v, _, page in plan:
            hit = self.leaf(v)
            if hit is not None and self.leaves[hit][0] > page:
                return f"{v:#x}: huge mapping already covers this range"
            i = bisect_left(bases, v)
            if hit is not None or (i < len(bases) and bases[i] < v + page):
                return f"{v:#x} already mapped"
        for v, p, page in plan:
            self.leaves[v] = (page, p, attr)
        return len(plan)

    def unmap(self, start: int, size: int) -> int | str:
        """Leaves removed, or the first unmapped address's message."""
        end, addr = start + size, start
        while addr < end:
            hit = self.leaf(addr)
            if hit is None:
                return f"{addr:#x} not mapped"
            addr = hit + self.leaves[hit][0]
        removed, addr = 0, start
        while addr < end:
            base = self.leaf(addr)
            page, phys, attr = self.leaves.pop(base)
            if base < addr or base + page > end:
                smaller = SIZES[SIZES.index(page) + 1]
                for off in range(0, page, smaller):
                    self.leaves[base + off] = (smaller, phys + off, attr)
                continue
            removed += 1
            addr = base + page
        return removed

    def covers(self, addr: int, length: int) -> bool:
        pos, end = addr, addr + max(length, 1)
        while pos < end:
            hit = self.leaf(pos)
            if hit is None:
                return False
            pos = hit + self.leaves[hit][0]
        return True


def _ops(stream, count):
    """Random ``(is_map, start, size, offset, cap)`` between boundary
    points.  Most unmaps cut inside an earlier map call's range, so they
    split huge leaves rather than hit holes.  A range that can only use
    4K pages stays within 4 MiB, so the model holds at most a few
    thousand leaves."""
    mapped: list[tuple[int, int]] = []
    for _ in range(count):
        is_map = stream.random() < 0.5 or not mapped
        a, b = sorted(stream.sample(POINTS, 2))
        if not is_map and stream.random() < 0.8:
            lo, hi = stream.choice(mapped)
            inside = [p for p in POINTS if lo < p < hi]
            a, b = sorted(stream.sample([lo, hi] + inside, 2))
        offset, cap = stream.choice(OFFSETS), stream.choice(SIZES)
        if offset % PAGE_SIZE_2M or cap == PAGE_SIZE:
            b = min(b, a + 2 * PAGE_SIZE_2M)
        if is_map:
            mapped.append((a, b))
        yield is_map, a, b - a, offset, cap


def _probes(stream):
    return POINTS + [stream.randrange(0, UNIVERSE) for _ in range(16)]


class TestExtentMap:
    def test_cut_splits_at_edges_and_keeps_values(self):
        m = ExtentMap()
        m.insert(0, 100, "a")
        m.insert(200, 300, "b")
        inside = m.cut(50, 250)
        assert [m[i] for i in inside] == [(50, 100, "a"), (200, 250, "b")]
        assert list(m) == [
            (0, 50, "a"), (50, 100, "a"), (200, 250, "b"), (250, 300, "b")
        ]
        m.delete(inside)
        assert list(m) == [(0, 50, "a"), (250, 300, "b")]
        m.check_invariants()

    def test_queries(self):
        m = ExtentMap()
        m.insert(10, 20, "x")
        m.insert(30, 40, "y")
        assert (m.index(9), m.index(10), m.index(19), m.index(20)) == (-1, 0, 0, -1)
        assert list(m.span(0, 10)) == [] and list(m.span(15, 35)) == [0, 1]
        assert m.first_gap(10, 20) is None
        assert m.first_gap(10, 31) == 20
        assert m.first_gap(0, 40) == 0

    def test_page_decomposition_climbs_and_descends_the_staircase(self):
        start = PAGE_SIZE
        end = 2 * PAGE_SIZE_1G + PAGE_SIZE_2M + PAGE_SIZE
        # 4K up to 2M, 2M up to 1G, one 1G page, one 2M page, one 4K page.
        assert dict(page_counts(start, end, SIZES)) == {
            PAGE_SIZE_1G: 1, PAGE_SIZE_2M: 512, PAGE_SIZE: 512,
        }
        assert leaf_at(PAGE_SIZE_2M - 1, start, end, SIZES) == (
            PAGE_SIZE_2M - PAGE_SIZE, PAGE_SIZE
        )
        assert leaf_at(PAGE_SIZE_1G + 5, start, end, SIZES) == (
            PAGE_SIZE_1G, PAGE_SIZE_1G
        )
        assert leaf_at(end - 1, start, end, SIZES) == (end - PAGE_SIZE, PAGE_SIZE)


@pytest.mark.parametrize("seed", range(40))
def test_guest_page_table_matches_per_leaf_model(seed):
    stream = named_stream("extents/guest-page-table", seed)
    pt, model = GuestPageTable(), LeafModel()
    for is_map, start, size, offset, cap in _ops(stream, 10):
        writable = stream.random() < 0.7
        before = dict(pt.leaf_count)
        if is_map:
            sizes = [s for s in SIZES if s <= cap]
            expected = model.map(start, start + offset, size, sizes, writable)
            call = lambda: pt.map(  # noqa: E731
                start, start + offset, size, writable=writable, max_page=cap
            )
        else:
            expected = model.unmap(start, size)
            call = lambda: pt.unmap(start, size)  # noqa: E731
        if isinstance(expected, str):
            with pytest.raises(PageTableError) as exc:
                call()
            assert str(exc.value) == expected
            assert pt.leaf_count == before  # validated before mutating
        else:
            assert call() == expected
        assert pt.leaf_count == model.counts()
        assert pt.mapped_bytes() == sum(s for s, _, _ in model.leaves.values())
    for addr in _probes(stream):
        hit = model.leaf(addr)
        result = pt.walk(addr)
        if hit is None:
            assert result is None
            continue
        page, phys, writable = model.leaves[hit]
        assert (result.paddr, result.page_size, result.writable,
                result.levels_touched) == (
            phys + addr - hit, page, writable, LEVELS[page]
        )
    for a, b in zip(POINTS, POINTS[3:]):
        assert pt.covers(a, b - a) == model.covers(a, b - a)


@pytest.mark.parametrize("seed", range(40))
def test_ept_matches_per_leaf_model(seed):
    stream = named_stream("extents/ept", seed)
    ept, model = ExtendedPageTable(), LeafModel()
    for is_map, start, size, offset, cap in _ops(stream, 10):
        if is_map:
            coalesce = cap != PAGE_SIZE
            perms = stream.choice((EptPermissions.full(), READ_ONLY))
            sizes = SIZES if coalesce else (PAGE_SIZE,)
            expected = model.map(start, start + offset, size, sizes, perms)
            call = lambda: ept.map_region(  # noqa: E731
                start, size, start + offset, perms, coalesce
            )
        else:
            expected = model.unmap(start, size)
            call = lambda: ept.unmap_region(start, size)  # noqa: E731
        generation = ept.generation
        if isinstance(expected, str):
            with pytest.raises(EptError):
                call()
            assert ept.generation == generation
        else:
            result = call()
            assert result == (expected if is_map else size)
        assert ept.count_by_size() == model.counts()
        assert len(ept) == len(model.leaves)
        ept.check_invariants()
    for addr in _probes(stream):
        hit = model.leaf(addr)
        if hit is None:
            assert not ept.is_mapped(addr)
            continue
        page, phys, perms = model.leaves[hit]
        assert ept.translate(addr) == (
            phys + addr - hit, EptMapping(hit, phys, page, perms)
        )
    assert list(ept.mappings()) == [
        EptMapping(base, phys, page, perms)
        for base, (page, phys, perms) in sorted(model.leaves.items())
    ]
