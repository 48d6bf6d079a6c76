"""Cost model, hypervisor counts, and the detour sampler."""

import pytest

from repro.hw.memory import PAGE_SIZE, PAGE_SIZE_1G, PAGE_SIZE_2M
from repro.obs import metric_names
from repro.obs.metrics import MetricsRegistry
from repro.perf.costs import CostModel, DEFAULT_COSTS
from repro.perf.sampling import DetourSampler, NoiseSource


class TestCostModel:
    def test_ept_extra_decreases_with_page_size(self):
        costs = DEFAULT_COSTS
        assert (
            costs.ept_extra_per_miss(PAGE_SIZE)
            > costs.ept_extra_per_miss(PAGE_SIZE_2M)
            > costs.ept_extra_per_miss(PAGE_SIZE_1G)
        )

    def test_exit_cost_with_emulation(self):
        costs = DEFAULT_COSTS
        assert costs.exit_cost(emulation=True) > costs.exit_cost()

    def test_attach_cost_grows_with_size(self):
        costs = DEFAULT_COSTS
        small = costs.xemem_attach_cycles(1 << 20, covirt=False)
        large = costs.xemem_attach_cycles(1 << 30, covirt=False)
        assert large > small

    def test_covirt_attach_overhead_shrinks_relatively(self):
        """The Fig. 4 claim: the Covirt term is bounded, so its relative
        cost vanishes as regions grow."""
        costs = DEFAULT_COSTS
        rel = []
        for size in (1 << 20, 1 << 25, 1 << 30):
            off = costs.xemem_attach_cycles(size, covirt=False)
            on = costs.xemem_attach_cycles(size, covirt=True)
            rel.append((on - off) / off)
        assert rel == sorted(rel, reverse=True)
        assert rel[-1] < 0.01

    def test_model_is_frozen(self):
        with pytest.raises(Exception):
            DEFAULT_COSTS.vm_exit_round_trip = 1

    def test_custom_model(self):
        costs = CostModel(vm_exit_round_trip=5000)
        assert costs.exit_cost() == 5000


def record_exit(registry, reason, cycles, core=1, enclave=1):
    """What the hypervisor records for one exit."""
    registry.counter(metric_names.EXITS).inc(
        reason=reason, core=core, enclave=enclave
    )
    registry.histogram(metric_names.EXIT_CYCLES).observe(cycles, reason=reason)


class TestHypervisorCounts:
    def test_record_and_totals(self):
        registry = MetricsRegistry()
        record_exit(registry, "ept_violation", 1600)
        record_exit(registry, "ept_violation", 1600)
        record_exit(registry, "cpuid", 1600)
        counts = registry.hypervisor_counts()
        assert sum(counts["exits"].values()) == 3
        assert counts["exits"]["ept_violation"] == 2
        assert counts["exit_cycles"] == 4800
        assert counts["commands"] == counts["ipis"] == {}
        assert registry.exit_counts_by_reason() == counts["exits"]

    def test_filtered_views_sum_their_samples(self):
        registry = MetricsRegistry()
        record_exit(registry, "hlt", 100, core=1, enclave=1)
        record_exit(registry, "hlt", 100, core=2, enclave=2)
        ipis = registry.counter(metric_names.IPIS)
        ipis.inc(outcome="filtered", core=1, enclave=1)
        ipis.inc(outcome="filtered", core=1, enclave=1)
        registry.counter(metric_names.COMMANDS).inc(
            type="MEMORY_UPDATE", core=2, enclave=2
        )
        assert registry.hypervisor_counts() == {
            "exits": {"hlt": 2},
            "commands": {"MEMORY_UPDATE": 1},
            "ipis": {"filtered": 2},
            "exit_cycles": 200,
        }
        # The cycle histogram has no enclave or core label, so a
        # filtered view has no cycle sum.
        assert registry.hypervisor_counts(enclave=1) == {
            "exits": {"hlt": 1},
            "commands": {},
            "ipis": {"filtered": 2},
        }
        assert registry.hypervisor_counts(enclave=2, core=2)["commands"] == {
            "MEMORY_UPDATE": 1
        }
        assert registry.hypervisor_counts(enclave=1, core=2)["exits"] == {}


class TestDetourSampler:
    def test_detects_all_planted_events(self):
        sampler = DetourSampler(loop_cycles=10)
        trace = sampler.run(
            1_000_000, [NoiseSource("tick", 100_000, 5_000)]
        )
        assert trace.count == 9  # events at 100k..900k

    def test_subthreshold_events_invisible(self):
        sampler = DetourSampler(loop_cycles=10, threshold_factor=8)
        trace = sampler.run(1_000_000, [NoiseSource("tiny", 100_000, 20)])
        assert trace.count == 0

    def test_detour_duration_reflects_cost(self):
        sampler = DetourSampler(loop_cycles=10)
        trace = sampler.run(500_000, [NoiseSource("tick", 100_000, 7_000)])
        assert all(abs(d - 7_010) < 50 for _, d in trace.detours)

    def test_noise_fraction(self):
        sampler = DetourSampler(loop_cycles=10)
        trace = sampler.run(1_000_000, [NoiseSource("tick", 100_000, 10_000)])
        assert trace.noise_fraction == pytest.approx(0.09, rel=0.05)

    def test_multiple_sources_merge(self):
        sampler = DetourSampler(loop_cycles=10)
        trace = sampler.run(
            1_000_000,
            [NoiseSource("a", 300_000, 5_000), NoiseSource("b", 400_000, 5_000)],
        )
        assert trace.count == 3 + 2

    def test_histogram_buckets(self):
        sampler = DetourSampler(loop_cycles=10)
        trace = sampler.run(1_000_000, [NoiseSource("tick", 100_000, 5_000)])
        hist = trace.histogram([1.0, 10.0])
        assert hist["<10.0us"] == trace.count

    def test_bad_source_rejected(self):
        with pytest.raises(ValueError):
            NoiseSource("x", 0, 100)

    def test_empty_sources_silent(self):
        trace = DetourSampler().run(1_000_000, [])
        assert trace.count == 0
        assert trace.noise_fraction == 0.0
