"""Regression: all performance/observability state is instance-scoped.

Two environments driven *interleaved* must never cross-contaminate —
not the per-machine metrics registry the hypervisor counts live in, not
the span tracer.  A module-global anywhere in ``repro.obs`` would fail
here.
"""

from __future__ import annotations

import pytest

from repro.core.features import CovirtConfig
from repro.harness.env import CovirtEnvironment, Layout
from repro.hw.ioports import SERIAL_COM1
from repro.obs import metric_names
from repro.obs.metrics import MetricsRegistry
from repro.obs.scenario import protection_probe

GiB = 1 << 30
LAYOUT = Layout("1c/1n", {0: 1}, {0: GiB})


@pytest.fixture
def pair():
    return CovirtEnvironment(), CovirtEnvironment()


class TestRegistryScoping:
    def test_fresh_registries_share_nothing(self):
        a, b = MetricsRegistry(), MetricsRegistry()
        a.counter(metric_names.EXITS).inc(reason="cpuid", core=0, enclave=1)
        a.histogram(metric_names.EXIT_CYCLES).observe(100, reason="cpuid")
        assert b.hypervisor_counts() == {
            "exits": {}, "commands": {}, "ipis": {}, "exit_cycles": 0
        }
        assert a.hypervisor_counts()["exits"] == {"cpuid": 1}

    def test_views_do_not_alias(self):
        registry = MetricsRegistry()
        registry.counter(metric_names.EXITS).inc(reason="cpuid", core=0, enclave=1)
        view = registry.hypervisor_counts()
        view["exits"]["cpuid"] += 10
        assert registry.hypervisor_counts()["exits"] == {"cpuid": 1}


class TestInterleavedMachines:
    def test_interleaved_exits_stay_per_machine(self, pair):
        env_a, env_b = pair
        enclave_a = env_a.launch(LAYOUT, CovirtConfig.full(), name="a")
        enclave_b = env_b.launch(LAYOUT, CovirtConfig.full(), name="b")
        core_a = enclave_a.assignment.core_ids[0]
        core_b = enclave_b.assignment.core_ids[0]
        # Interleave: A, B, A, B, ... with different exit mixes.
        for _ in range(3):
            enclave_a.port.cpuid(core_a, 0)
            enclave_b.port.io_in(core_b, SERIAL_COM1)
        enclave_a.port.cpuid(core_a, 0)

        exits_a = env_a.machine.obs.metrics.exit_counts_by_reason()
        exits_b = env_b.machine.obs.metrics.exit_counts_by_reason()
        assert exits_a == {"cpuid": 4}
        assert exits_b == {"io_instruction": 3}

        counts_a = env_a.machine.obs.metrics.hypervisor_counts(
            enclave=enclave_a.enclave_id
        )
        counts_b = env_b.machine.obs.metrics.hypervisor_counts(
            enclave=enclave_b.enclave_id
        )
        assert counts_a["exits"] == {"cpuid": 4}
        assert counts_b["exits"] == {"io_instruction": 3}

    def test_interleaved_probe_and_idle_machine(self, pair):
        env_a, env_b = pair
        enclave_a = env_a.launch(LAYOUT, CovirtConfig.full(), name="a")
        protection_probe(env_a, enclave_a)
        # B never ran anything: its registry and tracer must be silent.
        assert env_b.machine.obs.metrics.exit_counts_by_reason() == {}
        assert len(env_b.machine.obs.tracer) == 0
        assert env_a.machine.obs.metrics.exit_counts_by_reason() != {}

    def test_span_streams_do_not_interleave(self, pair):
        env_a, env_b = pair
        enclave_a = env_a.launch(LAYOUT, CovirtConfig.full(), name="a")
        enclave_b = env_b.launch(LAYOUT, CovirtConfig.full(), name="b")
        protection_probe(env_a, enclave_a)
        protection_probe(env_b, enclave_b)
        names_a = env_a.machine.obs.tracer.names()
        names_b = env_b.machine.obs.tracer.names()
        assert names_a == names_b  # same deterministic activity...
        spans_a = set(map(id, env_a.machine.obs.tracer.spans))
        spans_b = set(map(id, env_b.machine.obs.tracer.spans))
        assert not spans_a & spans_b  # ...recorded in disjoint tracers

    def test_metric_objects_are_per_registry(self, pair):
        env_a, env_b = pair
        counter_a = env_a.machine.obs.metrics.counter(metric_names.EXITS)
        counter_b = env_b.machine.obs.metrics.counter(metric_names.EXITS)
        assert counter_a is not counter_b
        counter_a.inc(reason="cpuid")
        assert counter_b.total() == 0
