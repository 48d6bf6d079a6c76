"""The execution engine: overheads derive mechanistically from config."""

import pytest

from repro.core.features import CovirtConfig, Feature, IpiMode
from repro.harness.env import CovirtEnvironment, Layout, MICROBENCH_LAYOUT
from repro.workloads.base import Phase, Workload
from repro.workloads.randomaccess import RandomAccess
from repro.workloads.stream import Stream
from repro.hw.tlb import AccessPattern

GiB = 1 << 30


@pytest.fixture
def env():
    return CovirtEnvironment()


def run_config(env, workload, config, layout=MICROBENCH_LAYOUT):
    enclave = env.launch(layout, config)
    result = env.engine.run(workload, enclave)
    env.teardown(enclave)
    return result


class TestEngineBasics:
    def test_result_fields(self, env):
        result = run_config(env, Stream(), None)
        assert result.workload == "STREAM"
        assert result.config_label == "native"
        assert result.layout_label == "1c/1n"
        assert result.elapsed_cycles > 0
        assert result.fom > 0
        assert set(result.breakdown) >= {"compute", "ept", "ipi", "timer"}

    def test_time_passes_on_enclave_cores(self, env):
        enclave = env.launch(MICROBENCH_LAYOUT, None)
        bsp = enclave.assignment.core_ids[0]
        before = env.machine.core(bsp).read_tsc()
        result = env.engine.run(Stream(), enclave)
        assert env.machine.core(bsp).read_tsc() >= before + result.elapsed_cycles

    def test_native_has_no_virtualization_costs(self, env):
        result = run_config(env, RandomAccess(), None)
        assert result.breakdown["ept"] == 0.0
        assert result.breakdown["baseline"] == 0.0

    def test_covirt_none_has_no_ept_cost(self, env):
        result = run_config(env, RandomAccess(), CovirtConfig.none())
        assert result.breakdown["ept"] == 0.0

    def test_memory_feature_adds_ept_cost(self, env):
        result = run_config(env, RandomAccess(), CovirtConfig.memory_only())
        assert result.breakdown["ept"] > 0.0

    def test_requires_running_enclave(self, env):
        enclave = env.launch(MICROBENCH_LAYOUT, None)
        env.mcp.shutdown_enclave(enclave.enclave_id)
        with pytest.raises(Exception):
            env.engine.run(Stream(), enclave)


class TestMechanisticOverheads:
    def test_overhead_ordering_none_le_mem_le_memipi(self, env):
        native = run_config(env, RandomAccess(), None)
        none = run_config(env, RandomAccess(), CovirtConfig.none())
        mem = run_config(env, RandomAccess(), CovirtConfig.memory_only())
        both = run_config(env, RandomAccess(), CovirtConfig.memory_ipi())
        assert (
            native.elapsed_cycles
            <= none.elapsed_cycles
            <= mem.elapsed_cycles
            <= both.elapsed_cycles
        )

    def test_stream_insensitive_randomaccess_sensitive(self, env):
        def overhead(workload):
            native = run_config(env, workload, None)
            mem = run_config(env, workload, CovirtConfig.memory_only())
            return mem.overhead_vs(native)

        assert overhead(RandomAccess()) > 3 * overhead(Stream())

    def test_trap_mode_costs_more_than_posted(self, env):
        posted = run_config(
            env,
            RandomAccess(),
            CovirtConfig(features=Feature.MEMORY | Feature.IPI),
        )
        trap = run_config(
            env,
            RandomAccess(),
            CovirtConfig(
                features=Feature.MEMORY | Feature.IPI, ipi_mode=IpiMode.TRAP
            ),
        )
        assert trap.elapsed_cycles > posted.elapsed_cycles

    def test_ept_coalescing_reduces_overhead(self, env):
        coalesced = run_config(env, RandomAccess(), CovirtConfig.memory_only())
        flat = run_config(
            env,
            RandomAccess(),
            CovirtConfig(
                features=Feature.MEMORY | Feature.EXCEPTIONS,
                ept_coalescing=False,
            ),
        )
        assert flat.breakdown["ept"] > coalesced.breakdown["ept"]


class TestLayoutEffects:
    def test_more_cores_faster(self, env):
        one = run_config(
            env, Stream(), None, Layout("1c/1n", {0: 1}, {0: 7 * GiB, 1: 7 * GiB})
        )
        four = run_config(
            env, Stream(), None,
            Layout("4c/2n", {0: 2, 1: 2}, {0: 7 * GiB, 1: 7 * GiB}),
        )
        assert four.elapsed_cycles < one.elapsed_cycles

    def test_split_zones_beat_packed_for_bandwidth(self, env):
        """4c/2n gets two sockets' bandwidth; 4c/1n contends on one."""
        split = run_config(
            env, Stream(), None,
            Layout("4c/2n", {0: 2, 1: 2}, {0: 7 * GiB, 1: 7 * GiB}),
        )
        packed = run_config(
            env, Stream(), None,
            Layout("4c/1n", {0: 4}, {0: 7 * GiB, 1: 7 * GiB}),
        )
        assert split.elapsed_cycles < packed.elapsed_cycles

    def test_local_memory_beats_remote(self, env):
        local = run_config(
            env, RandomAccess(), None, Layout("1c/local", {0: 1}, {0: 14 * GiB})
        )
        remote = run_config(
            env, RandomAccess(), None, Layout("1c/remote", {0: 1}, {1: 14 * GiB})
        )
        assert local.elapsed_cycles < remote.elapsed_cycles


class TestPlausibility:
    """Sanity pins: simulated wall-clock must stay in believable ranges
    for the paper's parameters, so future cost-model edits can't drift
    into nonsense without a test noticing."""

    def test_randomaccess_runs_tens_of_seconds(self, env):
        result = run_config(env, RandomAccess(), None)
        assert 5.0 < result.elapsed_seconds < 120.0

    def test_stream_single_core_bandwidth_plausible(self, env):
        result = run_config(env, Stream(), None)
        # A 1.7 GHz Broadwell core sustains a few GB/s on triad.
        assert 2_000 < result.fom < 20_000  # MB/s

    def test_hpcg_gflops_plausible(self, env):
        from repro.workloads.hpcg import Hpcg

        result = run_config(env, Hpcg(), None)
        assert 0.3 < result.fom < 5.0  # GFLOP/s on one low-clocked core

    def test_breakdown_sums_to_elapsed(self, env):
        result = run_config(env, RandomAccess(), CovirtConfig.memory_ipi())
        assert sum(result.breakdown.values()) == pytest.approx(
            result.elapsed_cycles, rel=1e-6
        )

    def test_lammps_loop_times_minutes_at_most(self, env):
        from repro.workloads.lammps import LAMMPS_PROBLEMS, Lammps

        for problem in LAMMPS_PROBLEMS:
            result = run_config(env, Lammps(problem), None)
            assert 1.0 < result.fom < 600.0


class TestPhaseValidation:
    def test_phase_rejects_negative(self):
        with pytest.raises(ValueError):
            Phase("x", -1, 0, 0, AccessPattern.SEQUENTIAL)
        with pytest.raises(ValueError):
            Phase("x", 1, 1, 1, AccessPattern.SEQUENTIAL, mem_bound_frac=2.0)

    def test_efficiency_decreases_with_cores(self):
        workload = Stream()
        assert workload.efficiency_at(1) == 1.0
        assert workload.efficiency_at(8) < workload.efficiency_at(4) <= 1.0
