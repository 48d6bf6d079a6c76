"""The sweep executor: deterministic merge, worker invariance, and the
shared batching driver it inherits from ``repro.fuzz.pool``."""

from __future__ import annotations

import json

import pytest

from repro.fuzz.pool import BATCH_SIZE, run_batched
from repro.harness.env import CovirtEnvironment
from repro.obs import metric_names
from repro.obs.flight import MAX_RETAINED_POSTMORTEMS
from repro.sweep import (
    SweepExecutor,
    SweepSpec,
    quick_spec,
    sweep_doc,
    write_artifacts,
)
from repro.sweep.runner import run_cell
from repro.sweep.spec import ScenarioCell

pytestmark = pytest.mark.sweep


def _dump(result) -> str:
    return json.dumps(sweep_doc(result, quick=True), sort_keys=True)


class TestExecutor:
    def test_plans_the_full_grid_up_front(self):
        spec = quick_spec()
        executor = SweepExecutor(spec)
        assert len(executor.tasks) == len(spec.cells()) * spec.seeds_per_cell
        assert [t["index"] for t in executor.tasks] == list(
            range(len(executor.tasks))
        )

    def test_invalid_spec_rejected_at_construction(self):
        with pytest.raises(ValueError, match="unknown schedule"):
            SweepExecutor(SweepSpec(schedules=("nope",)))

    def test_quick_grid_runs_clean(self, quick_result):
        assert quick_result.failures == []
        assert quick_result.total_runs == 12
        assert set(quick_result.runs) == {
            c.cell_id() for c in quick_result.spec.cells()
        }

    def test_progress_callback_sees_every_batch(self):
        spec = quick_spec()
        lines: list[str] = []
        SweepExecutor(spec, batch_size=4).run(progress=lines.append)
        assert len(lines) == 3  # 12 runs / batch_size 4
        assert lines[-1].endswith("12/12 runs, 0 failures")


class TestWorkerInvariance:
    def test_two_workers_fold_byte_identically(self, quick_result):
        two = SweepExecutor(quick_spec(), workers=2).run()
        assert _dump(two) == _dump(quick_result)

    def test_batch_size_does_not_leak_into_results(self, quick_result):
        odd = SweepExecutor(quick_spec(), batch_size=5).run()
        assert _dump(odd) == _dump(quick_result)

    def test_artifact_files_identical_across_worker_counts(
        self, quick_result, tmp_path
    ):
        two = SweepExecutor(quick_spec(), workers=2).run()
        a = write_artifacts(quick_result, tmp_path / "w1", quick=True)
        b = write_artifacts(two, tmp_path / "w2", quick=True)
        assert set(a) == set(b) == {"sweep", "tables", "boxplot", "bench"}
        for name in a:
            assert a[name].read_bytes() == b[name].read_bytes(), name


class TestSharedBatchDriver:
    def test_fuzz_and_sweep_share_one_merge_helper(self):
        import repro.fuzz.pool as pool
        import repro.sweep.executor as executor

        assert executor.run_batched is pool.run_batched
        assert executor.BATCH_SIZE is pool.BATCH_SIZE

    def test_run_batched_folds_in_plan_order(self):
        planned = list(range(17))
        cursor = 0

        def plan(n):
            nonlocal cursor
            batch = planned[cursor: cursor + n]
            cursor += len(batch)
            return batch

        folded: list[int] = []
        stats = run_batched(
            lambda x: x * 10,
            plan,
            folded.append,
            lambda executed: executed < len(planned),
            workers=1,
            batch_size=BATCH_SIZE,
        )
        assert folded == [x * 10 for x in planned]
        assert stats.executed == 17
        assert stats.batches == 3

    def test_run_batched_honours_the_budget_cap(self):
        folded: list[int] = []
        stats = run_batched(
            lambda x: x,
            lambda n: list(range(n)),
            folded.append,
            lambda executed: executed < 100,
            workers=1,
            batch_size=8,
            budget=5,
        )
        assert stats.executed == 5
        assert len(folded) == 5


class TestCellRun:
    def test_postmortem_count_is_not_capped_by_retention(self):
        env = CovirtEnvironment()
        run = run_cell(ScenarioCell(schedule="hostile", steps=200), 1, env)
        captured = env.machine.obs.metrics.get(metric_names.POSTMORTEMS)
        assert len(env.machine.obs.flight.postmortems) == MAX_RETAINED_POSTMORTEMS
        assert run.postmortems == captured.total() == 77
