"""The parallel, coverage-guided campaign executor.

A campaign turns the single-run engine into a search loop:

1. **plan** a batch of execution tasks — fresh seeded runs while the
   corpus is empty (or always, in pure-random mode), mutants of
   coverage-novel parents once it isn't;
2. **execute** the batch, either inline or fanned out over a
   ``multiprocessing`` pool (each task boots its own fresh
   :class:`~repro.fuzz.engine.FuzzEngine`, so workers share nothing);
3. **fold** results into the global coverage map and corpus in task
   order.

Determinism is the design center.  Batches have a *fixed* size
independent of the worker count, every task is planned (and its RNG
draws consumed) before anything executes, ``Pool.map`` returns results
in task order, and folding happens in that order — so the merged
coverage map, corpus, and findings are byte-identical whether a
campaign ran on 1 worker or 16, and any individual task can be
re-executed standalone from its descriptor: a seeded run is
``(seed, schedule, steps)``, a mutant is
``(parent_fingerprint, mutation_seed)`` applied to the recorded parent
actions.

``--budget`` mode executes exactly N tasks and is fully reproducible;
``--continuous`` mode keeps planning batches until a wall-clock
deadline — the stopping point is nondeterministic but every batch
within the run is not, which is what a nightly bug-mining farm needs:
unbounded search, replayable artifacts.

The plan/execute/fold loop itself is :func:`run_batched`, shared with
the scenario-sweep executor (:mod:`repro.sweep.executor`) so every
parallel surface in the repo makes the byte-identical-merge guarantee
through the same code path.
"""

from __future__ import annotations

import multiprocessing
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Sequence

from repro.fuzz.actions import Action
from repro.fuzz.coverage import CoverageMap
from repro.fuzz.distill import DistillResult, distill_runs
from repro.fuzz.engine import FuzzEngine, SCHEDULES
from repro.fuzz.mutate import mutate_actions
from repro.fuzz.recorder import FuzzRun
from repro.fuzz.rng import DEFAULT_SEED, named_stream

#: Tasks per planning round.  Fixed — never derived from the worker
#: count — so the planned task stream, and therefore the merged result,
#: is identical for any ``--workers`` value.
BATCH_SIZE = 8

#: Fraction of guided-mode tasks that stay exploratory (fresh seeds)
#: even once the corpus has parents to mutate.
EXPLORE_RATIO = 0.25


@dataclass
class BatchStats:
    """Progress snapshot :func:`run_batched` hands to ``on_batch``."""

    executed: int = 0
    batches: int = 0


def run_batched(
    execute: Callable[[dict[str, Any]], dict[str, Any]],
    plan: Callable[[int], list[dict[str, Any]]],
    fold: Callable[[dict[str, Any]], None],
    should_continue: Callable[[int], bool],
    *,
    workers: int = 1,
    batch_size: int = BATCH_SIZE,
    budget: int = 0,
    on_batch: Callable[[BatchStats], None] | None = None,
) -> BatchStats:
    """The deterministic-merge plan/execute/fold driver.

    Shared by the fuzz campaign and the scenario-sweep executor
    (:class:`repro.sweep.executor.SweepExecutor`) so both make the same
    guarantee the same way: batches have a fixed size independent of the
    worker count, every task in a batch is planned (and any planner RNG
    consumed) before anything executes, ``Pool.map`` returns results in
    task order, and ``fold`` is called in that order — so the merged
    result is byte-identical whether the work ran on 1 worker or 16.

    ``execute`` must be a top-level dict-in/dict-out function (picklable
    for ``multiprocessing``); ``plan(n)`` returns up to ``n`` task
    payloads and may return fewer (or none, which stops the loop); a
    positive ``budget`` caps total executions.
    """
    stats = BatchStats()
    pool = None
    try:
        if workers > 1:
            methods = multiprocessing.get_all_start_methods()
            ctx = multiprocessing.get_context(
                "fork" if "fork" in methods else None
            )
            pool = ctx.Pool(processes=workers)
        while should_continue(stats.executed):
            n = batch_size
            if budget > 0:
                n = min(n, budget - stats.executed)
            if n <= 0:
                break
            batch = plan(n)
            if not batch:
                break
            if pool is not None:
                results = pool.map(execute, batch)
            else:
                results = [execute(p) for p in batch]
            for result in results:  # Pool.map preserves task order
                fold(result)
            stats.executed += len(batch)
            stats.batches += 1
            if on_batch is not None:
                on_batch(stats)
    finally:
        if pool is not None:
            pool.close()
            pool.join()
    return stats


def _execute_payload(payload: dict[str, Any]) -> dict[str, Any]:
    """Execute one planned task in a fresh engine.  Top-level (and
    dict-in/dict-out) so a multiprocessing pool can pickle it; also the
    inline path, so 1-worker and N-worker campaigns run the exact same
    code."""
    schedule = payload["schedule"]
    ops: list[str] = []
    with FuzzEngine(seed=payload["seed"], schedule=schedule) as engine:
        if payload["mode"] == "seed":
            run = engine.run(payload["steps"])
        else:
            parent = [Action.from_dict(a) for a in payload["parent_actions"]]
            actions, ops = mutate_actions(
                parent, payload["parent_fingerprint"], payload["seed"]
            )
            run = engine.replay(actions)
    return {
        "index": payload["index"],
        "mode": payload["mode"],
        "ops": ops,
        "run": run.to_dict(),
        "edges": engine.coverage.edges,
        "hits": engine.coverage.hits,
    }


@dataclass
class CampaignResult:
    """Everything a campaign produced, merged deterministically."""

    seed: int
    budget: int
    guided: bool
    schedules: tuple[str, ...]
    steps: int
    workers: int
    coverage: CoverageMap
    #: Coverage-novel runs, in fold order (the mutation queue).
    corpus: list[FuzzRun]
    #: Runs that ended in an oracle violation or unexpected exception.
    findings: list[FuzzRun]
    executions: int
    batches: int
    wall_seconds: float
    #: Coverage growth curve: ``(execution index, cumulative edges)``
    #: recorded at every execution that discovered something.
    growth: list[tuple[int, int]] = field(default_factory=list)

    @property
    def edges(self) -> int:
        return len(self.coverage)

    def distilled(self) -> DistillResult:
        return distill_runs(self.corpus + self.findings)

    def describe(self) -> str:
        mode = "guided" if self.guided else "random"
        return (
            f"fuzz campaign ({mode}): {self.executions} executions in "
            f"{self.batches} batches -> {self.edges} coverage edges, "
            f"{len(self.corpus)} corpus entries, "
            f"{len(self.findings)} findings "
            f"({self.wall_seconds:.1f}s wall, {self.workers} workers)"
        )

    def summary_dict(self) -> dict[str, Any]:
        distilled = self.distilled()
        return {
            "seed": self.seed,
            "budget": self.budget,
            "mode": "guided" if self.guided else "random",
            "schedules": list(self.schedules),
            "steps_per_run": self.steps,
            "workers": self.workers,
            "executions": self.executions,
            "batches": self.batches,
            "edges": self.edges,
            "corpus_entries": len(self.corpus),
            "distilled_entries": len(distilled.kept),
            "findings": len(self.findings),
            "wall_seconds": round(self.wall_seconds, 3),
            "execs_per_sec": round(
                self.executions / self.wall_seconds, 2
            ) if self.wall_seconds > 0 else 0.0,
            "growth": [list(point) for point in self.growth],
        }


class FuzzCampaign:
    """Plan/execute/fold loop over a worker pool."""

    def __init__(
        self,
        budget: int,
        *,
        workers: int = 1,
        steps: int = 60,
        schedules: Sequence[str] | None = None,
        guided: bool = True,
        seed: int = DEFAULT_SEED,
        batch_size: int = BATCH_SIZE,
        explore: float = EXPLORE_RATIO,
    ) -> None:
        self.budget = int(budget)
        self.workers = max(1, int(workers))
        self.steps = int(steps)
        self.schedules = tuple(schedules or sorted(SCHEDULES))
        for schedule in self.schedules:
            if schedule not in SCHEDULES:
                raise ValueError(
                    f"unknown schedule {schedule!r}; "
                    f"choose from {sorted(SCHEDULES)}"
                )
        self.guided = bool(guided)
        self.seed = int(seed)
        self.batch_size = max(1, int(batch_size))
        self.explore = float(explore)
        mode = "guided" if self.guided else "random"
        self.rng = named_stream(f"fuzz/campaign/{mode}", self.seed)
        self.coverage = CoverageMap()
        self.corpus: list[FuzzRun] = []
        self.findings: list[FuzzRun] = []
        self.growth: list[tuple[int, int]] = []
        self._next_index = 0
        self._batches = 0

    # -- planning ----------------------------------------------------------

    def _plan_batch(self, n: int) -> list[dict[str, Any]]:
        """Plan ``n`` tasks, consuming campaign RNG in task order.  All
        draws happen here — before execution — so the plan is a pure
        function of (campaign seed, fold history)."""
        batch: list[dict[str, Any]] = []
        for _ in range(n):
            index = self._next_index
            self._next_index += 1
            explore = (
                not self.guided
                or not self.corpus
                or self.rng.random() < self.explore
            )
            if explore:
                batch.append(
                    {
                        "index": index,
                        "mode": "seed",
                        "schedule": self.schedules[index % len(self.schedules)],
                        "seed": self.rng.randrange(1 << 32),
                        "steps": self.steps,
                    }
                )
            else:
                parent = self.corpus[self.rng.randrange(len(self.corpus))]
                batch.append(
                    {
                        "index": index,
                        "mode": "mutant",
                        "schedule": parent.schedule,
                        "seed": self.rng.randrange(1 << 32),
                        "parent_actions": [a.to_dict() for a in parent.actions],
                        "parent_fingerprint": parent.fingerprint,
                    }
                )
        return batch

    # -- folding -----------------------------------------------------------

    def _fold(self, result: dict[str, Any]) -> None:
        run = FuzzRun.from_dict(result["run"])
        new = self.coverage.observe_edges(result["edges"], result["hits"])
        if new:
            self.corpus.append(run)
            self.growth.append((result["index"], len(self.coverage)))
        if run.failure is not None:
            self.findings.append(run)

    # -- driving -----------------------------------------------------------

    def _run_batches(
        self,
        should_continue: Callable[[int], bool],
        progress: Callable[[str], None] | None = None,
    ) -> CampaignResult:
        t0 = time.perf_counter()

        def on_batch(stats: BatchStats) -> None:
            if progress is not None:
                progress(
                    f"[batch {stats.batches}] {stats.executed} execs, "
                    f"{len(self.coverage)} edges, "
                    f"{len(self.corpus)} corpus, "
                    f"{len(self.findings)} findings"
                )

        stats = run_batched(
            _execute_payload,
            self._plan_batch,
            self._fold,
            should_continue,
            workers=self.workers,
            batch_size=self.batch_size,
            budget=self.budget,
            on_batch=on_batch,
        )
        executed = stats.executed
        self._batches = stats.batches
        return CampaignResult(
            seed=self.seed,
            budget=self.budget,
            guided=self.guided,
            schedules=self.schedules,
            steps=self.steps,
            workers=self.workers,
            coverage=self.coverage,
            corpus=list(self.corpus),
            findings=list(self.findings),
            executions=executed,
            batches=self._batches,
            wall_seconds=time.perf_counter() - t0,
            growth=list(self.growth),
        )

    def run(
        self, progress: Callable[[str], None] | None = None
    ) -> CampaignResult:
        """Execute exactly ``budget`` tasks.  Fully deterministic in
        (seed, budget, steps, schedules, guided) — the worker count
        changes wall time only."""
        return self._run_batches(
            lambda executed: executed < self.budget, progress
        )

    def run_continuous(
        self,
        max_seconds: float,
        progress: Callable[[str], None] | None = None,
    ) -> CampaignResult:
        """Keep planning batches until the wall-clock deadline (and, if
        a budget was given, until it runs out).  The stopping point is
        wall-clock-dependent; everything executed before it is as
        deterministic as budget mode."""
        deadline = time.perf_counter() + max_seconds

        def keep_going(executed: int) -> bool:
            if self.budget > 0 and executed >= self.budget:
                return False
            return time.perf_counter() < deadline

        return self._run_batches(keep_going, progress)


def save_campaign(
    result: CampaignResult,
    directory: str | Path,
    *,
    shrink: bool = False,
    max_shrink_executions: int = 200,
) -> dict[str, Any]:
    """Persist a campaign's artifacts under ``directory``:

    * ``corpus/`` — the **distilled** minimal-covering corpus;
    * ``findings/`` — every failing run (plus ``*-min`` ddmin-shrunk
      reproducers when ``shrink`` is set);
    * ``coverage.json`` — the merged coverage map (edge id, feature,
      hits);
    * ``summary.json`` — campaign stats.

    Returns the summary dict (with the file manifest folded in).
    """
    import json

    from repro.fuzz.corpus import corpus_name, save_run
    from repro.fuzz.shrink import shrink_run

    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    distilled = result.distilled()
    corpus_paths = [
        save_run(run, directory / "corpus") for run in distilled.kept
    ]
    finding_paths = []
    for run in result.findings:
        finding_paths.append(save_run(run, directory / "findings"))
        if shrink:
            minimized = shrink_run(
                run, max_executions=max_shrink_executions
            ).minimized
            finding_paths.append(
                save_run(
                    minimized,
                    directory / "findings",
                    name=f"min-{corpus_name(minimized)}",
                )
            )
    (directory / "coverage.json").write_text(
        json.dumps(result.coverage.to_dict(), indent=1, sort_keys=True) + "\n"
    )
    summary = result.summary_dict()
    summary["files"] = {
        "corpus": sorted(p.name for p in corpus_paths),
        "findings": sorted(p.name for p in finding_paths),
    }
    (directory / "summary.json").write_text(
        json.dumps(summary, indent=1, sort_keys=True) + "\n"
    )
    return summary
