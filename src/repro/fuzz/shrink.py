"""Sequence minimization (delta debugging).

Given a failing :class:`~repro.fuzz.recorder.FuzzRun`, find a much
shorter action sequence that still fails *the same way* — same failure
kind and same oracle/exception detail class — using greedy ddmin:
repeatedly try dropping chunks of the sequence (halving chunk size as
progress stalls) and keep any subsequence that preserves the failure.

Soundness rests on the engine's skip semantics: any subsequence of a
valid action list is itself a valid action list (actions whose targets
vanished degrade to recorded skips), so the shrinker never has to
understand action dependencies — it just deletes and re-executes.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

from repro.fuzz.actions import Action
from repro.fuzz.recorder import FuzzRun


def _failure_signature(run: FuzzRun) -> tuple[str, str] | None:
    """What must be preserved: the failure kind and a detail class that
    ignores volatile specifics (ids, addresses, clocks)."""
    if run.failure is None:
        return None
    detail = str(run.failure["detail"])
    # Keep the stable prefix: "[oracle-name]" or "ExcType:".
    head = detail.split(" ", 1)[0]
    return (str(run.failure["kind"]), head)


@dataclass
class ShrinkResult:
    """A minimized reproducer plus how much work it took."""

    original: FuzzRun
    minimized: FuzzRun
    executions: int
    #: Step counts along the way, for the curious.
    trajectory: list[int] = field(default_factory=list)

    @property
    def removed(self) -> int:
        return len(self.original.steps) - len(self.minimized.steps)

    def describe(self) -> str:
        return (
            f"shrunk {len(self.original.steps)} → "
            f"{len(self.minimized.steps)} actions "
            f"in {self.executions} executions"
        )


def shrink_run(
    run: FuzzRun,
    *,
    max_executions: int = 200,
    execute: "Callable[[list[Action]], FuzzRun] | None" = None,
) -> ShrinkResult:
    """Minimize ``run`` to a shorter sequence with the same failure.

    ``execute`` replays a candidate action list on a fresh environment
    (injectable for tests); the default builds a new
    :class:`~repro.fuzz.engine.FuzzEngine` with the run's seed/schedule.
    """
    if run.failure is None:
        raise ValueError("cannot shrink a clean run")
    target = _failure_signature(run)

    if execute is None:

        def execute(actions: list[Action]) -> FuzzRun:
            from repro.fuzz.engine import FuzzEngine

            with FuzzEngine(seed=run.seed, schedule=run.schedule) as engine:
                return engine.replay(actions)

    executions = 0
    trajectory = [len(run.steps)]

    def still_fails(actions: list[Action]) -> FuzzRun | None:
        nonlocal executions
        executions += 1
        candidate = execute(actions)
        if _failure_signature(candidate) == target:
            return candidate
        return None

    # The recorded run may have trailing actions after the failing step
    # (it shouldn't — the engine stops — but corpora are data).  Start
    # from the failing prefix.
    best_actions = [s.action for s in run.steps[: run.failure["step"] + 1]]
    best = still_fails(best_actions)
    if best is None:  # prefix alone doesn't reproduce; keep everything
        best_actions = [s.action for s in run.steps]
        best = execute(best_actions)
        executions += 1

    chunk = max(len(best_actions) // 2, 1)
    while chunk >= 1 and executions < max_executions:
        shrunk_this_pass = False
        start = 0
        while start < len(best_actions) and executions < max_executions:
            candidate_actions = best_actions[:start] + best_actions[start + chunk:]
            if not candidate_actions:
                start += chunk
                continue
            candidate = still_fails(candidate_actions)
            if candidate is not None:
                best_actions = candidate_actions
                best = candidate
                trajectory.append(len(best_actions))
                shrunk_this_pass = True
                # Do not advance: the next chunk slid into this spot.
            else:
                start += chunk
        if not shrunk_this_pass:
            if chunk == 1:
                break
            chunk = max(chunk // 2, 1)

    return ShrinkResult(
        original=run,
        minimized=best,
        executions=executions,
        trajectory=trajectory,
    )
