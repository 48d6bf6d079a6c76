"""Run records: the replayable artifact of a fuzz campaign.

A :class:`FuzzRun` captures everything a session produced — the resolved
action sequence, the per-step outcomes, the final machine fingerprint —
as plain JSON-serializable data.  Replaying the recorded actions on a
fresh environment must reproduce every outcome and the fingerprint
byte-for-byte; any divergence means the simulator (or a subsystem under
test) changed behaviour, which is exactly what the regression corpus
exists to catch.

Outcome strings are small and structured by prefix:

* ``ok`` / ``ok:<detail>`` — the action completed;
* ``fault:<kind>/<class>`` — the guest was terminated (the
  :class:`~repro.core.faults.FaultKey` signature);
* ``refused:<ExcType>`` — a control-plane call was rejected with a
  modelled, expected error;
* ``skip:<why>`` — the action's target did not exist (a shrunk or
  reordered sequence; never an error);
* ``oracle:<name>`` — an invariant audit failed after the action;
* ``error:<ExcType>`` — an *unexpected* exception escaped (always a
  finding).
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from typing import Any

from repro.fuzz.actions import Action

#: Bump when the record layout changes incompatibly.
FORMAT_VERSION = 2

#: Bump when the *engine semantics* change incompatibly: action
#: vocabulary, schedule weight tables, generation order — anything that
#: makes an old recording non-replayable even though its JSON still
#: parses.  Corpus loading refuses mismatches loudly instead of letting
#: replay diverge mysteriously.  Version 3 fingerprints the hypervisor
#: counts kept in the machine's metrics registry, and relaunches an
#: enclave with its boot region first.
ENGINE_VERSION = 3


@dataclass(frozen=True)
class StepRecord:
    """One applied action and what the machine did with it."""

    index: int
    action: Action
    outcome: str
    #: Global cycle clock after the step (containment work costs time,
    #: so this is itself a behavioural observable).
    clock: int

    def to_dict(self) -> dict[str, Any]:
        return {
            "index": self.index,
            "action": self.action.to_dict(),
            "outcome": self.outcome,
            "clock": self.clock,
        }

    @classmethod
    def from_dict(cls, data: dict[str, Any]) -> "StepRecord":
        return cls(
            index=int(data["index"]),
            action=Action.from_dict(data["action"]),
            outcome=str(data["outcome"]),
            clock=int(data["clock"]),
        )

    def describe(self) -> str:
        return f"#{self.index:<4d} {self.action.describe():<50s} → {self.outcome}"


@dataclass
class FuzzRun:
    """A complete recorded session: inputs, observations, verdict."""

    seed: int
    schedule: str
    steps: list[StepRecord]
    #: SHA-256 over the full behavioural transcript (outcomes, traces,
    #: counters, pending events); equal fingerprints ⇒ identical runs.
    fingerprint: str
    final_clock: int
    #: The machine's hypervisor counts, flat (``exits.<reason>``,
    #: ``exit_cycles``, ``commands.<type>``, ``ipis.<outcome>``; see
    #: :meth:`~repro.obs.metrics.MetricsRegistry.hypervisor_counts`).
    counters: dict[str, int]
    #: None for a clean run; otherwise ``{"step", "kind", "detail"}``
    #: where kind is ``oracle`` or ``exception``.
    failure: dict[str, Any] | None = None
    notes: str = ""
    #: Sorted behavioural-coverage edge ids the run produced (see
    #: :mod:`repro.fuzz.coverage`).  Advisory metadata: *not* part of the
    #: fingerprint and not compared on replay, so instrumentation-only
    #: changes never break corpus entries — but corpus distillation can
    #: use it without re-executing anything.
    coverage: list[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return self.failure is None

    @property
    def actions(self) -> list[Action]:
        return [step.action for step in self.steps]

    def to_dict(self) -> dict[str, Any]:
        return {
            "format": FORMAT_VERSION,
            "engine": ENGINE_VERSION,
            "seed": self.seed,
            "schedule": self.schedule,
            "steps": [step.to_dict() for step in self.steps],
            "fingerprint": self.fingerprint,
            "final_clock": self.final_clock,
            "counters": dict(sorted(self.counters.items())),
            "failure": self.failure,
            "notes": self.notes,
            "coverage": list(self.coverage),
        }

    @classmethod
    def from_dict(cls, data: dict[str, Any]) -> "FuzzRun":
        if not isinstance(data, dict):
            raise ValueError(
                f"corpus entry must be a JSON object, got {type(data).__name__}"
            )
        fmt = data.get("format")
        if fmt != FORMAT_VERSION:
            raise ValueError(
                f"unsupported corpus format {fmt!r} (this build reads "
                f"format {FORMAT_VERSION}); re-record the entry with the "
                f"current engine"
            )
        engine = data.get("engine")
        if engine != ENGINE_VERSION:
            raise ValueError(
                f"corpus entry recorded by engine version {engine!r}, but "
                f"this build's engine is version {ENGINE_VERSION}; its "
                f"replay semantics are incompatible — re-record the entry"
            )
        missing = [
            key
            for key in (
                "seed", "schedule", "steps", "fingerprint",
                "final_clock", "counters",
            )
            if key not in data
        ]
        if missing:
            raise ValueError(
                f"corpus entry is missing required keys: {', '.join(missing)}"
            )
        return cls(
            seed=int(data["seed"]),
            schedule=str(data["schedule"]),
            steps=[StepRecord.from_dict(s) for s in data["steps"]],
            fingerprint=str(data["fingerprint"]),
            final_clock=int(data["final_clock"]),
            counters={k: int(v) for k, v in data["counters"].items()},
            failure=data.get("failure"),
            notes=str(data.get("notes", "")),
            coverage=[str(e) for e in data.get("coverage", [])],
        )

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2, sort_keys=False) + "\n"

    @classmethod
    def from_json(cls, text: str) -> "FuzzRun":
        return cls.from_dict(json.loads(text))

    def describe(self) -> str:
        verdict = (
            "clean"
            if self.ok
            else f"FAIL at step {self.failure['step']}: {self.failure['detail']}"
        )
        return (
            f"fuzz run seed={self.seed} schedule={self.schedule!r} "
            f"steps={len(self.steps)} clock={self.final_clock} "
            f"fingerprint={self.fingerprint[:16]}… — {verdict}"
        )


def fingerprint_lines(lines: list[str]) -> str:
    """Collapse a behavioural transcript into a stable hex digest."""
    digest = hashlib.sha256()
    for line in lines:
        digest.update(line.encode())
        digest.update(b"\n")
    return digest.hexdigest()


@dataclass
class ReplayResult:
    """Outcome of re-executing a recorded run on a fresh environment."""

    recorded: FuzzRun
    replayed: FuzzRun
    diffs: list[str] = field(default_factory=list)

    @property
    def matches(self) -> bool:
        return not self.diffs

    def describe(self) -> str:
        if self.matches:
            return (
                f"replay reproduced {len(self.replayed.steps)} steps "
                f"byte-for-byte (fingerprint {self.replayed.fingerprint[:16]}…)"
            )
        return "replay DIVERGED:\n  " + "\n  ".join(self.diffs)


def replay_run(run: FuzzRun) -> ReplayResult:
    """Re-execute ``run``'s recorded actions on a fresh environment and
    compare every observable against the record."""
    from repro.fuzz.engine import FuzzEngine  # circular at import time

    with FuzzEngine(seed=run.seed, schedule=run.schedule) as engine:
        replayed = engine.replay(run.actions)
    diffs: list[str] = []
    for old, new in zip(run.steps, replayed.steps):
        if old.outcome != new.outcome:
            diffs.append(
                f"step {old.index} {old.action.describe()}: "
                f"outcome {old.outcome!r} → {new.outcome!r}"
            )
        elif old.clock != new.clock:
            diffs.append(
                f"step {old.index} {old.action.describe()}: "
                f"clock {old.clock} → {new.clock}"
            )
    if len(replayed.steps) != len(run.steps):
        diffs.append(
            f"step count {len(run.steps)} → {len(replayed.steps)}"
        )
    if (run.failure is None) != (replayed.failure is None):
        diffs.append(f"failure {run.failure!r} → {replayed.failure!r}")
    elif run.failure is not None and replayed.failure is not None:
        for key in ("step", "kind", "detail"):
            if run.failure.get(key) != replayed.failure.get(key):
                diffs.append(
                    f"failure {key} {run.failure.get(key)!r} → "
                    f"{replayed.failure.get(key)!r}"
                )
    if run.counters != replayed.counters:
        changed = {
            k
            for k in set(run.counters) | set(replayed.counters)
            if run.counters.get(k, 0) != replayed.counters.get(k, 0)
        }
        diffs.append(f"counters differ: {sorted(changed)}")
    if run.fingerprint != replayed.fingerprint:
        diffs.append(
            f"fingerprint {run.fingerprint[:16]}… → {replayed.fingerprint[:16]}…"
        )
    return ReplayResult(recorded=run, replayed=replayed, diffs=diffs)
