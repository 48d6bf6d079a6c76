"""The transcript fingerprint of an engine driven one ``step()`` at a time.

These tests keep the transcript's full rendering as a reference and
hold ``fingerprint()`` equal to it after every step, ``run`` equal to
``step`` plus ``finish``, and a ``pickle`` or ``deepcopy`` of a live
engine equal to the original as both continue.  Serving slices step
the engine without hashing anything."""

from __future__ import annotations

import copy
import hashlib
import pickle

import pytest

from repro.fuzz import SCHEDULES, FuzzEngine
from repro.obs import metric_names
from repro.serve.session import Session


def counter_lines(engine: FuzzEngine) -> list[str]:
    """The fixed set of hypervisor counts, read from the registry."""
    counts = engine.env.machine.obs.metrics.hypervisor_counts()
    flat = {"exit_cycles": counts.pop("exit_cycles")}
    for name, by_label in counts.items():
        flat.update((f"{name}.{key}", n) for key, n in by_label.items())
    return [f"counter {name}={value}" for name, value in sorted(flat.items())]


def reference(engine: FuzzEngine) -> str:
    """The whole transcript rendered from scratch, line by line."""
    env = engine.env
    lines = [f"seed={engine.seed} schedule={engine.schedule}"]
    lines += [step.describe() for step in engine.steps]
    lines.append(f"clock={env.machine.clock.now}")
    lines += counter_lines(engine)
    lines += [f"config {tsc} {detail}" for tsc, detail in env.controller.config_log]
    lines += [
        f"fault {f.enclave_id} {f.key().kind}/{f.key().detail_class}"
        for f in env.controller.fault_log
    ]
    lines += [
        f"rtrace {tsc} {kind} {detail}" for tsc, kind, detail in env.recovery.trace
    ]
    lines += [
        f"pending {when} {seq} {tag}"
        for when, seq, tag in env.machine.events.pending_summary()
    ]
    lines.append(f"dead={sorted(engine.oracles.dead_enclave_ids)}")
    digest = hashlib.sha256()
    for line in lines:
        digest.update(line.encode())
        digest.update(b"\n")
    return digest.hexdigest()


@pytest.mark.parametrize("seed", [3, 8])
@pytest.mark.parametrize("schedule", sorted(SCHEDULES))
def test_fingerprint_equals_reference_after_every_step(schedule, seed):
    engine = FuzzEngine(seed=seed, schedule=schedule)
    assert engine.fingerprint() == reference(engine)
    for _ in range(80):
        engine.step()
        assert engine.fingerprint() == reference(engine)
    assert engine.failure is None


@pytest.mark.parametrize("schedule", sorted(SCHEDULES))
def test_run_equals_steps_then_finish(schedule):
    run = FuzzEngine(seed=21, schedule=schedule).run(40)
    engine = FuzzEngine(seed=21, schedule=schedule)
    for _ in range(40):
        engine.step()
    stepped = engine.finish()
    assert [s.describe() for s in stepped.steps] == [
        s.describe() for s in run.steps
    ]
    assert stepped.counters == run.counters
    assert stepped.fingerprint == run.fingerprint


@pytest.mark.parametrize(
    "clone", [lambda e: pickle.loads(pickle.dumps(e)), copy.deepcopy],
    ids=["pickle", "deepcopy"],
)
def test_copied_engine_continues_to_the_same_fingerprint(clone):
    engine = FuzzEngine(seed=7, schedule="hostile")
    engine.run(30)
    copied = clone(engine)
    assert copied.fingerprint() == engine.fingerprint()
    assert copied.run(20).fingerprint == engine.run(20).fingerprint


def test_advance_hashes_nothing(monkeypatch):
    fingerprints = 0
    real_fingerprint = FuzzEngine.fingerprint

    def counting_fingerprint(self):
        nonlocal fingerprints
        fingerprints += 1
        return real_fingerprint(self)

    monkeypatch.setattr(FuzzEngine, "fingerprint", counting_fingerprint)
    session = Session("s1", "alice", "baseline", 5)
    while session.steps_applied < 100:
        session.advance(20_000_000)
    assert fingerprints == 0
    assert session.engine.fingerprint() == reference(session.engine)
    assert fingerprints == 1


def test_unrelated_metrics_leave_the_fingerprint_alone():
    """The fingerprint hashes a fixed set of hypervisor counts, so a
    metric outside it, even a hypervisor one under the same labels,
    never moves it."""
    engine = FuzzEngine(seed=3, schedule="hostile")
    engine.run(40)
    before = engine.fingerprint()
    metrics = engine.env.machine.obs.metrics
    metrics.counter("unrelated.count").inc(reason="cpuid", core=1, enclave=1)
    metrics.counter(metric_names.TERMINATIONS).inc(kind="x", core=1, enclave=1)
    metrics.histogram("unrelated.cycles").observe(5_000, reason="cpuid")
    assert engine.fingerprint() == before
    metrics.counter(metric_names.EXITS).inc(reason="cpuid", core=1, enclave=1)
    assert engine.fingerprint() != before


def test_wrapped_transcript_keeps_its_fingerprint():
    """This run records 562 recovery-transcript entries, so the oldest 50
    have left the 512-entry window by the time it is hashed: the one pinned
    run whose fingerprint covers a wrapped transcript."""
    engine = FuzzEngine(seed=1004, schedule="recovery")
    run = engine.run(300)
    assert len(engine.env.recovery.trace) == 512
    assert run.fingerprint == (
        "aafa8d9bc678ce7c2cb234bd5ef6faf845087d9f6723ea9e3ce84f3f417569b4"
    )
