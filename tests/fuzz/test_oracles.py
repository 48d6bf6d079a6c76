"""The ``scrub-clean`` oracle catches every resource a dead enclave
keeps, and words each violation the same way.

A clean run never trips it, so each test plants one leak for the first
enclave id that dies in ``FuzzEngine(seed=3, schedule="churn")`` and
checks the exact violation text."""

from __future__ import annotations

import pytest

from repro.fuzz import FuzzEngine, OracleViolation
from repro.hw.memory import MemoryRegion
from repro.xemem.segment import Segment

GiB = 1 << 30


@pytest.fixture
def first_death():
    """``(engine, contexts)`` right after the engine's first death;
    ``contexts`` maps every enclave id it ever ran to its context."""
    engine = FuzzEngine(seed=3, schedule="churn")
    contexts = {}
    while not engine.oracles.dead_enclave_ids:
        contexts.update(engine.env.controller.contexts)
        engine.run(1)
    assert engine.failure is None
    assert engine.oracles.dead_enclave_ids == {1}
    return engine, contexts


@pytest.fixture
def engine(first_death):
    return first_death[0]


def scrub_clean(engine: FuzzEngine) -> None:
    dict(engine.oracles._oracles())["scrub-clean"](engine.env)


def violation(engine: FuzzEngine) -> str:
    with pytest.raises(OracleViolation) as exc:
        scrub_clean(engine)
    assert exc.value.oracle == "scrub-clean"
    return str(exc.value)


def test_clean_after_first_death(engine):
    scrub_clean(engine)
    assert "scrub-clean" in engine.oracles.check_all()


def test_leftover_controller_context(first_death):
    engine, contexts = first_death
    engine.env.controller.contexts[1] = contexts[1]
    assert violation(engine) == (
        "[scrub-clean] controller still holds a context for dead enclave 1"
    )


@pytest.mark.parametrize("label", ["enclave:1", "covirt:1"])
def test_memory_still_labelled_with_the_dead_id(engine, label):
    engine.env.machine.memory.set_owner(MemoryRegion(50 * GiB, 0x2000), label)
    expected = (
        f"[scrub-clean] dead enclave 1 still owns 0x2000 bytes as {label!r}"
    )
    assert violation(engine) == expected
    # The full pack reaches the same verdict.
    with pytest.raises(OracleViolation) as exc:
        engine.oracles.check_all()
    assert str(exc.value) == expected


@pytest.mark.parametrize(
    "dest, senders", [(2, {1}), (1, set())], ids=["sender", "destination"]
)
def test_vector_grant_naming_the_dead_id(engine, dest, senders):
    engine.env.mcp.vectors.allocate(
        dest_core=4, dest_enclave_id=dest, allowed_senders=senders,
        purpose="leak",
    )
    assert violation(engine) == (
        "[scrub-clean] dead enclave 1 still involved in 1 vector grants"
    )


def test_xemem_segment_exported_by_the_dead_id(engine):
    names = engine.env.mcp.xemem.names
    names.register(
        Segment(names.allocate_segid(), "leak", 1, 50 * GiB, 0x1000)
    )
    assert violation(engine) == (
        "[scrub-clean] dead enclave 1 still exports XEMEM segments ['leak']"
    )


def test_dead_id_reused_by_a_running_incarnation_passes(engine):
    env = engine.env
    live = next(
        ctx for eid, ctx in env.controller.contexts.items() if eid != 1
    )
    env.controller.contexts[1] = live
    # A running incarnation under the id owns what it owns.
    env.machine.memory.set_owner(MemoryRegion(50 * GiB, 0x2000), "enclave:1")
    scrub_clean(engine)
