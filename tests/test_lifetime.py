"""Lifetime gate: a finished machine is freed by reference counting.

Each scenario builds what it needs, drives it, ends it the way its owner
does (``close()``, ``Session.kill``, a finished claim driver) and drops
every reference.  The cycle collector is disabled for the whole
scenario; a collection afterwards, with ``gc.DEBUG_SAVEALL``, must then
find no object of a ``repro`` class: anything it finds was kept alive
only by a reference cycle.  A failure names the (class, attribute)
references inside each remaining cycle, so a new back-reference points
at the attribute to cut in ``close()``, ``Enclave.release()`` or the
layer that registered it.
"""

from __future__ import annotations

import gc
from collections import Counter
from typing import Any, Callable

import pytest

from repro.cli import main as cli_main
from repro.fuzz.engine import SCHEDULES, FuzzEngine
from repro.fuzz.pool import _execute_payload
from repro.harness import experiments as ex
from repro.harness import verify
from repro.serve.client import ServeClient
from repro.serve.daemon import ServeDaemon
from repro.serve.protocol import E_NO_SUCH_SESSION, ServeError
from repro.serve.registry import SessionRegistry, TenantQuota
from repro.serve.scheduler import CooperativeScheduler, RunJob


def _is_repro(obj: Any) -> bool:
    return type(obj).__module__.startswith("repro.")


def _components(objects: list[Any]) -> list[list[Any]]:
    """Strongly connected components (more than one object, or one that
    refers to itself) of the reference graph among ``objects``."""
    by_id = {id(obj): obj for obj in objects}
    succ = {
        key: [id(ref) for ref in gc.get_referents(obj) if id(ref) in by_id]
        for key, obj in by_id.items()
    }
    index: dict[int, int] = {}
    low: dict[int, int] = {}
    stack: list[int] = []
    on_stack: set[int] = set()
    found: list[list[Any]] = []
    for root in by_id:
        if root in index:
            continue
        work = [(root, 0)]
        while work:
            node, pos = work.pop()
            if pos == 0:
                index[node] = low[node] = len(index)
                stack.append(node)
                on_stack.add(node)
            for i in range(pos, len(succ[node])):
                nxt = succ[node][i]
                if nxt not in index:
                    work.append((node, i + 1))
                    work.append((nxt, 0))
                    break
                if nxt in on_stack:
                    low[node] = min(low[node], index[nxt])
            else:
                if low[node] == index[node]:
                    members = []
                    while True:
                        member = stack.pop()
                        on_stack.discard(member)
                        members.append(member)
                        if member == node:
                            break
                    if len(members) > 1 or node in succ[node]:
                        found.append([by_id[m] for m in members])
                if work:
                    parent = work[-1][0]
                    low[parent] = min(low[parent], low[node])
    return found


def _attributes(obj: Any) -> list[tuple[str, Any]]:
    items = list(getattr(obj, "__dict__", {}).items())
    for cls in type(obj).__mro__:
        for name in getattr(cls, "__slots__", ()):
            if hasattr(obj, name):
                items.append((name, getattr(obj, name)))
    return items


def cycle_edges(garbage: list[Any]) -> list[str]:
    """``Class.attribute`` for every attribute of a ``repro`` object that
    leads, through objects of the same cycle, to another ``repro``
    object of that cycle."""
    edges: set[str] = set()
    for members in _components(garbage):
        inside = {id(obj) for obj in members}
        for obj in members:
            if not _is_repro(obj):
                continue
            for name, value in _attributes(obj):
                todo, seen = [value], set()
                while todo:
                    ref = todo.pop()
                    if id(ref) not in inside or id(ref) in seen:
                        continue
                    seen.add(id(ref))
                    if _is_repro(ref):
                        edges.add(f"{type(obj).__qualname__}.{name}")
                        break
                    todo.extend(gc.get_referents(ref))
    return sorted(edges)


def assert_freed_by_refcount(scenario: Callable[[], None]) -> None:
    """Run ``scenario`` with the cycle collector off; everything of a
    ``repro`` class it made must be gone once it returns."""
    gc.collect()
    enabled = gc.isenabled()
    gc.disable()
    try:
        scenario()
        gc.set_debug(gc.DEBUG_SAVEALL)
        gc.collect()
        garbage = list(gc.garbage)
        gc.garbage.clear()
    finally:
        gc.set_debug(0)
        if enabled:
            gc.enable()
    left = Counter(type(obj).__qualname__ for obj in garbage if _is_repro(obj))
    edges = cycle_edges(garbage)
    del garbage
    assert not left, (
        f"{sum(left.values())} repro objects were left to the cycle "
        f"collector ({dict(left.most_common(8))}); references inside "
        f"the cycles: {', '.join(edges)}"
    )


@pytest.mark.parametrize("seed", [1, 2, 3])
@pytest.mark.parametrize("schedule", sorted(SCHEDULES))
def test_finished_engine_is_freed(schedule, seed):
    def scenario():
        engine = FuzzEngine(seed=seed, schedule=schedule)
        engine.run(60)
        engine.close()

    assert_freed_by_refcount(scenario)


def test_engine_that_hits_a_simulator_error_is_freed(corrupt_queue_header):
    # Step 26 raises "corrupt queue header" inside the simulator.
    def scenario():
        with FuzzEngine(seed=28, schedule="churn") as engine:
            engine.run(20)
            corrupt_queue_header(engine.env)
            assert engine.run(20).failure["step"] == 26

    assert_freed_by_refcount(scenario)


def test_campaign_executions_are_freed():
    seed_run = _execute_payload(
        {"index": 0, "mode": "seed", "seed": 5, "schedule": "hostile",
         "steps": 30}
    )

    def scenario():
        _execute_payload(
            {"index": 1, "mode": "mutant", "seed": 6, "schedule": "hostile",
             "parent_actions": [
                 step["action"] for step in seed_run["run"]["steps"]
             ],
             "parent_fingerprint": seed_run["run"]["fingerprint"]}
        )

    assert_freed_by_refcount(scenario)


def test_killed_session_is_freed():
    def scenario():
        registry = SessionRegistry()
        session = registry.launch("t", "hostile", 3)
        session.step(12)
        with pytest.raises(ServeError):
            session.inject("crash", {})
        registry.kill("t", session.session_id)

    assert_freed_by_refcount(scenario)


def test_killed_session_with_a_queued_run_is_freed():
    def scenario():
        registry = SessionRegistry(TenantQuota(max_cycles_per_slice=5_000_000))
        session = registry.launch("t", "baseline", 7)
        session.step(2)
        scheduler = CooperativeScheduler()
        codes: list[str | None] = []
        scheduler.submit(
            RunJob(
                session, 2_000_000_000, 5_000_000,
                on_done=lambda result, err: codes.append(err and err.code),
            )
        )
        scheduler.tick()
        registry.kill("t", session.session_id)
        del session
        scheduler.drain()
        assert codes == [E_NO_SUCH_SESSION]

    assert_freed_by_refcount(scenario)


def test_session_killed_through_the_daemon_is_freed():
    daemon = ServeDaemon(
        tcp=("127.0.0.1", 0),
        quota=TenantQuota(max_cycles_per_slice=5_000_000),
    )
    daemon.start()

    def scenario():
        with ServeClient(daemon.endpoint, tenant="t") as client:
            sid = client.launch(scenario="hostile", seed=2)["session_id"]
            client.step(sid, steps=2)
            client.run(sid, cycles=20_000_000)
            client.kill(sid)

    try:
        assert_freed_by_refcount(scenario)
    finally:
        daemon.stop()


@pytest.mark.parametrize(
    "driver", [driver for _name, driver, _claims in verify.CLAIMS],
    ids=[name for name, _driver, _claims in verify.CLAIMS],
)
def test_claim_driver_frees_its_environment(driver):
    assert_freed_by_refcount(driver)


def test_figure_run_frees_its_environment(capsys):
    # ``repro run fig7``: the figure's rows on an environment it closes.
    assert_freed_by_refcount(lambda: cli_main(["run", "fig7"]))
    assert "Fig. 7" in capsys.readouterr().out


def test_ablation_frees_its_environments():
    assert_freed_by_refcount(ex.run_ablation_async_config)
