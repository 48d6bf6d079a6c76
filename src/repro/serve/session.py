"""One served session: a whole simulated Covirt machine behind an id.

A :class:`Session` owns a private
:class:`~repro.harness.env.CovirtEnvironment` driven by a seeded
:class:`~repro.fuzz.engine.FuzzEngine` — the *scenario* is a fuzz
schedule name (``baseline``, ``hostile``, ``churn``, ``recovery``), so a
session's behaviour is a pure function of ``(scenario, seed, sequence
of client operations)``.  Two sessions launched with the same scenario
and seed and driven with the same requests produce identical per-step
outcomes no matter what any *other* session on the daemon is doing:
sessions share no simulator state at all, which is the serving layer's
isolation claim.

Crash containment: any exception escaping session work (or a fuzz
failure the engine's oracles detect) **parks** the session — it stops
accepting mutating requests, freezes a post-mortem bundle through the
machine's always-on :class:`~repro.obs.flight.FlightRecorder`, and
leaves every other session untouched.  Parked sessions stay
inspectable (``session.inspect`` / ``session.trace``) for debugging and
can be killed, mirroring the recovery supervisor's terminal-park
semantics one layer up.
"""

from __future__ import annotations

import enum
from typing import Any

from repro.fuzz.actions import Action, ActionKind
from repro.fuzz.engine import MAX_SLOTS, SCHEDULES, FuzzEngine
from repro.fuzz.mutate import validate_action
from repro.pisces.enclave import EnclaveState
from repro.serve.protocol import (
    E_INVALID_PARAMS,
    E_NO_SUCH_SESSION,
    E_SESSION_PARKED,
    ServeError,
)

#: Scenario names a client may launch (the fuzz schedule tables).
SCENARIOS: tuple[str, ...] = tuple(sorted(SCHEDULES))

#: Hard cap on fuzz steps applied within one scheduler slice; beyond it
#: the slice's remaining cycle budget is burned as idle time so the
#: cycle contract holds without unbounded per-slice work.
MAX_STEPS_PER_SLICE = 64

#: Post-mortem trigger recorded when the serving layer parks a session.
PARK_TRIGGER = "serve-parked"

#: The debug/chaos injection kind: raises inside the session so tests
#: (and operators) can prove crash containment end to end.
CRASH_KIND = "crash"


class SessionState(enum.Enum):
    RUNNING = "running"
    PARKED = "parked"
    KILLED = "killed"


class SessionCrashed(RuntimeError):
    """Raised by an injected ``crash`` action (never caught inside the
    session — the containment path must handle it)."""


class Session:
    """A tenant's simulated machine, steppable in budgeted slices."""

    def __init__(
        self, session_id: str, tenant: str, scenario: str, seed: int
    ) -> None:
        if scenario not in SCHEDULES:
            raise ServeError(
                E_INVALID_PARAMS,
                f"unknown scenario {scenario!r}; choose from "
                f"{', '.join(SCENARIOS)}",
            )
        self.session_id = session_id
        self.tenant = tenant
        self.scenario = scenario
        self.seed = int(seed)
        self.engine = FuzzEngine(seed=self.seed, schedule=scenario)
        self.env = self.engine.env
        self.state = SessionState.RUNNING
        self.park_reason: str | None = None
        self.slices_run = 0
        #: Daemon hook: called ``(session)`` once when the session parks.
        self.on_park = None
        # Stamp who this machine belongs to into its flight recorder, so
        # every post-mortem frozen from inside the daemon is attributable
        # on its own (park() adds scheduler-slice context at freeze time).
        self.env.machine.obs.flight.identity = {
            "tenant": tenant,
            "session_id": session_id,
            "scenario": scenario,
            "seed": self.seed,
        }

    # -- state gates -----------------------------------------------------

    @property
    def clock(self) -> int:
        return self.env.machine.clock.now

    @property
    def steps_applied(self) -> int:
        return len(self.engine.steps)

    def require_running(self) -> None:
        if self.state is SessionState.PARKED:
            raise ServeError(
                E_SESSION_PARKED,
                f"session {self.session_id} is parked: {self.park_reason}",
            )
        if self.state is SessionState.KILLED:
            raise ServeError(
                E_NO_SUCH_SESSION, f"session {self.session_id} was killed"
            )

    def park(self, reason: str) -> None:
        """Park the session and freeze its post-mortem bundle (once)."""
        if self.state is not SessionState.RUNNING:
            return
        self.state = SessionState.PARKED
        self.park_reason = reason
        self.env.machine.obs.flight.identity.update(
            {
                "slices_run": self.slices_run,
                "steps_applied": self.steps_applied,
                "clock": self.clock,
            }
        )
        self.env.machine.obs.flight.postmortem(
            PARK_TRIGGER,
            reason,
            session=self.session_id,
            tenant=self.tenant,
            scenario=self.scenario,
            seed=self.seed,
            steps_applied=self.steps_applied,
        )
        if self.on_park is not None:
            self.on_park(self)

    def _contain(self, work):
        """Run session-mutating work; any escape parks this session and
        surfaces as a typed ``session_parked`` error.  An engine-level
        failure (oracle violation, unexpected exception inside a fuzz
        step) parks too — a machine whose invariants broke must not keep
        serving as if nothing happened."""
        self.require_running()
        try:
            result = work()
        except ServeError:
            raise
        except Exception as exc:  # noqa: BLE001 — the containment point
            self.park(f"{type(exc).__name__}: {exc}")
            raise ServeError(
                E_SESSION_PARKED,
                f"session {self.session_id} crashed and was parked: "
                f"{type(exc).__name__}: {exc}",
            ) from None
        if self.engine.failure is not None:
            detail = self.engine.failure
            self.park(f"{detail['kind']} at step {detail['step']}: "
                      f"{detail['detail']}")
            raise ServeError(
                E_SESSION_PARKED,
                f"session {self.session_id} failed and was parked: "
                f"{detail['detail']}",
            )
        return result

    # -- driving ---------------------------------------------------------

    def step(self, steps: int) -> list[dict[str, Any]]:
        """Apply ``steps`` scheduled fuzz actions; return their records."""
        before = self.steps_applied

        def work():
            for _ in range(steps):
                self.engine.step()
                if self.engine.failure is not None:
                    return

        self._contain(work)
        return [self._step_dict(s) for s in self.engine.steps[before:]]

    def advance(self, cycles: int) -> dict[str, Any]:
        """One scheduler slice: advance simulated time by ``cycles``.

        Applies scheduled fuzz actions until the clock has moved at
        least ``cycles`` (actions may overshoot — a TICK is indivisible)
        with at most :data:`MAX_STEPS_PER_SLICE` actions; any remaining
        budget after the step cap elapses as idle machine time so a
        slice always honours its cycle contract.
        """
        start = self.clock
        start_steps = self.steps_applied

        def work():
            applied = 0
            while self.clock - start < cycles and applied < MAX_STEPS_PER_SLICE:
                self.engine.step()
                applied += 1
                if self.engine.failure is not None:
                    return
            shortfall = cycles - (self.clock - start)
            if shortfall > 0:
                self.env.machine.elapse(shortfall)
                self.env.recovery.tick()

        self._contain(work)
        self.slices_run += 1
        return {
            "cycles": self.clock - start,
            "steps": self.steps_applied - start_steps,
            "clock": self.clock,
        }

    def inject(self, kind: str, params: dict[str, Any]) -> dict[str, Any]:
        """Apply one fully resolved fuzz action (no RNG consumed), or the
        special ``crash`` kind, which blows up *inside* the session to
        exercise the containment path.  Params outside the action's
        :data:`~repro.fuzz.mutate.PARAM_DOMAINS` are the client's error,
        not a simulator finding: they answer ``invalid_params`` and
        leave the session untouched."""
        if kind == CRASH_KIND:
            def crash():
                raise SessionCrashed(
                    str(params.get("reason", "injected crash"))
                )

            self._contain(crash)
            raise AssertionError("unreachable")  # pragma: no cover
        try:
            action_kind = ActionKind(kind)
        except ValueError:
            choices = ", ".join(k.value for k in ActionKind)
            raise ServeError(
                E_INVALID_PARAMS,
                f"unknown action kind {kind!r}; choose from {choices} "
                f"or {CRASH_KIND!r}",
            ) from None
        action = Action(action_kind, dict(params))
        problems = validate_action(action)
        if problems:
            raise ServeError(E_INVALID_PARAMS, "; ".join(problems))
        record = self._contain(lambda: self.engine.inject(action))
        return self._step_dict(record)

    # -- observation -----------------------------------------------------

    def _step_dict(self, step) -> dict[str, Any]:
        return {
            "index": step.index,
            "kind": step.action.kind.value,
            "outcome": step.outcome,
            "clock": step.clock,
        }

    def sim_cycles(self) -> int:
        return self.env.machine.furthest_tsc()

    def inspect(self, include_metrics: bool = False) -> dict[str, Any]:
        """The session's control-plane view: enclaves, recovery state,
        exit counts, and (on request) the full metrics registry."""
        enclaves = []
        for slot in range(MAX_SLOTS):
            svc = self.engine.slots[slot]
            if svc is None:
                continue
            enclaves.append(
                {
                    "slot": slot,
                    "name": svc.name,
                    "enclave_id": svc.enclave.enclave_id,
                    "state": svc.enclave.state.value,
                    "phase": svc.phase.value,
                    "incarnation": svc.incarnation,
                }
            )
        registry = self.env.machine.obs.metrics
        doc: dict[str, Any] = {
            "session_id": self.session_id,
            "tenant": self.tenant,
            "scenario": self.scenario,
            "seed": self.seed,
            "state": self.state.value,
            "park_reason": self.park_reason,
            "clock": self.clock,
            "sim_cycles": self.sim_cycles(),
            "steps_applied": self.steps_applied,
            "slices_run": self.slices_run,
            "enclaves": enclaves,
            "exits_by_reason": registry.exit_counts_by_reason(),
            "postmortems": self.env.machine.obs.flight.captured,
            "failure": self.engine.failure,
            # The engine's behavioural-transcript hash: lets clients
            # (and the cross-subsystem conformance tests) prove a served
            # run matches a direct-engine or sweep-harness run of the
            # same (scenario, seed) byte for byte.
            "fingerprint": self.engine.fingerprint(),
        }
        if include_metrics:
            doc["metrics"] = registry.to_dict()
        return doc

    def trace(
        self,
        cursor: int = 0,
        limit: int = 256,
        since_cycle: int | None = None,
    ) -> dict[str, Any]:
        """Stream flight-recorder events (completed spans and metric
        deltas) past ``cursor``, at most ``limit`` per call.  Events that
        wrapped out of the bounded ring before the client caught up are
        reported as ``dropped`` — backlog is explicitly bounded, never
        silently infinite.  ``since_cycle`` narrows the window to events
        stamped at or after that simulated time; events it skips still
        advance the cursor (they are consumed, not deferred)."""
        flight = self.env.machine.obs.flight
        events, next_cursor, dropped = flight.window(cursor, limit, since_cycle)
        return {
            "events": events,
            "cursor": next_cursor,
            "dropped": dropped,
            "recorded": flight.recorded,
        }

    # -- teardown --------------------------------------------------------

    def kill(self) -> dict[str, Any]:
        """Tear down every live enclave and retire the session: its
        machine is closed, and any work still queued for it (a sliced
        ``session.run``) ends with ``no_such_session``."""
        survivors = 0
        for slot in range(MAX_SLOTS):
            svc = self.engine.slots[slot]
            if svc is None:
                continue
            if svc.enclave.state is EnclaveState.RUNNING:
                self.env.recovery.services.pop(svc.name, None)
                self.env.teardown(svc.enclave)
                survivors += 1
            self.engine.slots[slot] = None
        self.state = SessionState.KILLED
        self.engine.close()
        return {
            "session_id": self.session_id,
            "enclaves_torn_down": survivors,
            "steps_applied": self.steps_applied,
            "final_clock": self.clock,
        }
