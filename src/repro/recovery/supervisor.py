"""The per-enclave recovery supervisor.

The supervisor tracks a *service* — a named workload that survives
across enclave incarnations (a relaunch mints a fresh enclave id, so
the id cannot be the identity).  It subscribes to both fault sources:

* the Covirt controller's fault hooks, fired after a hypervisor
  terminates a guest and the dossier is collected; and
* the MCP's ``on_enclave_failed`` hooks, fired after dependencies are
  severed and resources reclaimed (this also catches terminations that
  never passed through a Covirt hypervisor).

Both funnel into the same state machine:

    RUNNING → TERMINATED → SCRUBBING → RELAUNCHING → REPLAYING → RUNNING

with three terminal parks: QUARANTINED (policy: same bug keeps
recurring), GIVEN_UP (policy: retry budget exhausted), and
SCRUB_FAILED (a released resource never returned to the host pool —
relaunching would launder a protection bug, so we refuse).

The hooks fire *inside* Covirt's fault path, before the
``EnclaveFaultError`` reaches the guest's caller — so in auto mode the
supervisor must never raise: every failure of recovery itself is
recorded and parked, not thrown.  The manual :meth:`recover` entry
point, by contrast, raises :class:`ScrubError` so tests (and
operators) can assert rejection.
"""

from __future__ import annotations

import enum
from collections import deque
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from repro.core.faults import CovirtFault, FaultKey, key_from_record
from repro.core.features import CovirtConfig
from repro.obs import metric_names
from repro.pisces.enclave import Enclave, EnclaveState, FaultRecord
from repro.pisces.resources import ResourceSpec
from repro.recovery.checkpoint import CheckpointManager, EnclaveCheckpoint
from repro.recovery.metrics import RecoveryMetrics, RecoveryRecord
from repro.recovery.policy import (
    PolicyContext,
    RecoveryAction,
    RecoveryPolicy,
    RestartWithBackoff,
)
from repro.recovery.replay import ReplayEngine, ReplayReport
from repro.recovery.scrub import ResourceScrubber, ScrubError

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.controller import CovirtController
    from repro.hobbes.master import MasterControlProcess
    from repro.hw.machine import Machine
    from repro.linuxhost.host import LinuxHost

#: Depth of the supervisor's recovery transcript; the oldest entries go first.
SUPERVISOR_TRACE_DEPTH = 512


class RecoveryPhase(enum.Enum):
    RUNNING = "running"
    TERMINATED = "terminated"
    SCRUBBING = "scrubbing"
    RELAUNCHING = "relaunching"
    REPLAYING = "replaying"
    # terminal parks:
    QUARANTINED = "quarantined"
    GIVEN_UP = "given-up"
    SCRUB_FAILED = "scrub-failed"

    @property
    def terminal(self) -> bool:
        return self in (
            RecoveryPhase.QUARANTINED,
            RecoveryPhase.GIVEN_UP,
            RecoveryPhase.SCRUB_FAILED,
        )


@dataclass
class SupervisedService:
    """A logical workload tracked across enclave incarnations."""

    name: str
    spec: ResourceSpec
    config: CovirtConfig | None
    policy: RecoveryPolicy
    enclave: Enclave
    phase: RecoveryPhase = RecoveryPhase.RUNNING
    incarnation: int = 1
    #: Every fault this service has taken, across incarnations.
    history: list[FaultKey] = field(default_factory=list)
    #: Set when a failure was observed but recovery hasn't run
    #: (auto=False, or a scrub rejection awaiting operator action).
    pending_key: FaultKey | None = None
    #: ids of every dead incarnation, oldest first.
    past_enclave_ids: list[int] = field(default_factory=list)
    last_replay: ReplayReport | None = None

    @property
    def enclave_id(self) -> int:
        return self.enclave.enclave_id


class RecoverySupervisor:
    """Supervises enclaves and drives the recovery state machine."""

    def __init__(
        self,
        machine: "Machine",
        host: "LinuxHost",
        mcp: "MasterControlProcess",
        controller: "CovirtController | None" = None,
        *,
        auto: bool = True,
        checkpoint_interval_cycles: int = 50_000_000,
    ) -> None:
        self.machine = machine
        self.host = host
        self.mcp = mcp
        self.controller = controller
        self.auto = auto
        costs = controller.costs if controller is not None else None
        from repro.perf.costs import DEFAULT_COSTS

        self.costs = costs if costs is not None else DEFAULT_COSTS
        self.checkpoints = CheckpointManager(
            machine, mcp, self.costs, interval_cycles=checkpoint_interval_cycles
        )
        self.scrubber = ResourceScrubber(
            machine, host, mcp, controller, self.costs.scrub_per_check
        )
        self.replayer = ReplayEngine(mcp, controller, self.costs.replay_per_command)
        self.metrics = RecoveryMetrics(machine.obs.metrics)
        #: The recovery transcript: ``(tsc, kind, detail)`` tuples, oldest
        #: first.  The supervisor appends ``checkpoint`` and ``recover``
        #: entries, the fuzz engine ``inject`` and ``oracle`` ones, and
        #: every entry is an ``rtrace`` line of the fuzz fingerprint.
        self.trace: deque[tuple[int, str, str]] = deque(
            maxlen=SUPERVISOR_TRACE_DEPTH
        )
        self.services: dict[str, SupervisedService] = {}
        #: Observers fired on every phase transition, after the phase is
        #: assigned.  The fuzz engine uses this seam to inject faults
        #: *mid-recovery* (a sibling enclave dying while another is being
        #: scrubbed/relaunched); hooks that provoke guest faults must
        #: swallow the resulting ``EnclaveFaultError`` themselves.
        self.phase_hooks: list = []
        mcp.on_enclave_failed.append(self._on_enclave_failed)
        if controller is not None:
            controller.fault_hooks.append(self._on_covirt_fault)
        machine.obs.flight.register_context("recovery", self.flight_summary)

    def close(self) -> None:
        """End the supervisor with its environment: drop its phase
        observers (the fuzz engine's, whose engine holds this
        supervisor)."""
        self.phase_hooks.clear()

    def flight_summary(self) -> dict:
        """Deterministic service-state summary for post-mortem bundles."""
        return {
            name: {
                "phase": service.phase.value,
                "incarnation": service.incarnation,
                "enclave_id": service.enclave.enclave_id,
                "faults": [key.describe() for key in service.history],
                "policy": service.policy.name,
            }
            for name, service in sorted(self.services.items())
        }

    def _set_phase(self, service: SupervisedService, phase: RecoveryPhase) -> None:
        """Single funnel for phase transitions, so observers see every
        step of the state machine in order."""
        service.phase = phase
        flight = self.machine.obs.flight
        flight.note(
            "recovery-phase",
            f"{service.name!r} → {phase.value}",
            incarnation=service.incarnation,
        )
        for hook in list(self.phase_hooks):
            hook(service, phase)
        if phase.terminal:
            # A terminal park is the recovery layer's containment event:
            # snapshot why the service will not come back.
            flight.postmortem(
                "recovery-parked",
                f"service {service.name!r} parked in {phase.value}",
                service=service.name,
                phase=phase.value,
                incarnation=service.incarnation,
            )

    # -- registration ----------------------------------------------------

    def supervise(
        self,
        enclave: Enclave,
        policy: RecoveryPolicy | None = None,
        config: CovirtConfig | None = None,
        name: str | None = None,
    ) -> SupervisedService:
        """Put an already-launched enclave under supervision and take
        its baseline checkpoint."""
        service_name = name or enclave.name
        if service_name in self.services:
            raise ValueError(f"service {service_name!r} already supervised")
        if config is None and self.controller is not None:
            ctx = self.controller.context_for(enclave.enclave_id)
            config = ctx.config if ctx is not None else None
        service = SupervisedService(
            name=service_name,
            spec=enclave.spec,
            config=config,
            policy=policy or RestartWithBackoff(),
            enclave=enclave,
        )
        self.services[service_name] = service
        cp = self.checkpoints.checkpoint(enclave)
        self._note_checkpoint(cp, service_name)
        self._trace(
            "checkpoint",
            f"baseline gen {cp.generation} for {service_name!r}",
        )
        return service

    def service_for_enclave(self, enclave_id: int) -> SupervisedService | None:
        for service in self.services.values():
            if service.enclave.enclave_id == enclave_id:
                return service
        return None

    # -- periodic checkpointing ------------------------------------------

    def tick(self) -> list[EnclaveCheckpoint]:
        """Take a checkpoint of every RUNNING service whose interval
        elapsed.  Call from the workload driver's housekeeping loop."""
        taken = []
        for service in self.services.values():
            if service.phase is not RecoveryPhase.RUNNING:
                continue
            if not self.checkpoints.due(service.enclave_id):
                continue
            taken.append(self.checkpoint_now(service.name))
        return taken

    def checkpoint_now(self, name: str) -> EnclaveCheckpoint:
        service = self.services[name]
        cp = self.checkpoints.checkpoint(service.enclave)
        self._note_checkpoint(cp, name)
        self._trace(
            "checkpoint",
            f"gen {cp.generation} for {name!r} "
            f"(dirty: {','.join(cp.dirty_sections) or 'none'})",
        )
        return cp

    # -- fault subscriptions ---------------------------------------------

    def _on_covirt_fault(self, fault: CovirtFault) -> None:
        """Controller hook: fires after dossier collection + reclaim.
        Normally a no-op — the MCP hook below has already recovered the
        service by the time this runs — but it catches Covirt faults on
        frameworks that bypass the MCP's failure path."""
        service = self.service_for_enclave(fault.enclave_id)
        if service is None or service.phase is not RecoveryPhase.RUNNING:
            return
        self._observe_failure(service, fault.key())

    def _on_enclave_failed(self, enclave_id: int, record: FaultRecord) -> None:
        """MCP hook: fires inside ``enclave_failed`` once dependencies
        are severed and resources reclaimed — the earliest moment a
        relaunch can safely allocate."""
        service = self.service_for_enclave(enclave_id)
        if service is None or service.phase is not RecoveryPhase.RUNNING:
            return
        self._observe_failure(service, key_from_record(enclave_id, record))

    def _observe_failure(self, service: SupervisedService, key: FaultKey) -> None:
        detection_tsc = self.machine.clock.now
        self.machine.obs.tracer.instant(
            "recovery.detected",
            category="recovery",
            track="recovery",
            service=service.name,
            kind=key.kind,
        )
        self._set_phase(service, RecoveryPhase.TERMINATED)
        service.history.append(key)
        service.pending_key = key
        self._trace(
            "recover",
            f"{service.name!r} down: {key.describe()} "
            f"(incarnation {service.incarnation})",
        )
        if not self.auto:
            return
        try:
            self._recover(service, key, detection_tsc, raise_on_scrub=False)
        except Exception as exc:  # recovery must never poison the fault path
            self._set_phase(service, RecoveryPhase.GIVEN_UP)
            self._trace(
                "recover",
                f"{service.name!r} recovery aborted: {exc}",
            )
            self.metrics.records.append(
                RecoveryRecord(
                    service=service.name,
                    key=key,
                    policy=service.policy.name,
                    outcome="gave-up",
                    detection_tsc=detection_tsc,
                    completion_tsc=self.machine.clock.now,
                    incarnation=service.incarnation,
                )
            )

    # -- manual entry point ----------------------------------------------

    def recover(self, name: str) -> SupervisedService:
        """Operator-driven recovery of a parked service.  Unlike the
        auto path this *raises* :class:`ScrubError` on a dirty scrub."""
        service = self.services[name]
        if service.phase is RecoveryPhase.RUNNING:
            raise ValueError(f"service {name!r} is running; nothing to recover")
        key = service.pending_key or (service.history[-1] if service.history else None)
        if key is None:
            raise ValueError(f"service {name!r} has no recorded fault")
        self._recover(service, key, self.machine.clock.now, raise_on_scrub=True)
        return service

    # -- the state machine -----------------------------------------------

    def _recover(
        self,
        service: SupervisedService,
        key: FaultKey,
        detection_tsc: int,
        *,
        raise_on_scrub: bool,
    ) -> None:
        with self.machine.obs.tracer.span(
            "recovery.recover",
            category="recovery",
            track="recovery",
            service=service.name,
            kind=key.kind,
        ):
            self._recover_inner(
                service, key, detection_tsc, raise_on_scrub=raise_on_scrub
            )

    def _recover_inner(
        self,
        service: SupervisedService,
        key: FaultKey,
        detection_tsc: int,
        *,
        raise_on_scrub: bool,
    ) -> None:
        tracer = self.machine.obs.tracer
        old_id = service.enclave.enclave_id
        old_cores = tuple(service.enclave.assignment.core_ids)
        checkpoint = self.checkpoints.latest.get(old_id)
        base_spec = (
            checkpoint.resources.to_spec() if checkpoint is not None else service.spec
        )

        decision = service.policy.decide(
            PolicyContext(
                key=key,
                history=list(service.history),
                detection_tsc=detection_tsc,
                spec=base_spec,
                num_zones=self.machine.topology.num_zones,
            )
        )
        self._trace("recover", f"{service.name!r}: {decision.reason}")

        def park(phase: RecoveryPhase, outcome: str, **extra) -> None:
            self._set_phase(service, phase)
            self.metrics.records.append(
                RecoveryRecord(
                    service=service.name,
                    key=key,
                    policy=service.policy.name,
                    outcome=outcome,
                    detection_tsc=detection_tsc,
                    completion_tsc=self.machine.clock.now,
                    incarnation=service.incarnation,
                    **extra,
                )
            )

        if decision.action is RecoveryAction.QUARANTINE:
            park(RecoveryPhase.QUARANTINED, "quarantined")
            return
        if decision.action is RecoveryAction.GIVE_UP:
            park(RecoveryPhase.GIVEN_UP, "gave-up")
            return

        # Backoff: wall-clock delay on the simulated clock (advance, not
        # elapse — the machine is idle, no timers should fire for us).
        if decision.delay_cycles:
            before = self.machine.clock.now
            self.machine.clock.advance(decision.delay_cycles)
            tracer.complete(
                "recovery.backoff",
                before,
                self.machine.clock.now,
                category="recovery",
                track="recovery",
            )

        # SCRUBBING — refuse to relaunch over leaked resources.
        self._set_phase(service, RecoveryPhase.SCRUBBING)
        with tracer.span(
            "recovery.scrub", category="recovery", track="recovery"
        ):
            scrub_report = self.scrubber.scrub(old_id, old_cores)
        if not scrub_report.clean:
            self._set_phase(service, RecoveryPhase.SCRUB_FAILED)
            self._trace(
                "recover",
                f"{service.name!r} scrub rejected relaunch: "
                + "; ".join(scrub_report.violations),
            )
            self.metrics.records.append(
                RecoveryRecord(
                    service=service.name,
                    key=key,
                    policy=service.policy.name,
                    outcome="scrub-failed",
                    detection_tsc=detection_tsc,
                    completion_tsc=self.machine.clock.now,
                    incarnation=service.incarnation,
                    backoff_cycles=decision.delay_cycles,
                    scrub_cycles=scrub_report.cost_cycles,
                )
            )
            if raise_on_scrub:
                raise ScrubError(scrub_report)
            return

        # RELAUNCHING — same create → boot → wire path as a first launch.
        self._set_phase(service, RecoveryPhase.RELAUNCHING)
        spec = decision.respec or base_spec
        with tracer.span(
            "recovery.relaunch", category="recovery", track="recovery"
        ):
            if self.controller is not None and service.config is not None:
                new_enclave = self.controller.launch(spec, service.config)
            else:
                new_enclave = self.mcp.relaunch_enclave(spec)

        # REPLAYING — restore exports, grants, tasks, pending commands.
        self._set_phase(service, RecoveryPhase.REPLAYING)
        with tracer.span(
            "recovery.replay", category="recovery", track="recovery"
        ):
            if checkpoint is not None:
                replay_report = self.replayer.replay(checkpoint, new_enclave)
            else:
                replay_report = ReplayReport(old_id, new_enclave.enclave_id)
        service.last_replay = replay_report

        # Back to RUNNING under the service's identity.
        old_enclave = self.mcp.kmod.enclaves.get(old_id)
        if old_enclave is not None:
            old_enclave.state = EnclaveState.RECOVERED
            old_enclave.successor_id = new_enclave.enclave_id
        service.past_enclave_ids.append(old_id)
        service.enclave = new_enclave
        service.spec = spec
        service.incarnation += 1
        new_enclave.incarnation = service.incarnation
        self._set_phase(service, RecoveryPhase.RUNNING)
        service.pending_key = None

        completion_tsc = self.machine.clock.now
        self.machine.obs.metrics.histogram(
            metric_names.MTTR_CYCLES,
            "detection → RUNNING recovery latency (cycles)",
        ).observe(completion_tsc - detection_tsc, kind=key.kind)
        self.metrics.records.append(
            RecoveryRecord(
                service=service.name,
                key=key,
                policy=service.policy.name,
                outcome="recovered",
                detection_tsc=detection_tsc,
                completion_tsc=completion_tsc,
                incarnation=service.incarnation,
                backoff_cycles=decision.delay_cycles,
                scrub_cycles=scrub_report.cost_cycles,
                replay_length=replay_report.replay_length,
                replay_cycles=replay_report.cost_cycles,
                commands_replayed=len(replay_report.commands_replayed),
            )
        )
        self._trace(
            "recover",
            f"{service.name!r} recovered as enclave {new_enclave.enclave_id} "
            f"(incarnation {service.incarnation}, "
            f"MTTR {completion_tsc - detection_tsc} cycles)",
        )
        # Fresh baseline for the new incarnation.
        cp = self.checkpoints.rebase(old_id, new_enclave)
        self._note_checkpoint(cp, service.name)

    # -- helpers ---------------------------------------------------------

    def _trace(self, kind: str, detail: str) -> None:
        self.trace.append((self.machine.clock.now, kind, detail))

    def _note_checkpoint(self, cp: EnclaveCheckpoint, name: str) -> None:
        """Record one checkpoint as a span and in the machine's metrics
        registry, where :class:`RecoveryMetrics` reads its totals."""
        obs = self.machine.obs
        obs.tracer.complete(
            "recovery.checkpoint",
            cp.tsc - cp.cost_cycles,
            cp.tsc,
            category="recovery",
            track="recovery",
            service=name,
            generation=cp.generation,
        )
        obs.metrics.histogram(
            metric_names.CHECKPOINT_CYCLES, "per-checkpoint cost (cycles)"
        ).observe(cp.cost_cycles)
        obs.metrics.histogram(
            metric_names.CHECKPOINT_BYTES,
            "approximate serialized checkpoint size (bytes)",
            buckets=(256, 512, 1024, 2048, 4096, 8192, 16384, 65536),
        ).observe(cp.approx_bytes)
