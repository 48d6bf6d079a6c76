"""The fault-injection engine.

One :class:`FuzzEngine` owns one fresh :class:`CovirtEnvironment` and
drives it with a seeded stream of :class:`~repro.fuzz.actions.Action`\\ s.
Because the whole simulator is deterministic, the engine's RNG is the
*only* entropy in a run: generation consults machine state (which slots
are live, which segments exist) but that state is itself a pure function
of the actions applied so far, so ``(seed, schedule, steps)`` fully
determines the run — and replaying a recorded action list needs no RNG
at all.

Actions address enclaves by **slot index** (0..MAX_SLOTS-1), never by
enclave id: ids are minted by the environment and change across
recoveries, slots don't.  An action whose slot is empty (because the
shrinker deleted the LAUNCH, or a quarantine emptied it) degrades to a
recorded ``skip`` — never an error — which is what makes arbitrary
subsequences of a run valid runs and ddmin shrinking sound.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.core.commands import CommandType
from repro.core.faults import EnclaveFaultError
from repro.core.features import CovirtConfig
from repro.fuzz.actions import Action, ActionKind
from repro.fuzz.coverage import StepCoverage
from repro.fuzz.oracles import OraclePack, OracleViolation
from repro.fuzz.recorder import FuzzRun, StepRecord, fingerprint_lines
from repro.fuzz.rng import DEFAULT_SEED, named_stream
from repro.harness.env import CovirtEnvironment, Layout
from repro.hobbes.registry import RegistryError
from repro.hw.interrupts import ExceptionVector
from repro.hw.ioports import (
    IoPortError,
    KBD_CONTROLLER,
    PIT_CHANNEL0,
    RTC_INDEX,
    SERIAL_COM1,
)
from repro.hw.memory import OwnershipError, PAGE_SIZE
from repro.hw.msr import MSR, MsrAccessError
from repro.pisces.enclave import EnclaveDead, EnclaveState
from repro.pisces.kmod import PiscesError
from repro.recovery.policy import Quarantine, RestartAlways, RestartWithBackoff
from repro.recovery.scrub import ScrubError
from repro.recovery.supervisor import RecoveryPhase
from repro.vmx.ept import EptError
from repro.xemem.segment import SegmentError

if TYPE_CHECKING:  # pragma: no cover
    from repro.recovery.supervisor import SupervisedService

GiB = 1 << 30
MiB = 1 << 20

#: Concurrent enclave slots the fuzzer juggles.
MAX_SLOTS = 3

#: Small layouts so several enclaves, plus recovery relaunches, always
#: fit the 12-core/64-GiB testbed.
FUZZ_LAYOUTS: list[Layout] = [
    Layout("fz-1c/1n", {0: 1}, {0: 256 * MiB}),
    Layout("fz-2c/2n", {0: 1, 1: 1}, {0: 256 * MiB, 1: 256 * MiB}),
    Layout("fz-2c/1n", {1: 2}, {1: 512 * MiB}),
]

#: Only MEMORY-bearing configs: a wild touch must always be *contained*
#: (with covirt-none it would scribble over host canaries, and the
#: host-integrity oracle would blame Covirt for a fault it never saw).
FUZZ_CONFIGS: list[CovirtConfig] = [
    CovirtConfig.memory_only(),
    CovirtConfig.memory_ipi(),
    CovirtConfig.full(),
]


def _policies():
    return [
        RestartAlways(),
        RestartWithBackoff(max_retries=4),
        Quarantine(max_repeats=2),
    ]


#: Exceptions the simulator *models*: seeing one is an outcome, not a
#: finding.  Anything else escaping an action is a genuine failure.
EXPECTED_ERRORS = (
    EnclaveDead,
    EptError,
    IoPortError,
    MsrAccessError,
    OwnershipError,
    PiscesError,
    RegistryError,
    ScrubError,
    SegmentError,
)

#: Named weight tables: which mix of hostility a campaign runs.
SCHEDULES: dict[str, dict[ActionKind, int]] = {
    # Mostly-legit workload with occasional violations — the steady
    # state a production co-kernel node would see.
    "baseline": {
        ActionKind.LAUNCH: 4,
        ActionKind.SHUTDOWN: 1,
        ActionKind.TOUCH_INSIDE: 10,
        ActionKind.TOUCH_OUTSIDE: 2,
        ActionKind.TOUCH_FOREIGN: 1,
        ActionKind.IPI_OWNED: 4,
        ActionKind.IPI_FOREIGN: 2,
        ActionKind.MSR_READ: 3,
        ActionKind.MSR_WRITE_BENIGN: 3,
        ActionKind.MSR_WRITE_SENSITIVE: 1,
        ActionKind.IO_PORT_HOST: 1,
        ActionKind.XEMEM_MAKE: 3,
        ActionKind.XEMEM_ATTACH: 3,
        ActionKind.XEMEM_DETACH: 2,
        ActionKind.XEMEM_REMOVE: 1,
        ActionKind.HOTPLUG_ADD: 2,
        ActionKind.HOTPLUG_REMOVE: 1,
        ActionKind.REVOKE_THEN_TOUCH: 1,
        ActionKind.RAISE_ABORT: 1,
        ActionKind.COMMAND_PING: 2,
        ActionKind.TICK: 4,
        ActionKind.ARM_MID_RECOVERY_FAULT: 1,
    },
    # Every guest is out to get the node: heavy on violations.
    "hostile": {
        ActionKind.LAUNCH: 4,
        ActionKind.SHUTDOWN: 1,
        ActionKind.TOUCH_INSIDE: 2,
        ActionKind.TOUCH_OUTSIDE: 6,
        ActionKind.TOUCH_FOREIGN: 5,
        ActionKind.IPI_OWNED: 1,
        ActionKind.IPI_FOREIGN: 6,
        ActionKind.MSR_READ: 1,
        ActionKind.MSR_WRITE_BENIGN: 1,
        ActionKind.MSR_WRITE_SENSITIVE: 4,
        ActionKind.IO_PORT_HOST: 4,
        ActionKind.RAISE_ABORT: 4,
        ActionKind.COMMAND_PING: 1,
        ActionKind.TICK: 2,
        ActionKind.ARM_MID_RECOVERY_FAULT: 2,
    },
    # Reconfiguration churn: XEMEM + hot-plug races against the async
    # update protocol.
    "churn": {
        ActionKind.LAUNCH: 4,
        ActionKind.SHUTDOWN: 2,
        ActionKind.TOUCH_INSIDE: 4,
        ActionKind.TOUCH_OUTSIDE: 1,
        ActionKind.XEMEM_MAKE: 6,
        ActionKind.XEMEM_ATTACH: 6,
        ActionKind.XEMEM_DETACH: 4,
        ActionKind.XEMEM_REMOVE: 3,
        ActionKind.HOTPLUG_ADD: 5,
        ActionKind.HOTPLUG_REMOVE: 4,
        ActionKind.REVOKE_THEN_TOUCH: 4,
        ActionKind.COMMAND_PING: 2,
        ActionKind.TICK: 3,
    },
    # Recovery under fire: faults, re-faults mid-recovery, and parks.
    "recovery": {
        ActionKind.LAUNCH: 5,
        ActionKind.TOUCH_INSIDE: 3,
        ActionKind.TOUCH_OUTSIDE: 5,
        ActionKind.RAISE_ABORT: 4,
        ActionKind.REVOKE_THEN_TOUCH: 2,
        ActionKind.ARM_MID_RECOVERY_FAULT: 5,
        ActionKind.XEMEM_MAKE: 2,
        ActionKind.XEMEM_ATTACH: 2,
        ActionKind.COMMAND_PING: 1,
        ActionKind.TICK: 5,
    },
}

#: MSRs the MSR_READ action samples (benign and sensitive mixed).
_READ_MSRS = [
    MSR.IA32_FS_BASE,
    MSR.IA32_GS_BASE,
    MSR.IA32_TSC_AUX,
    MSR.IA32_APIC_BASE,
    MSR.IA32_MISC_ENABLE,
]
_BENIGN_WRITE_MSRS = [MSR.IA32_FS_BASE, MSR.IA32_GS_BASE, MSR.IA32_TSC_AUX]
_SENSITIVE_WRITE_MSRS = [
    MSR.IA32_APIC_BASE,
    MSR.IA32_FEATURE_CONTROL,
    MSR.IA32_MISC_ENABLE,
    MSR.IA32_MC0_CTL,
]
_HOST_PORTS = [SERIAL_COM1, PIT_CHANNEL0, KBD_CONTROLLER, RTC_INDEX]

#: Where TOUCH_OUTSIDE aims: high in the host's half of DRAM, never
#: mapped into any enclave EPT.
_WILD_BASE = 50 * GiB


class FuzzEngine:
    """Drives one environment through a seeded action sequence."""

    def __init__(
        self,
        seed: int = DEFAULT_SEED,
        schedule: str = "baseline",
        env: CovirtEnvironment | None = None,
    ) -> None:
        if schedule not in SCHEDULES:
            raise ValueError(
                f"unknown schedule {schedule!r}; choose from {sorted(SCHEDULES)}"
            )
        self.seed = int(seed)
        self.schedule = schedule
        self.rng = named_stream(f"fuzz/{schedule}", self.seed)
        #: Whether :meth:`close` ends the environment (only one the
        #: engine built itself).
        self._owns_env = env is None
        self.env = env or CovirtEnvironment()
        self.oracles = OraclePack(self.env)
        self.slots: list["SupervisedService | None"] = [None] * MAX_SLOTS
        self._last_eids: list[int | None] = [None] * MAX_SLOTS
        self.steps: list[StepRecord] = []
        self.failure: dict | None = None
        self._svc_counter = 0
        self._seg_counter = 0
        self._armed: tuple[str, int] | None = None
        self.env.recovery.phase_hooks.append(self._on_phase)
        #: Passive behavioural coverage: span closures and recovery
        #: phases feed per-step features into a :class:`CoverageMap`.
        #: Observers never touch simulation state, so coverage cannot
        #: perturb outcomes or fingerprints.
        self.cov = StepCoverage()
        self.env.machine.obs.tracer.on_close.append(self.cov.on_span_close)
        self.env.recovery.phase_hooks.append(self.cov.on_phase)

    # -- public driving ----------------------------------------------------

    def step(self) -> StepRecord:
        """Generate and apply one action, leaving the engine exactly as
        ``run(1)`` would but without building a :class:`FuzzRun`.  This
        is the serving daemon's slice path; callers check
        :attr:`failure` after each step."""
        self._apply(self._generate())
        return self.steps[-1]

    def run(self, steps: int) -> FuzzRun:
        """Generate-and-apply ``steps`` actions (stops early on failure)."""
        for _ in range(steps):
            self.step()
            if self.failure is not None:
                break
        return self._finish()

    def replay(self, actions: list[Action]) -> FuzzRun:
        """Apply a recorded action list verbatim; consumes no RNG."""
        for action in actions:
            self._apply(action)
            if self.failure is not None:
                break
        return self._finish()

    def finish(self) -> FuzzRun:
        """Snapshot everything applied so far as a :class:`FuzzRun`.

        :meth:`run` and :meth:`replay` call this implicitly; external
        drivers that interleave ``run``/``inject`` with direct
        environment work (the sweep harness) call it once at the end."""
        return self._finish()

    def inject(self, action: Action) -> StepRecord:
        """Apply one externally supplied action and return its step
        record.  This is the serving daemon's ``session.inject`` path:
        like :meth:`replay` it consumes no RNG, so injections into a
        live session never perturb the seeded action stream around
        them."""
        self._apply(action)
        return self.steps[-1]

    def close(self) -> None:
        """If the engine built its environment itself, close it
        (:meth:`CovirtEnvironment.close`) so reference counting frees
        the machine with the engine.  Runs already returned stay valid,
        and so does :meth:`fingerprint` (the registry it reads stays
        readable); the engine applies nothing more."""
        if self._owns_env:
            self.env.close()

    def __enter__(self) -> "FuzzEngine":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    # -- generation --------------------------------------------------------

    def _live_slots(self) -> list[int]:
        return [
            i
            for i, svc in enumerate(self.slots)
            if svc is not None
            and svc.phase is RecoveryPhase.RUNNING
            and svc.enclave.state is EnclaveState.RUNNING
        ]

    def _free_slots(self) -> list[int]:
        return [i for i, svc in enumerate(self.slots) if svc is None]

    def _generate(self) -> Action:
        """One action with fully resolved parameters, drawn from the
        schedule's weight table and filtered to what is applicable."""
        self._sweep()
        live = self._live_slots()
        free = self._free_slots()
        weights = SCHEDULES[self.schedule]
        if not live:
            kind = ActionKind.LAUNCH if free else ActionKind.TICK
        else:
            candidates = [
                (k, w)
                for k, w in sorted(weights.items(), key=lambda kv: kv[0].value)
                if not (k is ActionKind.LAUNCH and not free)
            ]
            kinds = [k for k, _ in candidates]
            kind = self.rng.choices(kinds, [w for _, w in candidates])[0]
        return Action(kind, self._params_for(kind, live, free))

    def _params_for(
        self, kind: ActionKind, live: list[int], free: list[int]
    ) -> dict:
        rng = self.rng
        slot = rng.choice(live) if live else 0
        if kind is ActionKind.LAUNCH:
            return {
                "slot": rng.choice(free) if free else 0,
                "layout": rng.randrange(len(FUZZ_LAYOUTS)),
                "config": rng.randrange(len(FUZZ_CONFIGS)),
                "policy": rng.randrange(len(_policies())),
            }
        if kind is ActionKind.SHUTDOWN:
            return {"slot": slot}
        if kind in (ActionKind.TOUCH_INSIDE, ActionKind.TOUCH_OUTSIDE):
            return {
                "slot": slot,
                "page": rng.randrange(4096),
                "write": rng.random() < 0.5,
            }
        if kind is ActionKind.TOUCH_FOREIGN:
            victims = [i for i in live if i != slot]
            return {
                "slot": slot,
                "victim": rng.choice(victims) if victims else (slot + 1) % MAX_SLOTS,
                "page": rng.randrange(4096),
                "write": rng.random() < 0.5,
            }
        if kind is ActionKind.IPI_OWNED:
            return {"slot": slot, "sender": rng.randrange(8), "pick": rng.randrange(8)}
        if kind is ActionKind.IPI_FOREIGN:
            return {
                "slot": slot,
                "sender": rng.randrange(8),
                "dest": rng.randrange(self.env.machine.num_cores),
                "vector": rng.randrange(48, 240),
            }
        if kind is ActionKind.MSR_READ:
            return {"slot": slot, "msr": rng.randrange(len(_READ_MSRS))}
        if kind is ActionKind.MSR_WRITE_BENIGN:
            return {
                "slot": slot,
                "msr": rng.randrange(len(_BENIGN_WRITE_MSRS)),
                "value": rng.randrange(1 << 32),
            }
        if kind is ActionKind.MSR_WRITE_SENSITIVE:
            return {
                "slot": slot,
                "msr": rng.randrange(len(_SENSITIVE_WRITE_MSRS)),
                "value": rng.randrange(1 << 32),
            }
        if kind is ActionKind.IO_PORT_HOST:
            return {
                "slot": slot,
                "port": rng.randrange(len(_HOST_PORTS)),
                "value": rng.randrange(256),
                "write": rng.random() < 0.7,
            }
        if kind is ActionKind.XEMEM_MAKE:
            self._seg_counter += 1
            return {
                "slot": slot,
                "name": f"fz{self._seg_counter}",
                "pages": rng.randrange(1, 9),
                "off": rng.randrange(64),
            }
        if kind is ActionKind.XEMEM_ATTACH:
            others = [i for i in live if i != slot]
            return {
                "slot": rng.choice(others) if others else slot,
                "owner": slot,
                "pick": rng.randrange(8),
            }
        if kind in (ActionKind.XEMEM_DETACH, ActionKind.XEMEM_REMOVE):
            return {"slot": slot, "pick": rng.randrange(8)}
        if kind is ActionKind.HOTPLUG_ADD:
            return {
                "slot": slot,
                "zone": rng.randrange(self.env.machine.topology.num_zones),
                "pages": rng.randrange(1, 33),
            }
        if kind in (ActionKind.HOTPLUG_REMOVE, ActionKind.REVOKE_THEN_TOUCH):
            return {"slot": slot, "pick": rng.randrange(8)}
        if kind is ActionKind.RAISE_ABORT:
            return {"slot": slot, "core": rng.randrange(8)}
        if kind is ActionKind.COMMAND_PING:
            return {"slot": slot}
        if kind is ActionKind.TICK:
            return {"cycles": rng.randrange(1, 9) * 10_000_000}
        if kind is ActionKind.ARM_MID_RECOVERY_FAULT:
            return {
                "victim": slot,
                "phase": rng.choice(
                    [
                        RecoveryPhase.SCRUBBING.value,
                        RecoveryPhase.RELAUNCHING.value,
                        RecoveryPhase.REPLAYING.value,
                    ]
                ),
            }
        raise AssertionError(f"unhandled kind {kind}")  # pragma: no cover

    # -- application -------------------------------------------------------

    def _apply(self, action: Action) -> None:
        self._sweep()
        index = len(self.steps)
        # The step span and the step counter are passive: neither is in
        # the fingerprint, so instrumentation cannot perturb determinism.
        obs = self.env.machine.obs
        step_span = obs.tracer.begin(
            f"fuzz.step.{action.kind.name.lower()}",
            category="fuzz",
            track="fuzz",
            step=index,
        )
        try:
            outcome = self._dispatch(action)
        except EnclaveFaultError:
            key = self.env.controller.fault_log[-1].key()
            outcome = f"fault:{key.kind}/{key.detail_class}"
        except EXPECTED_ERRORS as exc:
            outcome = f"refused:{type(exc).__name__}"
        except OracleViolation:
            raise  # never expected from a dispatch; re-raise loudly
        except Exception as exc:  # the fuzzer's whole reason to exist
            outcome = f"error:{type(exc).__name__}"
            self.failure = {
                "step": index,
                "kind": "exception",
                "detail": f"{type(exc).__name__}: {exc}",
            }
        step_span.args["outcome"] = outcome
        obs.tracer.end(step_span)
        from repro.obs import metric_names

        obs.metrics.counter(
            metric_names.FUZZ_STEPS, "fuzz actions applied"
        ).inc(kind=action.kind.name.lower(), outcome=outcome.split(":", 1)[0])
        self._sweep()
        try:
            self.oracles.check_all()
        except OracleViolation as violation:
            self.env.recovery.trace.append(
                (self.env.machine.clock.now, "oracle", str(violation))
            )
            self.cov.observe_oracle(violation.oracle)
            if self.failure is None:
                self.failure = {
                    "step": index,
                    "kind": "oracle",
                    "detail": str(violation),
                }
        self.cov.observe_step(action.kind.value, outcome)
        self.steps.append(
            StepRecord(index, action, outcome, self.env.machine.clock.now)
        )

    def _service(self, slot: int) -> "SupervisedService | None":
        if not 0 <= slot < MAX_SLOTS:
            return None
        svc = self.slots[slot]
        if (
            svc is None
            or svc.phase is not RecoveryPhase.RUNNING
            or svc.enclave.state is not EnclaveState.RUNNING
        ):
            return None
        return svc

    def _dispatch(self, action: Action) -> str:
        p = action.params
        kind = action.kind
        if kind is ActionKind.LAUNCH:
            return self._do_launch(p)
        if kind is ActionKind.TICK:
            self.env.machine.elapse(int(p["cycles"]))
            taken = self.env.recovery.tick()
            return f"ok:checkpoints={len(taken)}"
        if kind is ActionKind.ARM_MID_RECOVERY_FAULT:
            self._armed = (str(p["phase"]), int(p["victim"]))
            return f"ok:armed@{p['phase']}"

        svc = self._service(int(p["slot"]))
        if svc is None:
            return "skip:no-target"
        enclave = svc.enclave
        eid = enclave.enclave_id
        bsp = enclave.assignment.core_ids[0]
        core = enclave.assignment.core_ids[
            int(p.get("sender", p.get("core", 0))) % len(enclave.assignment.core_ids)
        ]

        if kind is ActionKind.SHUTDOWN:
            self.env.recovery.services.pop(svc.name, None)
            self.env.teardown(enclave)
            self.oracles.dead_enclave_ids.add(eid)
            self.slots[int(p["slot"])] = None
            return "ok:shutdown"
        if kind is ActionKind.TOUCH_INSIDE:
            region = enclave.assignment.regions[0]
            addr = region.start + (int(p["page"]) * PAGE_SIZE) % region.size
            if p["write"]:
                enclave.port.write(bsp, addr, b"\xa5" * 8)
            else:
                enclave.port.read(bsp, addr, 8)
            return "ok"
        if kind is ActionKind.TOUCH_OUTSIDE:
            addr = _WILD_BASE + int(p["page"]) * PAGE_SIZE
            if p["write"]:
                enclave.port.write(bsp, addr, b"\x5a" * 8)
            else:
                enclave.port.read(bsp, addr, 8)
            return "ok:uncontained!"  # MEMORY configs must never get here
        if kind is ActionKind.TOUCH_FOREIGN:
            victim = self._service(int(p["victim"]))
            if victim is None or victim is svc:
                return "skip:no-victim"
            vregion = victim.enclave.assignment.regions[0]
            addr = vregion.start + (int(p["page"]) * PAGE_SIZE) % vregion.size
            if p["write"]:
                enclave.port.write(bsp, addr, b"\x5a" * 8)
            else:
                enclave.port.read(bsp, addr, 8)
            return "ok:uncontained!"
        if kind is ActionKind.IPI_OWNED:
            pairs = sorted(
                (g.dest_core, g.vector)
                for g in self.env.mcp.vectors.active_grants()
                if eid in g.allowed_senders
                and g.dest_core in enclave.assignment.core_ids
            )
            if not pairs:
                return "skip:no-grant"
            dest, vector = pairs[int(p["pick"]) % len(pairs)]
            forwarded = enclave.port.send_ipi(core, dest, vector)
            return "ok:forwarded" if forwarded else "ok:filtered"
        if kind is ActionKind.IPI_FOREIGN:
            dest = int(p["dest"]) % self.env.machine.num_cores
            while dest in enclave.assignment.core_ids:
                dest = (dest + 1) % self.env.machine.num_cores
            forwarded = enclave.port.send_ipi(core, dest, int(p["vector"]))
            return "ok:forwarded!" if forwarded else "ok:filtered"
        if kind is ActionKind.MSR_READ:
            msr = _READ_MSRS[int(p["msr"]) % len(_READ_MSRS)]
            value = enclave.port.rdmsr(core, msr)
            return f"ok:{value & 0xFFFF:#x}"
        if kind is ActionKind.MSR_WRITE_BENIGN:
            msr = _BENIGN_WRITE_MSRS[int(p["msr"]) % len(_BENIGN_WRITE_MSRS)]
            enclave.port.wrmsr(core, msr, int(p["value"]))
            return "ok"
        if kind is ActionKind.MSR_WRITE_SENSITIVE:
            msr = _SENSITIVE_WRITE_MSRS[int(p["msr"]) % len(_SENSITIVE_WRITE_MSRS)]
            ctx = self.env.controller.context_for(eid)
            before = len(ctx.denied_msr_writes) if ctx else 0
            enclave.port.wrmsr(core, msr, int(p["value"]))
            after = len(ctx.denied_msr_writes) if ctx else 0
            return "ok:denied" if after > before else "ok:native"
        if kind is ActionKind.IO_PORT_HOST:
            port = _HOST_PORTS[int(p["port"]) % len(_HOST_PORTS)]
            ctx = self.env.controller.context_for(eid)
            before = len(ctx.denied_io) if ctx else 0
            if p["write"]:
                enclave.port.io_out(core, port, int(p["value"]))
            else:
                enclave.port.io_in(core, port)
            after = len(ctx.denied_io) if ctx else 0
            return "ok:denied" if after > before else "ok:native"
        if kind is ActionKind.XEMEM_MAKE:
            region = enclave.assignment.regions[0]
            size = int(p["pages"]) * PAGE_SIZE
            max_off = max(region.size // PAGE_SIZE - int(p["pages"]), 1)
            start = region.start + (int(p["off"]) % max_off) * PAGE_SIZE
            seg = self.env.mcp.xemem.make(eid, str(p["name"]), start, size)
            return f"ok:segid={seg.segid}"
        if kind is ActionKind.XEMEM_ATTACH:
            owner = self._service(int(p["owner"]))
            if owner is None or owner is svc:
                return "skip:no-owner"
            segs = [
                s
                for s in self.env.mcp.xemem.names.segments_owned_by(
                    owner.enclave.enclave_id
                )
                if eid not in s.attachments
            ]
            if not segs:
                return "skip:no-segment"
            seg = segs[int(p["pick"]) % len(segs)]
            self.env.mcp.xemem.attach(eid, seg.segid)
            return f"ok:segid={seg.segid}"
        if kind is ActionKind.XEMEM_DETACH:
            segs = self.env.mcp.xemem.names.segments_attached_by(eid)
            if not segs:
                return "skip:no-attachment"
            seg = segs[int(p["pick"]) % len(segs)]
            self.env.mcp.xemem.detach(eid, seg.segid)
            return f"ok:segid={seg.segid}"
        if kind is ActionKind.XEMEM_REMOVE:
            segs = self.env.mcp.xemem.names.segments_owned_by(eid)
            if not segs:
                return "skip:no-segment"
            seg = segs[int(p["pick"]) % len(segs)]
            self.env.mcp.xemem.remove(seg.segid)  # raises if still attached
            return f"ok:segid={seg.segid}"
        if kind is ActionKind.HOTPLUG_ADD:
            region = self.env.mcp.kmod.add_memory(
                eid, int(p["pages"]) * PAGE_SIZE, int(p["zone"])
            )
            return f"ok:+{region.size:#x}@{region.start:#x}"
        if kind in (ActionKind.HOTPLUG_REMOVE, ActionKind.REVOKE_THEN_TOUCH):
            removable = self._removable_regions(svc)
            if not removable:
                return "skip:no-removable-region"
            region = removable[int(p["pick"]) % len(removable)]
            self.env.mcp.kmod.remove_memory(eid, region)
            if kind is ActionKind.HOTPLUG_REMOVE:
                return f"ok:-{region.size:#x}@{region.start:#x}"
            # The race: the guest touches memory it just lost.  With the
            # flush protocol intact this *must* fault.
            enclave.port.read(bsp, region.start, 8)
            return "ok:uncontained!"
        if kind is ActionKind.RAISE_ABORT:
            enclave.port.raise_exception(core, ExceptionVector.DOUBLE_FAULT)
            return "ok:uncontained!"  # abort-class must always terminate
        if kind is ActionKind.COMMAND_PING:
            ctx = self.env.controller.context_for(eid)
            if ctx is None:
                return "skip:no-context"
            serviced = self.env.controller.issue_command(ctx, CommandType.PING)
            return f"ok:cores={serviced}"
        raise AssertionError(f"unhandled kind {kind}")  # pragma: no cover

    def _do_launch(self, p: dict) -> str:
        slot = int(p["slot"]) % MAX_SLOTS
        if self.slots[slot] is not None:
            return "skip:slot-occupied"
        layout = FUZZ_LAYOUTS[int(p["layout"]) % len(FUZZ_LAYOUTS)]
        config = FUZZ_CONFIGS[int(p["config"]) % len(FUZZ_CONFIGS)]
        policies = _policies()
        policy = policies[int(p["policy"]) % len(policies)]
        self._svc_counter += 1
        name = f"fz-svc{self._svc_counter}"
        enclave = self.env.launch(layout, config, name)
        eid = enclave.enclave_id
        # A self-signalling grant so IPI_OWNED has a legitimate pair to
        # exercise (whitelists start empty; rights are always explicit).
        # Allocated *before* supervision so the baseline checkpoint
        # carries it and recovery replay must rewire it to the new id.
        self.env.mcp.vectors.allocate(
            dest_core=enclave.assignment.core_ids[0],
            dest_enclave_id=eid,
            allowed_senders={eid},
            purpose=f"fuzz:{name}",
        )
        svc = self.env.recovery.supervise(
            enclave, policy=policy, config=config, name=name
        )
        self.slots[slot] = svc
        self._last_eids[slot] = eid
        return f"ok:enclave={eid} {layout.label} {config.label()} {policy.name}"

    def _removable_regions(self, svc: "SupervisedService"):
        """Hot-removable regions: never the boot region, never one an
        exported segment lives in (removal under an export would model a
        host bug, not a guest one)."""
        enclave = svc.enclave
        segs = self.env.mcp.xemem.names.segments_owned_by(enclave.enclave_id)
        out = []
        for region in enclave.assignment.regions[1:]:
            if any(
                s.start < region.start + region.size
                and s.start + s.size > region.start
                for s in segs
            ):
                continue
            out.append(region)
        return out

    # -- recovery integration ----------------------------------------------

    def _on_phase(self, service, phase: RecoveryPhase) -> None:
        """Supervisor phase hook: if a mid-recovery fault is armed and
        the machine just entered the armed phase, crash the victim *now*
        — while another service's recovery is in flight."""
        if self._armed is None or phase.value != self._armed[0]:
            return
        victim = self._service(self._armed[1])
        if victim is None or victim is service:
            return
        self._armed = None  # one-shot, and never recurse
        self.env.recovery.trace.append(
            (
                self.env.machine.clock.now,
                "inject",
                f"mid-recovery fault into {victim.name!r} "
                f"while {service.name!r} is {phase.value}",
            )
        )
        try:
            victim.enclave.port.read(
                victim.enclave.assignment.core_ids[0], _WILD_BASE, 8
            )
        except EnclaveFaultError:
            pass  # contained, as it must be

    def _sweep(self) -> None:
        """Reconcile slots with reality: recoveries swapped incarnations
        under us, parks emptied slots, faults minted dead enclave ids."""
        for i, svc in enumerate(self.slots):
            if svc is None:
                continue
            eid = svc.enclave.enclave_id
            if eid != self._last_eids[i]:
                # Recovered into a fresh incarnation.
                if self._last_eids[i] is not None:
                    self.oracles.dead_enclave_ids.add(self._last_eids[i])
                self._last_eids[i] = eid
            if svc.phase.terminal or svc.enclave.state is not EnclaveState.RUNNING:
                self.oracles.dead_enclave_ids.add(eid)
                self.slots[i] = None
                self._last_eids[i] = None

    # -- finishing ---------------------------------------------------------

    def _counters(self) -> dict[str, int]:
        """The machine's hypervisor counts
        (:meth:`~repro.obs.metrics.MetricsRegistry.hypervisor_counts`),
        flat: ``exits.<reason>``, ``exit_cycles``, ``commands.<type>``,
        ``ipis.<outcome>``.  Dead incarnations' counts stay in the
        registry, so nothing has to keep them alive."""
        flat: dict[str, int] = {}
        for name, value in self.env.machine.obs.metrics.hypervisor_counts().items():
            if isinstance(value, dict):
                flat.update((f"{name}.{key}", n) for key, n in value.items())
            else:
                flat[name] = value
        return dict(sorted(flat.items()))

    def fingerprint(self) -> str:
        """Hash of the full behavioural transcript.  Two runs of the same
        ``(seed, schedule, steps)`` must agree on every line."""
        env = self.env
        lines = [f"seed={self.seed} schedule={self.schedule}"]
        lines += [step.describe() for step in self.steps]
        lines.append(f"clock={env.machine.clock.now}")
        lines += [
            f"counter {name}={value}" for name, value in self._counters().items()
        ]
        lines += [f"config {tsc} {detail}" for tsc, detail in env.controller.config_log]
        for f in env.controller.fault_log:
            key = f.key()
            lines.append(f"fault {f.enclave_id} {key.kind}/{key.detail_class}")
        lines += [
            f"rtrace {tsc} {kind} {detail}"
            for tsc, kind, detail in env.recovery.trace
        ]
        lines += [
            f"pending {when} {seq} {tag}"
            for when, seq, tag in env.machine.events.pending_summary()
        ]
        lines.append(f"dead={sorted(self.oracles.dead_enclave_ids)}")
        return fingerprint_lines(lines)

    @property
    def coverage(self):
        """The run's accumulated :class:`~repro.fuzz.coverage.CoverageMap`."""
        return self.cov.map

    def _finish(self) -> FuzzRun:
        self._sweep()
        return FuzzRun(
            seed=self.seed,
            schedule=self.schedule,
            steps=list(self.steps),
            fingerprint=self.fingerprint(),
            final_clock=self.env.machine.clock.now,
            counters=self._counters(),
            failure=self.failure,
            coverage=sorted(self.cov.map.ids()),
        )
