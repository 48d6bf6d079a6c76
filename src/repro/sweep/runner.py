"""Execute one (cell, seed) scenario run.

``run_cell`` is the sweep's unit of work and the conformance surface:
it boots a fresh seeded :class:`~repro.fuzz.engine.FuzzEngine`, applies
the cell's prologue (LAUNCH injections for ``enclaves`` slots — no RNG
consumed, so the seeded schedule stream is untouched), then drives the
scheduled action stream in phase chunks with the cell's adaptation
applied at the interior boundaries, runs the workload mix on a live
enclave, and audits the full oracle pack after every non-engine
mutation.  A pure cell (``enclaves == 0``) degenerates to exactly
``FuzzEngine(seed, schedule).run(steps)``, which is what the
cross-subsystem determinism tests compare against the serve daemon and
the CLI.

``execute_task`` is the top-level dict-in/dict-out payload runner that
:func:`repro.fuzz.pool.run_batched` fans out over a multiprocessing
pool; like the fuzz campaign's, it is the inline path too, so 1-worker
and N-worker sweeps run the exact same code.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

from repro.fuzz.actions import Action, ActionKind
from repro.fuzz.engine import FuzzEngine
from repro.fuzz.oracles import OracleViolation
from repro.fuzz.rng import named_stream
from repro.harness.env import CovirtEnvironment
from repro.sweep.adapt import ADAPT_PHASES, ADAPTATIONS
from repro.sweep.spec import NUMA_SHAPES, POLICIES, ScenarioCell
from repro.workloads.registry import workload_by_name

#: The config index every sweep launch uses: CovirtConfig.full() — the
#: protection surface the oracles assert over must always be armed.
FULL_CONFIG_INDEX = 2


@dataclass
class CellRun:
    """Everything one (cell, seed) run observed, JSON-friendly."""

    cell_id: str
    seed: int
    fingerprint: str
    final_clock: int
    steps_applied: int
    #: Step outcomes bucketed by prefix (ok / fault / refused / skip).
    outcome_counts: dict[str, int]
    faults: int
    adapt_events: list[str]
    #: Workload name -> figure of merit, for cells with a mix.
    workload_foms: dict[str, float]
    exits_by_reason: dict[str, int]
    failure: dict | None = None
    #: Grant/segment counts after the run settled (adaptation residue).
    active_grants: int = 0
    postmortems: int = 0
    extra: dict[str, Any] = field(default_factory=dict)

    def to_dict(self) -> dict[str, Any]:
        return {
            "cell_id": self.cell_id,
            "seed": int(self.seed),
            "fingerprint": self.fingerprint,
            "final_clock": int(self.final_clock),
            "steps_applied": int(self.steps_applied),
            "outcome_counts": dict(sorted(self.outcome_counts.items())),
            "faults": int(self.faults),
            "adapt_events": list(self.adapt_events),
            "workload_foms": dict(sorted(self.workload_foms.items())),
            "exits_by_reason": dict(self.exits_by_reason),
            "failure": self.failure,
            "active_grants": int(self.active_grants),
            "postmortems": int(self.postmortems),
        }

    @classmethod
    def from_dict(cls, data: dict[str, Any]) -> "CellRun":
        return cls(
            cell_id=str(data["cell_id"]),
            seed=int(data["seed"]),
            fingerprint=str(data["fingerprint"]),
            final_clock=int(data["final_clock"]),
            steps_applied=int(data["steps_applied"]),
            outcome_counts=dict(data["outcome_counts"]),
            faults=int(data["faults"]),
            adapt_events=list(data["adapt_events"]),
            workload_foms=dict(data["workload_foms"]),
            exits_by_reason=dict(data["exits_by_reason"]),
            failure=data.get("failure"),
            active_grants=int(data.get("active_grants", 0)),
            postmortems=int(data.get("postmortems", 0)),
        )


def _audit(engine: FuzzEngine) -> None:
    """Check the full oracle pack after a non-engine mutation (the
    engine audits its own steps; direct registry work between steps
    must be audited explicitly)."""
    try:
        engine.oracles.check_all()
    except OracleViolation as violation:
        if engine.failure is None:
            engine.failure = {
                "step": len(engine.steps),
                "kind": "oracle",
                "detail": str(violation),
            }


def _chunks(steps: int, phases: int) -> list[int]:
    """Split ``steps`` into ``phases`` near-equal chunks (first chunks
    absorb the remainder; all chunks >= 0, sum == steps)."""
    base, rem = divmod(steps, phases)
    return [base + (1 if i < rem else 0) for i in range(phases)]


def run_cell(
    cell: ScenarioCell,
    seed: int,
    env: CovirtEnvironment | None = None,
) -> CellRun:
    """One scenario run: pure in ``(cell, seed)``.  A cell that builds
    its own environment (``env`` is None) closes it when done."""
    with FuzzEngine(seed=seed, schedule=cell.schedule, env=env) as engine:
        adaptation = ADAPTATIONS[cell.adaptation]()
        adapt_events: list[str] = []

        # Prologue: launch the cell's enclaves via inject() — no RNG drawn,
        # so the scheduled stream after the prologue matches a pure run's.
        for slot in range(min(cell.enclaves, len(engine.slots))):
            if engine.failure is not None:
                break
            record = engine.inject(
                Action(
                    ActionKind.LAUNCH,
                    {
                        "slot": slot,
                        "layout": NUMA_SHAPES[cell.numa],
                        "config": FULL_CONFIG_INDEX,
                        "policy": POLICIES[cell.policy],
                    },
                )
            )
            adapt_events.append(f"prologue:{record.outcome}")

        # Scheduled stream in phase chunks; adaptation at interior bounds.
        phases = ADAPT_PHASES if cell.adaptation != "none" else 1
        plan = _chunks(cell.steps, phases)
        for phase, chunk in enumerate(plan):
            if engine.failure is not None:
                break
            if chunk:
                engine.run(chunk)
            if engine.failure is not None or phase == len(plan) - 1:
                break
            rng = named_stream(
                f"sweep/adapt/{cell.cell_id()}/{phase}", seed
            )
            adapt_events.extend(adaptation.apply(engine, rng, phase))
            _audit(engine)

        # Workload mix: run each on the first live slot, recording its FOM.
        workload_foms: dict[str, float] = {}
        for name in cell.workloads:
            if engine.failure is not None:
                break
            live = engine._live_slots()
            if not live:
                adapt_events.append(f"workload:{name}:skip:no-live-slot")
                continue
            svc = engine.slots[live[0]]
            result = engine.env.engine.run(workload_by_name(name), svc.enclave)
            workload_foms[name] = round(result.fom, 4)
            _audit(engine)

        run = engine.finish()
        outcome_counts: dict[str, int] = {}
        for step in run.steps:
            prefix = step.outcome.split(":", 1)[0]
            outcome_counts[prefix] = outcome_counts.get(prefix, 0) + 1
        registry = engine.env.machine.obs.metrics
        return CellRun(
            cell_id=cell.cell_id(),
            seed=int(seed),
            fingerprint=run.fingerprint,
            final_clock=run.final_clock,
            steps_applied=len(run.steps),
            outcome_counts=outcome_counts,
            faults=outcome_counts.get("fault", 0),
            adapt_events=adapt_events,
            workload_foms=workload_foms,
            exits_by_reason=registry.exit_counts_by_reason(),
            failure=run.failure,
            active_grants=len(engine.env.mcp.vectors.active_grants()),
            postmortems=engine.env.machine.obs.flight.captured,
        )


def execute_task(payload: dict[str, Any]) -> dict[str, Any]:
    """One planned sweep task in a fresh engine — top-level and
    dict-in/dict-out so :func:`repro.fuzz.pool.run_batched` can hand it
    to a multiprocessing pool; also the inline 1-worker path."""
    cell = ScenarioCell.from_dict(payload["cell"])
    run = run_cell(cell, int(payload["seed"]))
    return {
        "index": int(payload["index"]),
        "cell_id": cell.cell_id(),
        "run": run.to_dict(),
    }
