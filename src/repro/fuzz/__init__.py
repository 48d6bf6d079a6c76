"""repro.fuzz — deterministic fault-injection fuzzing for Covirt.

A seeded engine drives randomized sequences of guest actions — memory
touches inside/outside the assignment, IPIs to owned and foreign cores,
MSR/port accesses on and off the whitelist, XEMEM churn, hot-plug
reassignment races, abort-class exceptions, and mid-recovery re-faults —
against a multi-enclave :class:`~repro.harness.env.CovirtEnvironment`.
Every step is checked by an oracle pack of machine-wide invariants, any
run is replayable byte-for-byte from ``(seed, schedule)``, failing
sequences shrink to their shortest reproducer, and reproducers
serialize to a JSON corpus that pytest replays as regression tests.

On top of the single-run engine sits a coverage-guided campaign layer:
:mod:`repro.fuzz.coverage` hashes the behaviour the obs layer already
emits (span names, exit reasons, oracle states, recovery phases) into
stable edge ids, :mod:`repro.fuzz.mutate` derives new action sequences
from interesting parents as pure functions of
``(parent_fingerprint, mutation_seed)``, :mod:`repro.fuzz.pool` fans
executions out over a ``multiprocessing`` pool with a deterministic
merge (same result for any worker count), and :mod:`repro.fuzz.distill`
keeps the regression corpus minimal-covering via greedy set cover.

Because the whole simulator is deterministic given its inputs, the
engine's RNG is the *only* entropy in a run: two runs with the same
``(seed, schedule, steps)`` produce identical event traces, identical
hypervisor counts, and identical final machine state.
"""

from repro.fuzz.actions import Action, ActionKind
from repro.fuzz.corpus import load_corpus, load_run, save_run
from repro.fuzz.coverage import CoverageMap, StepCoverage, edge_id
from repro.fuzz.distill import DistillResult, distill_runs, minimal_cover
from repro.fuzz.engine import FuzzEngine, SCHEDULES
from repro.fuzz.mutate import MUTATORS, mutate_actions, validate_actions
from repro.fuzz.oracles import OraclePack, OracleViolation
from repro.fuzz.pool import (
    BatchStats,
    CampaignResult,
    FuzzCampaign,
    run_batched,
    save_campaign,
)
from repro.fuzz.recorder import (
    ENGINE_VERSION,
    FORMAT_VERSION,
    FuzzRun,
    ReplayResult,
    StepRecord,
    replay_run,
)
from repro.fuzz.rng import DEFAULT_SEED, FuzzRng, named_stream
from repro.fuzz.shrink import ShrinkResult, shrink_run

__all__ = [
    "Action",
    "ActionKind",
    "BatchStats",
    "CampaignResult",
    "CoverageMap",
    "DEFAULT_SEED",
    "DistillResult",
    "ENGINE_VERSION",
    "FORMAT_VERSION",
    "FuzzCampaign",
    "FuzzEngine",
    "FuzzRng",
    "FuzzRun",
    "MUTATORS",
    "OraclePack",
    "OracleViolation",
    "ReplayResult",
    "SCHEDULES",
    "ShrinkResult",
    "StepCoverage",
    "StepRecord",
    "distill_runs",
    "edge_id",
    "load_corpus",
    "load_run",
    "minimal_cover",
    "mutate_actions",
    "named_stream",
    "replay_run",
    "run_batched",
    "save_campaign",
    "save_run",
    "shrink_run",
]
