"""Machine-wide invariant oracles.

Every fuzz step ends with a full audit of the simulated machine.  Each
oracle is a named predicate over global state — not over the action that
just ran — so a violation means Covirt's *containment story* broke, not
merely that a guest misbehaved (guests are supposed to misbehave; that
is the point of the fuzzer).

The pack is a plain list of ``(name, check)`` pairs; tests and
downstream users extend it with :meth:`OraclePack.add` (see
``docs/fuzzing.md``).  Checks raise :class:`OracleViolation` with the
oracle's name and a concrete description of the broken state.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable

from repro.core.controller import covirt_owner
from repro.hw.ioports import HOST_OWNED_PORTS
from repro.hw.msr import SENSITIVE_MSRS
from repro.pisces.enclave import EnclaveState
from repro.pisces.resources import enclave_owner

if TYPE_CHECKING:  # pragma: no cover
    from repro.harness.env import CovirtEnvironment


class OracleViolation(AssertionError):
    """An invariant the machine must always satisfy does not hold."""

    def __init__(self, oracle: str, detail: str) -> None:
        self.oracle = oracle
        self.detail = detail
        super().__init__(f"[{oracle}] {detail}")


class OraclePack:
    """The standing invariant audit for one :class:`CovirtEnvironment`.

    Holds the monotonicity baselines (last observed clock and per-core
    TSCs) and the set of enclave ids known to be dead, which the engine
    updates as enclaves fault, recover, or shut down.
    """

    def __init__(self, env: "CovirtEnvironment") -> None:
        self.env = env
        #: Enclave ids that must own nothing anymore: faulted + reclaimed,
        #: torn down, or superseded by a recovery relaunch.
        self.dead_enclave_ids: set[int] = set()
        self._last_clock = env.machine.clock.now
        self._last_tsc = {c.core_id: c.read_tsc() for c in env.machine.cores}
        self._extra: list[tuple[str, Callable[["CovirtEnvironment"], None]]] = []

    def add(self, name: str, check: Callable[["CovirtEnvironment"], None]) -> None:
        """Register an additional oracle; ``check(env)`` raises
        :class:`OracleViolation` (or any exception) on violation."""
        self._extra.append((name, check))

    def names(self) -> list[str]:
        return [name for name, _ in self._oracles()]

    # -- driving -----------------------------------------------------------

    def check_all(self) -> list[str]:
        """Run every oracle; returns the names checked.  Raises
        :class:`OracleViolation` on the first failure (after snapshotting
        a flight-recorder post-mortem — a broken machine-wide invariant
        is exactly the state a post-fault diagnosis needs frozen)."""
        names = []
        for name, check in self._oracles():
            try:
                check(self.env)
            except OracleViolation as violation:
                self._postmortem(violation)
                raise
            except AssertionError as exc:
                violation = OracleViolation(name, str(exc))
                self._postmortem(violation)
                raise violation from exc
            names.append(name)
        return names

    def _postmortem(self, violation: OracleViolation) -> None:
        self.env.machine.obs.flight.postmortem(
            "oracle",
            violation.detail,
            oracle=violation.oracle,
        )

    def _oracles(self):
        return [
            ("host-integrity", self._check_host),
            ("ownership-disjoint", self._check_ownership),
            ("assignment-disjoint", self._check_assignments),
            ("ept-coverage", self._check_ept_coverage),
            ("tlb-ept-coherence", self._check_tlb_coherence),
            ("vector-whitelist-closure", self._check_whitelists),
            ("msr-io-closure", self._check_msr_io),
            ("scrub-clean", self._check_scrubbed),
            ("clock-monotonic", self._check_clock),
        ] + self._extra

    # -- helpers -----------------------------------------------------------

    def _live_contexts(self):
        for eid, ctx in self.env.controller.contexts.items():
            if ctx.enclave.state is EnclaveState.RUNNING:
                yield eid, ctx

    @staticmethod
    def _fail(oracle: str, detail: str) -> None:
        raise OracleViolation(oracle, detail)

    # -- the invariants ----------------------------------------------------

    def _check_host(self, env: "CovirtEnvironment") -> None:
        """Host memory integrity: Linux never dies and no canary page is
        ever corrupted — the paper's headline containment claim."""
        if not env.host.alive:
            self._fail("host-integrity", "host kernel panicked")
        if not env.host.verify_integrity():
            self._fail("host-integrity", "host canary page corrupted")

    def _check_ownership(self, env: "CovirtEnvironment") -> None:
        """Page-ownership disjointness + conservation: the interval map
        partitions physical memory exactly (no gaps, no overlaps)."""
        env.machine.memory.check_invariants()
        total = sum(
            end - start
            for start, end, _ in env.machine.memory._owners.intervals()
        )
        if total != env.machine.memory.size:
            self._fail(
                "ownership-disjoint",
                f"ownership covers {total:#x} of {env.machine.memory.size:#x}",
            )

    def _check_assignments(self, env: "CovirtEnvironment") -> None:
        """No core or memory region belongs to two running enclaves."""
        seen_cores: dict[int, int] = {}
        spans: list[tuple[int, int, int]] = []
        for eid, enclave in env.mcp.kmod.enclaves.items():
            if enclave.state is not EnclaveState.RUNNING:
                continue
            for core_id in enclave.assignment.core_ids:
                if core_id in seen_cores:
                    self._fail(
                        "assignment-disjoint",
                        f"core {core_id} assigned to enclaves "
                        f"{seen_cores[core_id]} and {eid}",
                    )
                seen_cores[core_id] = eid
            for region in enclave.assignment.regions:
                spans.append((region.start, region.start + region.size, eid))
        spans.sort()
        for (s1, e1, id1), (s2, _e2, id2) in zip(spans, spans[1:]):
            if e1 > s2:
                self._fail(
                    "assignment-disjoint",
                    f"regions of enclaves {id1} and {id2} overlap at {s2:#x}",
                )

    def _check_ept_coverage(self, env: "CovirtEnvironment") -> None:
        """Each protected enclave's EPT maps exactly its assignment plus
        its live XEMEM attachments — nothing more, nothing less."""
        for eid, ctx in self._live_contexts():
            if ctx.ept is None:
                continue
            ctx.ept.table.check_invariants()
            attached = sum(
                seg.size
                for seg in env.mcp.xemem.names.segments_attached_by(eid)
            )
            expected = ctx.enclave.assignment.total_memory + attached
            if ctx.ept.mapped_bytes != expected:
                self._fail(
                    "ept-coverage",
                    f"enclave {eid} EPT maps {ctx.ept.mapped_bytes:#x} bytes, "
                    f"expected {expected:#x} "
                    f"(assignment {ctx.enclave.assignment.total_memory:#x} "
                    f"+ attached {attached:#x})",
                )

    def _check_tlb_coherence(self, env: "CovirtEnvironment") -> None:
        """No enclave core caches a translation its EPT no longer backs.

        The controller's unmap path blocks until every core has flushed
        (MEMORY_UPDATE over the NMI doorbell), so *between* steps a stale
        TLB entry means the async-reconfiguration protocol lost a flush.
        """
        for eid, ctx in self._live_contexts():
            if ctx.ept is None:
                continue
            for core_id in ctx.hypervisors:
                tlb = env.machine.core(core_id).tlb
                if tlb is None:
                    continue
                for entry in tlb.entries():
                    result = ctx.ept.table.translate(entry.virt_page)
                    if not isinstance(result, tuple):
                        self._fail(
                            "tlb-ept-coherence",
                            f"core {core_id} caches stale translation for "
                            f"{entry.virt_page:#x} (enclave {eid}): "
                            f"{result.describe()}",
                        )
                    elif result[0] != entry.phys_page:
                        self._fail(
                            "tlb-ept-coherence",
                            f"core {core_id} TLB says {entry.virt_page:#x}→"
                            f"{entry.phys_page:#x} but EPT says →{result[0]:#x}",
                        )

    def _check_whitelists(self, env: "CovirtEnvironment") -> None:
        """IPI whitelists mirror the vector registry exactly: every
        allowed (core, vector) pair is backed by a grant naming this
        enclave as sender, and every grant is reflected in the
        whitelist.  A one-sided mismatch is a leaked signalling right
        (or a lost one) across enclaves."""
        for eid, ctx in self._live_contexts():
            if ctx.whitelist is None:
                continue
            allowed = ctx.whitelist.allowed_pairs()
            for dest_core, vector in allowed:
                if not env.mcp.vectors.may_send(eid, dest_core, vector):
                    self._fail(
                        "vector-whitelist-closure",
                        f"enclave {eid} whitelist allows core {dest_core} "
                        f"vec {vector} without a registry grant",
                    )
            for grant in env.mcp.vectors.active_grants():
                if eid in grant.allowed_senders and (
                    (grant.dest_core, grant.vector) not in allowed
                ):
                    self._fail(
                        "vector-whitelist-closure",
                        f"grant core {grant.dest_core} vec {grant.vector} "
                        f"names enclave {eid} as sender but its whitelist "
                        f"does not reflect it",
                    )

    def _check_msr_io(self, env: "CovirtEnvironment") -> None:
        """Sensitive MSRs and host-owned ports always trap: no bitmap
        drift may ever let a guest write IA32_FEATURE_CONTROL natively
        or drive the host's UART."""
        for eid, ctx in self._live_contexts():
            if ctx.msr_bitmap is not None:
                leaked = SENSITIVE_MSRS & ctx.msr_bitmap.passthrough_writes()
                if leaked:
                    self._fail(
                        "msr-io-closure",
                        f"enclave {eid} passes through sensitive MSR writes "
                        f"{sorted(hex(m) for m in leaked)}",
                    )
                for msr in SENSITIVE_MSRS:
                    if not ctx.msr_bitmap.should_exit(msr, is_write=True):
                        self._fail(
                            "msr-io-closure",
                            f"enclave {eid}: write to MSR {msr:#x} would "
                            f"not exit",
                        )
            if ctx.io_bitmap is not None:
                open_ports = HOST_OWNED_PORTS & ctx.io_bitmap.allowed_ports()
                if open_ports:
                    self._fail(
                        "msr-io-closure",
                        f"enclave {eid} may drive host-owned ports "
                        f"{sorted(hex(p) for p in open_ports)}",
                    )

    def _check_scrubbed(self, env: "CovirtEnvironment") -> None:
        """Dead incarnations own nothing: after fault reclaim, teardown,
        or recovery relaunch, no resource may still be tagged with a
        dead enclave's identity.

        One pass over the ownership map, the grants and the segments
        collects every label, grant party and exporter; each dead id is
        then a set lookup, and the per-id scans only word a violation."""
        if not self.dead_enclave_ids:
            return
        memory = env.machine.memory
        labels = {owner for _, _, owner in memory._owners.intervals()}
        parties: set[int] = set()
        for grant in env.mcp.vectors.active_grants():
            parties.add(grant.dest_enclave_id)
            parties.update(grant.allowed_senders)
        names = env.mcp.xemem.names
        exporters = {seg.owner_enclave_id for seg in names.segments()}
        for eid in sorted(self.dead_enclave_ids):
            if eid in env.controller.contexts:
                ctx = env.controller.contexts[eid]
                if ctx.enclave.state is EnclaveState.RUNNING:
                    continue  # id reused by a live incarnation
                self._fail(
                    "scrub-clean",
                    f"controller still holds a context for dead enclave {eid}",
                )
            for owner in (enclave_owner(eid), covirt_owner(eid)):
                if owner in labels:
                    leaked = memory.owned_by(owner)
                    self._fail(
                        "scrub-clean",
                        f"dead enclave {eid} still owns "
                        f"{sum(r.size for r in leaked):#x} bytes as {owner!r}",
                    )
            if eid in parties:
                grants = env.mcp.vectors.grants_involving(eid)
                self._fail(
                    "scrub-clean",
                    f"dead enclave {eid} still involved in "
                    f"{len(grants)} vector grants",
                )
            if eid in exporters:
                owned = names.segments_owned_by(eid)
                self._fail(
                    "scrub-clean",
                    f"dead enclave {eid} still exports XEMEM segments "
                    f"{[s.name for s in owned]}",
                )

    def _check_clock(self, env: "CovirtEnvironment") -> None:
        """The cycle clock and every core TSC only move forward."""
        now = env.machine.clock.now
        if now < self._last_clock:
            self._fail(
                "clock-monotonic",
                f"global clock went backwards: {self._last_clock} → {now}",
            )
        self._last_clock = now
        for core in env.machine.cores:
            tsc = core.read_tsc()
            if tsc < self._last_tsc[core.core_id]:
                self._fail(
                    "clock-monotonic",
                    f"core {core.core_id} TSC went backwards: "
                    f"{self._last_tsc[core.core_id]} → {tsc}",
                )
            self._last_tsc[core.core_id] = tsc
