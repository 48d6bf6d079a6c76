"""Fault dossiers: the debugging traces Covirt makes possible.

Section V's war stories end the same way every time: *without* Covirt a
bug takes down the node and leaves nothing to debug; *with* Covirt the
enclave is terminated cleanly and the interesting state survives.  The
paper credits this with cutting "complex debugging efforts from weeks
to days".

A dossier is that surviving state, collected by the controller at
termination time as one JSON-native dict: the fault itself, every
core's exit counts (from the machine's metrics registry) and final
register/TSC state, the EPT's
shape, the whitelist's drop log, the denied MSR writes and port
accesses, and the tail of the co-kernel console.  The controller keeps
it (``controller.dossiers``, ioctl 203) and freezes it into the
``containment`` post-mortem bundle as ``detail["dossier"]``, next to the
flight recorder's event tail, which holds what each core did before
the fault.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any

from repro.core.faults import CovirtFault, FaultKind
from repro.hw.memory import PAGE_SIZE, PAGE_SIZE_1G, PAGE_SIZE_2M

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.controller import EnclaveVirtContext
    from repro.core.hypervisor import CovirtHypervisor
    from repro.obs.flight import FlightRecorder

#: Span events per core that a rendered report shows as its lead-up.
TRACE_TAIL = 8


def collect_dossier(
    ctx: "EnclaveVirtContext", fault: CovirtFault
) -> dict[str, Any]:
    """Snapshot an enclave's state at termination."""
    kernel = ctx.enclave.kernel
    return {
        "fault": {
            "kind": fault.kind.value,
            "enclave_id": fault.enclave_id,
            "core_id": fault.core_id,
            "tsc": fault.tsc,
            "detail": fault.detail,
        },
        "enclave_name": ctx.enclave.name,
        "features": ctx.config.label(),
        "cores": [
            _core_state(hv) for _, hv in sorted(ctx.hypervisors.items())
        ],
        "ept_mapped_bytes": ctx.ept.mapped_bytes if ctx.ept is not None else 0,
        "ept_entries": (
            {str(size): n for size, n in ctx.ept.entry_counts().items()}
            if ctx.ept is not None
            else {}
        ),
        "dropped_ipis": (
            [
                f"core {d.msg.dest_core} vector {d.msg.vector} @ {d.tsc}: {d.reason}"
                for d in ctx.whitelist.dropped
            ]
            if ctx.whitelist is not None
            else []
        ),
        "denied_msr_writes": [list(entry) for entry in ctx.denied_msr_writes],
        "denied_io": [list(entry) for entry in ctx.denied_io],
        "console_tail": kernel.console[-10:] if kernel is not None else [],
    }


def _core_state(hv: "CovirtHypervisor") -> dict[str, Any]:
    """One core's state at termination; its exit counts are the
    registry's samples labelled with this core and enclave."""
    exits = hv.obs.metrics.hypervisor_counts(
        enclave=hv.ctx.enclave.enclave_id, core=hv.core.core_id
    )["exits"]
    return {
        "core_id": hv.core.core_id,
        "tsc": hv.core.read_tsc(),
        "mode": hv.core.mode.value,
        "halted": hv.core.halted,
        "vm_entries": hv.core.vm_entries,
        "total_exits": sum(exits.values()),
        "exits_by_reason": exits,
        "tlb_entries": len(hv.core.tlb) if hv.core.tlb else 0,
        "pending_commands": hv.queue.pending(),
    }


def containment_bundle(
    flight: "FlightRecorder", enclave_id: int
) -> dict[str, Any]:
    """The newest retained ``containment`` post-mortem of an enclave."""
    for bundle in reversed(flight.postmortems):
        if (
            bundle["trigger"] == "containment"
            and bundle["detail"].get("enclave") == enclave_id
        ):
            return bundle
    raise KeyError(f"no containment post-mortem for enclave {enclave_id}")


def render_dossier(bundle: dict[str, Any]) -> str:
    """Human-readable crash report from a ``containment`` bundle: its
    dossier, then each core's last span events on its ``core<N>`` track."""
    dossier = bundle["detail"]["dossier"]
    record = dossier["fault"]
    fault = CovirtFault(**dict(record, kind=FaultKind(record["kind"])))
    lines = [
        "=" * 70,
        f"COVIRT FAULT DOSSIER — enclave {fault.enclave_id} "
        f"({dossier['enclave_name']!r}, {dossier['features']})",
        "=" * 70,
        f"fault:  {fault.describe()}",
        "",
        "cores:",
    ]
    for core in dossier["cores"]:
        exits = ", ".join(
            f"{k}={v}" for k, v in sorted(core["exits_by_reason"].items())
        ) or "none"
        lines.append(
            f"  core {core['core_id']}: tsc={core['tsc']} mode={core['mode']}"
            f"{' HALTED' if core['halted'] else ''} entries={core['vm_entries']}"
            f" exits[{exits}] tlb={core['tlb_entries']}"
            f" pending_cmds={core['pending_commands']}"
        )
    ept_entries = dossier["ept_entries"]
    if ept_entries:
        lines.append(
            f"ept:    {dossier['ept_mapped_bytes'] >> 20} MiB mapped "
            f"({ept_entries.get(str(PAGE_SIZE_1G), 0)}x1G, "
            f"{ept_entries.get(str(PAGE_SIZE_2M), 0)}x2M, "
            f"{ept_entries.get(str(PAGE_SIZE), 0)}x4K)"
        )
    if dossier["dropped_ipis"]:
        lines.append(f"dropped IPIs ({len(dossier['dropped_ipis'])}):")
        lines += [f"  {entry}" for entry in dossier["dropped_ipis"][-5:]]
    if dossier["denied_msr_writes"]:
        lines.append(
            "denied MSR writes: "
            + ", ".join(
                f"core{c}:{idx:#x}={val:#x}"
                for c, idx, val in dossier["denied_msr_writes"][-5:]
            )
        )
    if dossier["denied_io"]:
        lines.append(
            "denied I/O: "
            + ", ".join(
                f"core{c}:{'out' if w else 'in'} port {p:#x}"
                for c, p, _v, w in dossier["denied_io"][-5:]
            )
        )
    if dossier["console_tail"]:
        lines.append("co-kernel console (tail):")
        lines += [f"  | {entry}" for entry in dossier["console_tail"]]
    for core in dossier["cores"]:
        track = f"core{core['core_id']}"
        spans = [
            event
            for event in bundle["events"]
            if event["type"] == "span" and event["track"] == track
        ][-TRACE_TAIL:]
        if spans:
            lines.append(f"hypervisor trace, core {core['core_id']} (tail):")
            lines += [
                f"  {span['end']:>14d}  {span['name']}"
                + "".join(f" {k}={v}" for k, v in span["args"].items())
                for span in spans
            ]
    lines.append("=" * 70)
    return "\n".join(lines)
