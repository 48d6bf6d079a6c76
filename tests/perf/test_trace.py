"""Hypervisor tracing: each core's spans on the flight recorder, and the
lead-up a containment report reads back from them."""

from itertools import takewhile

import pytest

from repro.core.debug import containment_bundle, render_dossier
from repro.core.faults import EnclaveFaultError
from repro.core.features import CovirtConfig
from repro.harness.env import CovirtEnvironment, Layout

GiB = 1 << 30
LAYOUT = Layout("2c/2n", {0: 1, 1: 1}, {0: GiB, 1: GiB})


def track_spans(env, core_id):
    """Names of the retained span events on one core's track, oldest first."""
    return [
        event["name"]
        for event in env.machine.obs.flight.tail()
        if event["type"] == "span" and event["track"] == f"core{core_id}"
    ]


class TestHypervisorTracing:
    @pytest.fixture
    def env(self):
        return CovirtEnvironment()

    def test_launch_recorded(self, env):
        enclave = env.launch(LAYOUT, CovirtConfig.full())
        for core_id in enclave.assignment.core_ids:
            assert track_spans(env, core_id)[0] == "hv.launch"

    def test_exit_and_drop_recorded(self, env):
        enclave = env.launch(LAYOUT, CovirtConfig.memory_ipi())
        bsp = enclave.assignment.core_ids[0]
        enclave.port.send_ipi(bsp, 0, 199)  # dropped
        enclave.port.cpuid(bsp, 0)
        exits = [n for n in track_spans(env, bsp) if n.startswith("hv.exit.")]
        assert exits == ["hv.exit.apic_write", "hv.exit.cpuid"]
        # The drop itself lives in the whitelist's log, which dossiers read.
        dropped = enclave.virt_context.whitelist.dropped
        assert [(d.msg.dest_core, d.msg.vector) for d in dropped] == [(0, 199)]

    def test_trace_tail_lands_in_dossier(self, env):
        enclave = env.launch(LAYOUT, CovirtConfig.memory_only())
        bsp = enclave.assignment.core_ids[0]
        with pytest.raises(EnclaveFaultError):
            enclave.port.read(bsp, 50 * GiB, 8)
        report = render_dossier(
            containment_bundle(env.machine.obs.flight, enclave.enclave_id)
        )
        header = f"hypervisor trace, core {bsp} (tail):"
        assert header in report
        after = report.split(header + "\n", 1)[1].splitlines()
        tail = list(takewhile(lambda line: line.startswith("  "), after))
        assert tail[0].split()[1] == "hv.launch"
        assert tail[-1].split()[1] == "hv.exit.ept_violation"
