"""Fault dossiers: the debugging story from Section V."""

import json

import pytest

from repro.core.controller import CovirtIoctl
from repro.core.debug import containment_bundle, render_dossier
from repro.core.faults import EnclaveFaultError, FaultKind
from repro.core.features import CovirtConfig
from repro.harness.env import CovirtEnvironment, Layout
from repro.hw.msr import MSR

GiB = 1 << 30
LAYOUT = Layout("2c/2n", {0: 1, 1: 1}, {0: GiB, 1: GiB})


@pytest.fixture
def env():
    return CovirtEnvironment()


def crash(env):
    """Launch an enclave, give it a rich history, then fault it."""
    enclave = env.launch(LAYOUT, CovirtConfig.full())
    bsp = enclave.assignment.core_ids[0]
    # Generate interesting state first.
    enclave.port.cpuid(bsp, 1)
    enclave.port.send_ipi(bsp, min(env.host.online_cores), 200)  # dropped
    enclave.port.wrmsr(bsp, MSR.IA32_APIC_BASE, 0xBAD)  # denied
    enclave.kernel.console.append("about to touch the shared buffer")
    with pytest.raises(EnclaveFaultError):
        enclave.port.read(bsp, 50 * GiB, 8)
    return enclave


@pytest.fixture
def crashed(env):
    return env, crash(env)


class TestDossierCollection:
    def test_dossier_created_on_fault(self, crashed):
        env, enclave = crashed
        dossier = env.controller.dossiers[enclave.enclave_id]
        assert dossier["fault"]["kind"] == FaultKind.EPT_VIOLATION.value
        assert dossier["enclave_name"] == enclave.name

    def test_dossier_available_via_ioctl(self, crashed):
        env, enclave = crashed
        dossier = env.mcp.kmod.ioctl(CovirtIoctl.DOSSIER, enclave.enclave_id)
        assert dossier == env.controller.dossiers[enclave.enclave_id]

    def test_ioctl_result_is_a_copy(self, crashed):
        env, enclave = crashed
        eid = enclave.enclave_id
        kept = json.dumps(env.controller.dossiers[eid])
        dossier = env.mcp.kmod.ioctl(CovirtIoctl.DOSSIER, eid)
        dossier["enclave_name"] = "rewritten"
        dossier["cores"][0]["halted"] = "rewritten"
        dossier["cores"].clear()
        assert json.dumps(env.controller.dossiers[eid]) == kept
        bundle = containment_bundle(env.machine.obs.flight, eid)
        assert json.dumps(bundle["detail"]["dossier"], sort_keys=True) == (
            json.dumps(json.loads(kept), sort_keys=True)
        )

    def test_no_dossier_for_healthy_enclave(self, env):
        enclave = env.launch(LAYOUT, CovirtConfig.full())
        with pytest.raises(KeyError):
            env.mcp.kmod.ioctl(CovirtIoctl.DOSSIER, enclave.enclave_id)

    def test_core_snapshots_complete(self, crashed):
        env, enclave = crashed
        dossier = env.controller.dossiers[enclave.enclave_id]
        # (assignment.core_ids is already empty post-reclamation; the
        # dossier snapshotted before that.)
        assert len(dossier["cores"]) == enclave.spec.total_cores
        bsp_snap = dossier["cores"][0]
        assert bsp_snap["halted"]
        assert bsp_snap["mode"] == "hypervisor"
        assert bsp_snap["exits_by_reason"]["ept_violation"] == 1
        assert bsp_snap["exits_by_reason"]["cpuid"] == 1

    def test_protection_history_preserved(self, crashed):
        env, enclave = crashed
        dossier = env.controller.dossiers[enclave.enclave_id]
        assert any("vector 200" in d for d in dossier["dropped_ipis"])
        assert dossier["denied_msr_writes"][0][1] == MSR.IA32_APIC_BASE
        assert dossier["ept_mapped_bytes"] == 2 * GiB

    def test_console_tail_captured(self, crashed):
        env, enclave = crashed
        dossier = env.controller.dossiers[enclave.enclave_id]
        assert dossier["console_tail"][-1] == "about to touch the shared buffer"

    def test_render_contains_the_story(self, crashed):
        env, enclave = crashed
        report = render_dossier(
            containment_bundle(env.machine.obs.flight, enclave.enclave_id)
        )
        assert "FAULT DOSSIER" in report
        assert "ept_violation" in report
        assert "0xc80000000" in report  # the faulting gpa (50 GiB)
        assert "console" in report

    def test_dossier_survives_reclamation(self, crashed):
        """Resources go back to the host, but the evidence stays."""
        env, enclave = crashed
        from repro.linuxhost.host import LINUX_OWNER

        assert env.host.is_pristine()
        assert enclave.enclave_id in env.controller.dossiers

    def test_each_crash_gets_own_dossier(self, env):
        ids = []
        for i in range(2):
            enclave = env.launch(LAYOUT, CovirtConfig.memory_only(), f"e{i}")
            with pytest.raises(EnclaveFaultError):
                enclave.port.read(enclave.assignment.core_ids[0], 50 * GiB, 8)
            ids.append(enclave.enclave_id)
        assert set(ids) <= set(env.controller.dossiers)
        assert len(set(ids)) == 2


class TestDossierInPostmortem:
    def test_containment_dump_carries_the_dossier(self, env, tmp_path):
        env.machine.obs.flight.dump_dir = tmp_path
        enclave = crash(env)
        eid = enclave.enclave_id
        [path] = tmp_path.glob("postmortem_*_containment.json")
        dumped = json.loads(path.read_text())["detail"]["dossier"]
        kept = env.controller.dossiers[eid]
        assert dumped == json.loads(json.dumps(kept))
        # The retained bundle holds a copy, not the controller's dict.
        assert containment_bundle(env.machine.obs.flight, eid)["detail"][
            "dossier"
        ] is not kept
        faulting = dumped["cores"][0]
        assert faulting["core_id"] == dumped["fault"]["core_id"]
        assert faulting["exits_by_reason"]["ept_violation"] == 1
        assert [row[1] for row in dumped["denied_msr_writes"]] == [
            MSR.IA32_APIC_BASE
        ]
        assert len(dumped["dropped_ipis"]) == 1
        assert "vector 200" in dumped["dropped_ipis"][0]
