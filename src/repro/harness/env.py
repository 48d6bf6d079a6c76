"""A ready-to-use evaluation environment.

Bundles the full stack — machine, host OS, Hobbes MCP, Covirt
controller, workload engine — and provides the enclave layouts the
paper's evaluation sweeps.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.controller import CovirtController
from repro.core.features import CovirtConfig
from repro.hobbes.master import MasterControlProcess
from repro.hw.machine import Machine, MachineConfig
from repro.hw.memory import page_align_up
from repro.linuxhost.host import LinuxHost
from repro.perf.costs import CostModel, DEFAULT_COSTS
from repro.pisces.enclave import Enclave
from repro.pisces.resources import ResourceSpec
from repro.recovery.policy import RecoveryPolicy
from repro.recovery.supervisor import RecoverySupervisor, SupervisedService
from repro.workloads.engine import ExecutionEngine

GiB = 1 << 30

#: The enclave memory size used throughout the evaluation (Section V).
EVALUATION_MEMORY = 14 * GiB


@dataclass(frozen=True)
class Layout:
    """One of the paper's CPU-core/NUMA-zone hardware layouts."""

    label: str
    cores_per_zone: dict[int, int]
    mem_per_zone: dict[int, int]

    def spec(self, name: str = "eval") -> ResourceSpec:
        return ResourceSpec(
            cores_per_zone=dict(self.cores_per_zone),
            mem_per_zone={
                z: page_align_up(m) for z, m in self.mem_per_zone.items()
            },
            name=name,
        )


def _split_mem(total: int, zones: list[int]) -> dict[int, int]:
    share = page_align_up(total // len(zones))
    return {z: share for z in zones}


#: Figs. 6 & 7: (1) single core in one zone, (2) 4 cores across 2 zones,
#: (3) 4 cores in one zone, (4) 8 cores across 2 zones.  Memory is held
#: at 14 GB and split evenly across zones (all in zone 0 for layout 1,
#: which runs "entirely in one NUMA domain").
EVALUATION_LAYOUTS: list[Layout] = [
    Layout("1c/1n", {0: 1}, _split_mem(EVALUATION_MEMORY, [0])),
    Layout("4c/2n", {0: 2, 1: 2}, _split_mem(EVALUATION_MEMORY, [0, 1])),
    Layout("4c/1n", {0: 4}, _split_mem(EVALUATION_MEMORY, [0, 1])),
    Layout("8c/2n", {0: 4, 1: 4}, _split_mem(EVALUATION_MEMORY, [0, 1])),
]

#: Microbenchmarks run on a single-core configuration (Section V-A),
#: with the standard 14 GB split across the zones.
MICROBENCH_LAYOUT = Layout(
    "1c/1n", {0: 1}, _split_mem(EVALUATION_MEMORY, [0, 1])
)


class CovirtEnvironment:
    """The full simulated testbed."""

    def __init__(
        self,
        machine_config: MachineConfig | None = None,
        costs: CostModel = DEFAULT_COSTS,
        synchronous_updates: bool = False,
    ) -> None:
        self.machine = Machine(machine_config or MachineConfig.paper_testbed())
        self.host = LinuxHost(self.machine)
        self.mcp = MasterControlProcess(self.machine, self.host, costs=costs)
        self.controller = CovirtController(
            self.mcp, costs=costs, synchronous_updates=synchronous_updates
        )
        self.engine = ExecutionEngine(self.machine, costs=costs)
        self.costs = costs
        #: Recovery layer: supervises enclaves registered through
        #: :meth:`launch_supervised` (or ``recovery.supervise``).
        self.recovery = RecoverySupervisor(
            self.machine, self.host, self.mcp, self.controller
        )

    def close(self) -> None:
        """End the environment.  Top down, each layer drops the hooks the
        layers above registered on it and its back-references, and every
        enclave still registered is released, so the environment holds
        no reference cycle and reference counting frees it as soon as
        its owner lets go.  What was recorded stays readable (clock,
        logs, metrics, spans, post-mortems); a closed environment runs
        nothing more."""
        self.recovery.close()
        self.controller.close()
        self.mcp.close()
        self.machine.close()

    def __enter__(self) -> "CovirtEnvironment":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    def launch(
        self,
        layout: Layout,
        config: CovirtConfig | None,
        name: str = "eval",
    ) -> Enclave:
        """Boot an enclave with the given layout and protection config
        (None = native)."""
        return self.controller.launch(layout.spec(name), config)

    def launch_supervised(
        self,
        layout: Layout,
        config: CovirtConfig | None,
        policy: RecoveryPolicy | None = None,
        name: str = "eval",
    ) -> SupervisedService:
        """Boot an enclave and place it under recovery supervision.
        Returns the service handle — ``service.enclave`` tracks the
        current incarnation across restarts."""
        enclave = self.launch(layout, config, name)
        return self.recovery.supervise(
            enclave, policy=policy, config=config, name=name
        )

    def teardown(self, enclave: Enclave) -> None:
        from repro.pisces.enclave import EnclaveState

        if enclave.state is EnclaveState.RUNNING:
            self.mcp.shutdown_enclave(enclave.enclave_id)
        elif enclave.state is EnclaveState.FAILED:
            # Already reclaimed by the fault path; nothing to do.
            pass
