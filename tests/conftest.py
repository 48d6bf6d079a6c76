"""Shared fixtures for the Covirt reproduction test suite."""

from __future__ import annotations

import pytest


def pytest_addoption(parser: pytest.Parser) -> None:
    parser.addoption(
        "--update-golden",
        action="store_true",
        default=False,
        help="rewrite checked-in golden trace files instead of asserting"
        " against them (use after an intentional instrumentation change)",
    )


def pytest_collection_modifyitems(
    config: pytest.Config, items: list[pytest.Item]
) -> None:
    """Everything not explicitly marked ``slow`` is tier-1."""
    for item in items:
        if item.get_closest_marker("slow") is None:
            item.add_marker(pytest.mark.tier1)


@pytest.fixture
def update_golden(request: pytest.FixtureRequest) -> bool:
    return bool(request.config.getoption("--update-golden"))

from repro.core.controller import CovirtController
from repro.core.features import CovirtConfig
from repro.harness.env import CovirtEnvironment, Layout
from repro.hobbes.master import MasterControlProcess
from repro.hw.machine import Machine, MachineConfig
from repro.linuxhost.host import LinuxHost
from repro.pisces.resources import ResourceSpec

GiB = 1 << 30
MiB = 1 << 20


@pytest.fixture
def machine() -> Machine:
    """The paper's dual-socket testbed (memory is lazily backed, so
    building it is cheap)."""
    return Machine(MachineConfig.paper_testbed())


@pytest.fixture
def small_machine() -> Machine:
    return Machine(MachineConfig.small())


@pytest.fixture
def host(machine: Machine) -> LinuxHost:
    return LinuxHost(machine)


@pytest.fixture
def mcp(machine: Machine, host: LinuxHost) -> MasterControlProcess:
    return MasterControlProcess(machine, host)


@pytest.fixture
def controller(mcp: MasterControlProcess) -> CovirtController:
    return CovirtController(mcp)


@pytest.fixture
def env() -> CovirtEnvironment:
    return CovirtEnvironment()


@pytest.fixture
def small_layout() -> Layout:
    """2 cores / 2 zones, 2 GiB — quick to boot, NUMA-interesting."""
    return Layout("2c/2n", {0: 1, 1: 1}, {0: GiB, 1: GiB})


def make_spec(
    ncores: int = 2, nzones: int = 2, mem: int = 2 * GiB, name: str = "test"
) -> ResourceSpec:
    return ResourceSpec.evaluation_layout(ncores, nzones, mem, name)


@pytest.fixture
def native_enclave(env: CovirtEnvironment, small_layout: Layout):
    return env.launch(small_layout, None, name="native")


@pytest.fixture
def protected_enclave(env: CovirtEnvironment, small_layout: Layout):
    return env.launch(small_layout, CovirtConfig.full(), name="protected")


@pytest.fixture
def corrupt_queue_header():
    """A function that overwrites one command-queue header in simulated
    DRAM (the first core's of the lowest-numbered protected enclave), as
    a stray write by a neighbour would; the next enqueue, drain or
    post-mortem summary that reads it raises ``ValueError: corrupt queue
    header``.  Planted into ``churn``/28 after 20 steps, step 26 hits it,
    and the run ends with an oracle post-mortem whose controller summary
    could not read the queue."""
    from repro.core.commands import HEADER_SIZE

    def plant(env) -> None:
        contexts = env.controller.contexts
        ctx = contexts[min(contexts)]
        queue = ctx.queues[min(ctx.queues)]
        env.machine.memory.write(queue.base, b"\xff" * HEADER_SIZE)

    return plant
