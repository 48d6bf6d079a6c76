"""Covirt reproduction: lightweight fault isolation and resource
protection for co-kernels, on a fully simulated machine substrate.

Reproduces Gordon & Lange, *"Covirt: Lightweight Fault Isolation and
Resource Protection for Co-Kernels"* (IPDPS workshops, 2021).

Quick start::

    from repro import CovirtEnvironment, CovirtConfig
    from repro.harness.env import EVALUATION_LAYOUTS

    env = CovirtEnvironment()
    enclave = env.launch(EVALUATION_LAYOUTS[1], CovirtConfig.memory_only())
    # ... run workloads, inject faults, read counters ...

Package map
-----------
``repro.hw``        simulated machine (cores, NUMA, memory, APICs, TLBs)
``repro.vmx``       virtualization extensions (VMCS, EPT, vAPIC, PIV)
``repro.linuxhost`` host general-purpose OS
``repro.pisces``    co-kernel framework (enclaves, boot, kernel ABI)
``repro.kitten``    the lightweight kernel
``repro.hobbes``    runtime (MCP, vector namespace, channels, forwarding)
``repro.xemem``     cross-enclave shared memory
``repro.core``      **Covirt** -- the paper's contribution
``repro.perf``      cycle cost model, noise sampling
``repro.workloads`` Table-I benchmarks (real kernels + machine profiles)
``repro.harness``   per-figure experiment drivers
"""

from repro.core.features import CovirtConfig, Feature, IpiMode
from repro.harness.env import CovirtEnvironment, EVALUATION_LAYOUTS, Layout

__version__ = "1.0.0"

__all__ = [
    "CovirtConfig",
    "Feature",
    "IpiMode",
    "CovirtEnvironment",
    "EVALUATION_LAYOUTS",
    "Layout",
    "__version__",
]
