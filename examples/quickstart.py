#!/usr/bin/env python3
"""Quickstart: boot a protected co-kernel enclave, run a workload,
contain a fault.

This walks the full arc of the paper in ~60 lines of API:

1. build the simulated testbed (dual-socket, 2 NUMA zones, 64 GiB);
2. boot a Covirt-protected Kitten enclave and a native one;
3. run HPCG on both and compare the overhead (~1%);
4. inject the classic stale-mapping bug into the protected enclave and
   watch Covirt terminate it while the host and the native enclave
   keep running.
"""

from repro import CovirtConfig, CovirtEnvironment
from repro.core.faults import EnclaveFaultError
from repro.harness.env import EVALUATION_LAYOUTS
from repro.workloads import Hpcg

GiB = 1 << 30


def main() -> None:
    with CovirtEnvironment() as env:
        layout = EVALUATION_LAYOUTS[1]  # 4 cores across 2 NUMA zones
        print(f"machine: {env.machine}")

        protected = env.launch(layout, CovirtConfig.memory_ipi(), name="protected")
        native = env.launch(layout, None, name="native")
        print(f"booted enclave {protected.enclave_id} (Covirt mem+ipi) "
              f"and enclave {native.enclave_id} (native)")

        status = env.mcp.kmod.ioctl(200, protected.enclave_id)  # COVIRT_STATUS
        print(f"covirt status: ipi_mode={status['ipi_mode']}, "
              f"ept={status['ept_mapped_bytes'] >> 30} GiB identity-mapped")

        r_protected = env.engine.run(Hpcg(), protected)
        r_native = env.engine.run(Hpcg(), native)
        print(f"HPCG: native {r_native.fom:.2f} GFLOP/s, "
              f"protected {r_protected.fom:.2f} GFLOP/s "
              f"({r_protected.overhead_vs(r_native) * 100:+.2f}%)")

        # The bug: a cleanup path forgets to retire a mapping, so the
        # co-kernel believes it still owns memory the host reclaimed.
        kernel = protected.kernel
        kernel.inject_stale_mapping(63 * GiB, 1 << 20)  # stale belief about host memory
        bsp = protected.assignment.core_ids[0]
        try:
            kernel.touch(bsp, 63 * GiB, 8)
            raise SystemExit("BUG: the access should have been contained")
        except EnclaveFaultError as fault:
            print(f"contained: {fault}")

        print(f"protected enclave: {protected.state.value}")
        print(f"native enclave:    {native.state.value}")
        print(f"host alive:        {env.host.alive} "
              f"(integrity {'ok' if env.host.verify_integrity() else 'BROKEN'})")
        print(f"resources reclaimed: {env.host.owner_summary()}")


if __name__ == "__main__":
    main()
