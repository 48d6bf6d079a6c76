"""HPCG (Fig. 7): preconditioned conjugate gradient benchmark.

HPCG solves a 27-point 3D Poisson problem with a multigrid-preconditioned
CG iteration; it is bandwidth- and latency-bound with irregular gather
traffic, which is why it is the mini-app where the paper's baseline
virtualization penalty (~1.4 %, constant across feature configurations)
is visible.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.hw.tlb import AccessPattern
from repro.workloads.base import Phase, Workload

if TYPE_CHECKING:  # pragma: no cover
    import numpy as np

#: Table I parameters: nx ny nz = 104, runtime budget 330 s.
HPCG_DIM = 104
HPCG_TIME = 330

_ROWS = HPCG_DIM**3
_NNZ = 27 * _ROWS
#: Matrix (values + indices) + vectors, bytes.
_FOOTPRINT = _NNZ * 12 + 8 * _ROWS * 6
#: CG iterations executed inside the time budget (model).
_ITERATIONS = 500
#: MG preconditioner multiplies per-iteration work by ~4x over plain CG.
_WORK_FACTOR = 4.0
_FLOPS_PER_ITER = 2.0 * _NNZ * _WORK_FACTOR
_TOTAL_FLOPS = _FLOPS_PER_ITER * _ITERATIONS
#: Sustained cycles per flop for sparse kernels on the simulated part.
_CYCLES_PER_FLOP = 1.25
#: One DRAM line reference per ~64 bytes of matrix streamed per iteration.
_DRAM_REFS = (_FOOTPRINT // 64) * _ITERATIONS


class Hpcg(Workload):
    """Table I row 4."""

    name = "HPCG"
    version = "Revision 3.1"
    parameters = "104 104 104 330"
    fom_name = "GFLOP/s"
    higher_is_better = True
    vmx_sensitivity = 0.0075
    ipi_sensitivity = 0.0008
    parallel_efficiency = 0.94

    def phases(self) -> list[Phase]:
        barriers_per_iter = 6.0  # SpMV, MG sweeps, dot products
        return [
            Phase(
                name="cg-iterations",
                total_cycles=_TOTAL_FLOPS * _CYCLES_PER_FLOP,
                total_mem_accesses=float(_DRAM_REFS),
                footprint_bytes=_FOOTPRINT,
                pattern=AccessPattern.SPARSE_GATHER,
                mem_bound_frac=0.85,
                total_ipis=_ITERATIONS * barriers_per_iter,
            )
        ]

    def figure_of_merit(self, elapsed_seconds: float, ncores: int) -> float:
        return _TOTAL_FLOPS / elapsed_seconds / 1e9

    def reference_kernel(self, rng: "np.random.Generator | None" = None) -> dict:
        """A real CG solve of the 7-point Poisson operator on a small
        grid, matrix-free (the operator applied as a stencil)."""
        import numpy as np

        rng = self.kernel_rng(rng)
        n = 20  # 20^3 grid

        def poisson_apply(x: np.ndarray) -> np.ndarray:
            u = x.reshape(n, n, n)
            out = 6.0 * u.copy()
            out[1:, :, :] -= u[:-1, :, :]
            out[:-1, :, :] -= u[1:, :, :]
            out[:, 1:, :] -= u[:, :-1, :]
            out[:, :-1, :] -= u[:, 1:, :]
            out[:, :, 1:] -= u[:, :, :-1]
            out[:, :, :-1] -= u[:, :, 1:]
            return out.ravel()

        b = rng.random(n**3)
        x = np.zeros_like(b)
        r = b - poisson_apply(x)
        p = r.copy()
        rs_old = float(r @ r)
        b_norm = float(np.linalg.norm(b))
        iterations = 0
        for iterations in range(1, 301):
            ap = poisson_apply(p)
            alpha = rs_old / float(p @ ap)
            x += alpha * p
            r -= alpha * ap
            rs_new = float(r @ r)
            if np.sqrt(rs_new) / b_norm < 1e-8:
                break
            p = r + (rs_new / rs_old) * p
            rs_old = rs_new
        residual = float(
            np.linalg.norm(b - poisson_apply(x)) / b_norm
        )
        return {
            "grid": f"{n}^3",
            "iterations": iterations,
            "relative_residual": residual,
            "converged": residual < 1e-7,
        }
