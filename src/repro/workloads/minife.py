"""MiniFE (Fig. 6): the Mantevo implicit finite-element proxy app.

MiniFE assembles a hex-element stiffness matrix for a 3D domain and
solves it with (unpreconditioned) CG.  Its access pattern is structured
enough that the paper measures essentially no Covirt overhead in any
configuration — the negative control among the mini-apps.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.hw.tlb import AccessPattern
from repro.workloads.base import Phase, Workload

if TYPE_CHECKING:  # pragma: no cover
    import numpy as np

#: Table I parameters.
MINIFE_DIM = 250

_NODES = (MINIFE_DIM + 1) ** 3
_NNZ = 27 * _NODES
_FOOTPRINT = _NNZ * 12 + 8 * _NODES * 4
_ITERATIONS = 200
_FLOPS = 2.0 * _NNZ * _ITERATIONS
_CYCLES_PER_FLOP = 1.1
_DRAM_REFS = (_FOOTPRINT // 64) * _ITERATIONS


class MiniFE(Workload):
    """Table I row 5."""

    name = "MiniFE"
    version = "2.0"
    parameters = "nx 250 ny 250 nz 250"
    fom_name = "CG MFLOP/s"
    higher_is_better = True
    vmx_sensitivity = 0.001
    ipi_sensitivity = 0.0002
    parallel_efficiency = 0.96

    def phases(self) -> list[Phase]:
        assembly_cycles = _NODES * 60.0  # element integration + scatter
        return [
            Phase(
                name="assembly",
                total_cycles=assembly_cycles,
                total_mem_accesses=_NODES * 3.0,
                footprint_bytes=_FOOTPRINT,
                pattern=AccessPattern.SEQUENTIAL,
                mem_bound_frac=0.5,
            ),
            # MiniFE's matrix keeps the structured-grid ordering, so the
            # x-vector gathers touch a handful of fixed strides: its TLB
            # behaviour is stream-like (unlike HPCG's multigrid sweeps).
            Phase(
                name="cg-solve",
                total_cycles=_FLOPS * _CYCLES_PER_FLOP,
                total_mem_accesses=float(_DRAM_REFS),
                footprint_bytes=_FOOTPRINT,
                pattern=AccessPattern.STRIDED,
                mem_bound_frac=0.85,
                total_ipis=_ITERATIONS * 4.0,
            ),
        ]

    def figure_of_merit(self, elapsed_seconds: float, ncores: int) -> float:
        return _FLOPS / elapsed_seconds / 1e6

    def reference_kernel(self, rng: "np.random.Generator | None" = None) -> dict:
        """Real mini FE pipeline: assemble a hex-element Laplacian on a
        small structured mesh, then CG-solve it."""
        import numpy as np

        rng = self.kernel_rng(rng)
        ne = 5  # elements per dimension → 6^3 nodes
        nn = ne + 1
        num_nodes = nn**3

        def node_id(i: int, j: int, k: int) -> int:
            return (i * nn + j) * nn + k

        # Reference 8x8 hex-element Laplacian stiffness (trilinear).
        corners = [
            (i, j, k) for i in (0, 1) for j in (0, 1) for k in (0, 1)
        ]
        ke = np.empty((8, 8))
        for a, (ia, ja, ka) in enumerate(corners):
            for b, (ib, jb, kb) in enumerate(corners):
                same = (ia == ib, ja == jb, ka == kb)
                # Standard trilinear hex Laplacian entries (h=1).
                weights = {3: 1 / 3, 2: 0.0, 1: -1 / 12, 0: -1 / 12}
                ke[a, b] = weights[sum(same)]
        # Assemble (dense is fine at this scale).
        stiffness = np.zeros((num_nodes, num_nodes))
        for ei in range(ne):
            for ej in range(ne):
                for ek in range(ne):
                    ids = [
                        node_id(ei + di, ej + dj, ek + dk)
                        for (di, dj, dk) in corners
                    ]
                    stiffness[np.ix_(ids, ids)] += ke
        # Dirichlet-pin boundary nodes so the system is SPD.
        boundary = [
            node_id(i, j, k)
            for i in range(nn)
            for j in range(nn)
            for k in range(nn)
            if i in (0, ne) or j in (0, ne) or k in (0, ne)
        ]
        for nid in boundary:
            stiffness[nid, :] = 0.0
            stiffness[:, nid] = 0.0
            stiffness[nid, nid] = 1.0
        b = rng.random(num_nodes)
        x = np.zeros(num_nodes)
        r = b - stiffness @ x
        p = r.copy()
        rs = float(r @ r)
        iterations = 0
        for iterations in range(1, 501):
            ap = stiffness @ p
            alpha = rs / float(p @ ap)
            x += alpha * p
            r -= alpha * ap
            rs_new = float(r @ r)
            if np.sqrt(rs_new) < 1e-10 * np.linalg.norm(b):
                break
            p = r + (rs_new / rs) * p
            rs = rs_new
        residual = float(np.linalg.norm(b - stiffness @ x) / np.linalg.norm(b))
        return {
            "nodes": num_nodes,
            "iterations": iterations,
            "relative_residual": residual,
            "converged": residual < 1e-8,
            "spd_check": bool(np.all(np.linalg.eigvalsh(stiffness) > -1e-9)),
        }
