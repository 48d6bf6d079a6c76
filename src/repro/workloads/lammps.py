"""LAMMPS (Fig. 8): molecular-dynamics application benchmarks.

The paper runs the default LAMMPS benchmark scripts — lj, eam, chain,
and chute — on an 8-core / 2-NUMA-zone enclave and reports loop times.
lj/eam/chain show near-identical times across Covirt configurations;
chute is the most protection-sensitive (it has the most irregular,
rapidly changing neighbor structure and the most load-balancing
signalling).

The reference kernel is a genuine small MD engine: velocity-Verlet
integration with per-problem physics (pair LJ, a simple EAM embedding
term, FENE-style bonded chains, and gravity-driven granular flow for
chute), validated by energy behaviour.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

from repro.hw.tlb import AccessPattern
from repro.workloads.base import Phase, Workload

if TYPE_CHECKING:  # pragma: no cover
    import numpy as np


@dataclass(frozen=True)
class LammpsProblem:
    """One of the stock benchmark scripts."""

    key: str
    atoms: int
    steps: int
    #: Cycles per atom-step (neighbor + force + integrate).
    cycles_per_atom_step: float
    footprint_bytes: int
    pattern: AccessPattern
    mem_bound_frac: float
    #: Load-balance / halo-exchange IPIs per step (aggregate).
    ipis_per_step: float
    vmx_sensitivity: float
    ipi_sensitivity: float


LAMMPS_PROBLEMS: dict[str, LammpsProblem] = {
    "lj": LammpsProblem(
        key="lj",
        atoms=32_000,
        steps=100_000,
        cycles_per_atom_step=55.0,
        footprint_bytes=48 << 20,
        pattern=AccessPattern.SPARSE_GATHER,
        mem_bound_frac=0.35,
        ipis_per_step=8.0,
        vmx_sensitivity=0.003,
        ipi_sensitivity=0.0005,
    ),
    "eam": LammpsProblem(
        key="eam",
        atoms=32_000,
        steps=100_000,
        cycles_per_atom_step=110.0,
        footprint_bytes=80 << 20,
        pattern=AccessPattern.SPARSE_GATHER,
        mem_bound_frac=0.40,
        ipis_per_step=8.0,
        vmx_sensitivity=0.003,
        ipi_sensitivity=0.0005,
    ),
    "chain": LammpsProblem(
        key="chain",
        atoms=32_000,
        steps=100_000,
        cycles_per_atom_step=28.0,
        footprint_bytes=40 << 20,
        pattern=AccessPattern.SPARSE_GATHER,
        mem_bound_frac=0.30,
        ipis_per_step=8.0,
        vmx_sensitivity=0.002,
        ipi_sensitivity=0.0005,
    ),
    # Granular flow: constantly migrating atoms, irregular neighbor
    # lists, frequent rebalancing — the protection-sensitive one.
    "chute": LammpsProblem(
        key="chute",
        atoms=32_000,
        steps=100_000,
        cycles_per_atom_step=35.0,
        footprint_bytes=320 << 20,
        pattern=AccessPattern.RANDOM,
        mem_bound_frac=0.55,
        ipis_per_step=12.0,
        vmx_sensitivity=0.004,
        ipi_sensitivity=0.004,
    ),
}


class Lammps(Workload):
    """Table I row 6 — parameterised by benchmark script."""

    version = "3 Mar 2020"
    parameters = "None"
    fom_name = "loop time (s)"
    higher_is_better = False
    parallel_efficiency = 0.93

    def __init__(self, problem: str = "lj") -> None:
        if problem not in LAMMPS_PROBLEMS:
            raise ValueError(
                f"unknown LAMMPS problem {problem!r}; "
                f"choose from {sorted(LAMMPS_PROBLEMS)}"
            )
        self.problem = LAMMPS_PROBLEMS[problem]
        self.name = f"LAMMPS-{problem}"
        self.vmx_sensitivity = self.problem.vmx_sensitivity
        self.ipi_sensitivity = self.problem.ipi_sensitivity

    def phases(self) -> list[Phase]:
        p = self.problem
        atom_steps = float(p.atoms) * p.steps
        return [
            Phase(
                name=f"{p.key}-loop",
                total_cycles=atom_steps * p.cycles_per_atom_step,
                # Neighbor gathers: ~0.4 DRAM line refs per atom-step.
                total_mem_accesses=atom_steps * 0.4,
                footprint_bytes=p.footprint_bytes,
                pattern=p.pattern,
                mem_bound_frac=p.mem_bound_frac,
                total_ipis=float(p.steps) * p.ipis_per_step,
                shared_footprint=p.key == "chute",
            )
        ]

    def figure_of_merit(self, elapsed_seconds: float, ncores: int) -> float:
        return elapsed_seconds  # LAMMPS reports the loop time directly

    # -- the real MD engine ---------------------------------------------

    def reference_kernel(self, rng: "np.random.Generator | None" = None) -> dict:
        import numpy as np

        rng = self.kernel_rng(rng)
        n = 125
        steps = 60
        dt = 0.004
        box = 8.0
        # fcc-ish lattice start to avoid overlaps.
        grid = np.linspace(0.5, box - 0.5, 5)
        pos = np.array(
            [(x, y, z) for x in grid for y in grid for z in grid]
        )[:n].astype(float)
        pos += rng.normal(scale=0.02, size=pos.shape)
        vel = rng.normal(scale=0.3, size=pos.shape)
        vel -= vel.mean(axis=0)  # zero net momentum
        masses = np.ones(n)
        gravity = self.problem.key == "chute"
        bonded = self.problem.key == "chain"
        eam = self.problem.key == "eam"
        bonds = (
            np.array([(i, i + 1) for i in range(0, n - 1) if (i + 1) % 5 != 0])
            if bonded
            else None
        )

        def forces(pos: np.ndarray) -> tuple[np.ndarray, float]:
            delta = pos[:, None, :] - pos[None, :, :]
            if not gravity:  # periodic box for bulk systems
                delta -= box * np.round(delta / box)
            r2 = np.einsum("ijk,ijk->ij", delta, delta)
            np.fill_diagonal(r2, np.inf)
            cutoff2 = 2.5**2
            mask = r2 < cutoff2
            inv_r2 = np.where(mask, 1.0 / r2, 0.0)
            inv_r6 = inv_r2**3
            # Lennard-Jones 12-6.
            f_mag = 24.0 * inv_r2 * (2.0 * inv_r6**2 - inv_r6)
            force = np.einsum("ij,ijk->ik", f_mag, delta)
            pot = float(np.sum(4.0 * (inv_r6**2 - inv_r6)[mask]) / 2.0)
            if eam:
                # Toy EAM: density from neighbors, embedding F = -sqrt(rho).
                rho = np.sum(np.where(mask, inv_r6, 0.0), axis=1) + 1e-12
                pot += float(np.sum(-np.sqrt(rho)))
                demb = -0.5 / np.sqrt(rho)
                pair_rho_grad = -6.0 * inv_r6 * inv_r2  # d(inv_r6)/dr · r̂ terms
                coeff = (demb[:, None] + demb[None, :]) * pair_rho_grad
                force -= np.einsum("ij,ijk->ik", np.where(mask, coeff, 0.0), delta)
            if bonds is not None:
                d = pos[bonds[:, 0]] - pos[bonds[:, 1]]
                d -= box * np.round(d / box)
                r = np.linalg.norm(d, axis=1)
                k_spring, r0 = 30.0, 1.2
                fb = -k_spring * (r - r0)[:, None] * d / r[:, None]
                np.add.at(force, bonds[:, 0], fb)
                np.add.at(force, bonds[:, 1], -fb)
                pot += float(np.sum(0.5 * k_spring * (r - r0) ** 2))
            if gravity:
                force[:, 2] -= 1.0 * masses  # g along -z
                pot += float(np.sum(masses * 1.0 * pos[:, 2]))
                # Bottom wall: stiff repulsion below z=0.2.
                pen = np.maximum(0.0, 0.2 - pos[:, 2])
                force[:, 2] += 200.0 * pen
                pot += float(np.sum(100.0 * pen**2))
            return force, pot

        f, pot = forces(pos)
        energies = []
        for _ in range(steps):
            vel += 0.5 * dt * f / masses[:, None]
            pos += dt * vel
            if not gravity:
                pos %= box
            f, pot = forces(pos)
            vel += 0.5 * dt * f / masses[:, None]
            kin = 0.5 * float(np.sum(masses[:, None] * vel**2))
            energies.append(kin + pot)
        energies = np.array(energies)
        scale = max(1.0, float(np.mean(np.abs(energies))))
        drift = float(abs(energies[-1] - energies[0]) / scale)
        return {
            "problem": self.problem.key,
            "atoms": n,
            "steps": steps,
            "energy_first": float(energies[0]),
            "energy_last": float(energies[-1]),
            "relative_drift": drift,
            # Conservative systems should conserve energy; the damped /
            # driven chute only needs to stay bounded.
            "conserved": drift < 0.05 or gravity,
        }
