#!/usr/bin/env python3
"""Porting a second co-kernel framework under Covirt.

The paper closes Section III-A with the claim that Covirt "represents a
unique capability that could be adapted to suit the full range of
co-kernel approaches", and Section V describes how developing new ports
under Covirt turned months into weeks because crashes were contained
from day one.

This example is that story: the IHK/McKernel framework — proxy
processes, address-space replication, OS instances instead of enclaves
— is brought up under Covirt protection via the same three seams Pisces
uses (boot protocol, control hooks, ioctl ABI).  The port's
"development bugs" (a wild early-boot pointer, a replica desync) are
contained, and the crash dossier shows what the developer gets to work
with.
"""

from repro import CovirtConfig, CovirtEnvironment
from repro.core.debug import containment_bundle, render_dossier
from repro.core.faults import EnclaveFaultError
from repro.ihk import IhkModule
from repro.ihk.module import IhkIoctl
from repro.kitten.syscalls import Syscall

GiB = 1 << 30
MiB = 1 << 20


def main() -> None:
    with CovirtEnvironment() as env:
        # The one-line port: interpose Covirt on the new framework.
        ihk = IhkModule(env.machine, env.host)
        env.controller.interpose_on(ihk)
        print("IHK module loaded; Covirt interposed on its boot/control paths\n")

        # -- a protected McKernel instance, end to end -----------------------
        os_index = ihk.ioctl(IhkIoctl.RESERVE, ({0: 1, 1: 1}, {0: GiB, 1: GiB}))
        mcos = env.controller.launch_via(
            lambda: ihk.ioctl(IhkIoctl.BOOT, os_index), CovirtConfig.memory_only()
        )
        print(f"mcos{os_index} booted: {mcos.kernel.console[0]}")
        print(f"covirt status: {ihk.ioctl(200, mcos.enclave_id)}\n")

        # Proxy-process delegation works under protection.
        kernel = mcos.kernel
        process = kernel.spawn_process("lwk-app", mem_bytes=MiB)
        fd = kernel.syscall(process, Syscall.OPEN, "/etc/hostname")
        data = kernel.syscall(process, Syscall.READ, fd, 64)
        print(f"delegated open/read via proxy pid {process.proxy.pid}: "
              f"{data.decode().strip()!r} "
              f"({process.proxy.delegations} delegations)\n")

        # -- the porting-era bug: an early wild pointer ------------------------
        print("simulating a porting bug: McKernel dereferences an unmapped gpa...")
        try:
            kernel.touch(mcos.assignment.core_ids[0], 60 * GiB, 8)
        except Exception:
            pass
        try:
            mcos.port.read(mcos.assignment.core_ids[0], 60 * GiB, 8)
        except EnclaveFaultError as fault:
            print(f"contained: {fault}\n")

        # The dossier (also served by ioctl 203) is frozen into the
        # containment post-mortem, next to what each core did before the fault.
        bundle = containment_bundle(env.machine.obs.flight, mcos.enclave_id)
        print(render_dossier(bundle))
        print(f"\nhost alive: {env.host.alive}; machine pristine: "
              f"{env.host.is_pristine()}")
        print("The developer keeps working on real hardware — no node reboot,"
              " no lost state.")
        # The environment closes its own Pisces module; this one is ours.
        ihk.close()


if __name__ == "__main__":
    main()
