"""perfbench's traced methods must stay patchable where it looks for them.

``perfbench/layers.py`` wraps each method in its ``LAYERS`` table by
reading it out of the owning class's ``__dict__``, so a traced method
such as ``KittenKernel.boot`` or ``PiscesKmod.boot_enclave`` that moves
to a shared base class breaks ``perfbench/run.py --trace 1``.  This test
loads the module by path (it is not a package), installs and uninstalls
the tracer, and checks every attribute comes back as it was.
"""

from __future__ import annotations

import importlib
import importlib.util
import sys
from pathlib import Path

LAYERS_PY = Path(__file__).resolve().parent.parent / "perfbench" / "layers.py"


def _load_layers():
    spec = importlib.util.spec_from_file_location("perfbench_layers", LAYERS_PY)
    module = importlib.util.module_from_spec(spec)
    # Registered while it executes: its dataclasses look their module up.
    sys.modules[spec.name] = module
    try:
        spec.loader.exec_module(module)
    finally:
        del sys.modules[spec.name]
    return module


def _owner(module_name: str, owner_name: str | None):
    owner = importlib.import_module(module_name)
    return owner if owner_name is None else getattr(owner, owner_name)


def test_traced_methods_are_defined_on_their_own_classes_and_restored():
    layers = _load_layers()
    originals = {}
    for _name, module_name, owner_name, attr in layers.LAYERS:
        owner = _owner(module_name, owner_name)
        assert attr in vars(owner), f"{owner_name}.{attr} is inherited"
        originals[(module_name, owner_name, attr)] = vars(owner)[attr]

    tracer = layers.LayerTracer()
    try:
        tracer.install()
        for (module_name, owner_name, attr), raw in originals.items():
            assert vars(_owner(module_name, owner_name))[attr] is not raw
    finally:
        tracer.uninstall()

    for (module_name, owner_name, attr), raw in originals.items():
        assert vars(_owner(module_name, owner_name))[attr] is raw
