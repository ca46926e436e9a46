"""The names that ``bench/tracer.py`` rebinds by name must exist in the package.

The tracer wraps package functions and ``gf.Field`` kernels from outside,
so a renamed or removed one breaks the traced benchmark run without any
other test failing.  The tracer is read from its source, not imported as a
module, so no bytecode is written next to it.
"""

import importlib
import runpy
from pathlib import Path

import pytest

from ffzeta import gf, polycore

TRACER = runpy.run_path(str(Path(__file__).resolve().parents[1] / "bench" / "tracer.py"))


@pytest.mark.parametrize("mod", sorted(TRACER["TRACED"]))
def test_traced_names_resolve(mod):
    module = importlib.import_module(f"ffzeta.{mod}")
    for name in TRACER["TRACED"][mod]:
        assert callable(getattr(module, name, None)), f"ffzeta.{mod}.{name}"


@pytest.mark.parametrize("meth", sorted(TRACER["KERNELS"]))
def test_kernel_methods_exist(meth):
    assert callable(getattr(gf.Field, meth, None)), f"gf.Field.{meth}"
    assert callable(getattr(polycore.Domain, meth, None)), f"polycore.Domain.{meth}"
