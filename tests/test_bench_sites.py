"""The benchmark's traced run (``perfbench/tracing.py``) wraps program
functions by module and name, and its driver (``perfbench/run.py``) reads a
few more names from `_kernels` on every run.  Each name must exist where
the benchmark looks it up, or a refactor breaks the benchmark while every
other test passes.  The benchmark's sources are read, not imported, so
nothing is written under ``perfbench/``."""

import ast
import importlib
from pathlib import Path

from uavcontract import _kernels

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
TRACING = PERFBENCH / "tracing.py"
RUN = PERFBENCH / "run.py"

# the benchmark's namespace: one attribute per module, `_kernels` as
# `kernels`
MODULES = ("config", "environment", "game", "solver", "phc", "runner",
           "_kernels")


def traced_sites():
    namespace = {"__name__": "tracing"}
    exec(compile(TRACING.read_text(encoding="utf-8"), str(TRACING), "exec"),
         namespace)
    return namespace["SITES"]


def test_every_traced_name_is_a_module_attribute():
    prog = {name.lstrip("_"): importlib.import_module(f"uavcontract.{name}")
            for name in MODULES}
    sites = traced_sites()
    assert sites
    missing = [(module, name) for module, name, _, _ in sites
               if not callable(getattr(prog[module], name, None))]
    assert missing == []


def kernel_reads(path):
    """Every ``<name>`` read as ``kernels.<name>`` or ``<x>.kernels.<name>``
    in the source at ``path``."""
    tree = ast.parse(path.read_text(encoding="utf-8"), str(path))
    reads = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute):
            owner = node.value
            if (isinstance(owner, ast.Name) and owner.id == "kernels"
                    or isinstance(owner, ast.Attribute)
                    and owner.attr == "kernels"):
                reads.add(node.attr)
    return reads


def test_every_kernel_name_the_driver_reads_exists():
    reads = kernel_reads(RUN)
    assert reads
    assert sorted(name for name in reads
                  if not hasattr(_kernels, name)) == []
