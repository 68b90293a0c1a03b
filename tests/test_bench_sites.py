"""The benchmark's traced run (``perfbench/tracing.py``) wraps program
functions by module and name.  Each name must exist where the tracer looks
it up, or a refactor breaks the traced run while every other test passes.
The tracer's source is read, not imported, so nothing is written under
``perfbench/``."""

import importlib
from pathlib import Path

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"

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
