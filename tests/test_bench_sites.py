"""The benchmark's traced run (``perfbench/tracing.py``) wraps program
functions by module and name, and its driver (``perfbench/run.py``) and
workloads (``perfbench/workloads.py``) call and read names on the program's
modules.  Each name must exist where the benchmark looks it up, or a
refactor breaks the benchmark while every other test passes.  The
benchmark's sources are read, not imported, so nothing is written under
``perfbench/``."""

import ast
import importlib
import inspect
from pathlib import Path

import numpy as np

from conftest import make_scenario_a
from uavcontract import _kernels, phc, runner
from uavcontract.config import load_config

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
TRACING = PERFBENCH / "tracing.py"
RUN = PERFBENCH / "run.py"

# the benchmark's namespace: one attribute per module, `_kernels` as
# `kernels`
MODULES = ("config", "environment", "game", "solver", "phc", "runner",
           "_kernels")


def tracing():
    namespace = {"__name__": "tracing"}
    exec(compile(TRACING.read_text(encoding="utf-8"), str(TRACING), "exec"),
         namespace)
    return namespace


def traced_sites():
    return tracing()["SITES"]


def test_every_traced_name_is_a_module_attribute():
    prog = {name.lstrip("_"): importlib.import_module(f"uavcontract.{name}")
            for name in MODULES}
    sites = traced_sites()
    assert sites
    missing = [(module, name) for module, name, _, _ in sites
               if not callable(getattr(prog[module], name, None))]
    assert missing == []


WORKLOADS = PERFBENCH / "workloads.py"

# the namespace's attribute names
NAMESPACE = {name.lstrip("_") for name in MODULES}


def program_reads(path):
    """Every (module, name) the source at ``path`` reads off the program
    namespace: ``prog.<module>.<name>``, ``<x>.prog.<module>.<name>``, or
    ``<alias>.<name>`` where ``<alias>`` is bound to ``prog.<module>``."""
    tree = ast.parse(path.read_text(encoding="utf-8"), str(path))

    def module_of(node):
        if isinstance(node, ast.Attribute) and node.attr in NAMESPACE:
            owner = node.value
            if (isinstance(owner, ast.Name) and owner.id == "prog"
                    or isinstance(owner, ast.Attribute)
                    and owner.attr == "prog"):
                return node.attr
        return None

    aliases = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign) and len(node.targets) == 1:
            target, value = node.targets[0], node.value
            if isinstance(target, ast.Tuple) and isinstance(value, ast.Tuple):
                pairs = zip(target.elts, value.elts)
            else:
                pairs = [(target, value)]
            for name, bound in pairs:
                module = module_of(bound)
                if module and isinstance(name, ast.Name):
                    aliases[name.id] = module
    reads = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute):
            owner = node.value
            module = module_of(owner) or (
                aliases.get(owner.id) if isinstance(owner, ast.Name)
                else None)
            if module:
                reads.add((module, node.attr))
    return reads


def test_every_kernel_name_the_driver_reads_exists():
    reads = {name for module, name in program_reads(RUN)
             if module == "kernels"}
    assert reads
    assert sorted(name for name in reads
                  if not hasattr(_kernels, name)) == []


def test_every_program_name_the_benchmark_calls_exists():
    prog = {name.lstrip("_"): importlib.import_module(f"uavcontract.{name}")
            for name in MODULES}
    reads = program_reads(RUN) | program_reads(WORKLOADS)
    # the parse finds each way the benchmark reaches the program
    assert {("config", "load_config"), ("kernels", "warmup"),
            ("game", "UavType"), ("game", "Scenario"),
            ("environment", "derived_delay"),
            ("solver", "oracle_resolution_bound"),
            ("runner", "run_phc")} <= reads
    assert sorted((module, name) for module, name in reads
                  if not hasattr(prog[module], name)) == []


def test_train_loop_takes_uniforms_fifth():
    # the tracer counts kernels.train_loop.slots from the call's args[4]
    parameters = list(inspect.signature(_kernels.train_loop).parameters)
    assert parameters[4] == "uniforms"
    args = [None] * len(parameters)
    args[4] = np.zeros((3, 2, 4))
    assert tracing()["_train_loop_slots"](args) == 6


def test_train_sites_count_every_batch(tmp_path, monkeypatch):
    # `hotboot` trains its own stack in place, so the tracer's kernel
    # layer, which wraps `_kernels.train_loop` where `phc` looks it up,
    # sees every slot of every episode, and its phc.train layer sees
    # `runner.train`, which each seed group calls once for its batch
    slots_of = tracing()["_train_loop_slots"]
    kernel = []
    train_loop = _kernels.train_loop

    def counting_loop(*args):
        kernel.append(slots_of(args))
        return train_loop(*args)

    calls = {"phc": [], "runner": []}

    def counting(site, train):
        def wrapped(scenarios, params, slots, init, rngs):
            calls[site].append(list(rngs))
            return train(scenarios, params, slots, init, rngs)
        return wrapped

    monkeypatch.setattr(_kernels, "train_loop", counting_loop)
    monkeypatch.setattr(phc, "train", counting("phc", phc.train))
    monkeypatch.setattr(runner, "train", counting("runner", runner.train))
    sc = make_scenario_a()
    rngs = [np.random.default_rng(s) for s in (1, 2)]
    # an episode of a whole slot block and 20 slots more, on two seeds of
    # two eligible types each
    phc.hotboot([[sc], [sc]], 3, phc.PhcParams(reward_levels=3,
                                               size_levels=3), rngs,
                phc.SLOT_BLOCK + 20)
    rows = 2 * 2
    assert kernel == 3 * [phc.SLOT_BLOCK * rows, 20 * rows]
    assert sum(kernel) == 3 * (phc.SLOT_BLOCK + 20) * rows
    assert calls == {"phc": [], "runner": []}

    # two seed groups, both run in this process so their calls are seen
    kernel.clear()
    monkeypatch.setattr(runner, "_usable_cpus", lambda: 2)
    monkeypatch.setattr(runner, "_run_groups",
                        lambda task, groups: [task(g) for g in groups])
    cfg = load_config(Path(__file__).parent / "data" / "phc_wide.yaml")
    run = cfg.phc_run
    block = phc.SLOT_BLOCK
    assert run.slots_per_episode <= block < run.slots <= 2 * block
    runner.run_phc(cfg, tmp_path)
    assert [len(g) for g in calls["runner"]] == [2, 1]
    assert calls["phc"] == []
    # per group, one kernel call per episode, then the run's blocks
    eligible = len(cfg.scenario.eligible)
    blocks = [block, run.slots - block]
    assert kernel == [slots * seeds * eligible for seeds in (2, 1)
                      for slots in run.hotboot_episodes
                      * [run.slots_per_episode] + blocks]
