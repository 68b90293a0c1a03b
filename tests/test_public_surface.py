"""The package's public surface: the README's quickstart runs as printed,
and every function and class that `uavcontract.__all__` exports is used by
a mode, the quickstart or the benchmark.

The quickstart is the ```` ```python ```` blocks of ``README.md``, run in
order in one namespace.  The surface guard traces function entries with
``sys.setprofile`` while every CLI verb runs on the ``tests/data``
configs (``phc`` on one seed, so in this process) and the quickstart
runs; a public function that none of them enters, and that the benchmark
does not read (`test_bench_sites.program_reads`), fails it by name.  A
public class fails it the same way when none of the functions in its
body, its dataclass ``__init__`` among them, is entered.  Exceptions are
left out: they are raised, not used.
"""

import importlib
import inspect
import re
import sys
from pathlib import Path

import pytest
import yaml

import uavcontract
from conftest import logs_equal
from test_bench_sites import MODULES, RUN, WORKLOADS, program_reads
from uavcontract.cli import main

HERE = Path(__file__).parent
DATA = HERE / "data"
README = HERE.parent / "README.md"

# public functions and classes that wait on an open ROADMAP item
EXEMPT = {
    "step_mobility",    # item 6, contracts in a moving network
    "UavKinematics",    # item 6
}


def quickstart_blocks():
    text = README.read_text(encoding="utf-8")
    return re.findall(r"^```python\n(.*?)^```$", text, re.S | re.M)


def run_quickstart():
    namespace = {"__name__": "readme"}
    for block in quickstart_blocks():
        exec(compile(block, str(README), "exec"), namespace)
    return namespace


def test_readme_quickstart_runs(capsys):
    assert len(quickstart_blocks()) == 2
    ns = run_quickstart()
    utility = ns["uc"].gcs_utility(ns["scenario"], ns["menu"])
    assert str(utility).startswith("56.1360")
    assert str(utility) in capsys.readouterr().out.splitlines()
    # "same bits as above": seed 0 of the batch is the batch of one
    assert logs_equal(ns["results"].logs[0], ns["result"].logs[0])


def cli_runs(tmp_path):
    """Every verb on every config it runs on (``scenario_b.yaml`` sets
    ``grid_oracle``, so its `solve` runs the oracle), and `solve` on a
    scenario whose first type's delay comes from the channel model."""
    raw = yaml.safe_load((DATA / "scenario_a.yaml").read_text())
    raw["scenario"]["reference_bytes"] = 2.0e6
    first = raw["scenario"]["types"][0]
    del first["t"]
    first["position"] = [80.0, 0.0, 60.0]
    positioned = tmp_path / "positioned.yaml"
    positioned.write_text(yaml.safe_dump(raw))
    runs = [[verb, "--config", str(DATA / config)]
            for verb in ("solve", "compare", "sweep-cost",
                         "sweep-population")
            for config in ("scenario_a.yaml", "scenario_b.yaml")]
    runs.append(["solve", "--config", str(positioned)])
    runs += [["phc", "--config", str(DATA / config), "--seed", "0"]
             for config in ("phc_single_type.yaml", "phc_wide.yaml")]
    return [run + ["--out", str(tmp_path / f"run{k}")]
            for k, run in enumerate(runs)]


@pytest.fixture(scope="module")
def surface(tmp_path_factory):
    """The code objects entered while every CLI run and the quickstart
    run, the ids of the program names the benchmark reads, and the
    exported objects by name."""
    runs = cli_runs(tmp_path_factory.mktemp("cli"))
    entered = set()

    def profile(frame, event, arg):
        if event == "call":
            entered.add(frame.f_code)

    sys.setprofile(profile)
    try:
        codes = [main(run) for run in runs]
        run_quickstart()
    finally:
        sys.setprofile(None)
    assert codes == [0] * len(runs)
    assert set(EXEMPT) <= set(uavcontract.__all__)
    prog = {name.lstrip("_"): importlib.import_module(f"uavcontract.{name}")
            for name in MODULES}
    read = {id(getattr(prog[module], name, None))
            for module, name in program_reads(RUN) | program_reads(WORKLOADS)}
    public = {name: getattr(uavcontract, name)
              for name in uavcontract.__all__}
    return entered, read, public


def test_every_public_function_is_used(surface):
    entered, read, public = surface
    functions = {name: obj for name, obj in public.items()
                 if inspect.isfunction(obj)}
    unused = sorted(name for name, obj in functions.items()
                    if obj.__code__ not in entered and id(obj) not in read
                    and name not in EXEMPT)
    assert unused == [], f"exported, but nothing uses: {unused}"


def class_codes(cls):
    """The code of every function in ``cls``'s body, methods, class and
    static methods and property getters alike."""
    for member in vars(cls).values():
        member = getattr(member, "__func__", getattr(member, "fget", member))
        if inspect.isfunction(member):
            yield member.__code__


def test_every_public_class_is_used(surface):
    entered, read, public = surface
    classes = {name: obj for name, obj in public.items()
               if inspect.isclass(obj) and not issubclass(obj, BaseException)}
    assert {"Tables", "TrainResult", "UavKinematics"} <= set(classes)
    unused = sorted(name for name, cls in classes.items()
                    if entered.isdisjoint(class_codes(cls))
                    and id(cls) not in read and name not in EXEMPT)
    assert unused == [], f"exported, but nothing uses: {unused}"
