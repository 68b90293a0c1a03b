"""The four benchmark workloads: input generators, one pass each, checks.

Each workload draws its inputs from the benchmark seed once, before any
timing, and every pass runs the same inputs again, so every pass must give
the same digest.  A pass reaches the program only through module attributes
(``solver.solve_partial_info``, ``runner.run_phc``, ...): that is where the
traced run installs its wrappers.

``prog`` is the namespace built by ``run.import_program``: one attribute per
program module, with ``_kernels`` available as ``kernels``.
"""

from __future__ import annotations

import csv
import dataclasses
import functools
import hashlib
import io
import json
import math
import re
import shutil
import struct
import tempfile
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

import numpy as np

SCHEMES = ("partial", "complete", "linear", "uniform")

# The optimal menus make IR and adjacent IC bind with equality, so the
# utility ordering between schemes is compared with a relative slack.
ORDER_TOL = 1e-9
# validate: the closed form may trail the oracle by float noise only.
GAP_FLOOR = -1e-9

DESIGN_MAX_TYPES = 12
DESIGN_PER_TYPE_COUNT = 84  # 1008 scenarios per design pass
REFERENCE_BYTES = 1.0e6     # VDD volume whose transmission time is a delay
VALIDATE_PER_CLASS = 30     # validate scenarios per eligible-type count
LEARN_SEEDS = {"learn_long": 3, "learn_wide": 8}

_NON_FINITE = re.compile(rb"(?:^|,)-?(?:nan|inf)(?=,|$)", re.MULTILINE)


@dataclass
class PassResult:
    """What one pass did, as measured and as checked."""

    op_seconds: list[float]
    failures: list[str]
    digest: str
    work: dict          # computed counts, the same on every pass of a run;
                        # "scenarios" and "type_slots" are always present
    outcome: dict       # shares and ratios derived from the outputs
    file_digests: dict = field(default_factory=dict)
    wall: float = 0.0


def _rng(seed: int, workload_tag: int) -> np.random.Generator:
    return np.random.default_rng([workload_tag, seed])


def _pack(values) -> bytes:
    values = [float(v) for v in values]
    return struct.pack(f"<{len(values)}d", *values)


def _mark(trace) -> None:
    if trace is not None:
        trace.op += 1


# --- design -----------------------------------------------------------------

@dataclass(frozen=True)
class DesignInput:
    c1: tuple[float, ...]
    c2: tuple[float, ...]
    n: tuple[int, ...]
    positions: tuple[tuple[float, float, float], ...]
    deadline_rank: int   # t_max is the delay of the type at this rank


@functools.lru_cache(maxsize=4)
def design_inputs(seed: int, per_type_count: int = DESIGN_PER_TYPE_COUNT
                  ) -> tuple[DesignInput, ...]:
    """Scenarios with 1-12 types placed around the GCS.

    Every type count appears equally often, in a seeded order, so the
    O(J^3) feasibility scans cost the same on every seed.  The deadline is
    the delay of a randomly ranked type: the slower types miss it in most
    scenarios, while at least one type always makes it.
    """
    rng = _rng(seed, 1)
    out = []
    counts = np.repeat(np.arange(1, DESIGN_MAX_TYPES + 1), per_type_count)
    for j in rng.permutation(counts).tolist():
        radius = rng.uniform(30.0, 600.0, j)
        angle = rng.uniform(0.0, 2.0 * math.pi, j)
        height = rng.uniform(20.0, 300.0, j)
        out.append(DesignInput(
            c1=tuple(rng.uniform(0.05, 1.0, j).tolist()),
            c2=tuple(rng.uniform(0.0, 0.3, j).tolist()),
            n=tuple(rng.integers(1, 11, j).tolist()),
            positions=tuple(zip((radius * np.cos(angle)).tolist(),
                                (radius * np.sin(angle)).tolist(),
                                height.tolist())),
            deadline_rank=int(rng.integers(0, j))))
    return tuple(out)


def check_design(reports, utilities, zetas) -> list[str]:
    """Problems with one design scenario's four scored menus (scheme order).

    The partial, linear and uniform menus must be feasible; the complete-
    information menu is held to IR only, since it is not meant to be IC.
    GCS utility must order complete >= partial >= max(linear, uniform).
    """
    problems = []
    for scheme, report in zip(SCHEMES, reports):
        if scheme == "complete":
            if report.ir_violations:
                problems.append(f"complete menu breaks IR: "
                                f"{report.ir_violations}")
        elif not report.feasible:
            problems.append(f"{scheme} menu infeasible: {report}")
    if not all(math.isfinite(v) for v in list(utilities) + list(zetas)):
        problems.append(f"non-finite utility or zeta: {utilities} {zetas}")
        return problems
    partial, complete, linear, uniform = utilities
    tol = ORDER_TOL * max(1.0, abs(complete), abs(partial))
    if complete < partial - tol:
        problems.append(f"complete {complete} below partial {partial}")
    if partial < max(linear, uniform) - tol:
        problems.append(f"partial {partial} below a baseline "
                        f"({linear}, {uniform})")
    return problems


def prepare_design(config, seed: int, work_root: Path):
    return {"config": config, "inputs": design_inputs(seed)}


def run_design(prog, state, trace=None) -> PassResult:
    environment, game, solver = prog.environment, prog.game, prog.solver
    config = state["config"]
    base, channel = config.scenario, config.channel
    gcs_pos = (0.0, 0.0, channel.gcs_height)
    digest = hashlib.sha256()
    ops, failures = [], []
    by_eligible: dict[int, int] = {}
    pooled = with_ineligible = type_slots = 0
    for i, x in enumerate(state["inputs"]):
        _mark(trace)
        tic = perf_counter()
        delays = [environment.derived_delay(REFERENCE_BYTES, pos, gcs_pos,
                                            channel)
                  for pos in x.positions]
        t_max = sorted(delays)[x.deadline_rank]
        types = tuple(game.UavType(index=k + 1, c1=x.c1[k], c2=x.c2[k],
                                   t=delays[k], n=x.n[k])
                      for k in range(len(delays)))
        scenario = game.Scenario(
            types=types, satisfaction_factor=base.satisfaction_factor,
            deployment_cost=base.deployment_cost, s_max=base.s_max,
            t_max=t_max, vdd_demand=base.vdd_demand, total_uavs=sum(x.n))
        partial, solver_trace = solver.solve_partial_info(scenario)
        menus = (partial, solver.solve_complete_info(scenario),
                 solver.linear_contract(scenario,
                                        max(ty.c for ty in types)),
                 solver.uniform_contract(scenario))
        reports = [game.verify_feasibility(scenario, m) for m in menus]
        utilities = [game.gcs_utility(scenario, m) for m in menus]
        zetas = [game.defensive_effectiveness(scenario, m) for m in menus]
        problems = check_design(reports, utilities, zetas)
        ops.append(perf_counter() - tic)
        failures.extend(f"scenario {i}: {p}" for p in problems)
        for menu in menus:
            digest.update(_pack(v for item in menu.items
                                for v in (item.s, item.r)))
        digest.update(_pack(utilities + zetas))
        eligible = len(solver_trace.eligible_order)
        by_eligible[eligible] = by_eligible.get(eligible, 0) + 1
        pooled += bool(solver_trace.pools)
        with_ineligible += eligible < len(types)
        type_slots += len(types)
    count = len(ops)
    return PassResult(
        op_seconds=ops, failures=failures, digest=digest.hexdigest(),
        work={"scenarios": count, "type_slots": type_slots,
              "scenarios_by_eligible_types": dict(sorted(by_eligible.items())),
              "pooled_scenarios": pooled,
              "scenarios_with_ineligible_types": with_ineligible},
        outcome={"pooled_share": pooled / count})


# --- validate ---------------------------------------------------------------

@dataclass(frozen=True)
class ValidateInput:
    c1: tuple[float, ...]
    c2: tuple[float, ...]
    n: tuple[int, ...]
    t: tuple[float, ...]


@functools.lru_cache(maxsize=4)
def validate_inputs(seed: int, t_max: float,
                    per_class: int = VALIDATE_PER_CLASS
                    ) -> tuple[ValidateInput, ...]:
    """Scenarios with exactly 1, 2 and 3 eligible types, in equal numbers.

    Each may also carry one type too slow for the deadline.  The classes
    are interleaved and equally sized, so whatever the seed the latency
    median falls among the 2-type scenarios and a pass's tail among the
    3-type ones.
    """
    rng = _rng(seed, 2)
    out = []
    for _ in range(per_class):
        for eligible in (1, 2, 3):
            slow = int(rng.integers(0, 2))
            t = np.concatenate([rng.uniform(0.3, t_max, eligible),
                                rng.uniform(1.05 * t_max, 2.0 * t_max, slow)])
            order = rng.permutation(eligible + slow)
            j = eligible + slow
            out.append(ValidateInput(
                c1=tuple(rng.uniform(0.05, 1.0, j).tolist()),
                c2=tuple(rng.uniform(0.0, 0.3, j).tolist()),
                n=tuple(rng.integers(1, 11, j).tolist()),
                t=tuple(t[order].tolist())))
    return tuple(out)


def oracle_grid_points(s_max: float, step: float) -> int:
    """Points on the oracle's size grid: multiples of step, then s_max."""
    n_steps = int(math.floor(s_max / step * (1.0 + 1e-12) + 1e-12))
    appended = s_max - n_steps * step > 1e-9 * step
    return n_steps + 1 + int(appended)


def check_validate(report, gap: float, bound: float) -> list[str]:
    problems = []
    if not report.feasible:
        problems.append(f"closed-form menu infeasible: {report}")
    if not (math.isfinite(gap) and math.isfinite(bound)):
        problems.append(f"non-finite gap {gap} or bound {bound}")
    elif not GAP_FLOOR <= gap <= bound:
        problems.append(f"closed form minus oracle {gap} outside "
                        f"[{GAP_FLOOR}, {bound}]")
    return problems


def prepare_validate(config, seed: int, work_root: Path):
    return {"config": config,
            "inputs": validate_inputs(seed, config.scenario.t_max)}


def run_validate(prog, state, trace=None) -> PassResult:
    game, solver = prog.game, prog.solver
    config = state["config"]
    base, step = config.scenario, config.grid_oracle
    points = oracle_grid_points(base.s_max, step)
    digest = hashlib.sha256()
    ops, failures = [], []
    by_eligible: dict[int, int] = {}
    tuples = type_slots = 0
    worst = 0.0
    for i, x in enumerate(state["inputs"]):
        _mark(trace)
        tic = perf_counter()
        types = tuple(game.UavType(index=k + 1, c1=x.c1[k], c2=x.c2[k],
                                   t=x.t[k], n=x.n[k])
                      for k in range(len(x.t)))
        scenario = game.Scenario(
            types=types, satisfaction_factor=base.satisfaction_factor,
            deployment_cost=base.deployment_cost, s_max=base.s_max,
            t_max=base.t_max, vdd_demand=base.vdd_demand,
            total_uavs=sum(x.n))
        menu, solver_trace = solver.solve_partial_info(scenario)
        report = game.verify_feasibility(scenario, menu)
        oracle = solver.brute_force_oracle(scenario, step)
        bound = solver.oracle_resolution_bound(scenario, step)
        gap = (game.gcs_utility(scenario, menu)
               - game.gcs_utility(scenario, oracle))
        problems = check_validate(report, gap, bound)
        ops.append(perf_counter() - tic)
        failures.extend(f"scenario {i}: {p}" for p in problems)
        digest.update(_pack(v for item in oracle.items
                            for v in (item.s, item.r)))
        eligible = len(solver_trace.eligible_order)
        by_eligible[eligible] = by_eligible.get(eligible, 0) + 1
        tuples += math.comb(points + eligible - 1, eligible)
        type_slots += len(types)
        if bound > 0.0:
            worst = max(worst, gap / bound)
    count = len(ops)
    return PassResult(
        op_seconds=ops, failures=failures, digest=digest.hexdigest(),
        work={"scenarios": count, "type_slots": type_slots,
              "scenarios_by_eligible_types": dict(sorted(by_eligible.items())),
              "oracle_grid_points": points, "oracle_tuples": tuples},
        outcome={"gap_over_bound_max": worst})


# --- learn_long / learn_wide -------------------------------------------------

def learn_seeds(seed: int, count: int) -> tuple[int, ...]:
    return tuple(int(s) for s in
                 np.random.SeedSequence([3, seed]).generate_state(count))


def check_learn(files: dict[str, bytes], seeds) -> list[str]:
    """Every artifact finite and present.

    The one exception is ``convergence_slot`` in the summary, which is
    ``inf`` exactly when the pair did not converge: not converging is a
    learner outcome, not a failure.
    """
    expected = {f"phc_seed{s}.csv" for s in seeds}
    expected |= {"phc_summary.csv", "manifest.json"}
    problems = [f"missing artifact {name}"
                for name in sorted(expected - set(files))]
    for name, data in files.items():
        if name.endswith(".csv") and name != "phc_summary.csv":
            if _NON_FINITE.search(data):
                problems.append(f"{name}: non-finite value")
    summary = files.get("phc_summary.csv", b"").decode("utf-8")
    for row in csv.DictReader(io.StringIO(summary)):
        for key, value in row.items():
            if key == "convergence_slot" and row["converged"] == "0" \
                    and value == "inf":
                continue
            if not math.isfinite(float(value)):
                problems.append(f"phc_summary.csv: non-finite {key}")
    try:
        json.loads(files.get("manifest.json", b"{}"))
    except ValueError:
        problems.append("manifest.json is not valid JSON")
    return problems


def prepare_learn(config, seed: int, work_root: Path, count: int):
    config = dataclasses.replace(config, seeds=learn_seeds(seed, count))
    scenario, run = config.scenario, config.phc_run
    eligible = sum(1 for ty in scenario.types if ty.t <= scenario.t_max)
    per_seed = run.slots + run.hotboot_episodes * run.slots_per_episode
    return {"config": config, "work_root": work_root,
            "type_slots": eligible * per_seed * len(config.seeds)}


def run_learn(prog, state, trace=None) -> PassResult:
    config = state["config"]
    work_root = Path(state["work_root"])
    work_root.mkdir(parents=True, exist_ok=True)
    out = Path(tempfile.mkdtemp(prefix="run_phc-", dir=work_root))
    try:
        _mark(trace)
        tic = perf_counter()
        summaries = prog.runner.run_phc(config, out)
        elapsed = perf_counter() - tic
        files = {p.name: p.read_bytes() for p in sorted(out.iterdir())}
    finally:
        shutil.rmtree(out)
    digest = hashlib.sha256()
    file_digests = {}
    for name, data in files.items():
        file_digests[name] = hashlib.sha256(data).hexdigest()
        digest.update(name.encode() + b"\0" + data)
    converged = sum(1 for s in summaries if s.converged)
    return PassResult(
        op_seconds=[elapsed], failures=check_learn(files, config.seeds),
        digest=digest.hexdigest(),
        work={"scenarios": 1, "type_slots": state["type_slots"],
              "seeds": len(config.seeds),
              "rows_written": sum(d.count(b"\n") for d in files.values()),
              "bytes_written": sum(len(d) for d in files.values())},
        outcome={"converged_share": converged / len(summaries)},
        file_digests=file_digests)


@dataclass(frozen=True)
class Workload:
    name: str
    prepare: object      # (config, seed, work_root) -> state
    run_pass: object     # (prog, state, trace) -> PassResult


WORKLOADS = {w.name: w for w in (
    Workload("design", prepare_design, run_design),
    Workload("validate", prepare_validate, run_validate),
    Workload("learn_long", functools.partial(
        prepare_learn, count=LEARN_SEEDS["learn_long"]), run_learn),
    Workload("learn_wide", functools.partial(
        prepare_learn, count=LEARN_SEEDS["learn_wide"]), run_learn),
)}
