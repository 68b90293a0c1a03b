"""Experiment orchestration: solve schemes, run learners, emit CSV/JSON.

All numeric output uses 9 significant digits with '.' as the decimal
separator regardless of locale, files are written atomically (temp file
then rename), and every run drops a manifest.json recording the config
hash, seeds, and library versions.  Wall-clock timings never enter the
CSVs so reruns stay byte-identical; the CLI prints them instead.  No
artifact carries NaN or an infinity: a writer that meets one raises
NonFiniteOutput naming the file and the key.  The one exception is the
convergence slot of a pair that did not converge, which
`phc_summary.csv` writes as ``inf``.
"""

from __future__ import annotations

import dataclasses
import json
import math
import os
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from ._kernels import JIT_ENABLED
from .config import ExperimentConfig
from .errors import NonFiniteOutput, NotConverged, ValidationError
from .game import (Scenario, defensive_effectiveness, eligible_types,
                   gcs_utility)
from .phc import (EpisodeLog, convergence_check, convergence_slot, hotboot,
                  perturb_scenario, train, with_default_r_max)
from .solver import (brute_force_oracle, linear_contract, menu_utilities,
                     oracle_resolution_bound, solve_complete_info,
                     solve_partial_info, uniform_contract)

SCHEME_ORDER = ("partial", "complete", "linear", "uniform")

DEFAULT_ORACLE_STEP = 0.25


@dataclass(frozen=True)
class MetricsRow:
    """One scheme's outcome on one scenario."""

    scheme: str
    type_utilities: tuple[float, ...]
    gcs_utility: float
    zeta: float


def fmt(value) -> str:
    """Locale-independent 9-significant-digit rendering."""
    v = float(value)
    if v == 0.0:
        v = 0.0
    return format(v, ".9g")


def _finite(file: str, key: str, value, allowed=()) -> str:
    """``fmt(value)``, refusing a non-finite value not in ``allowed``."""
    if not math.isfinite(value) and value not in allowed:
        raise NonFiniteOutput(file, key, value)
    return fmt(value)


def csv_text(file: str, header, records, allowed: dict | None = None
             ) -> str:
    """A CSV with one line per record: strings as they are, numbers in
    `fmt` form, each checked finite under its column's name.  ``allowed``
    maps a column to the non-finite values it may hold."""
    allowed = allowed or {}
    lines = [",".join(header)]
    for record in records:
        lines.append(",".join(
            value if isinstance(value, str)
            else _finite(file, key, value, allowed.get(key, ()))
            for key, value in zip(header, record)))
    return "\n".join(lines) + "\n"


def json_text(file: str, data: dict) -> str:
    """Indented, key-sorted JSON, refusing any non-finite number."""
    def check(value, key):
        if isinstance(value, dict):
            for k, v in value.items():
                check(v, f"{key}.{k}" if key else k)
        elif isinstance(value, (list, tuple)):
            for i, v in enumerate(value):
                check(v, f"{key}[{i}]")
        elif isinstance(value, float):
            _finite(file, key, value)
    check(data, "")
    return json.dumps(data, indent=2, sort_keys=True, allow_nan=False) + "\n"


def write_text_atomic(path: Path, text: str) -> None:
    # the directory is made at the first write, so a run refused before
    # it writes anything leaves none behind
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(path.name + ".tmp")
    tmp.write_text(text, encoding="utf-8", newline="\n")
    os.replace(tmp, path)


def _package_version() -> str:
    try:
        from importlib.metadata import version
        return version("uavcontract")
    except Exception:
        return "unknown"


def write_manifest(out_dir: Path, config: ExperimentConfig,
                   config_digest: str | None) -> None:
    manifest = {
        "mode": config.mode,
        "seeds": list(config.seeds),
        "config_sha256": config_digest,
        "package_version": _package_version(),
        "numpy_version": np.__version__,
        "python_version": sys.version.split()[0],
        "jit_enabled": JIT_ENABLED,
    }
    write_text_atomic(out_dir / "manifest.json",
                      json.dumps(manifest, indent=2, sort_keys=True) + "\n")


def _out_dir(config: ExperimentConfig, out_dir) -> Path:
    return Path(out_dir if out_dir is not None else config.output_dir)


def default_linear_price(scenario: Scenario) -> float:
    """Default unit price: the top marginal cost among the scenario types."""
    return max(ty.c for ty in scenario.types)


def metrics_rows(config: ExperimentConfig,
                 scenario: Scenario) -> list[MetricsRow]:
    price = (config.linear_price if config.linear_price is not None
             else default_linear_price(scenario))
    solvers = {
        "partial": lambda: solve_partial_info(scenario)[0],
        "complete": lambda: solve_complete_info(scenario),
        "linear": lambda: linear_contract(scenario, price),
        "uniform": lambda: uniform_contract(scenario),
    }
    rows = []
    for scheme in SCHEME_ORDER:
        menu = solvers[scheme]()
        rows.append(MetricsRow(
            scheme=scheme,
            type_utilities=tuple(menu_utilities(scenario, menu)),
            gcs_utility=gcs_utility(scenario, menu),
            zeta=defensive_effectiveness(scenario, menu)))
    return rows


def run_compare(config: ExperimentConfig, out_dir=None,
                config_digest: str | None = None) -> list[MetricsRow]:
    """Solve all four schemes and write one CSV row per scheme."""
    out = _out_dir(config, out_dir)
    scenario = config.scenario
    rows = metrics_rows(config, scenario)
    header = (["scheme"] + [f"u_type{ty.index}" for ty in scenario.types]
              + ["gcs_utility", "zeta"])
    text = csv_text("compare.csv", header, (
        [row.scheme, *row.type_utilities, row.gcs_utility, row.zeta]
        for row in rows))
    write_text_atomic(out / "compare.csv", text)
    write_manifest(out, config, config_digest)
    return rows


def _oracle_report(config: ExperimentConfig, scenario: Scenario,
                   closed_menu) -> dict:
    step = (config.grid_oracle if config.grid_oracle is not None
            else DEFAULT_ORACLE_STEP)
    oracle_menu = brute_force_oracle(scenario, step)
    positions = [scenario.types.index(ty) for ty in eligible_types(scenario)]
    return {
        "grid_step": step,
        "closed_form_sizes": [closed_menu.items[k].s for k in positions],
        "oracle_sizes": [oracle_menu.items[k].s for k in positions],
        "closed_form_gcs_utility": gcs_utility(scenario, closed_menu),
        "oracle_gcs_utility": gcs_utility(scenario, oracle_menu),
        "resolution_bound": oracle_resolution_bound(scenario, step),
    }


def run_solve(config: ExperimentConfig, out_dir=None, oracle: bool = False,
              config_digest: str | None = None) -> dict:
    """Solve the asymmetric-information menu and write it out."""
    out = _out_dir(config, out_dir)
    scenario = config.scenario
    menu, trace = solve_partial_info(scenario)
    utilities = menu_utilities(scenario, menu)
    menu_csv = csv_text(
        "menu.csv", ("type", "cost", "delay", "count", "size", "reward",
                     "utility"),
        ([str(ty.index), ty.c, ty.t, str(ty.n), item.s, item.r, u]
         for ty, item, u in zip(scenario.types, menu.items, utilities)))
    summary = {
        "gcs_utility": gcs_utility(scenario, menu),
        "zeta": defensive_effectiveness(scenario, menu),
        "eligible_types": list(trace.eligible_order),
        "pooled_ranges": [list(r) for r in trace.pools],
        "unconstrained_sizes": list(trace.unconstrained_sizes),
    }
    if oracle or config.grid_oracle is not None:
        summary["oracle"] = _oracle_report(config, scenario, menu)
    summary_json = json_text("summary.json", summary)
    write_text_atomic(out / "menu.csv", menu_csv)
    write_text_atomic(out / "summary.json", summary_json)
    write_manifest(out, config, config_digest)
    return summary


def run_sweep_cost(config: ExperimentConfig, out_dir=None,
                   config_digest: str | None = None) -> list[tuple]:
    """Vary the first listed type's marginal cost over [0.01, 1].

    The swept type's cost is set entirely as transmission-energy cost
    (c2 = 0); everything else stays fixed.  One CSV row per (cost, scheme)
    with the swept type's utility.
    """
    out = _out_dir(config, out_dir)
    base = config.scenario
    points = np.linspace(0.01, 1.0, config.cost_points)
    records = []
    for cost in points:
        swept = dataclasses.replace(base.types[0], c1=float(cost), c2=0.0)
        scenario = dataclasses.replace(base,
                                       types=(swept,) + base.types[1:])
        for row in metrics_rows(config, scenario):
            records.append((float(cost), row.scheme, row.type_utilities[0],
                            row.gcs_utility, row.zeta))
    write_text_atomic(out / "sweep_cost.csv", csv_text(
        "sweep_cost.csv",
        ("cost", "scheme", "uav_utility", "gcs_utility", "zeta"), records))
    write_manifest(out, config, config_digest)
    return records


def scale_counts(counts, new_total: int) -> list[int]:
    """Largest-remainder scaling of type counts to a new population.

    Quotas are proportional; floors are topped up in order of descending
    fractional part (ties to the earlier type).  Every type keeps at least
    one member, funded by the largest count, so the mixture never loses a
    type; the population must therefore be at least the type count.
    """
    if new_total < len(counts):
        raise ValidationError(
            "sweep.populations",
            f"population {new_total} cannot cover {len(counts)} types")
    total = sum(counts)
    quotas = [c * new_total / total for c in counts]
    scaled = [int(math.floor(q)) for q in quotas]
    leftover = new_total - sum(scaled)
    order = sorted(range(len(counts)),
                   key=lambda i: (-(quotas[i] - scaled[i]), i))
    for i in order[:leftover]:
        scaled[i] += 1
    while any(c == 0 for c in scaled):
        zero = scaled.index(0)
        donor = max(range(len(scaled)), key=lambda i: scaled[i])
        scaled[zero] += 1
        scaled[donor] -= 1
    return scaled


def run_sweep_population(config: ExperimentConfig, out_dir=None,
                         config_digest: str | None = None) -> list[tuple]:
    """Scale the population over the sweep points; one row per scheme."""
    out = _out_dir(config, out_dir)
    base = config.scenario
    records = []
    for population in config.populations:
        counts = scale_counts([ty.n for ty in base.types], population)
        types = tuple(dataclasses.replace(ty, n=c)
                      for ty, c in zip(base.types, counts))
        scenario = dataclasses.replace(base, types=types,
                                       total_uavs=population)
        for row in metrics_rows(config, scenario):
            records.append((population, row.scheme, row.zeta,
                            row.gcs_utility))
    write_text_atomic(out / "sweep_population.csv", csv_text(
        "sweep_population.csv",
        ("population", "scheme", "zeta", "gcs_utility"),
        ([str(p), scheme, zeta, utility]
         for p, scheme, zeta, utility in records)))
    write_manifest(out, config, config_digest)
    return records


@dataclass(frozen=True)
class PhcSeedSummary:
    """Converged values for one (seed, type) pair plus the reference menu."""

    seed: int
    type_index: int
    converged: bool
    modal_size: float
    modal_reward: float
    slot: float
    reference_size: float
    reference_reward: float


TRAJECTORY_HEADER = ("slot,type,gcs_state,uav_state,reward,size,"
                     "uav_utility,gcs_term")


def _formatted(values: np.ndarray, strings: dict) -> list[str]:
    """`fmt` of each value, each distinct value formatted once and kept in
    ``strings``.  (Equal values format alike: `fmt` writes -0.0 as 0.)"""
    values = values.tolist()
    for value in set(values).difference(strings):
        strings[value] = fmt(value)
    return list(map(strings.__getitem__, values))


def trajectory_text(file: str, log: EpisodeLog, strings: dict) -> str:
    """The trajectory CSV of one log: a line per slot and column, in order.

    In a log `train` writes, every cell but its slot number is a function
    of (column, posted item, answer), so cells are coded by those and each
    distinct tail is built, and checked finite, once.  A cell whose fields
    differ from the first cell of its code, as a hand-built log may hold,
    is built on its own, and so is a NaN payoff, which equals nothing.
    ``strings`` maps values to their `fmt` strings and gains each value
    met for the first time: the logs of one run share it, since they share
    the grids and, where the seeds train one scenario, the payoffs.
    """
    slots, width = log.reward_index.shape
    column = np.broadcast_to(np.arange(width), (slots, width))
    code = (log.uav_state * 2 + log.gcs_state) * width + column
    _, first, inverse = np.unique(code.ravel(), return_index=True,
                                  return_inverse=True)
    fields = [field.ravel() for field in (
        log.gcs_state, log.uav_state, log.reward_index, log.size_index,
        log.uav_utility, log.gcs_term)]
    # cells of one code with equal items and answers share a column, even
    # where the code wraps, so the column needs no comparison
    odd = np.zeros(code.size, dtype=bool)
    for flat in fields:
        odd |= flat != flat.take(first).take(inverse)
    singles = np.flatnonzero(odd)
    inverse[singles] = first.size + np.arange(singles.size)
    cells = np.concatenate([first, singles])
    answer, item, reward, size, uav, gcs = (flat.take(cells)
                                            for flat in fields)
    values = {"reward": log.reward_grid.take(reward),
              "size": log.size_grid.take(size),
              "uav_utility": uav, "gcs_term": gcs}
    for key, value in values.items():
        bad = ~np.isfinite(value)
        if bad.any():
            raise NonFiniteOutput(file, key, value[bad][0])
    # each grid point is formatted once, and the cells index its string
    reward_text = _formatted(log.reward_grid, strings)
    size_text = _formatted(log.size_grid, strings)
    types = np.array(log.type_indices).take(cells % width)
    tails = list(map("{},{},{},{},{},{},{}".format, types.tolist(),
                     answer.tolist(), item.tolist(),
                     map(reward_text.__getitem__, reward.tolist()),
                     map(size_text.__getitem__, size.tolist()),
                     _formatted(uav, strings), _formatted(gcs, strings)))
    slot_of = np.repeat(np.arange(1, slots + 1), width)
    return TRAJECTORY_HEADER + "\n" + "".join(map(
        "{},{}\n".format, slot_of.tolist(),
        map(tails.__getitem__, inverse.tolist())))


def run_phc(config: ExperimentConfig, out_dir=None, strict: bool = False,
            config_digest: str | None = None) -> list[PhcSeedSummary]:
    """Train every seed (optionally hotbooted), log trajectories and verdicts.

    Each seed owns an isolated RNG stream; all seeds are trained in one
    batch, so each (seed, type) pair is a row of one kernel call, and each
    seed is then checked and written in turn.  The closed-form menu for the
    same scenario rides along as the reference columns.  With ``strict``
    a NotConverged is raised after all outputs are written whenever any
    (seed, type) pair fails the trailing-window test.
    """
    out = _out_dir(config, out_dir)
    scenario = config.scenario
    params = with_default_r_max(config.phc, scenario)
    run = config.phc_run
    reference, _ = solve_partial_info(scenario)
    reference_items = {ty.index: item
                       for ty, item in zip(scenario.types, reference.items)}
    rngs = [np.random.default_rng(seed) for seed in config.seeds]
    inits = None
    if run.hotboot_episodes > 0:
        families = [[scenario] + [
            perturb_scenario(scenario, rng, run.perturbation)
            for _ in range(run.family_size - 1)] for rng in rngs]
        inits = hotboot(families, run.hotboot_episodes, params, rngs,
                        run.slots_per_episode)
    results = train(scenario, params, run.slots, inits, rngs)
    summaries = []
    # the seeds share one table of formatted values
    strings: dict = {}
    for seed, result in zip(config.seeds, results):
        verdicts = convergence_check(result.log, run.window, run.tolerance)
        slot = convergence_slot(result.log, run.window, run.tolerance)
        name = f"phc_seed{seed}.csv"
        write_text_atomic(out / name,
                          trajectory_text(name, result.log, strings))
        for type_index, verdict in zip(result.log.type_indices, verdicts):
            ref_item = reference_items[type_index]
            summaries.append(PhcSeedSummary(
                seed=seed, type_index=type_index,
                converged=verdict.converged, modal_size=verdict.size,
                modal_reward=verdict.reward, slot=slot,
                reference_size=ref_item.s, reference_reward=ref_item.r))
    write_text_atomic(out / "phc_summary.csv", csv_text(
        "phc_summary.csv",
        ("seed", "type", "converged", "modal_size", "modal_reward",
         "convergence_slot", "reference_size", "reference_reward"),
        ([str(s.seed), str(s.type_index), str(int(s.converged)),
          s.modal_size, s.modal_reward, s.slot, s.reference_size,
          s.reference_reward] for s in summaries),
        allowed={"convergence_slot": (math.inf,)}))
    write_manifest(out, config, config_digest)
    failed = sum(1 for s in summaries if not s.converged)
    if strict and failed:
        raise NotConverged(
            f"{failed} of {len(summaries)} seed/type pairs failed the "
            f"{run.window}-slot window test")
    return summaries


def run_mode(config: ExperimentConfig, out_dir=None, oracle: bool = False,
             strict: bool = False, config_digest: str | None = None):
    """Dispatch on config.mode; returns the mode's result object."""
    if config.mode == "solve":
        return run_solve(config, out_dir, oracle, config_digest)
    if config.mode == "compare":
        return run_compare(config, out_dir, config_digest)
    if config.mode == "sweep-cost":
        return run_sweep_cost(config, out_dir, config_digest)
    if config.mode == "sweep-population":
        return run_sweep_population(config, out_dir, config_digest)
    if config.mode == "phc":
        return run_phc(config, out_dir, strict, config_digest)
    raise ValidationError("mode", f"unknown mode {config.mode}")
