"""Experiment orchestration: solve schemes, run learners, emit CSV/JSON.

All numeric output uses 9 significant digits with '.' as the decimal
separator regardless of locale, files are written atomically (temp file
then rename), and every run drops a manifest.json recording the config
hash, seeds, and library versions.  Wall-clock timings never enter the
CSVs so reruns stay byte-identical; the CLI prints them instead.
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
from .errors import NotConverged, ValidationError
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


def write_text_atomic(path: Path, text: str) -> None:
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


def _prepare_dir(config: ExperimentConfig, out_dir) -> Path:
    out = Path(out_dir if out_dir is not None else config.output_dir)
    out.mkdir(parents=True, exist_ok=True)
    return out


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
    out = _prepare_dir(config, out_dir)
    scenario = config.scenario
    rows = metrics_rows(config, scenario)
    header = (["scheme"] + [f"u_type{ty.index}" for ty in scenario.types]
              + ["gcs_utility", "zeta"])
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(
            [row.scheme] + [fmt(u) for u in row.type_utilities]
            + [fmt(row.gcs_utility), fmt(row.zeta)]))
    write_text_atomic(out / "compare.csv", "\n".join(lines) + "\n")
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
    out = _prepare_dir(config, out_dir)
    scenario = config.scenario
    menu, trace = solve_partial_info(scenario)
    utilities = menu_utilities(scenario, menu)
    lines = ["type,cost,delay,count,size,reward,utility"]
    for ty, item, u in zip(scenario.types, menu.items, utilities):
        lines.append(",".join([str(ty.index), fmt(ty.c), fmt(ty.t),
                               str(ty.n), fmt(item.s), fmt(item.r), fmt(u)]))
    write_text_atomic(out / "menu.csv", "\n".join(lines) + "\n")
    summary = {
        "gcs_utility": gcs_utility(scenario, menu),
        "zeta": defensive_effectiveness(scenario, menu),
        "eligible_types": list(trace.eligible_order),
        "pooled_ranges": [list(r) for r in trace.pools],
        "unconstrained_sizes": list(trace.unconstrained_sizes),
    }
    if oracle or config.grid_oracle is not None:
        summary["oracle"] = _oracle_report(config, scenario, menu)
    write_text_atomic(out / "summary.json",
                      json.dumps(summary, indent=2, sort_keys=True) + "\n")
    write_manifest(out, config, config_digest)
    return summary


def run_sweep_cost(config: ExperimentConfig, out_dir=None,
                   config_digest: str | None = None) -> list[tuple]:
    """Vary the first listed type's marginal cost over [0.01, 1].

    The swept type's cost is set entirely as transmission-energy cost
    (c2 = 0); everything else stays fixed.  One CSV row per (cost, scheme)
    with the swept type's utility.
    """
    out = _prepare_dir(config, out_dir)
    base = config.scenario
    points = np.linspace(0.01, 1.0, config.cost_points)
    lines = ["cost,scheme,uav_utility,gcs_utility,zeta"]
    records = []
    for cost in points:
        swept = dataclasses.replace(base.types[0], c1=float(cost), c2=0.0)
        scenario = dataclasses.replace(base,
                                       types=(swept,) + base.types[1:])
        for row in metrics_rows(config, scenario):
            record = (float(cost), row.scheme, row.type_utilities[0],
                      row.gcs_utility, row.zeta)
            records.append(record)
            lines.append(",".join([fmt(cost), row.scheme,
                                   fmt(row.type_utilities[0]),
                                   fmt(row.gcs_utility), fmt(row.zeta)]))
    write_text_atomic(out / "sweep_cost.csv", "\n".join(lines) + "\n")
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
    out = _prepare_dir(config, out_dir)
    base = config.scenario
    lines = ["population,scheme,zeta,gcs_utility"]
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
            lines.append(",".join([str(population), row.scheme,
                                   fmt(row.zeta), fmt(row.gcs_utility)]))
    write_text_atomic(out / "sweep_population.csv", "\n".join(lines) + "\n")
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


def _trajectory_lines(log: EpisodeLog) -> list[str]:
    lines = ["slot,type,gcs_state,uav_state,reward,size,uav_utility,gcs_term"]
    rewards = log.rewards
    sizes = log.sizes
    for t in range(log.slots):
        for j, type_index in enumerate(log.type_indices):
            lines.append(",".join([
                str(t + 1), str(type_index),
                str(int(log.gcs_state[t, j])), str(int(log.uav_state[t, j])),
                fmt(rewards[t, j]), fmt(sizes[t, j]),
                fmt(log.uav_utility[t, j]), fmt(log.gcs_term[t, j])]))
    return lines


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
    out = _prepare_dir(config, out_dir)
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
    for seed, result in zip(config.seeds, results):
        verdicts = convergence_check(result.log, run.window, run.tolerance)
        slot = convergence_slot(result.log, run.window, run.tolerance)
        write_text_atomic(out / f"phc_seed{seed}.csv",
                          "\n".join(_trajectory_lines(result.log)) + "\n")
        for type_index, verdict in zip(result.log.type_indices, verdicts):
            ref_item = reference_items[type_index]
            summaries.append(PhcSeedSummary(
                seed=seed, type_index=type_index,
                converged=verdict.converged, modal_size=verdict.size,
                modal_reward=verdict.reward, slot=slot,
                reference_size=ref_item.s, reference_reward=ref_item.r))
    lines = ["seed,type,converged,modal_size,modal_reward,convergence_slot,"
             "reference_size,reference_reward"]
    for s in summaries:
        lines.append(",".join([
            str(s.seed), str(s.type_index), str(int(s.converged)),
            fmt(s.modal_size), fmt(s.modal_reward), fmt(s.slot),
            fmt(s.reference_size), fmt(s.reference_reward)]))
    write_text_atomic(out / "phc_summary.csv", "\n".join(lines) + "\n")
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
