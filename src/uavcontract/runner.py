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

import functools
import json
import math
import os
import sys
import threading
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from ._kernels import JIT_ENABLED
from .config import ExperimentConfig
from .errors import NonFiniteOutput, NotConverged, ValidationError
from .game import Scenario, defensive_effectiveness, gcs_utility
# unused here; kept as a module attribute for perfbench/tracing.py to wrap
from .game import eligible_types  # noqa: F401
from .phc import (EpisodeLog, batch_payoffs, convergence_check,
                  convergence_slot, hotboot, perturb_scenario, train)
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


def _write_chunks(path: Path, chunks) -> None:
    """Write the strings of ``chunks`` to ``path`` in UTF-8 with '\\n'
    newlines, through a temp file renamed into place."""
    # the directory is made at the first write, so a run refused before
    # it writes anything leaves none behind
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(path.name + ".tmp")
    try:
        with open(tmp, "w", encoding="utf-8", newline="\n") as stream:
            for chunk in chunks:
                stream.write(chunk)
        # ext4 flushes the data of a file renamed over another one, so the
        # old file goes first: a reader sees it, no file or the new one
        path.unlink(missing_ok=True)
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def write_text_atomic(path: Path, text: str) -> None:
    _write_chunks(path, (text,))


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
    menus = (solve_partial_info(scenario)[0], solve_complete_info(scenario),
             linear_contract(scenario, price), uniform_contract(scenario))
    return [MetricsRow(scheme=scheme,
                       type_utilities=tuple(menu_utilities(scenario, menu)),
                       gcs_utility=gcs_utility(scenario, menu),
                       zeta=defensive_effectiveness(scenario, menu))
            for scheme, menu in zip(SCHEME_ORDER, menus)]


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
    positions = scenario.eligible_positions
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


def _sweep(config: ExperimentConfig, out_dir, config_digest: str | None,
           file: str, header, path, cells) -> list[tuple]:
    """Score the four schemes at each point of ``path``, an iterable of
    (label, Scenario) pairs, and write ``file`` with one line per point and
    scheme: the label, then ``cells(row)`` of the scheme's `MetricsRow`.
    An integer label is written with `str`, any other one through `fmt`.
    The manifest is written last.  Returns the lines as ``(label,
    *cells(row))`` records, the labels as ``path`` gave them."""
    out = _out_dir(config, out_dir)
    records = [(label, *cells(row)) for label, scenario in path
               for row in metrics_rows(config, scenario)]
    write_text_atomic(out / file, csv_text(file, header, (
        (str(label) if isinstance(label, (int, np.integer)) else label,
         *rest)
        for label, *rest in records)))
    write_manifest(out, config, config_digest)
    return records


def run_sweep_cost(config: ExperimentConfig, out_dir=None,
                   config_digest: str | None = None) -> list[tuple]:
    """Vary the first listed type's marginal cost over [0.01, 1].

    The path's points are (cost, Scenario) pairs, ``cost_points`` costs
    evenly spaced: the swept type's cost is set entirely as
    transmission-energy cost (c2 = 0); everything else stays fixed.  One
    record per (cost, scheme) with the swept type's utility.
    """
    base = config.scenario
    path = ((cost, replace(base, types=(
        replace(base.types[0], c1=cost, c2=0.0),) + base.types[1:]))
        for cost in np.linspace(0.01, 1.0, config.cost_points).tolist())
    return _sweep(config, out_dir, config_digest, "sweep_cost.csv",
                  ("cost", "scheme", "uav_utility", "gcs_utility", "zeta"),
                  path, lambda row: (row.scheme, row.type_utilities[0],
                                     row.gcs_utility, row.zeta))


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
    """Scale the population over the sweep points at a fixed type mixture.

    The path's points are (population, Scenario) pairs, the counts scaled
    by `scale_counts`.  One record per (population, scheme).
    """
    base = config.scenario
    counts = [ty.n for ty in base.types]
    path = ((population, replace(base, total_uavs=population, types=tuple(
        replace(ty, n=n) for ty, n in zip(
            base.types, scale_counts(counts, population)))))
        for population in config.populations)
    return _sweep(config, out_dir, config_digest, "sweep_population.csv",
                  ("population", "scheme", "zeta", "gcs_utility"), path,
                  lambda row: (row.scheme, row.zeta, row.gcs_utility))


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


# slots of a trajectory CSV built and written at a time
TRAJECTORY_CHUNK_SLOTS = 2048


def _code_table(log: EpisodeLog) -> tuple:
    """Every trajectory line's text after its slot number, its tail, as an
    object array indexed by the line's code ``(item * 2 + signed) * width
    + column``, and a dict of the four values by column name, indexed
    alike.  The codes, in order, are the cells of a log that posts every
    item, declined and then signed, on ``log``'s grids and payoffs.  Each
    distinct value is formatted once.  (Equal values format alike: `fmt`
    writes -0.0 as 0.)"""
    width = len(log.type_indices)
    line = np.arange(2 * log.uav_payoff.shape[1])
    item = np.repeat(line // 2, width).reshape(-1, width)
    answer = np.repeat(line % 2, width).reshape(-1, width)
    every = replace(log, item=item, signed=answer == 1)
    values = {key: value.ravel() for key, value in (
        ("reward", every.rewards), ("size", every.sizes),
        ("uav_utility", every.uav_utility), ("gcs_term", every.gcs_term))}
    cells = [value.tolist() for value in values.values()]
    # a NaN equals no key, but each is looked up as the object the set took
    strings ={value: fmt(value) for value in set().union(*cells)}
    tails = np.array(list(map(
        "{},{},{},{},{},{},{}\n".format,
        np.tile(log.type_indices, line.size).tolist(),
        answer.ravel().tolist(), item.ravel().tolist(),
        *(map(strings.__getitem__, cell) for cell in cells))), dtype=object)
    return tails, values


def _codes(log: EpisodeLog):
    """(first slot, end slot, codes of the chunk's cells in line order) for
    every chunk of `TRAJECTORY_CHUNK_SLOTS` slots."""
    width = len(log.type_indices)
    for lo in range(0, log.slots, TRAJECTORY_CHUNK_SLOTS):
        hi = min(lo + TRAJECTORY_CHUNK_SLOTS, log.slots)
        yield lo, hi, ((log.item[lo:hi] * 2 + log.signed[lo:hi]) * width
                       + np.arange(width)).ravel()


def trajectory_text(file: str, log: EpisodeLog, tables: dict):
    """The trajectory CSV of one log, a line per slot and column in order,
    as an iterator of strings of `TRAJECTORY_CHUNK_SLOTS` slots each.

    Every cell but the slot number is a function of the line's (column,
    posted item, answer) code and of what the log was played on, so every
    code's text, its tail, is built once into a code table
    (`_code_table`), and a chunk joins each line's ``"slot,"`` and tail.
    ``tables`` holds the tables built so far, keyed by the type indices and
    the dtype, shape and bytes of the two grids and two payoff tables they
    are built on; a log reuses its key's table or adds one.  Every value
    is checked finite before this returns, so a refused log leaves nothing
    written: NonFiniteOutput names the first column, in CSV order, holding
    a non-finite value, and the first such value in slot order.
    """
    built_on = (log.type_indices, *(
        (a.dtype, a.shape, a.tobytes()) for a in (
            log.reward_grid, log.size_grid, log.uav_payoff, log.gcs_payoff)))
    table = tables.get(built_on)
    if table is None:
        table = tables[built_on] = _code_table(log)
    tails, values = table
    for key, value in values.items():
        bad = ~np.isfinite(value)
        if bad.any():
            for _, _, code in _codes(log):
                hit = code[bad.take(code)]
                if hit.size:
                    raise NonFiniteOutput(file, key, value[hit[0]])
    return _trajectory_chunks(log, tails)


def _trajectory_chunks(log: EpisodeLog, tails: np.ndarray):
    width = len(log.type_indices)
    yield TRAJECTORY_HEADER + "\n"
    for lo, hi, code in _codes(log):
        slots = [f"{slot}," for slot in range(lo + 1, hi + 1)]
        lines = np.empty((hi - lo, width, 2), dtype=object)
        lines[:, :, 0] = np.array(slots, dtype=object)[:, None]
        lines[:, :, 1] = tails.take(code).reshape(hi - lo, width)
        yield "".join(lines.ravel().tolist())


def _usable_cpus() -> int:
    """The CPUs this process may run on; 1 where the platform cannot say."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return 1


def _phc_seed_group(config: ExperimentConfig, reference_items, out: Path,
                    group) -> list[PhcSeedSummary]:
    """Train one group of seeds in one batch, write each seed's trajectory
    and return their summaries in seed order.

    ``group`` holds a (seed, generator, family) triple per seed, the
    family drawn from the generator.  Each seed draws from its own
    generator, so its bytes do not depend on the group it is in.
    """
    run = config.phc_run
    scenario = config.scenario
    seeds, rngs, families = zip(*group)
    inits = None
    if run.hotboot_episodes > 0:
        inits = hotboot(families, run.hotboot_episodes, config.phc, rngs,
                        run.slots_per_episode)
    logs = train(len(seeds) * [scenario], config.phc, run.slots, inits,
                 rngs).logs
    summaries = []
    # the seeds' logs, of one scenario, share their code tables
    tables = {}
    for seed, log in zip(seeds, logs):
        verdicts = convergence_check(log, run.window, run.tolerance)
        slot = convergence_slot(log, run.window, run.tolerance)
        name = f"phc_seed{seed}.csv"
        _write_chunks(out / name, trajectory_text(name, log, tables))
        for type_index, verdict in zip(log.type_indices, verdicts):
            ref_item = reference_items[type_index]
            summaries.append(PhcSeedSummary(
                seed=seed, type_index=type_index,
                converged=verdict.converged, modal_size=verdict.size,
                modal_reward=verdict.reward, slot=slot,
                reference_size=ref_item.s, reference_reward=ref_item.r))
    return summaries


def _send_group(send, task, group) -> None:
    """A worker's body: run ``task`` on ``group`` and send back its result,
    or the exception it raised."""
    try:
        message = (True, task(group))
    except BaseException as exc:  # the caller re-raises it
        message = (False, exc)
    with send:
        try:
            send.send(message)
        except BrokenPipeError:
            pass  # the caller has stopped listening: it is raising already


def _run_groups(task, groups: list) -> list:
    """``task(group)`` for every group, in order: the first in this process,
    each other one in a forked worker of its own.

    Every worker is joined before this returns or raises.  The first
    exception, in group order, is re-raised here; a worker that dies
    without a word raises ChildProcessError.
    """
    if len(groups) == 1:
        return [task(groups[0])]
    import multiprocessing
    context = multiprocessing.get_context("fork")
    # what is buffered now would otherwise be written once per process
    sys.stdout.flush()
    sys.stderr.flush()
    workers = []
    try:
        for group in groups[1:]:
            receive, send = context.Pipe(duplex=False)
            process = context.Process(target=_send_group,
                                      args=(send, task, group), daemon=True)
            workers.append((process, receive))
            try:
                process.start()
            finally:
                send.close()
        results = [task(groups[0])]
        for process, receive in workers:
            try:
                ok, value = receive.recv()
            except EOFError:
                process.join()
                raise ChildProcessError(
                    f"a phc seed group's worker exited with code "
                    f"{process.exitcode}") from None
            if not ok:
                raise value
            results.append(value)
        return results
    finally:
        # a worker still sending gets a broken pipe rather than a wait
        for process, receive in workers:
            receive.close()
            if process.pid is not None:
                process.join()


def run_phc(config: ExperimentConfig, out_dir=None, strict: bool = False,
            config_digest: str | None = None) -> list[PhcSeedSummary]:
    """Train every seed (optionally hotbooted), log trajectories and verdicts.

    The seeds are split into contiguous groups, one per usable CPU at
    most (one in all where this process runs other threads).  The first
    group runs in this process and each other one in a forked worker; a
    group trains its seeds in one batch and writes their trajectories.
    Each seed owns an isolated RNG stream, so every file's bytes are the
    same for any CPU count.  The closed-form menu for the same scenario
    rides along as the reference columns.  The summary and the manifest
    are written once every group has finished.

    Before any group starts, each seed's generator draws its hot-boot
    family, the reference menu is solved, and the families are checked by
    the batch rule `train` and `hotboot` apply (`batch_payoffs`), which
    builds and checks every member's payoff tables.  A run that
    `perturb_scenario` cannot perturb, or whose scenario or a drawn member
    overflows on the action grids, is refused (ValueError) before anything
    is trained or written.  With ``strict`` a NotConverged is raised after
    all outputs are written whenever any (seed, type) pair fails the
    trailing-window test.
    """
    out = _out_dir(config, out_dir)
    scenario = config.scenario
    run = config.phc_run
    # a seed's hot-boot family takes the first draws of its generator, so
    # every member is drawn and checked before any group trains
    draws = run.family_size - 1 if run.hotboot_episodes > 0 else 0
    rngs = [np.random.default_rng(seed) for seed in config.seeds]
    families = [[scenario] + [perturb_scenario(scenario, rng, run.perturbation)
                              for _ in range(draws)] for rng in rngs]
    seeds = list(zip(config.seeds, rngs, families))
    # solved first, so the solver names a scenario with no eligible type
    reference, _ = solve_partial_info(scenario)
    batch_payoffs(families, config.phc, "families")
    reference_items = {ty.index: item
                       for ty, item in zip(scenario.types, reference.items)}
    # k contiguous groups, the larger ones first.  A fork copies only the
    # calling thread, so a lock another thread holds would stay held in
    # the worker: a process with other threads runs every group itself.
    k = max(1, min(len(seeds), _usable_cpus()))
    if threading.active_count() > 1:
        k = 1
    size, larger = divmod(len(seeds), k)
    bounds = [i * size + min(i, larger) for i in range(k + 1)]
    groups = [seeds[lo:hi] for lo, hi in zip(bounds, bounds[1:])]
    summaries = [summary for group in _run_groups(
        functools.partial(_phc_seed_group, config, reference_items, out),
        groups)
        for summary in group]
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
    """Dispatch on config.mode; returns the mode's result object.

    Raises ValidationError naming ``oracle`` or ``strict`` when the flag
    is set for a mode that does not take it, before anything is written.
    """
    for flag, value, mode in (("oracle", oracle, "solve"),
                              ("strict", strict, "phc")):
        if value and config.mode != mode:
            raise ValidationError(flag, f"applies to mode {mode} only, "
                                        f"not {config.mode}")
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
