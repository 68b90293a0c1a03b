"""Layered benchmark for uavcontract.

Runs one seeded workload (design, validate, learn_long, learn_wide) against
the sources under ``src/`` of the checkout it sits in, checks every output,
and prints each metric with its unit.  The last line of standard output is
one JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics``.
With ``--trace 0`` the metrics are the end-to-end ones; with ``--trace 1``
wrappers around the program's layers give the per-layer ones.

Usage, from the root of the checkout:

    python3 perfbench/run.py --workload design --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --seed 1        # every workload, one at a time

Exit codes: 0 all checks passed, 1 a check failed, 2 the program sources
are missing or the arguments are wrong.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import importlib.util
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import typing
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter
from types import SimpleNamespace

# one process, no extra threads: keep numpy's BLAS pool at one thread
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import numpy as np  # noqa: E402

from tracing import Tracer  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = BENCH / "out"
MODULES = ("config", "environment", "game", "solver", "phc", "runner",
           "_kernels")
SETUP_REPEATS = 5
WARMUP_PASSES = 1       # checked, not timed: the process's first pass
MIN_PASSES = 2          # timed untraced passes, so digests are compared
TRACED_PASSES = 3       # at most; spans of every traced pass are kept

END_TO_END = (
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("scenarios_per_s", "1/s"),
    ("slots_per_s", "1/s"),
    ("latency_p50_ms", "ms"),
    ("latency_tail_ms", "ms"),
    ("peak_rss_mb", "MB"),
)

PER_LAYER = (
    ("config.load_config.s", "s"),
    ("environment.derived_delay.calls", "count"),
    ("environment.derived_delay.s", "s"),
    ("game.verify_feasibility.calls", "count"),
    ("game.verify_feasibility.s", "s"),
    ("game.verify_feasibility.self_s", "s"),
    ("game.eligible_types.calls", "count"),
    ("game.eligible_types.s", "s"),
    ("game.gcs_utility.s", "s"),
    ("game.defensive_effectiveness.s", "s"),
    ("solver.solve_partial_info.calls", "count"),
    ("solver.solve_partial_info.calls_per_scenario", "1"),
    ("solver.solve_partial_info.s", "s"),
    ("solver.baselines.s", "s"),
    ("solver.pooled_share", "1"),
    ("solver.brute_force_oracle.s", "s"),
    ("kernels.oracle_scan_1.s", "s"),
    ("kernels.oracle_scan_2.s", "s"),
    ("kernels.oracle_scan_3.s", "s"),
    ("solver.oracle.grid_points", "count"),
    ("solver.oracle.tuples", "count"),
    ("solver.oracle.gap_over_bound_max", "1"),
    ("phc.train.calls", "count"),
    ("phc.train.s", "s"),
    ("phc.train.self_s", "s"),
    ("kernels.train_loop.s", "s"),
    ("kernels.train_loop.slots", "count"),
    ("phc.hotboot.s", "s"),
    ("phc.perturb_scenario.s", "s"),
    ("phc.convergence_check.s", "s"),
    ("phc.convergence_slot.s", "s"),
    ("phc.converged_share", "1"),
    ("runner.run_phc.self_s", "s"),
    ("runner.write_text_atomic.calls", "count"),
    ("runner.write_text_atomic.s", "s"),
    ("runner.write_text_atomic.bytes", "count"),
    ("work.scenarios", "count"),
    ("work.type_slots", "count"),
    ("work.rows_written", "count"),
    ("trace.overhead_s", "s"),
)

# per-layer metrics read from a pass's outputs rather than from its spans
_FROM_PASS = {
    "solver.pooled_share": lambda r: r.outcome.get("pooled_share", 0.0),
    "solver.oracle.grid_points": lambda r: r.work.get("oracle_grid_points", 0),
    "solver.oracle.tuples": lambda r: r.work.get("oracle_tuples", 0),
    "solver.oracle.gap_over_bound_max":
        lambda r: r.outcome.get("gap_over_bound_max", 0.0),
    "phc.converged_share": lambda r: r.outcome.get("converged_share", 0.0),
    "work.scenarios": lambda r: r.work["scenarios"],
    "work.type_slots": lambda r: r.work["type_slots"],
    "work.rows_written": lambda r: r.work.get("rows_written", 0),
}


class ProgramMissing(Exception):
    """The checkout holds no uavcontract sources to benchmark."""


def forget_program() -> None:
    """Drop every import of uavcontract, so the next one starts afresh."""
    for name in [m for m in sys.modules
                 if m == "uavcontract" or m.startswith("uavcontract.")]:
        del sys.modules[name]
    # typing caches subscripted generics such as Sequence[PolicyTables];
    # left alone, they would keep every earlier import alive
    for clear in typing._cleanups:
        clear()


def import_program(root: Path) -> SimpleNamespace:
    """Import uavcontract afresh from ``root/src``; one attribute per module.

    ``_kernels`` is exposed as ``kernels``.
    """
    src = root / "src"
    package = src / "uavcontract"
    if not (package / "__init__.py").is_file():
        raise ProgramMissing(f"no uavcontract sources under {src}")
    forget_program()
    if str(src) not in sys.path:
        sys.path.insert(0, str(src))
    top = importlib.import_module("uavcontract")
    if Path(top.__file__).resolve().parent != package.resolve():
        raise ProgramMissing(f"uavcontract imported from {top.__file__}, "
                             f"not from {package}")
    return SimpleNamespace(**{
        name.lstrip("_"): importlib.import_module(f"uavcontract.{name}")
        for name in MODULES})


@dataclass
class SetUp:
    """One fresh program with its workload state, and what it took."""

    prog: SimpleNamespace
    state: dict
    seconds: float          # import + load_config + warmup
    load_config_s: float


def set_up(workload, seed: int, root: Path = ROOT) -> SetUp:
    """Import the program afresh, load the workload's config, warm the
    kernels, then derive the workload's state (not timed).

    The caller must hold no earlier program: it is dropped and collected
    here, outside the timing, so that repeated set-ups neither pile up in
    memory nor leave a collection to land inside a later pass.
    """
    forget_program()
    gc.collect()
    t0 = perf_counter()
    prog = import_program(root)
    t1 = perf_counter()
    config = prog.config.load_config(
        BENCH / "configs" / f"{workload.name}.yaml")
    t2 = perf_counter()
    prog.kernels.warmup()
    t3 = perf_counter()
    state = workload.prepare(config, seed, OUT / "work")
    return SetUp(prog, state, t3 - t0, t2 - t1)


def measure(workload, seed: int, seconds: float, tracer=None):
    """Set up, then run passes until ``seconds`` have gone by.

    Returns (the last program, set-ups, warm-up passes, plain passes,
    traced passes); set-ups are (seconds, load_config seconds) pairs.  The
    first pass of a run warms the process and is checked but not timed.
    Every pass after the first runs on a fresh set-up, so set-up is sampled
    across the whole run, as passes are, not only in its first second.
    With a tracer, passes alternate plain and traced until TRACED_PASSES
    traced ones exist.  Another pass starts only while at least half of a
    typical pass fits before the deadline, so a run ends within half a
    pass of ``seconds``.
    """
    setups, warmup, plain, traced = [], [], [], []

    def fresh() -> SetUp:
        up = set_up(workload, seed)
        setups.append((up.seconds, up.load_config_s))
        return up

    for _ in range(SETUP_REPEATS - 1):
        fresh()
    current = fresh()
    deadline = perf_counter() + seconds
    while True:
        use_trace = (tracer is not None and len(traced) < TRACED_PASSES
                     and len(plain) > len(traced))
        if use_trace:
            tracer.install(current.prog)
        try:
            tic = perf_counter()
            result = workload.run_pass(current.prog, current.state,
                                       tracer if use_trace else None)
            result.wall = perf_counter() - tic
        finally:
            if use_trace:
                tracer.remove()
        if len(warmup) < WARMUP_PASSES:
            warmup.append(result)
        else:
            (traced if use_trace else plain).append(result)
        if len(plain) >= MIN_PASSES and (tracer is None or traced):
            typical = statistics.median(p.wall for p in plain)
            if perf_counter() + typical / 2 >= deadline:
                return current.prog, setups, warmup, plain, traced
        del current             # set_up must find no earlier program alive
        current = fresh()


def tail_latency(samples: list[float]) -> tuple[float, str]:
    """Highest percentile with at least ten samples beyond it, labelled.

    Below twenty samples that percentile would not lie above the median,
    so the maximum is reported instead.
    """
    ordered = sorted(samples)
    n = len(ordered)
    if n < 20:
        return ordered[-1], f"max of {n}"
    k = n - 11
    return ordered[k], f"p{100.0 * (k + 1) / n:.4g} of {n}"


def run_tail_latency(passes) -> tuple[float, str]:
    """The tail of each pass, mean over the passes.

    This host's speed shifts by a third for seconds at a time, so the
    eleventh-slowest operation of a whole run mostly measures the host's
    worst second; a pass's own tail, averaged over the passes, does not.
    A workload with fewer than 20 operations per pass has no tail within
    a pass and takes the tail of all its operations together.
    """
    if len(passes[0].op_seconds) < 20:
        return tail_latency([t for p in passes for t in p.op_seconds])
    tails = [tail_latency(p.op_seconds) for p in passes]
    return (statistics.fmean(t for t, _ in tails),
            f"{tails[0][1]}, mean over {len(passes)} passes")


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def end_to_end_metrics(setup_s: float, passes) -> tuple[dict, str]:
    """Pass times are averaged over the run, not medianed.

    On the shared 2-vCPU VM of the README's baseline, a core runs fast or
    about 40% slower, switching every second or so, in a mix that drifts
    over minutes.  A median of passes
    jumps to whichever speed held most of the run; the mean moves only in
    proportion to the slow share, so runs of one commit agree more closely.
    """
    wall = statistics.fmean(p.wall for p in passes)
    ops = [t for p in passes for t in p.op_seconds]
    tail, label = run_tail_latency(passes)
    values = {
        "setup_s": setup_s,
        "wall_s": wall,
        "scenarios_per_s": passes[0].work["scenarios"] / wall,
        "slots_per_s": passes[0].work["type_slots"] / wall,
        "latency_p50_ms": statistics.median(ops) * 1e3,
        "latency_tail_ms": tail * 1e3,
        "peak_rss_mb": peak_rss_mb(),
    }
    return values, label


def per_layer_metrics(load_config_s: float, tracer: Tracer, traced,
                      plain) -> dict:
    """Median over the traced passes of each per-layer metric."""
    samples: dict[str, list] = {name: [] for name, _ in PER_LAYER}
    for index, result in enumerate(traced):
        totals = tracer.layer_totals(index)
        for name, _ in PER_LAYER:
            layer, _, field = name.rpartition(".")
            if name in _FROM_PASS:
                value = _FROM_PASS[name](result)
            elif field == "calls_per_scenario":
                value = (totals.get(layer, {}).get("calls", 0)
                         / result.work["scenarios"])
            elif field in ("slots", "bytes"):
                value = totals.get(layer, {}).get("amount", 0)
            elif field == "calls":
                value = totals.get(layer, {}).get(field, 0)
            elif field in ("s", "self_s"):
                value = totals.get(layer, {}).get(field, 0.0)
            else:
                continue
            samples[name].append(value)
    values = {name: statistics.median(v) for name, v in samples.items() if v}
    values["config.load_config.s"] = load_config_s
    values["trace.overhead_s"] = (statistics.median(p.wall for p in traced)
                                  - statistics.median(p.wall for p in plain))
    return values


def _git_commit(root: Path) -> str | None:
    head = root / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    ref = ref[5:]
    loose = root / ".git" / ref
    if loose.is_file():
        return loose.read_text().strip()
    packed = root / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    return None


def _cpu_model() -> str | None:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or None


def fingerprint(prog) -> dict:
    """Where these numbers came from.  The kernel path is named as it ran:
    without numba the 'compiled' path is the pure-numpy one."""
    kernels = prog.kernels
    if kernels.JIT_ENABLED:
        reason = "numba compiled the kernels"
    elif not kernels.JIT_REQUESTED:
        reason = "disabled by UAVCONTRACT_DISABLE_JIT"
    elif importlib.util.find_spec("numba") is None:
        reason = "numba not importable"
    else:
        reason = "numba present but not used"
    return {
        "jit_enabled": bool(kernels.JIT_ENABLED),
        "kernel_path": "numba" if kernels.JIT_ENABLED else "pure-numpy",
        "jit_reason": reason,
        "numpy": np.__version__,
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "git_commit": _git_commit(ROOT),
    }


def check_digest(store: Path, key: str, digest: str) -> bool:
    """Compare with the digest an earlier run of the same key recorded.

    The first run of a key records it.  Returns False on a mismatch.
    """
    known = json.loads(store.read_text()) if store.is_file() else {}
    if key in known:
        return known[key] == digest
    known[key] = digest
    tmp = store.with_name(store.name + ".tmp")
    tmp.write_text(json.dumps(known, indent=1, sort_keys=True) + "\n")
    os.replace(tmp, store)
    return True


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> int:
    workload = WORKLOADS[name]
    OUT.mkdir(exist_ok=True)
    tracer = Tracer() if trace else None
    try:
        prog, setups, warmup, plain, traced = measure(workload, seed,
                                                      seconds, tracer)
    except ProgramMissing as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    setup_s = statistics.median(t for t, _ in setups)
    load_config_s = statistics.median(t for _, t in setups)
    passes = warmup + plain + traced

    failures = [f for p in passes for f in p.failures]
    attempted = sum(len(p.op_seconds) for p in passes)
    # comparing each pass's digest with the first pass's, and the first
    # with earlier runs of this seed, is one more operation each
    reference = passes[0].digest
    attempted += len(passes) + 1
    failures += [f"pass {i}: digest {p.digest} differs from {reference}"
                 for i, p in enumerate(passes) if p.digest != reference]
    key = f"{name}:seed={seed}"
    if not check_digest(OUT / "digests.json", key, reference):
        failures.append(f"digest {reference} differs from an earlier run "
                        f"of {key}")
    failed = len(failures)

    e2e, tail_label = end_to_end_metrics(setup_s, plain)
    if trace:
        metrics, units = (per_layer_metrics(load_config_s, tracer, traced,
                                            plain), dict(PER_LAYER))
        tracer.write(OUT / f"spans-{name}.csv")
    else:
        metrics, units = e2e, dict(END_TO_END)
    env = fingerprint(prog)
    result = {
        "workload": name, "seed": seed, "seconds": seconds, "trace": trace,
        "fingerprint": env,
        "passes": len(plain), "traced_passes": len(traced),
        "setups": len(setups),
        "warmup_pass_seconds": [p.wall for p in warmup],
        "pass_seconds": [p.wall for p in plain],
        "traced_pass_seconds": [p.wall for p in traced],
        "latency_tail": tail_label,
        "failed_ratio": failed / attempted,
        "work_computed": plain[0].work,
        "digest": reference, "file_digests": plain[0].file_digests,
        "end_to_end": e2e,
        "metrics": metrics,
        "failures": failures[:20],
    }
    (OUT / f"result-{name}-seed{seed}-trace{int(trace)}.json").write_text(
        json.dumps(result, indent=1, sort_keys=True) + "\n")

    print(f"# {name} seed={seed} passes={len(plain)} "
          f"traced_passes={len(traced)} "
          f"kernels={env['kernel_path']} ({env['jit_reason']})")
    print("# fingerprint " + json.dumps(env, sort_keys=True))
    print("# work (computed per pass) "
          + json.dumps(plain[0].work, sort_keys=True))
    for metric, value in metrics.items():
        note = f"  ({tail_label})" if metric == "latency_tail_ms" else ""
        print(f"{name:<11} {metric:<46} {value:>16.6g} {units[metric]}{note}")
    print(f"{name:<11} {'failed_ratio':<46} {failed / attempted:>16.6g} 1")
    for f in failures[:5]:
        print(f"FAILED {name}: {f}", file=sys.stderr)
    print(json.dumps({
        "correct": failed == 0, "attempted": attempted, "failed": failed,
        "metrics": {m: {"value": v, "unit": units[m]}
                    for m, v in metrics.items()}}))
    return 0 if failed == 0 else 1


def run_all(seed: int, seconds: float, trace: bool) -> int:
    """Every workload in turn, each in a child process of its own so that
    its peak resident memory is its own."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    status = 0
    for name in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()),
             "--workload", name, "--seed", str(seed),
             "--seconds", str(seconds), "--trace", str(int(trace))],
            stdout=subprocess.PIPE, text=True, check=False)
        lines = proc.stdout.splitlines()
        for line in lines[:-1]:
            print(line)
        status = max(status, proc.returncode)
        try:
            last = json.loads(lines[-1])
        except (IndexError, ValueError):
            return max(status, 2)
        combined["correct"] &= last["correct"]
        combined["attempted"] += last["attempted"]
        combined["failed"] += last["failed"]
        for metric, value in last["metrics"].items():
            combined["metrics"][f"{name}.{metric}"] = value
    print(json.dumps(combined))
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", default="all",
                        choices=sorted(WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0,
                        help="how long each workload measures")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or not args.seconds > 0:
        parser.error("--seed must be non-negative and --seconds positive")
    if args.workload == "all":
        return run_all(args.seed, args.seconds, bool(args.trace))
    return run_workload(args.workload, args.seed, args.seconds,
                        bool(args.trace))


if __name__ == "__main__":
    sys.exit(main())
