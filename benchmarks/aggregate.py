"""Collect benchmark pair runs of two checkouts into one BENCH_<label>.json.

``perfbench/run.py`` leaves one ``result-<workload>-seed<S>-trace<T>.json``
per run in its checkout's ``perfbench/out/``.  A pair is the parent's and
the change's result for the same workload, seed and trace setting, so run
each seed once on each side, alternating which side goes first.  For each
workload and metric the output holds every pair's values, each side's
median and quartiles, and the pairs the change won (ties count for
neither), with the direction taken from ``BENCHMARK.json``, and the pairs
whose outputs had the same digest.  It also holds each side's fingerprint
and ``src/`` line count.  Two runs pair only when their run lengths and
their CPU counts (the fingerprint's ``nproc``) are equal: a gain from
using more cores compares only at equal core counts.

Usage: python3 benchmarks/aggregate.py --parent DIR --change DIR --label NAME
writes BENCH_NAME.json at the root of the change checkout.
"""

import argparse
import json
import re
import statistics
import sys
from pathlib import Path

RESULT = re.compile(r"result-(.+)-seed(\d+)-trace([01])\.json")


def results(root: Path) -> dict:
    """(workload, trace, seed) -> that run's result."""
    found = {}
    for path in (root / "perfbench" / "out").glob("result-*.json"):
        match = RESULT.fullmatch(path.name)
        if match:
            workload, seed, trace = match.groups()
            found[workload, int(trace), int(seed)] = json.loads(
                path.read_text(encoding="utf-8"))
    return found


def src_lines(root: Path) -> int:
    return sum(len(path.read_text(encoding="utf-8").splitlines())
               for path in (root / "src").rglob("*.py"))


def spread(values: list[float]) -> dict:
    if len(values) == 1:
        return {"median": values[0], "q1": values[0], "q3": values[0]}
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3}


def aggregate(parent: Path, change: Path, label: str) -> dict:
    spec = json.loads((change / "BENCHMARK.json").read_text(encoding="utf-8"))
    better = {m["name"]: m["better"]
              for m in spec["end_to_end"] + spec["per_layer"]}
    better["failed_ratio"] = "lower"
    before, after = results(parent), results(change)
    keys = sorted(before.keys() & after.keys())
    if not keys:
        raise SystemExit("no workload, seed and trace setting ran on both "
                         "sides")
    groups: dict[str, dict] = {}
    for workload, trace, seed in keys:
        old, new = before[workload, trace, seed], after[workload, trace, seed]
        if old["seconds"] != new["seconds"]:
            raise SystemExit(f"{workload} seed {seed}: run lengths differ")
        if old["fingerprint"]["nproc"] != new["fingerprint"]["nproc"]:
            raise SystemExit(f"{workload} seed {seed}: CPU counts differ")
        group = groups.setdefault(f"{workload} trace={trace}", {
            "seconds": new["seconds"], "seeds": [], "same_digest": 0,
            "metrics": {}})
        group["seeds"].append(seed)
        group["same_digest"] += old["digest"] == new["digest"]
        for side in (old, new):
            side["metrics"]["failed_ratio"] = side["failed_ratio"]
        for name in old["metrics"].keys() & new["metrics"].keys():
            entry = group["metrics"].setdefault(
                name, {"better": better.get(name), "pairs": []})
            entry["pairs"].append([old["metrics"][name],
                                   new["metrics"][name]])
    for group in groups.values():
        for entry in group["metrics"].values():
            pairs = entry["pairs"]
            entry["parent"] = spread([p for p, _ in pairs])
            entry["change"] = spread([c for _, c in pairs])
            sign = {"lower": -1, "higher": 1}.get(entry["better"], 0)
            entry["wins"] = sum(sign * (c - p) > 0 for p, c in pairs)
        group["metrics"] = dict(sorted(group["metrics"].items()))
    first = keys[0]
    parent_lines, change_lines = src_lines(parent), src_lines(change)
    return {
        "label": label,
        "pairs": "one run per side per seed: python3 perfbench/run.py "
                 "--workload W --seed S --seconds X --trace T",
        "fingerprint": {"parent": before[first]["fingerprint"],
                        "change": after[first]["fingerprint"]},
        "src_lines": {"parent": parent_lines, "change": change_lines,
                      "net": change_lines - parent_lines},
        "workloads": groups,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", type=Path, required=True)
    parser.add_argument("--change", type=Path, required=True)
    parser.add_argument("--label", required=True)
    args = parser.parse_args(argv)
    bench = aggregate(args.parent, args.change, args.label)
    out = args.change / f"BENCH_{args.label}.json"
    out.write_text(json.dumps(bench, indent=1, sort_keys=True) + "\n",
                   encoding="utf-8")
    print(f"wrote {out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
