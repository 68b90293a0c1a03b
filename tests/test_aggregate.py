"""`benchmarks/aggregate.py` pairs the benchmark runs of two checkouts."""

import importlib.util
import json
import shutil
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


def load_aggregate():
    spec = importlib.util.spec_from_file_location(
        "aggregate", ROOT / "benchmarks" / "aggregate.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def checkout(root: Path, slots_per_s: float, nproc: int) -> Path:
    """A result directory holding one learn_wide run."""
    out = root / "perfbench" / "out"
    out.mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", root / "BENCHMARK.json")
    result = {"seconds": 12.0, "digest": "d", "failed_ratio": 0.0,
              "fingerprint": {"nproc": nproc},
              "metrics": {"slots_per_s": slots_per_s}}
    (out / "result-learn_wide-seed9-trace0.json").write_text(
        json.dumps(result))
    return root


def test_pairs_runs_at_equal_cpu_counts(tmp_path):
    aggregate = load_aggregate()
    bench = aggregate.aggregate(checkout(tmp_path / "a", 100.0, 2),
                                checkout(tmp_path / "b", 125.0, 2), "x")
    entry = bench["workloads"]["learn_wide trace=0"]["metrics"]["slots_per_s"]
    assert entry["pairs"] == [[100.0, 125.0]]
    assert entry["wins"] == 1


def test_refuses_runs_at_different_cpu_counts(tmp_path):
    aggregate = load_aggregate()
    with pytest.raises(SystemExit, match="learn_wide seed 9: CPU counts "
                                         "differ"):
        aggregate.aggregate(checkout(tmp_path / "a", 100.0, 2),
                            checkout(tmp_path / "b", 125.0, 4), "x")
