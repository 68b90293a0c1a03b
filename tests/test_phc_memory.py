"""`benchmarks/phc_memory.py` runs a phc config and reports its memory."""

import importlib.util
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_reports_time_and_both_peaks(capsys):
    spec = importlib.util.spec_from_file_location(
        "phc_memory", ROOT / "benchmarks" / "phc_memory.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    assert module.main(["--config",
                        str(ROOT / "tests" / "data" / "phc_single_type.yaml"),
                        "--slots", "300"]) == 0
    report = dict(line.split() for line in
                  capsys.readouterr().out.splitlines())
    assert report.keys() == {"slots", "seeds", "usable_cpus", "wall_s",
                             "peak_rss_mb_self", "peak_rss_mb_workers"}
    assert (report["slots"], report["seeds"]) == ("300", "3")
    assert float(report["wall_s"]) > 0
    assert float(report["peak_rss_mb_self"]) > 0
    assert float(report["peak_rss_mb_workers"]) >= 0
