import csv
import json
import math
import multiprocessing
import os
from pathlib import Path

import pytest
import yaml

from uavcontract import load_config, solve_partial_info, verify_feasibility
from uavcontract.cli import build_parser, main
from uavcontract.errors import NonFiniteOutput
from uavcontract.game import FEASIBILITY_TOL

HERE = Path(__file__).parent
DATA = HERE / "data"
GOLDEN = HERE / "golden"

FAST_PHC = """\
mode: phc
seeds: [0, 1]
output_dir: out
scenario:
  satisfaction_factor: 6.0
  deployment_cost: 1.0
  s_max: 13.75
  t_max: 2.0
  vdd_demand: 800.0
  types:
    - {c1: 0.5, n: 5, t: 1.0}
phc:
  reward_levels: 6
  size_levels: 6
  r_max: 15.75
  slots: 600
  window: 100
"""


def write_fast_phc(tmp_path):
    path = tmp_path / "fast_phc.yaml"
    path.write_text(FAST_PHC)
    return path


class TestParser:
    def test_all_verbs_exist(self):
        parser = build_parser()
        for verb in ("solve", "compare", "sweep-cost", "sweep-population",
                     "phc"):
            args = parser.parse_args([verb, "--config", "x.yaml"])
            assert args.verb == verb
            assert args.config == "x.yaml"
            assert args.out is None and args.seed is None
            assert getattr(args, "oracle", None) is (
                False if verb == "solve" else None)

    def test_strict_only_on_phc(self):
        parser = build_parser()
        assert parser.parse_args(["phc", "--config", "x", "--strict"]).strict
        with pytest.raises(SystemExit):
            parser.parse_args(["solve", "--config", "x", "--strict"])

    @pytest.mark.parametrize("verb, config", [
        ("compare", "scenario_a.yaml"),
        ("sweep-cost", "scenario_a.yaml"),
        ("sweep-population", "scenario_a.yaml"),
        ("phc", "phc_single_type.yaml"),
    ])
    def test_oracle_refused_off_solve(self, verb, config, tmp_path):
        # the other verbs never run the oracle, so the flag is a usage
        # error there, before any output
        out = tmp_path / "out"
        with pytest.raises(SystemExit) as exc:
            main([verb, "--config", str(DATA / config), "--out", str(out),
                  "--seed", "0", "--oracle"])
        assert exc.value.code == 2
        assert not out.exists()

    def test_config_required(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["solve"])
        with pytest.raises(SystemExit):
            build_parser().parse_args([])


def _solve_raw():
    return {"mode": "solve",
            "scenario": {"satisfaction_factor": 6.0, "deployment_cost": 1.0,
                         "s_max": 300.0, "t_max": 2.0, "vdd_demand": 800.0,
                         "reference_bytes": 300.0,
                         "types": [{"c1": 1.0, "n": 5, "t": 1.0},
                                   {"c1": 0.5, "n": 5, "t": 1.0}]}}


def _set_position(raw, position):
    first = raw["scenario"]["types"][0]
    del first["t"]
    first["position"] = position


# (verb, edit of _solve_raw(), field named in the error)
NON_FINITE_INPUTS = {
    "c1_nan": ("solve",
               lambda raw: raw["scenario"]["types"][0].update(c1=math.nan),
               "scenario.types[0].c1"),
    "s_max_inf": ("compare",
                  lambda raw: raw["scenario"].update(s_max=math.inf),
                  "scenario.s_max"),
    "deployment_cost_inf": ("solve",
                            lambda raw: raw["scenario"].update(
                                deployment_cost=math.inf),
                            "scenario.deployment_cost"),
    "cost_sum_overflows": ("compare",
                           lambda raw: raw["scenario"]["types"][0].update(
                               c1=1.0e308, c2=1.0e308),
                           "scenario.types[0].c2"),
    "cost_sum_zero": ("solve",
                      lambda raw: raw["scenario"]["types"][1].update(
                          c1=0.0, c2=0.0),
                      "scenario.types[1].c1"),
    "cost_zero_without_c2": ("compare",
                             lambda raw: raw["scenario"]["types"][0].update(
                                 c1=0.0),
                             "scenario.types[0].c1"),
    "kappa_los_nan": ("compare",
                      lambda raw: (_set_position(raw, [100.0, 0.0, 30.0]),
                                   raw.update(channel={"kappa_los": math.nan})),
                      "channel.kappa_los"),
    "position_nan": ("solve",
                     lambda raw: _set_position(raw, [math.nan, 0.0, 30.0]),
                     "scenario.types[0].position"),
    "position_unreachable": ("solve",
                             lambda raw: _set_position(raw,
                                                       [1.0e300, 0.0, 30.0]),
                             "scenario.types[0].position"),
    "delay_underflows": ("solve",
                         lambda raw: (_set_position(raw, [100.0, 0.0, 30.0]),
                                      raw["scenario"].update(
                                          reference_bytes=5.0e-324)),
                         "scenario.types[0].position"),
    "count_beyond_float": ("compare",
                           lambda raw: raw["scenario"]["types"][0].update(
                               n=10 ** 400),
                           "scenario.types[0].n"),
    # s_max 300 over these steps is an infinite and a 3e11-point grid,
    # refused before it is built
    "oracle_step_denormal": ("solve",
                             lambda raw: raw.update(grid_oracle=5.0e-324),
                             "grid_oracle"),
    "oracle_step_tiny": ("solve", lambda raw: raw.update(grid_oracle=1.0e-9),
                         "grid_oracle"),
    "population_beyond_float": ("sweep-population",
                                lambda raw: raw.update(
                                    sweep={"populations": [4, 10 ** 400]}),
                                "sweep.populations[1]"),
}


class TestExitCodes:
    @pytest.mark.parametrize("case", sorted(NON_FINITE_INPUTS))
    def test_non_finite_input_names_field(self, case, tmp_path, capsys):
        verb, edit, field = NON_FINITE_INPUTS[case]
        raw = _solve_raw()
        edit(raw)
        cfg = tmp_path / "bad.yaml"
        cfg.write_text(yaml.safe_dump(raw))
        out = tmp_path / "out"
        code = main([verb, "--config", str(cfg), "--out", str(out)])
        assert code == 2
        assert f"config error: {field}: " in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("seed", ["-1", str(2 ** 64)])
    def test_seed_out_of_range(self, seed, tmp_path, capsys):
        cfg = write_fast_phc(tmp_path)
        out = tmp_path / "run"
        code = main(["phc", "--config", str(cfg), "--out", str(out),
                     "--seed", seed])
        assert code == 2
        assert "config error: seeds[0]: " in capsys.readouterr().err
        assert not out.exists()

    def test_repeated_seed(self, tmp_path, capsys):
        raw = yaml.safe_load((DATA / "phc_single_type.yaml").read_text())
        raw["seeds"] = [5, 5, 5, 5]
        cfg = tmp_path / "repeated.yaml"
        cfg.write_text(yaml.safe_dump(raw))
        out = tmp_path / "run"
        code = main(["phc", "--config", str(cfg), "--out", str(out)])
        assert code == 2
        assert ("config error: seeds[1]: repeats seed 5"
                in capsys.readouterr().err)
        assert not out.exists()

    def test_success(self, tmp_path, capsys):
        code = main(["compare", "--config", str(DATA / "scenario_a.yaml"),
                     "--out", str(tmp_path)])
        assert code == 0
        out = capsys.readouterr().out
        for scheme in ("partial", "complete", "linear", "uniform"):
            assert f"{scheme}: gcs_utility=" in out
        assert f"compare: wrote {tmp_path} in" in out

    def test_missing_config(self, tmp_path, capsys):
        code = main(["solve", "--config", str(tmp_path / "absent.yaml")])
        assert code == 2
        assert "config error" in capsys.readouterr().err

    def test_malformed_yaml(self, tmp_path, capsys):
        bad = tmp_path / "bad.yaml"
        bad.write_text("mode: solve\n  oops: 1\n")
        code = main(["solve", "--config", str(bad)])
        assert code == 2
        err = capsys.readouterr().err
        assert "line 2" in err

    def test_phc_verb_without_phc_block(self, tmp_path, capsys):
        code = main(["phc", "--config", str(DATA / "scenario_a.yaml"),
                     "--out", str(tmp_path)])
        assert code == 2
        assert "phc" in capsys.readouterr().err

    def test_oracle_with_too_many_types(self, tmp_path):
        cfg = tmp_path / "many.yaml"
        cfg.write_text(
            "mode: solve\n"
            "scenario:\n"
            "  satisfaction_factor: 6.0\n"
            "  deployment_cost: 1.0\n"
            "  s_max: 20.0\n"
            "  t_max: 2.0\n"
            "  vdd_demand: 800.0\n"
            "  types:\n"
            "    - {c1: 0.8, n: 2, t: 1.0}\n"
            "    - {c1: 0.6, n: 2, t: 1.0}\n"
            "    - {c1: 0.4, n: 2, t: 1.0}\n"
            "    - {c1: 0.2, n: 2, t: 1.0}\n")
        code = main(["solve", "--config", str(cfg), "--out", str(tmp_path),
                     "--oracle"])
        assert code == 0
        oracle = json.loads((tmp_path / "summary.json").read_text())["oracle"]
        assert len(oracle["oracle_sizes"]) == 4
        gap = (oracle["closed_form_gcs_utility"]
               - oracle["oracle_gcs_utility"])
        assert -1e-9 <= gap <= oracle["resolution_bound"]

    # (verb, oracle, first type's count, file and key named in the error)
    @pytest.mark.parametrize("index", [10 ** 13, 10 ** 400])
    def test_large_index_keeps_the_cost_order(self, index, tmp_path):
        # the index breaks exact cost ties only: however large, it must not
        # outweigh a real cost gap
        raw = _solve_raw()
        raw["scenario"]["types"] = [
            {"index": 1, "c1": 0.5, "n": 5, "t": 1.0},
            {"index": index, "c1": 0.6, "n": 5, "t": 1.0}]
        cfg = tmp_path / "ties.yaml"
        cfg.write_text(yaml.safe_dump(raw))
        out = tmp_path / "out"
        assert main(["solve", "--config", str(cfg), "--out", str(out)]) == 0
        summary = json.loads((out / "summary.json").read_text())
        assert summary["eligible_types"] == [index, 1]
        with open(out / "menu.csv", newline="") as f:
            utilities = [float(row["utility"]) for row in csv.DictReader(f)]
        assert min(utilities) >= -FEASIBILITY_TOL
        scenario = load_config(cfg).scenario
        menu, _ = solve_partial_info(scenario)
        assert verify_feasibility(scenario, menu).feasible

    @pytest.mark.parametrize("verb, oracle, count, named", [
        ("solve", False, 10 ** 308, "summary.json: gcs_utility is nan"),
        ("compare", False, 10 ** 308, "compare.csv: gcs_utility is nan"),
        ("solve", True, 10 ** 307,
         "summary.json: oracle.oracle_gcs_utility is inf"),
    ])
    @pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
    def test_non_finite_output_is_refused(self, verb, oracle, count, named,
                                          tmp_path, capsys):
        # finite inputs whose utilities overflow: the run exits 3 naming
        # the file and the key, and writes no artifact
        raw = _solve_raw()
        raw["scenario"]["s_max"] = 20.0
        raw["scenario"]["types"] = [{"c1": 0.8, "n": count, "t": 1.0},
                                    {"c1": 0.4, "n": 2, "t": 1.0}]
        cfg = tmp_path / "big.yaml"
        cfg.write_text(yaml.safe_dump(raw))
        out = tmp_path / "out"
        code = main([verb, "--config", str(cfg), "--out", str(out)]
                    + (["--oracle"] if oracle else []))
        assert code == 3
        assert f"solver error: {named}, not finite" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
    def test_oracle_overflow_to_nan_is_refused(self, tmp_path, capsys):
        # the first position's objective overflows to inf - inf on the
        # grid, which the oracle cannot rank: exit 3 naming the position,
        # with no traceback and no output directory
        raw = yaml.safe_load((DATA / "scenario_a.yaml").read_text())
        raw["scenario"]["types"][0]["n"] = 10 ** 307
        raw["scenario"]["types"][1]["n"] = 2
        cfg = tmp_path / "overflow.yaml"
        cfg.write_text(yaml.safe_dump(raw))
        out = tmp_path / "out"
        code = main(["solve", "--config", str(cfg), "--out", str(out),
                     "--oracle"])
        assert code == 3
        assert ("solver error: grid oracle: eligible position 1 (type 1) "
                "has an objective term that overflows to nan"
                in capsys.readouterr().err)
        assert not out.exists()

    def test_phc_payoff_overflow_is_refused(self, tmp_path, capsys):
        # a count whose GCS weight overflows: refused before any kernel
        # call, so no RuntimeWarning leaks, with exit 3 naming the type
        # and the term, and no output directory
        raw = yaml.safe_load((DATA / "phc_single_type.yaml").read_text())
        raw["scenario"]["types"][0]["n"] = 10 ** 308
        cfg = tmp_path / "overflow.yaml"
        cfg.write_text(yaml.safe_dump(raw))
        out = tmp_path / "out"
        code = main(["phc", "--config", str(cfg), "--out", str(out)])
        assert code == 3
        assert ("solver error: phc: type 1: the GCS weight factor*n/t "
                "overflows to inf" in capsys.readouterr().err)
        assert not out.exists()

    def test_phc_perturbed_count_overflow_is_refused(self, tmp_path, capsys):
        # a type of no members has weight 0, but hot-boot perturbs its
        # count to at least 1, whose weight overflows at this delay: exit 3
        # naming the type and the term, before training, and no directory
        raw = yaml.safe_load((DATA / "phc_single_type.yaml").read_text())
        raw["scenario"]["types"].append({"c1": 0.3, "t": 1.0e-310, "n": 0})
        raw["phc"].update(hotboot_episodes=2, family_size=3,
                          slots_per_episode=50, slots=200, window=100)
        cfg = tmp_path / "zero_count.yaml"
        cfg.write_text(yaml.safe_dump(raw))
        out = tmp_path / "out"
        code = main(["phc", "--config", str(cfg), "--out", str(out)])
        assert code == 3
        assert ("solver error: phc: type 2: the GCS weight factor*n/t "
                "overflows to inf" in capsys.readouterr().err)
        assert not out.exists()

    @pytest.mark.parametrize("cpus", [1, 2])
    def test_phc_refusal_in_any_group_exits_3(self, cpus, tmp_path, capsys,
                                              monkeypatch):
        # seed 2 is the worker's seed when there are two groups; its
        # refusal reaches the CLI as itself, as in one process
        from uavcontract import runner
        monkeypatch.setattr(os, "sched_getaffinity",
                            lambda pid: set(range(cpus)), raising=False)
        real = runner.trajectory_text

        def refuse(name, log, tables):
            if name == "phc_seed2.csv":
                raise NonFiniteOutput(name, "gcs_term", math.nan)
            return real(name, log, tables)

        monkeypatch.setattr(runner, "trajectory_text", refuse)
        code = main(["phc", "--config", str(DATA / "phc_single_type.yaml"),
                     "--out", str(tmp_path)])
        assert code == 3
        assert ("solver error: phc_seed2.csv: gcs_term is nan, not finite"
                in capsys.readouterr().err)
        assert multiprocessing.active_children() == []

    def test_strict_not_converged(self, tmp_path, capsys):
        # a window spanning every slot at tolerance 1 asks for one posted
        # item throughout, which the early exploration rules out
        raw = yaml.safe_load((DATA / "phc_single_type.yaml").read_text())
        raw["phc"].update(slots=200, window=200, tolerance=1.0)
        cfg = tmp_path / "never_converges.yaml"
        cfg.write_text(yaml.safe_dump(raw))
        code = main(["phc", "--config", str(cfg),
                     "--out", str(tmp_path), "--seed", "0", "--strict"])
        assert code == 4
        assert "not converged" in capsys.readouterr().err
        # outputs land on disk before the verdict
        assert (tmp_path / "phc_seed0.csv").exists()


class TestOverrides:
    def test_verb_overrides_mode(self, tmp_path, capsys):
        # scenario_a.yaml says compare; the solve verb wins
        code = main(["solve", "--config", str(DATA / "scenario_a.yaml"),
                     "--out", str(tmp_path)])
        assert code == 0
        assert (tmp_path / "menu.csv").exists()
        assert not (tmp_path / "compare.csv").exists()
        summary = json.loads((tmp_path / "summary.json").read_text())
        assert summary["eligible_types"] == [1, 2]
        manifest = json.loads((tmp_path / "manifest.json").read_text())
        assert manifest["mode"] == "solve"

    def test_seed_replaces_list(self, tmp_path, capsys):
        cfg = write_fast_phc(tmp_path)
        code = main(["phc", "--config", str(cfg), "--out",
                     str(tmp_path / "run"), "--seed", "7"])
        assert code == 0
        run = tmp_path / "run"
        assert (run / "phc_seed7.csv").exists()
        assert not (run / "phc_seed0.csv").exists()
        manifest = json.loads((run / "manifest.json").read_text())
        assert manifest["seeds"] == [7]
        assert "seed/type pairs" in capsys.readouterr().out

    def test_default_out_dir_from_config(self, tmp_path, monkeypatch,
                                         capsys):
        cfg = write_fast_phc(tmp_path)
        monkeypatch.chdir(tmp_path)
        code = main(["phc", "--config", str(cfg)])
        assert code == 0
        assert (tmp_path / "out" / "phc_seed0.csv").exists()
        assert (tmp_path / "out" / "phc_seed1.csv").exists()

    def test_manifest_digest_matches_file(self, tmp_path):
        import hashlib
        cfg = DATA / "scenario_a.yaml"
        main(["compare", "--config", str(cfg), "--out", str(tmp_path)])
        manifest = json.loads((tmp_path / "manifest.json").read_text())
        assert manifest["config_sha256"] == hashlib.sha256(
            cfg.read_bytes()).hexdigest()


class TestGolden:
    def test_compare_csv_bytes(self, tmp_path):
        code = main(["compare", "--config", str(DATA / "scenario_a.yaml"),
                     "--out", str(tmp_path)])
        assert code == 0
        assert ((tmp_path / "compare.csv").read_bytes()
                == (GOLDEN / "compare_scenario_a.csv").read_bytes())

    def test_rerun_identical(self, tmp_path):
        for sub in ("a", "b"):
            main(["sweep-cost", "--config", str(DATA / "scenario_a.yaml"),
                  "--out", str(tmp_path / sub)])
        assert ((tmp_path / "a" / "sweep_cost.csv").read_bytes()
                == (tmp_path / "b" / "sweep_cost.csv").read_bytes())
