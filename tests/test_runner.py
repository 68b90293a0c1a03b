import dataclasses
import hashlib
import json
import math
import multiprocessing
import os
import pickle
import threading
from pathlib import Path

import numpy as np
import pytest

from uavcontract import (NonFiniteOutput, NotConverged, ValidationError,
                         gcs_utility, load_config, parse_config,
                         run_compare, run_mode, run_phc, run_solve,
                         run_sweep_cost, run_sweep_population,
                         solve_partial_info)
from uavcontract.phc import (EpisodeLog, hotboot, perturb_scenario, train,
                             with_default_r_max)
from uavcontract import runner
from uavcontract.runner import (SCHEME_ORDER, csv_text, default_linear_price,
                                fmt, json_text, metrics_rows, scale_counts,
                                trajectory_text)

from conftest import make_scenario_a

HERE = Path(__file__).parent
DATA = HERE / "data"
GOLDEN = HERE / "golden"


def phc_config(**overrides):
    raw = {
        "mode": "phc",
        "seeds": [0],
        "scenario": {
            "satisfaction_factor": 6.0,
            "deployment_cost": 1.0,
            "s_max": 13.75,
            "t_max": 2.0,
            "vdd_demand": 800.0,
            "types": [{"c1": 0.5, "n": 5, "t": 1.0}],
        },
        "phc": {"reward_levels": 6, "size_levels": 6, "r_max": 15.75,
                "slots": 600, "window": 100},
    }
    raw["phc"].update(overrides.pop("phc", {}))
    raw.update(overrides)
    return parse_config(raw)


def no_leftover_tmp(out_dir):
    return not list(Path(out_dir).glob("*.tmp"))


def reference_trajectory_lines(log):
    """The trajectory CSV's lines formatted cell by cell, the reference
    for the table-driven `trajectory_text`."""
    lines = ["slot,type,gcs_state,uav_state,reward,size,uav_utility,gcs_term"]
    columns = (log.signed, log.item, log.rewards, log.sizes,
               log.uav_utility, log.gcs_term)
    for t in range(log.slots):
        for j, type_index in enumerate(log.type_indices):
            signed, item, reward, size, uav, gcs = (
                column[t, j] for column in columns)
            lines.append(",".join([
                str(t + 1), str(type_index), str(int(signed)), str(int(item)),
                fmt(reward), fmt(size), fmt(uav), fmt(gcs)]))
    return lines


def reference_trajectory_text(log):
    return "\n".join(reference_trajectory_lines(log)) + "\n"


def first_trajectory_text(file, log, strings):
    """The first form of `trajectory_text`: the whole log coded at once by
    `np.unique`, each distinct tail built once and the CSV joined whole.
    The streamed form must give its bytes and its refusals."""
    def formatted(values):
        values = values.tolist()
        for value in set(values).difference(strings):
            strings[value] = fmt(value)
        return list(map(strings.__getitem__, values))

    slots, width = log.item.shape
    answer = log.signed.astype(np.int64)
    column = np.broadcast_to(np.arange(width), (slots, width))
    code = (log.item * 2 + answer) * width + column
    _, first, inverse = np.unique(code.ravel(), return_index=True,
                                  return_inverse=True)
    fields = [field.ravel() for field in (
        answer, log.item, log.reward_index, log.size_index,
        log.uav_utility, log.gcs_term)]
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
    reward_text = formatted(log.reward_grid)
    size_text = formatted(log.size_grid)
    types = np.array(log.type_indices).take(cells % width)
    tails = list(map("{},{},{},{},{},{},{}".format, types.tolist(),
                     answer.tolist(), item.tolist(),
                     map(reward_text.__getitem__, reward.tolist()),
                     map(size_text.__getitem__, size.tolist()),
                     formatted(uav), formatted(gcs)))
    slot_of = np.repeat(np.arange(1, slots + 1), width)
    return runner.TRAJECTORY_HEADER + "\n" + "".join(map(
        "{},{}\n".format, slot_of.tolist(),
        map(tails.__getitem__, inverse.tolist())))


def reference_refusal(file, log):
    """The refusal `trajectory_text` must raise for ``log``, read off its
    derived columns: the first column, in CSV order, holding a non-finite
    value, and the first such value in slot order; None for a finite
    log."""
    for key, value in (("reward", log.rewards), ("size", log.sizes),
                       ("uav_utility", log.uav_utility),
                       ("gcs_term", log.gcs_term)):
        bad = ~np.isfinite(value)
        if bad.any():
            return str(NonFiniteOutput(file, key, value[bad][0]))
    return None


def joined(file, log, tables):
    """`trajectory_text`'s chunks joined into the whole CSV, the same text
    at the default chunk length and at chunks of 1 and 7 slots, which cut
    the short logs of these tests."""
    default = runner.TRAJECTORY_CHUNK_SLOTS
    texts = set()
    try:
        for chunk_slots in (default, 1, 7):
            runner.TRAJECTORY_CHUNK_SLOTS = chunk_slots
            texts.add("".join(trajectory_text(file, log, tables)))
    finally:
        runner.TRAJECTORY_CHUNK_SLOTS = default
    assert len(texts) == 1
    return texts.pop()


class TestFmt:
    def test_nine_significant_digits(self):
        assert fmt(56.13603032723673) == "56.1360303"
        assert fmt(1234567891.0) == "1.23456789e+09"
        assert fmt(0.0875) == "0.0875"

    def test_negative_zero_normalised(self):
        assert fmt(-0.0) == "0"
        assert fmt(0.0) == "0"

    def test_specials(self):
        assert fmt(float("inf")) == "inf"
        assert fmt(1e-30) == "1e-30"
        assert fmt(-1338.7866940206532) == "-1338.78669"


class TestScaleCounts:
    def test_even_split(self):
        assert scale_counts([5, 5], 2) == [1, 1]
        assert scale_counts([5, 5], 10) == [5, 5]

    def test_largest_remainder(self):
        # quotas 1.5 / 1.5 / 2.0: the leftover unit goes to the earlier tie
        assert scale_counts([3, 3, 4], 5) == [2, 1, 2]

    def test_zero_bumped_from_largest(self):
        assert scale_counts([9, 1], 5) == [4, 1]

    def test_population_too_small(self):
        with pytest.raises(ValidationError):
            scale_counts([5, 5, 5], 2)

    def test_invariants(self):
        rng = np.random.default_rng(1)
        for _ in range(50):
            counts = list(rng.integers(1, 30, size=rng.integers(1, 6)))
            total = int(rng.integers(len(counts), 60))
            scaled = scale_counts(counts, total)
            assert sum(scaled) == total
            assert all(c >= 1 for c in scaled)


class TestMetricsRows:
    def test_order_and_values(self):
        cfg = load_config(DATA / "scenario_a.yaml")
        rows = metrics_rows(cfg, cfg.scenario)
        assert [r.scheme for r in rows] == list(SCHEME_ORDER)
        partial = rows[0]
        expect = 30.0 * math.log(4.0) + 30.0 * math.log(12.0) - 60.0
        assert partial.gcs_utility == pytest.approx(expect, abs=1e-9)
        assert partial.type_utilities == (0.0, 1.5)
        assert partial.zeta == 0.0875
        complete = rows[1]
        assert complete.type_utilities == (0.0, 0.0)
        assert complete.zeta == 0.1

    def test_default_price_is_top_cost(self):
        assert default_linear_price(make_scenario_a()) == 1.0


class TestRunCompare:
    def test_matches_golden_bytes(self, tmp_path):
        cfg = load_config(DATA / "scenario_a.yaml")
        run_compare(cfg, tmp_path, config_digest="x")
        got = (tmp_path / "compare.csv").read_bytes()
        assert got == (GOLDEN / "compare_scenario_a.csv").read_bytes()
        assert no_leftover_tmp(tmp_path)

    def test_manifest_contents(self, tmp_path):
        cfg = load_config(DATA / "scenario_a.yaml")
        run_compare(cfg, tmp_path, config_digest="abc123")
        manifest = json.loads((tmp_path / "manifest.json").read_text())
        assert manifest["mode"] == "compare"
        assert manifest["config_sha256"] == "abc123"
        assert manifest["jit_enabled"] is False
        assert manifest["seeds"] == []
        assert manifest["numpy_version"] == np.__version__
        assert manifest["package_version"] not in ("", None)


class TestRunSolve:
    def test_pooled_scenario_summary(self, tmp_path):
        cfg = load_config(DATA / "scenario_b.yaml")
        summary = run_solve(cfg, tmp_path)
        assert summary["eligible_types"] == [1, 2]
        assert summary["pooled_ranges"] == [[0, 1]]
        assert summary["unconstrained_sizes"] == [3.0, 2.0]
        assert summary["zeta"] == 0.034375
        menu, _ = solve_partial_info(cfg.scenario)
        assert summary["gcs_utility"] == gcs_utility(cfg.scenario, menu)
        lines = (tmp_path / "menu.csv").read_text().splitlines()
        assert lines[0] == "type,cost,delay,count,size,reward,utility"
        assert lines[1] == "1,1,1,5,2.75,3.75,0"
        assert lines[2] == "2,0.5,4,5,2.75,3.75,1.375"

    def test_oracle_block(self, tmp_path):
        # scenario_b.yaml pins grid_oracle 0.25, so the report appears
        # without the flag and the grid hits the pooled optimum exactly
        cfg = load_config(DATA / "scenario_b.yaml")
        summary = run_solve(cfg, tmp_path)
        oracle = summary["oracle"]
        assert oracle["grid_step"] == 0.25
        assert oracle["closed_form_sizes"] == [2.75, 2.75]
        assert oracle["oracle_sizes"] == [2.75, 2.75]
        assert oracle["closed_form_gcs_utility"] == oracle["oracle_gcs_utility"]
        assert oracle["resolution_bound"] == pytest.approx(
            0.25 * (30.0 + 7.5 + 7.5 + 2.5))
        on_disk = json.loads((tmp_path / "summary.json").read_text())
        assert on_disk == summary

    def test_oracle_flag_without_config_key(self, tmp_path):
        cfg = load_config(DATA / "scenario_a.yaml")
        cfg = dataclasses.replace(cfg, mode="solve")
        plain = run_solve(cfg, tmp_path / "plain")
        assert "oracle" not in plain
        checked = run_solve(cfg, tmp_path / "checked", oracle=True)
        assert checked["oracle"]["grid_step"] == 0.25
        assert checked["oracle"]["oracle_sizes"] == [3.0, 11.0]


class TestSweeps:
    @pytest.mark.parametrize("scenario", ["scenario_a", "scenario_b"])
    @pytest.mark.parametrize("mode, run", [
        ("sweep-cost", run_sweep_cost),
        ("sweep-population", run_sweep_population)])
    def test_matches_golden_bytes(self, mode, run, scenario, tmp_path):
        cfg = dataclasses.replace(load_config(DATA / f"{scenario}.yaml"),
                                  mode=mode)
        run(cfg, tmp_path, config_digest="x")
        file = mode.replace("-", "_")
        got = (tmp_path / f"{file}.csv").read_bytes()
        assert got == (GOLDEN / f"{file}_{scenario}.csv").read_bytes()
        assert no_leftover_tmp(tmp_path)

    def test_cost_sweep_endpoints(self, tmp_path):
        cfg = load_config(DATA / "scenario_a.yaml")
        cfg = dataclasses.replace(cfg, mode="sweep-cost", cost_points=5)
        records = run_sweep_cost(cfg, tmp_path)
        assert len(records) == 5 * 4
        by_key = {(round(c, 6), s): rest
                  for c, s, *rest in records}
        # cheapest point: the swept type undercuts the fixed 0.5-cost type,
        # so linear pricing at 0.5 pays it (0.5 - 0.01) * 300
        assert by_key[(0.01, "linear")][0] == pytest.approx(147.0)
        # costliest point: the swept type is the costliest, earning no rent
        assert by_key[(1.0, "partial")][0] == pytest.approx(0.0)
        lines = (tmp_path / "sweep_cost.csv").read_text().splitlines()
        assert lines[0] == "cost,scheme,uav_utility,gcs_utility,zeta"
        assert len(lines) == 1 + len(records)

    def test_population_sweep(self, tmp_path):
        cfg = load_config(DATA / "scenario_a.yaml")
        cfg = dataclasses.replace(cfg, mode="sweep-population")
        records = run_sweep_population(cfg, tmp_path)
        assert len(records) == 5 * 4
        small_partial = next(r for r in records
                             if r[0] == 2 and r[1] == "partial")
        # counts (1, 1): one UAV on each item of the scenario-A menu
        assert small_partial[2] == pytest.approx((3.0 + 11.0) / 800.0)
        big_partial = next(r for r in records
                           if r[0] == 10 and r[1] == "partial")
        assert big_partial[2] == pytest.approx(0.0875)
        lines = (tmp_path / "sweep_population.csv").read_text().splitlines()
        assert lines[0] == "population,scheme,zeta,gcs_utility"

    def test_population_below_type_count(self, tmp_path):
        cfg = load_config(DATA / "scenario_a.yaml")
        cfg = dataclasses.replace(cfg, mode="sweep-population",
                                  populations=(1,))
        with pytest.raises(ValidationError):
            run_sweep_population(cfg, tmp_path)


class TestRunMode:
    @pytest.mark.parametrize("flag, mode", [
        ("oracle", "compare"), ("oracle", "sweep-cost"),
        ("oracle", "sweep-population"), ("oracle", "phc"),
        ("strict", "compare"), ("strict", "solve"), ("strict", "sweep-cost"),
        ("strict", "sweep-population")])
    def test_flag_off_its_mode_is_refused(self, flag, mode, tmp_path):
        # only solve runs the oracle and only phc has a verdict to be
        # strict about: the flag is refused before anything is written
        cfg = (phc_config() if mode == "phc" else dataclasses.replace(
            load_config(DATA / "scenario_a.yaml"), mode=mode))
        with pytest.raises(ValidationError) as err:
            run_mode(cfg, tmp_path / "out", **{flag: True})
        assert err.value.field == flag
        assert mode in str(err.value)
        assert not (tmp_path / "out").exists()


class TestRunPhc:
    def test_outputs_and_schema(self, tmp_path):
        cfg = phc_config()
        summaries = run_phc(cfg, tmp_path)
        assert len(summaries) == 1
        s = summaries[0]
        assert s.seed == 0 and s.type_index == 1
        assert (s.reference_size, s.reference_reward) == (11.0, 6.5)
        traj = (tmp_path / "phc_seed0.csv").read_text().splitlines()
        assert traj[0] == ("slot,type,gcs_state,uav_state,reward,size,"
                           "uav_utility,gcs_term")
        assert len(traj) == 1 + 600
        assert traj[1].startswith("1,1,")
        summary_lines = (tmp_path / "phc_summary.csv").read_text().splitlines()
        assert summary_lines[0] == ("seed,type,converged,modal_size,"
                                    "modal_reward,convergence_slot,"
                                    "reference_size,reference_reward")
        assert len(summary_lines) == 2
        assert no_leftover_tmp(tmp_path)

    def test_rerun_is_byte_identical(self, tmp_path):
        cfg = phc_config(seeds=[3, 4])
        run_phc(cfg, tmp_path / "first")
        run_phc(cfg, tmp_path / "second")
        for name in ("phc_seed3.csv", "phc_seed4.csv", "phc_summary.csv"):
            assert ((tmp_path / "first" / name).read_bytes()
                    == (tmp_path / "second" / name).read_bytes())

    # sha256 of the seeded artifacts of tests/data/phc_single_type.yaml.
    # They change only with the game or its seeded draws; setting that
    # config's step_uav to the default (ROADMAP.md, item 1) re-pins them.
    # manifest.json is left out: it carries the numpy and Python versions.
    REFERENCE_DIGESTS = {
        "phc_seed0.csv":
            "43dcc84e124f18faabb32db2dba5a0d06015e7c0d2e6fd00b7c93855d85db37b",
        "phc_seed1.csv":
            "bbeee09a4ae5f629b77a11345e5a159b29f1f8ce479478489c9c35981e632bf8",
        "phc_seed2.csv":
            "3365a842a3337f2d985d6772ee001eea52cc6528cfd6c5ab8a5983a79b0be3b6",
        "phc_summary.csv":
            "1d554a5f827b2627423519312c9a532e8b072786b4d76b9ae68415204fbfa9c3",
    }

    def test_reference_config_artifacts_are_pinned(self, tmp_path):
        run_phc(load_config(DATA / "phc_single_type.yaml"), tmp_path)
        digests = {name: hashlib.sha256((tmp_path / name).read_bytes())
                   .hexdigest() for name in self.REFERENCE_DIGESTS}
        assert digests == self.REFERENCE_DIGESTS

    # sha256 of the seeded artifacts of tests/data/phc_wide.yaml: three
    # eligible types and one ineligible, hot-booted, three seeds, so every
    # train call steps nine rows at once
    WIDE_DIGESTS = {
        "phc_seed0.csv":
            "a60cf86883b9f391df3259342a3b2a37f786d7c8506c52c7e5afa75f5a6c884c",
        "phc_seed1.csv":
            "f75c609aa6d1589425af6808560ef8504e22787cb7bca6145d746d0d865c63f0",
        "phc_seed2.csv":
            "bd1290224f8aff2360ab473b7c93aaf534e8b6b0e1385ce015e2d0e59aab7e5b",
        "phc_summary.csv":
            "127427b0d782e4824f7f2cc03430122bb387b7514f462ca6a920f617f98a835c",
    }

    def test_wide_config_artifacts_are_pinned(self, tmp_path):
        run_phc(load_config(DATA / "phc_wide.yaml"), tmp_path)
        digests = {name: hashlib.sha256((tmp_path / name).read_bytes())
                   .hexdigest() for name in self.WIDE_DIGESTS}
        assert digests == self.WIDE_DIGESTS
        assert sorted(p.name for p in tmp_path.glob("phc_*.csv")) == sorted(
            self.WIDE_DIGESTS)

    def test_hotboot_path_runs_deterministically(self, tmp_path):
        cfg = phc_config(phc={"hotboot_episodes": 2, "family_size": 3,
                              "slots_per_episode": 100, "slots": 400,
                              "window": 100})
        run_phc(cfg, tmp_path / "a")
        run_phc(cfg, tmp_path / "b")
        assert ((tmp_path / "a" / "phc_seed0.csv").read_bytes()
                == (tmp_path / "b" / "phc_seed0.csv").read_bytes())
        cold = phc_config(phc={"slots": 400, "window": 100})
        run_phc(cold, tmp_path / "c")
        assert ((tmp_path / "a" / "phc_seed0.csv").read_bytes()
                != (tmp_path / "c" / "phc_seed0.csv").read_bytes())

    def test_batch_matches_per_seed_chain(self, tmp_path):
        # run_phc trains every seed in one batch; each seed's trajectory
        # must be the bytes a chain of one-run hotboot and train calls on
        # that seed's generator writes
        cfg = load_config(DATA / "phc_single_type.yaml")
        two_types = dataclasses.replace(cfg.scenario, types=(
            cfg.scenario.types[0],
            dataclasses.replace(cfg.scenario.types[0], index=2, c1=0.3,
                                n=4)), total_uavs=9)
        run = dataclasses.replace(cfg.phc_run, slots=300, window=100,
                                  hotboot_episodes=3, family_size=3,
                                  slots_per_episode=60)
        cfg = dataclasses.replace(cfg, scenario=two_types, phc_run=run,
                                  seeds=(4, 11, 12))
        run_phc(cfg, tmp_path)
        params = with_default_r_max(cfg.phc, cfg.scenario)
        for seed in cfg.seeds:
            rng = np.random.default_rng(seed)
            family = [cfg.scenario] + [
                perturb_scenario(cfg.scenario, rng, run.perturbation)
                for _ in range(run.family_size - 1)]
            init = hotboot([family], run.hotboot_episodes, params, [rng],
                           run.slots_per_episode)
            (log,) = train([cfg.scenario], params, run.slots, init,
                           [rng]).logs
            want = reference_trajectory_text(log)
            assert ((tmp_path / f"phc_seed{seed}.csv").read_bytes()
                    == want.encode("utf-8"))

    def test_strict_raises_after_writing(self, tmp_path):
        cfg = load_config(DATA / "phc_single_type.yaml")
        # a window spanning every slot at tolerance 1 asks for one posted
        # item throughout, which the early exploration rules out
        run = dataclasses.replace(cfg.phc_run, slots=200, window=200,
                                  tolerance=1.0)
        cfg = dataclasses.replace(cfg, seeds=(0,), phc_run=run)
        with pytest.raises(NotConverged):
            run_phc(cfg, tmp_path, strict=True)
        assert (tmp_path / "phc_seed0.csv").exists()
        assert (tmp_path / "phc_summary.csv").exists()
        assert (tmp_path / "manifest.json").exists()
        row = (tmp_path / "phc_summary.csv").read_text().splitlines()[1]
        seed, ty, converged, *_rest, slot, _rs, _rr = row.split(",")
        assert (seed, ty, converged) == ("0", "1", "0")


def force_cpus(monkeypatch, count):
    """Make `run_phc` see ``count`` usable CPUs, so it splits the seeds
    into min(count, seeds) groups."""
    monkeypatch.setattr(os, "sched_getaffinity",
                        lambda pid: set(range(count)), raising=False)


def sha256s(out_dir, names):
    return {name: hashlib.sha256((Path(out_dir) / name).read_bytes())
            .hexdigest() for name in names}


def group_seeds(groups):
    """The seeds of each group, whose entries are (seed, generator,
    family) triples."""
    return [[seed for seed, _, _ in group] for group in groups]


class TestSeedGroups:
    # 1 group, 2 groups of 2 + 1 seeds, one seed per group, and more CPUs
    # than seeds
    @pytest.mark.parametrize("cpus", [1, 2, 3, 5])
    @pytest.mark.parametrize("config, pinned", [
        ("phc_single_type.yaml", TestRunPhc.REFERENCE_DIGESTS),
        ("phc_wide.yaml", TestRunPhc.WIDE_DIGESTS)])
    def test_pinned_artifacts_hold_for_any_cpu_count(
            self, config, pinned, cpus, tmp_path, monkeypatch):
        force_cpus(monkeypatch, cpus)
        cfg = load_config(DATA / config)
        summaries = run_phc(cfg, tmp_path)
        assert sha256s(tmp_path, pinned) == pinned
        assert multiprocessing.active_children() == []
        # summaries come back in seed order, types in table order
        assert [(s.seed, s.type_index) for s in summaries] == [
            (seed, ty.index) for seed in cfg.seeds
            for ty in cfg.scenario.eligible]

    def test_groups_are_contiguous_and_larger_first(self, tmp_path,
                                                    monkeypatch):
        force_cpus(monkeypatch, 3)
        seen = []

        def record(task, groups):
            seen.append(group_seeds(groups))
            return [task(group) for group in groups]

        monkeypatch.setattr(runner, "_run_groups", record)
        monkeypatch.setattr(runner, "_phc_seed_group",
                            lambda *args: [])
        for seeds in ([5], [5, 6], [5, 6, 7, 8], [5, 6, 7, 8, 9, 10, 11]):
            run_phc(phc_config(seeds=seeds), tmp_path)
        assert seen == [[[5]], [[5], [6]], [[5, 6], [7], [8]],
                        [[5, 6, 7], [8, 9], [10, 11]]]

    def test_one_group_where_other_threads_run(self, tmp_path,
                                               monkeypatch):
        force_cpus(monkeypatch, 2)
        seen = []
        monkeypatch.setattr(runner, "_run_groups", lambda task, groups:
                            seen.append(group_seeds(groups)) or [])
        release = threading.Event()
        other = threading.Thread(target=release.wait)
        other.start()
        try:
            run_phc(phc_config(seeds=[0, 1]), tmp_path)
        finally:
            release.set()
            other.join()
        run_phc(phc_config(seeds=[0, 1]), tmp_path)
        assert seen == [[[0, 1]], [[0], [1]]]

    def test_one_group_without_an_affinity_call(self, monkeypatch):
        monkeypatch.delattr(os, "sched_getaffinity", raising=False)
        assert runner._usable_cpus() == 1

    def test_strict_raises_after_every_group_wrote(self, tmp_path,
                                                   monkeypatch):
        force_cpus(monkeypatch, 2)
        cfg = phc_config(seeds=[0, 1, 2], phc={"slots": 200, "window": 200,
                                               "tolerance": 1.0})
        with pytest.raises(NotConverged):
            run_phc(cfg, tmp_path, strict=True)
        assert sorted(p.name for p in tmp_path.iterdir()) == [
            "manifest.json", "phc_seed0.csv", "phc_seed1.csv",
            "phc_seed2.csv", "phc_summary.csv"]
        assert multiprocessing.active_children() == []

    @pytest.mark.parametrize("failing", [0, 2])
    def test_a_group_that_raises_is_joined(self, failing, tmp_path,
                                           monkeypatch):
        # seed 0 fails in this process, seed 2 in the worker; either way
        # the refusal arrives as itself and no worker outlives the call
        force_cpus(monkeypatch, 2)
        real = runner.trajectory_text

        def refuse(name, log, tables):
            if name == f"phc_seed{failing}.csv":
                raise NonFiniteOutput(name, "gcs_term", math.inf)
            return real(name, log, tables)

        monkeypatch.setattr(runner, "trajectory_text", refuse)
        with pytest.raises(NonFiniteOutput,
                           match=rf"^phc_seed{failing}\.csv: gcs_term is inf"):
            run_phc(phc_config(seeds=[0, 1, 2]), tmp_path)
        assert multiprocessing.active_children() == []
        assert not (tmp_path / "phc_summary.csv").exists()

    def test_a_worker_that_dies_is_reported(self):
        def task(group):
            if group == [2]:
                os._exit(7)
            return group

        with pytest.raises(ChildProcessError, match="exited with code 7"):
            runner._run_groups(task, [[0], [1], [2]])
        assert multiprocessing.active_children() == []
        assert runner._run_groups(task, [[0], [1]]) == [[0], [1]]


class TestPicklableErrors:
    def test_round_trip_keeps_class_message_and_fields(self):
        error = pickle.loads(pickle.dumps(ValidationError("slots", "x")))
        assert type(error) is ValidationError
        assert (str(error), error.field, error.message) == (
            "slots: x", "slots", "x")
        error = pickle.loads(pickle.dumps(
            NonFiniteOutput("phc_seed2.csv", "gcs_term", -math.inf)))
        assert type(error) is NonFiniteOutput
        assert (str(error), error.file, error.key) == (
            "phc_seed2.csv: gcs_term is -inf, not finite", "phc_seed2.csv",
            "gcs_term")


def two_type_log(slots=400):
    scenario = make_scenario_a()
    params = with_default_r_max(phc_config().phc, scenario)
    (log,) = train([scenario], params, slots, None,
                   [np.random.default_rng(5)]).logs
    return log


def edited(log, **entries):
    """A copy of ``log`` with single entries of its arrays replaced:
    name=[(row, column, value)], rows being slots for ``item`` and
    ``signed`` and log columns for the payoff tables."""
    fields = {name: getattr(log, name).copy()
              for name in ("item", "signed", "uav_payoff", "gcs_payoff")}
    for name, edits in entries.items():
        for row, column, value in edits:
            fields[name][row, column] = value
    return dataclasses.replace(log, **fields)


def first_signed(log, column, start=0):
    """The first slot from ``start`` at which ``column`` signed."""
    t = start + int(np.argmax(log.signed[start:, column]))
    assert log.signed[t, column]
    return t


class TestTrajectoryText:
    def test_matches_cell_by_cell_loop(self):
        log = two_type_log()
        assert len(log.type_indices) == 2
        assert (joined("t.csv", log, {})
                == reference_trajectory_text(log))

    def test_column_slices_of_a_batch(self):
        # train hands out column slices of one batch's arrays, and the
        # seeds share one table of formatted values, as in run_phc
        scenario = make_scenario_a()
        params = with_default_r_max(phc_config().phc, scenario)
        tables = {}
        for log in train(2 * [scenario], params, 300, None,
                         [np.random.default_rng(s) for s in (1, 2)]).logs:
            assert (joined("t.csv", log, tables)
                    == reference_trajectory_text(log))

    def test_hand_edited_cells_match_cell_by_cell_loop(self):
        # payoffs of signed codes set to 123.456, to -0.0 and one ulp above
        # the trained value, a flipped answer and two moved items
        log = two_type_log()
        items = log.uav_payoff.shape[1]
        t, j = np.nonzero(log.signed)
        codes = list(dict.fromkeys(zip(j.tolist(), log.item[t, j].tolist())))
        (j0, k0), (j1, k1), (j2, k2) = codes[:3]
        hand = edited(
            log,
            uav_payoff=[(j0, k0, 123.456), (j1, k1, -0.0)],
            gcs_payoff=[(j2, k2, np.nextafter(log.gcs_payoff[j2, k2],
                                              math.inf))],
            signed=[(9, 0, not log.signed[9, 0])],
            item=[(11, 1, (log.item[11, 1] + 1) % items),
                  (12, 0, items - 1 - log.item[12, 0])])
        want = reference_trajectory_text(hand)
        assert want != reference_trajectory_text(log)
        assert joined("t.csv", hand, {}) == want
        # beside a table the unedited log filled, the edited log gets its
        # own, which writes -0.0 as the declined cells' +0.0 is written
        tables = {}
        joined("t.csv", log, tables)
        assert joined("t.csv", hand, tables) == want
        assert len(tables) == 2
        at = np.flatnonzero(hand.signed[:, j1] & (hand.item[:, j1] == k1))[0]
        assert want.splitlines()[1 + 2 * at + j1].split(",")[6] == "0"

    def test_all_cells_distinct_or_all_equal(self):
        log = two_type_log(slots=50)
        cells = [(t, j) for t in range(50) for j in range(2)]
        same = edited(log, item=[(t, j, log.item[0, 0]) for t, j in cells],
                      signed=[(t, j, True) for t, j in cells])
        assert (joined("t.csv", same, {})
                == reference_trajectory_text(same))
        # every (column, item) code pays its own values
        ramp = np.arange(log.uav_payoff.size, dtype=np.float64).reshape(
            log.uav_payoff.shape) + 0.5
        distinct = dataclasses.replace(log, uav_payoff=ramp,
                                       gcs_payoff=-ramp)
        assert (joined("t.csv", distinct, {})
                == reference_trajectory_text(distinct))

    @pytest.mark.parametrize("name, value", [
        ("uav_utility", math.nan), ("gcs_term", math.inf),
        ("gcs_term", -math.inf)])
    def test_non_finite_cell_is_refused(self, name, value):
        log = two_type_log(slots=60)
        t = first_signed(log, 1, start=40)
        table = {"uav_utility": "uav_payoff", "gcs_term": "gcs_payoff"}[name]
        hand = edited(log, **{table: [(1, log.item[t, 1], value)]})
        with pytest.raises(NonFiniteOutput,
                           match=rf"^phc_seed7\.csv: {name} is ") as got:
            trajectory_text("phc_seed7.csv", hand, {})
        assert str(got.value) == reference_refusal("phc_seed7.csv", hand)

    def test_refusal_names_the_first_column_then_the_first_slot(self):
        # gcs_term goes non-finite at the first signed cell, uav_utility,
        # an earlier column, at the second and the last code met: the
        # second is named
        log = two_type_log(slots=200)
        met = {}
        for t, j in zip(*np.nonzero(log.signed)):
            met.setdefault((j, log.item[t, j]), t)
        codes = list(met)
        assert met[codes[1]] < met[codes[-1]]
        hand = edited(log, gcs_payoff=[(*codes[0], math.nan)],
                      uav_payoff=[(*codes[-1], math.inf),
                                  (*codes[1], -math.inf)])
        with pytest.raises(NonFiniteOutput) as got:
            trajectory_text("t.csv", hand, {})
        assert str(got.value) == "t.csv: uav_utility is -inf, not finite"
        assert str(got.value) == reference_refusal("t.csv", hand)

    @pytest.mark.parametrize("grid, key", [
        ("reward_grid", "reward"), ("size_grid", "size")])
    def test_non_finite_grid_point_is_refused(self, grid, key):
        log = two_type_log(slots=60)
        values = getattr(log, grid).copy()
        index = {"reward": log.reward_index, "size": log.size_index}[key]
        values[index[30, 1]] = -math.inf
        hand = dataclasses.replace(log, **{grid: values})
        with pytest.raises(NonFiniteOutput,
                           match=rf"^t\.csv: {key} is -inf") as got:
            trajectory_text("t.csv", hand, {})
        assert str(got.value) == reference_refusal("t.csv", hand)

    def test_non_finite_payoffs_no_line_shows_pass(self):
        # a declined item pays 0 whatever the table holds, and an item no
        # column posted is never written
        log = two_type_log(slots=60)
        items = log.uav_payoff.shape[1]
        declined = np.setdiff1d(log.item[:, 0], log.item[log.signed[:, 0], 0])
        unposted = np.setdiff1d(np.arange(items), log.item)
        assert declined.size and unposted.size
        hand = edited(log,
                      uav_payoff=[(0, declined[0], math.nan),
                                  (1, unposted[0], math.inf)],
                      gcs_payoff=[(0, unposted[-1], -math.inf)])
        assert reference_refusal("t.csv", hand) is None
        assert joined("t.csv", hand, {}) == reference_trajectory_text(log)


def long_log():
    """A trained two-type log of two chunks and 300 slots more, an item
    that column 0 signs for the first time in the third chunk and one it
    never signs."""
    chunk = runner.TRAJECTORY_CHUNK_SLOTS
    log = two_type_log(slots=2 * chunk + 300)
    item, signed = log.item.copy(), log.signed.copy()
    t = first_signed(log, 0, start=2 * chunk + 5)
    late = item[t, 0]
    # every earlier signed post of that item takes another code's cell
    early = np.flatnonzero(signed[:t, 0] & (item[:t, 0] == late))
    donor = np.flatnonzero(item[:, 0] != late)[0]
    item[early, 0] = item[donor, 0]
    signed[early, 0] = signed[donor, 0]
    assert np.flatnonzero(signed[:, 0] & (item[:, 0] == late))[0] == t
    never = next(k for k in range(log.uav_payoff.shape[1])
                 if k not in (late, item[donor, 0]))
    signed[item[:, 0] == never, 0] = False
    return dataclasses.replace(log, item=item, signed=signed), late, never


class TestStreamedTrajectory:
    def test_matches_first_form_across_chunks(self):
        log, _, _ = long_log()
        tables = {}
        got = "".join(trajectory_text("t.csv", log, tables))
        assert got == first_trajectory_text("t.csv", log, {})
        assert got == reference_trajectory_text(log)
        # a table filled by another log's text serves too
        assert joined("t.csv", log, tables) == got

    @pytest.mark.parametrize("cells", [
        {"uav_payoff": [("late", math.nan)]},
        {"gcs_payoff": [("late", math.inf)],
         "uav_payoff": [("late", -math.inf)]},
        {"gcs_payoff": [("late", math.nan), ("unsigned", -math.inf)]}])
    def test_non_finite_cell_in_a_later_chunk(self, cells, tmp_path):
        # the payoffs of column 0's item first signed in the third chunk,
        # and of an item it never signs
        log, late, never = long_log()
        at = {"late": late, "unsigned": never}
        hand = edited(log, **{name: [(0, at[which], value)
                                     for which, value in edits]
                              for name, edits in cells.items()})
        out = tmp_path / "out"
        with pytest.raises(NonFiniteOutput) as got:
            runner._write_chunks(out / "phc_seed7.csv", trajectory_text(
                "phc_seed7.csv", hand, {}))
        assert str(got.value) == reference_refusal("phc_seed7.csv", hand)
        assert not out.exists()


def retyped(log, **changes):
    """``log`` with the fields a shared code table is keyed on changed:
    ``columns`` keeps those columns, the others replace as given."""
    columns = changes.pop("columns", None)
    if columns is not None:
        changes.update(
            type_indices=tuple(log.type_indices[j] for j in columns),
            item=log.item[:, columns], signed=log.signed[:, columns],
            uav_payoff=log.uav_payoff[columns],
            gcs_payoff=log.gcs_payoff[columns])
    return dataclasses.replace(log, **changes)


class TestSharedCodeTable:
    def test_a_seed_group_shares_one_table(self):
        # the logs of one batch, as a seed group writes them: one table
        # serves every log, and each CSV has the first form's bytes
        scenario = make_scenario_a()
        params = with_default_r_max(phc_config().phc, scenario)
        logs = train(3 * [scenario], params, 300, None,
                     [np.random.default_rng(s) for s in (1, 2, 3)]).logs
        tables = {}
        for log in logs:
            got = "".join(trajectory_text("t.csv", log, tables))
            assert got == first_trajectory_text("t.csv", log, {})
            assert len(tables) == 1
        # and at chunks of 1 and 7 slots, the table filled already
        table, = tables.values()
        for log in logs:
            assert joined("t.csv", log, tables) == reference_trajectory_text(
                log)
        assert list(tables.values()) == [table]

    def test_a_later_log_meets_codes_the_first_never_met(self):
        # the table is built whole from a log that posts one item, so it
        # serves a log of the same payoffs that posts every other one too
        log = two_type_log(slots=200)
        single = retyped(log, item=np.full_like(log.item, log.item[0, 0]))
        assert np.unique(log.item).size > 1
        tables = {}
        assert (joined("t.csv", single, tables)
                == reference_trajectory_text(single))
        assert joined("t.csv", log, tables) == reference_trajectory_text(log)
        assert len(tables) == 1

    def test_a_log_the_table_does_not_serve_gets_its_own(self):
        log = two_type_log(slots=200)
        others = [
            retyped(log, uav_payoff=log.uav_payoff * 2.0 + 1.0),
            retyped(log, gcs_payoff=log.gcs_payoff - 0.5),
            retyped(log, columns=[1]),
            retyped(log, type_indices=(2, 1)),
            retyped(log, reward_grid=log.reward_grid * 0.5),
            retyped(log, size_grid=log.size_grid + 1.0)]
        for first in [log] + others:
            # each log adds a table the first time it is met
            hands = [first, log] + others
            tables = {}
            for k, hand in enumerate(hands):
                assert (joined("t.csv", hand, tables)
                        == reference_trajectory_text(hand))
                assert len(tables) == len({id(h) for h in hands[:k + 1]})
        # a log equal to the one the table was built from is served
        tables = {}
        joined("t.csv", log, tables)
        copy = retyped(log, uav_payoff=log.uav_payoff.copy(),
                       item=log.item[::-1].copy())
        assert joined("t.csv", copy, tables) == reference_trajectory_text(copy)
        assert len(tables) == 1

    def test_the_same_values_in_another_dtype_get_their_own_table(self):
        # grids and payoffs that int64 and float32 hold exactly, and a
        # grid of the same bytes read as int64, which holds other values
        log = two_type_log(slots=200)
        base = retyped(log, reward_grid=np.arange(log.reward_grid.size,
                                                  dtype=np.float64),
                       uav_payoff=np.round(log.uav_payoff * 4.0) / 4.0)
        same = [retyped(base, reward_grid=base.reward_grid.astype(np.int64)),
                retyped(base, uav_payoff=base.uav_payoff.astype(np.float32))]
        bits = retyped(base, reward_grid=base.reward_grid.view(np.int64))
        want = reference_trajectory_text(base)
        assert reference_trajectory_text(bits) != want
        tables = {}
        for k, hand in enumerate([base] + same + [bits]):
            assert (joined("t.csv", hand, tables)
                    == reference_trajectory_text(hand))
            assert hand is bits or reference_trajectory_text(hand) == want
            assert len(tables) == k + 1

    @pytest.mark.parametrize("first", ["clean", "refused"])
    def test_non_finite_payoff_is_refused_through_a_shared_table(
            self, first, tmp_path):
        # the dict holds the clean log's table or the refused log's, built
        # by an earlier refusal
        log, late, _ = long_log()
        hand = edited(log, uav_payoff=[(0, late, math.nan)])
        tables = {}
        if first == "clean":
            joined("t.csv", log, tables)
        else:
            with pytest.raises(NonFiniteOutput):
                trajectory_text("t.csv", hand, tables)
        assert len(tables) == 1
        out = tmp_path / "out"
        with pytest.raises(NonFiniteOutput) as got:
            runner._write_chunks(out / "phc_seed7.csv", trajectory_text(
                "phc_seed7.csv", hand, tables))
        assert str(got.value) == reference_refusal("phc_seed7.csv", hand)
        assert not out.exists()
        # the dict still gives the clean log its bytes
        assert joined("t.csv", log, tables) == reference_trajectory_text(log)
        assert len(tables) == 2

    def test_refusal_reads_each_log_not_the_table(self):
        # two logs on one table's payoffs, a non-finite one at an item that
        # column 0 of the first never signs: the second signs it once
        log, _, never = long_log()
        quiet = edited(log, uav_payoff=[(0, never, math.inf)])
        t = 100
        loud = edited(quiet, item=[(t, 0, never)], signed=[(t, 0, True)])
        tables = {}
        assert joined("t.csv", quiet, tables) == reference_trajectory_text(
            quiet)
        with pytest.raises(NonFiniteOutput) as got:
            trajectory_text("t.csv", loud, tables)
        assert len(tables) == 1
        assert str(got.value) == reference_refusal("t.csv", loud)
        assert str(got.value) == "t.csv: uav_utility is inf, not finite"


class TestWriteChunks:
    def test_rerun_into_one_directory(self, tmp_path):
        # the second run removes each old file before its rename
        run_compare(load_config(DATA / "scenario_a.yaml"), tmp_path)
        first = {p.name: p.read_bytes() for p in tmp_path.iterdir()}
        run_compare(load_config(DATA / "scenario_a.yaml"), tmp_path)
        assert {p.name: p.read_bytes() for p in tmp_path.iterdir()} == first
        cfg = phc_config(seeds=[3, 4])
        run_phc(cfg, tmp_path / "phc")
        first = {p.name: p.read_bytes() for p in (tmp_path / "phc").iterdir()}
        run_phc(cfg, tmp_path / "phc")
        assert {p.name: p.read_bytes()
                for p in (tmp_path / "phc").iterdir()} == first
        assert no_leftover_tmp(tmp_path) and no_leftover_tmp(tmp_path / "phc")

    def test_a_failing_chunk_keeps_the_old_file(self, tmp_path):
        path = tmp_path / "t.csv"
        runner.write_text_atomic(path, "old\n")

        def chunks():
            yield "new\n"
            raise RuntimeError("stop")

        with pytest.raises(RuntimeError, match="stop"):
            runner._write_chunks(path, chunks())
        assert path.read_bytes() == b"old\n"
        assert no_leftover_tmp(tmp_path)
        runner._write_chunks(path, iter(["a,\u00e9\n", "b\n"]))
        assert path.read_bytes() == "a,\u00e9\nb\n".encode("utf-8")


class TestFiniteGuard:
    def test_csv_formats_and_checks_each_column(self):
        text = csv_text("m.csv", ("k", "x", "n"), [["a", 0.5, "7"],
                                                   ["b", -0.0, "8"]])
        assert text == "k,x,n\na,0.5,7\nb,0,8\n"
        for bad in (math.nan, math.inf, -math.inf):
            with pytest.raises(NonFiniteOutput, match=r"^m\.csv: x is "):
                csv_text("m.csv", ("k", "x"), [["a", 1.0], ["b", bad]])

    def test_allowed_values_pass_only_in_their_column(self):
        header = ("slot", "other")
        assert (csv_text("s.csv", header, [[math.inf, 1.0]],
                         allowed={"slot": (math.inf,)})
                == "slot,other\ninf,1\n")
        for record in ([math.nan, 1.0], [-math.inf, 1.0], [1.0, math.inf]):
            with pytest.raises(NonFiniteOutput):
                csv_text("s.csv", header, [record],
                         allowed={"slot": (math.inf,)})

    def test_json_names_the_nested_key(self):
        assert json_text("s.json", {"b": [1.5], "a": {"x": 2}}) == (
            '{\n  "a": {\n    "x": 2\n  },\n  "b": [\n    1.5\n  ]\n}\n')
        with pytest.raises(NonFiniteOutput,
                           match=r"^summary\.json: oracle\.sizes\[1\] is inf"):
            json_text("summary.json", {"zeta": 1.0,
                                       "oracle": {"sizes": [2.0, math.inf]}})

