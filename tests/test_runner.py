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

    slots, width = log.reward_index.shape
    column = np.broadcast_to(np.arange(width), (slots, width))
    code = (log.uav_state * 2 + log.gcs_state) * width + column
    _, first, inverse = np.unique(code.ravel(), return_index=True,
                                  return_inverse=True)
    fields = [field.ravel() for field in (
        log.gcs_state, log.uav_state, log.reward_index, log.size_index,
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


def joined(file, log, strings):
    """`trajectory_text`'s chunks joined into the whole CSV, the same text
    at the default chunk length and at chunks of 1 and 7 slots, which cut
    the short logs of these tests."""
    default = runner.TRAJECTORY_CHUNK_SLOTS
    texts = set()
    try:
        for chunk_slots in (default, 1, 7):
            runner.TRAJECTORY_CHUNK_SLOTS = chunk_slots
            texts.add("".join(trajectory_text(file, log, strings)))
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
        import dataclasses
        cfg = dataclasses.replace(cfg, mode="solve")
        plain = run_solve(cfg, tmp_path / "plain")
        assert "oracle" not in plain
        checked = run_solve(cfg, tmp_path / "checked", oracle=True)
        assert checked["oracle"]["grid_step"] == 0.25
        assert checked["oracle"]["oracle_sizes"] == [3.0, 11.0]


class TestSweeps:
    def test_cost_sweep_endpoints(self, tmp_path):
        cfg = load_config(DATA / "scenario_a.yaml")
        import dataclasses
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
        import dataclasses
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
        import dataclasses
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
        import dataclasses
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
        import dataclasses
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
            init = hotboot(family, run.hotboot_episodes, params, rng,
                           run.slots_per_episode)
            result = train(cfg.scenario, params, run.slots, init, rng)
            want = reference_trajectory_text(result.log)
            assert ((tmp_path / f"phc_seed{seed}.csv").read_bytes()
                    == want.encode("utf-8"))

    def test_strict_raises_after_writing(self, tmp_path):
        cfg = load_config(DATA / "phc_single_type.yaml")
        import dataclasses
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
            seen.append(groups)
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
        monkeypatch.setattr(runner, "_run_groups",
                            lambda task, groups: seen.append(groups) or [])
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

        def refuse(name, log, strings):
            if name == f"phc_seed{failing}.csv":
                raise NonFiniteOutput(name, "gcs_term", math.inf)
            return real(name, log, strings)

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
    return train(scenario, params, slots, None,
                 np.random.default_rng(5)).log


def edited(log, **cells):
    """A copy of ``log`` with single cells replaced: name=[(t, j, value)]."""
    fields = {name: getattr(log, name).copy()
              for name in ("reward_index", "size_index", "gcs_state",
                           "uav_state", "uav_utility", "gcs_term")}
    for name, edits in cells.items():
        for t, j, value in edits:
            fields[name][t, j] = value
    return EpisodeLog(type_indices=log.type_indices,
                      reward_grid=log.reward_grid, size_grid=log.size_grid,
                      **fields)


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
        strings = {}
        for result in train(scenario, params, 300, None,
                            [np.random.default_rng(s) for s in (1, 2)]):
            assert (joined("t.csv", result.log, strings)
                    == reference_trajectory_text(result.log))

    def test_mismatching_cells_are_formatted_alone(self):
        # cells whose indices or payoffs differ from the first cell of
        # their (column, item, answer) code, as a hand-built log may hold
        log = two_type_log()
        signed = np.argwhere(log.gcs_state == 1)
        t0, j0 = signed[3]
        t1, j1 = signed[7]
        t2, j2 = signed[-1]
        hand = edited(
            log,
            uav_utility=[(t0, j0, 123.456), (t1, j1, -0.0)],
            gcs_term=[(t2, j2, log.gcs_term[t2, j2] * (1 + 2 ** -52))],
            reward_index=[(t1, j1, (log.reward_index[t1, j1] + 1)
                           % log.reward_grid.size)],
            size_index=[(5, 1, 0)],
            gcs_state=[(9, 0, 2)],
            uav_state=[(11, 1, -3), (12, 0, 10 ** 15)])
        want = reference_trajectory_text(hand)
        assert want != reference_trajectory_text(log)
        assert joined("t.csv", hand, {}) == want
        # a table filled by the unedited log, +0.0 included, serves too
        strings = {}
        joined("t.csv", log, strings)
        assert 0.0 in strings
        assert joined("t.csv", hand, strings) == want

    def test_all_cells_distinct_or_all_equal(self):
        log = two_type_log(slots=50)
        same = edited(log, **{name: [(t, j, getattr(log, name)[0, 0])
                                     for t in range(50) for j in range(2)]
                              for name in ("reward_index", "size_index",
                                           "gcs_state", "uav_state",
                                           "uav_utility", "gcs_term")})
        assert (joined("t.csv", same, {})
                == reference_trajectory_text(same))
        ramp = edited(log, uav_utility=[(t, j, t + 0.5 * j)
                                        for t in range(50) for j in range(2)])
        assert (joined("t.csv", ramp, {})
                == reference_trajectory_text(ramp))

    @pytest.mark.parametrize("name, value", [
        ("uav_utility", math.nan), ("gcs_term", math.inf),
        ("gcs_term", -math.inf)])
    def test_non_finite_cell_is_refused(self, name, value):
        log = two_type_log(slots=60)
        hand = edited(log, **{name: [(40, 1, value)]})
        with pytest.raises(NonFiniteOutput,
                           match=rf"^phc_seed7\.csv: {name} is "):
            trajectory_text("phc_seed7.csv", hand, {})


def long_log():
    """A trained two-type log of two chunks and 300 slots more, in which
    one code of column 0 first appears in the third chunk and one cell of
    the third chunk differs from its code's first cell in chunk 0."""
    chunk = runner.TRAJECTORY_CHUNK_SLOTS
    log = two_type_log(slots=2 * chunk + 300)
    names = ("reward_index", "size_index", "gcs_state", "uav_state",
             "uav_utility", "gcs_term")
    fields = {name: getattr(log, name).copy() for name in names}
    code = fields["uav_state"] * 2 + fields["gcs_state"]
    late = code[2 * chunk + 5, 0]
    donor = np.flatnonzero(code[:, 0] != late)[0]
    # every earlier cell of that code takes a cell of another code
    early = np.flatnonzero(code[:2 * chunk + 5, 0] == late)
    for field in fields.values():
        field[early, 0] = field[donor, 0]
    code = fields["uav_state"] * 2 + fields["gcs_state"]
    assert np.flatnonzero(code[:, 0] == late)[0] == 2 * chunk + 5
    t = 2 * chunk + 50
    assert (code[:chunk, 1] == code[t, 1]).any()
    fields["uav_utility"][t, 1] += 0.125
    return EpisodeLog(type_indices=log.type_indices,
                      reward_grid=log.reward_grid, size_grid=log.size_grid,
                      **fields)


class TestStreamedTrajectory:
    def test_matches_first_form_across_chunks(self):
        log = long_log()
        strings = {}
        got = "".join(trajectory_text("t.csv", log, strings))
        assert got == first_trajectory_text("t.csv", log, {})
        assert got == reference_trajectory_text(log)
        # a table filled by another log's text serves too
        assert joined("t.csv", log, strings) == got

    @pytest.mark.parametrize("cells", [
        {"uav_utility": [(10, 1, math.nan)]},
        {"gcs_term": [(10, 0, math.inf), (13, 1, -math.inf)]},
        {"gcs_term": [(250, 1, math.nan)],
         "uav_utility": [(20, 0, -math.inf), (30, 1, math.nan)]}])
    def test_non_finite_cell_in_a_later_chunk(self, cells, tmp_path):
        chunk = runner.TRAJECTORY_CHUNK_SLOTS
        hand = edited(long_log(), **{
            name: [(2 * chunk + t, j, value) for t, j, value in edits]
            for name, edits in cells.items()})
        with pytest.raises(NonFiniteOutput) as want:
            first_trajectory_text("phc_seed7.csv", hand, {})
        out = tmp_path / "out"
        with pytest.raises(NonFiniteOutput) as got:
            runner._write_chunks(out / "phc_seed7.csv", trajectory_text(
                "phc_seed7.csv", hand, {}))
        assert str(got.value) == str(want.value)
        assert not out.exists()


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

