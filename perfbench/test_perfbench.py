"""Tests of the benchmark itself: generators, checkers and tracing.

Run from the root of the checkout:

    python3 -m pytest -q perfbench
"""

import gc
import json
import types
from pathlib import Path

import pytest

import run
import workloads
from tracing import SITES, Tracer

ROOT = Path(__file__).resolve().parent.parent


@pytest.fixture(scope="module")
def prog():
    return run.import_program(ROOT)


def _config(prog, name):
    return prog.config.load_config(run.BENCH / "configs" / f"{name}.yaml")


def test_generators_are_deterministic_in_the_seed():
    assert workloads.design_inputs(5, 40) == workloads.design_inputs(5, 40)
    assert workloads.design_inputs(5, 40) != workloads.design_inputs(6, 40)
    assert (workloads.validate_inputs(5, 2.0, 4)
            == workloads.validate_inputs(5, 2.0, 4))
    assert (workloads.validate_inputs(5, 2.0, 4)
            != workloads.validate_inputs(6, 2.0, 4))
    assert workloads.learn_seeds(5, 8) == workloads.learn_seeds(5, 8)
    assert workloads.learn_seeds(5, 8) != workloads.learn_seeds(6, 8)


def test_design_mix_has_ineligible_and_pooled_scenarios(prog):
    state = {"config": _config(prog, "design"),
             "inputs": workloads.design_inputs(0, 17)}
    result = workloads.run_design(prog, state)
    assert result.failures == []
    assert result.work["scenarios_with_ineligible_types"] > 0
    assert result.work["pooled_scenarios"] > 0
    assert max(result.work["scenarios_by_eligible_types"]) > 6


def test_validate_mix_has_one_to_three_eligible_types(prog):
    config = _config(prog, "validate")
    state = {"config": config,
             "inputs": workloads.validate_inputs(0, config.scenario.t_max, 2)}
    result = workloads.run_validate(prog, state)
    assert result.failures == []
    assert result.work["scenarios_by_eligible_types"] == {1: 2, 2: 2, 3: 2}


def _two_type_scenario(game):
    return game.Scenario(
        types=(game.UavType(index=1, c1=1.0, c2=0.0, t=1.0, n=5),
               game.UavType(index=2, c1=0.5, c2=0.0, t=1.0, n=5)),
        satisfaction_factor=6.0, deployment_cost=1.0, s_max=300.0,
        t_max=2.0, vdd_demand=800.0, total_uavs=10)


def _score(prog, scenario, menus):
    game = prog.game
    return ([game.verify_feasibility(scenario, m) for m in menus],
            [game.gcs_utility(scenario, m) for m in menus],
            [game.defensive_effectiveness(scenario, m) for m in menus])


def _solved_menus(prog, scenario):
    solver = prog.solver
    return [solver.solve_partial_info(scenario)[0],
            solver.solve_complete_info(scenario),
            solver.linear_contract(scenario, 1.0),
            solver.uniform_contract(scenario)]


def test_design_checker_passes_solved_menus(prog):
    scenario = _two_type_scenario(prog.game)
    menus = _solved_menus(prog, scenario)
    reports, utilities, zetas = _score(prog, scenario, menus)
    # the complete-information menu is not IC, and is not required to be
    assert not reports[1].feasible
    assert workloads.check_design(reports, utilities, zetas) == []


def test_design_checker_flags_a_menu_that_breaks_ic(prog):
    game = prog.game
    scenario = _two_type_scenario(game)
    # IR holds for both and sizes and rewards rise, but the cheap type
    # earns 5 from the costly type's item against 1 from its own
    broken = game.ContractMenu(t_max=2.0, items=(
        game.ContractItem(s=10.0, r=11.0), game.ContractItem(s=20.0, r=12.0)))
    menus = _solved_menus(prog, scenario)
    menus[0] = broken
    reports, utilities, zetas = _score(prog, scenario, menus)
    assert reports[0].ic_violations and not reports[0].ir_violations
    problems = workloads.check_design(reports, utilities, zetas)
    assert any(p.startswith("partial menu infeasible") for p in problems)


def test_validate_checker_bounds_the_gap(prog):
    report = prog.game.FeasibilityReport()
    assert workloads.check_validate(report, 0.0, 1.0) == []
    assert workloads.check_validate(report, 1.5, 1.0)
    assert workloads.check_validate(report, -1e-6, 1.0)
    assert workloads.check_validate(report, float("nan"), 1.0)


def test_learn_checker_allows_inf_only_for_unconverged_pairs():
    header = (b"seed,type,converged,modal_size,modal_reward,"
              b"convergence_slot,reference_size,reference_reward\n")
    files = {"phc_seed7.csv": b"slot,type,reward\n1,1,0.5\n",
             "manifest.json": b"{}",
             "phc_summary.csv": header + b"7,1,0,11,6.5,inf,11,6.5\n"}
    assert workloads.check_learn(files, (7,)) == []
    files["phc_summary.csv"] = header + b"7,1,1,11,6.5,inf,11,6.5\n"
    assert workloads.check_learn(files, (7,))
    files["phc_summary.csv"] = header + b"7,1,0,11,6.5,inf,11,6.5\n"
    files["phc_seed7.csv"] += b"2,1,nan\n"
    assert workloads.check_learn(files, (7,))
    del files["manifest.json"]
    assert workloads.check_learn(files, (7,))


def _unwrapped(prog):
    return [f"{key}.{name}" for key, name, _, _ in SITES
            if hasattr(getattr(getattr(prog, key), name), "__wrapped__")]


def test_every_wrapper_is_removed_after_a_traced_run():
    seen = []

    def recording(prog, state, trace):
        seen.append((prog, _unwrapped(prog)))
        return workloads.run_design(prog, state, trace)

    small = workloads.Workload(
        "design", lambda config, seed, work: {
            "config": config, "inputs": workloads.design_inputs(0, 2)},
        recording)
    tracer = Tracer()
    _, _, _, plain, traced = run.measure(small, 0, 0.0, tracer)
    assert len(traced) == 1 and tracer.spans
    # wrappers were in place during the traced pass only ...
    assert [len(wrapped) for _, wrapped in seen] == [0, 0, len(SITES), 0]
    # ... and are gone from every program they were installed on
    for prog, _ in seen:
        assert _unwrapped(prog) == []
    totals = tracer.layer_totals(0)
    assert totals["environment.derived_delay"]["calls"] == \
        traced[0].work["type_slots"]
    assert totals["solver.solve_partial_info"]["calls"] == 2 * 24


def test_wrappers_are_removed_when_a_pass_raises():
    seen = []

    def fails_when_traced(prog, state, trace):
        seen.append(prog)
        if trace is not None:
            raise RuntimeError("traced pass failed")
        return workloads.PassResult(
            op_seconds=[0.0], failures=[], digest="",
            work={"scenarios": 1, "type_slots": 1}, outcome={})

    broken = workloads.Workload("design", lambda config, seed, work: {},
                                fails_when_traced)
    with pytest.raises(RuntimeError, match="traced pass failed"):
        run.measure(broken, 0, 0.0, Tracer())
    assert len(seen) == 3
    for prog in seen:
        assert _unwrapped(prog) == []


def test_repeated_set_ups_release_earlier_imports():
    def kernels_alive():
        gc.collect()
        return {id(m) for m in gc.get_objects()
                if isinstance(m, types.ModuleType)
                and m.__name__ == "uavcontract._kernels"}

    before = kernels_alive()
    for _ in range(3):
        run.set_up(workloads.WORKLOADS["design"], 0)
    assert len(kernels_alive() - before) == 1


def test_a_checkout_without_sources_is_refused(tmp_path):
    with pytest.raises(run.ProgramMissing):
        run.import_program(tmp_path)


def test_tail_latency_needs_ten_samples_beyond_it():
    samples = [float(i) for i in range(1, 101)]
    value, label = run.tail_latency(samples)
    assert value == 90.0 and label == "p90 of 100"
    assert run.tail_latency([1.0, 3.0, 2.0]) == (3.0, "max of 3")


def _passes(*op_seconds):
    return [workloads.PassResult(op_seconds=list(ops), failures=[],
                                 digest="", work={}, outcome={})
            for ops in op_seconds]


def test_run_tail_is_the_mean_of_pass_tails():
    base = [float(i) for i in range(1, 101)]
    # each pass has its own p90; a stall in one pass alone is not a tail
    passes = _passes(base, base, [2 * t for t in base[:-1]] + [1e6])
    assert run.run_tail_latency(passes) == (
        120.0, "p90 of 100, mean over 3 passes")
    # one operation per pass: the tail of the whole run
    assert run.run_tail_latency(_passes([2.0], [5.0], [3.0])) == (
        5.0, "max of 3")


def test_benchmark_json_names_what_the_runner_prints():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert ([(m["name"], m["unit"]) for m in spec["end_to_end"]]
            == list(run.END_TO_END))
    assert ([(m["name"], m["unit"]) for m in spec["per_layer"]]
            == list(run.PER_LAYER))


def test_learn_long_config_is_the_reference_config(prog):
    ours = _config(prog, "learn_long")
    reference = prog.config.load_config(
        ROOT / "tests" / "data" / "phc_single_type.yaml")
    assert ours == reference
