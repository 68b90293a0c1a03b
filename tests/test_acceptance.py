"""End-to-end acceptance checks.

Each test verifies one advertised behaviour of the package at a stated
tolerance and appends one PASS/FAIL line to the terminal summary.  A
failing line carries enough detail to explain itself: criterion 6, for
instance, lists every seed's modal learned item and window verdict.
"""

import math
import time
from pathlib import Path

import numpy as np

import conftest
from conftest import (make_scenario_a, make_scenario_b, make_single_type,
                      random_scenario)
from uavcontract import (ChannelParams, PhcParams, PolicyTables,
                         SpeedViolation, UavKinematics, a2g_pathloss,
                         brute_force_oracle, convergence_check,
                         convergence_slot, eligible_types, gcs_utility,
                         hotboot, item_for, los_probability, menu_utilities,
                         oracle_resolution_bound, parse_config,
                         perturb_scenario, phc_update, run_compare,
                         run_sweep_population, solve_complete_info,
                         solve_partial_info, step_mobility, train,
                         uav_utility, verify_feasibility)
from uavcontract import _kernels

HERE = Path(__file__).parent


def record(number: int, ok: bool, detail: str) -> None:
    line = f"criterion {number:02d}: {'PASS' if ok else 'FAIL'} - {detail}"
    conftest.ACCEPTANCE_LINES.append(line)
    assert ok, line


def test_criterion_01_reference_menus():
    """Closed-form menus on the two worked scenarios, solved in under 1 s."""
    tic = time.perf_counter()
    menu_a, _ = solve_partial_info(make_scenario_a())
    menu_b, trace_b = solve_partial_info(make_scenario_b())
    elapsed = time.perf_counter() - tic
    pairs_a = [(float(it.s), float(it.r)) for it in menu_a.items]
    pairs_b = [(float(it.s), float(it.r)) for it in menu_b.items]
    gcs_a = gcs_utility(make_scenario_a(), menu_a)
    expect_gcs = 30.0 * math.log(4.0) + 30.0 * math.log(12.0) - 60.0
    ok = (pairs_a == [(3.0, 4.0), (11.0, 8.0)]
          and abs(gcs_a - expect_gcs) <= 1e-6
          and all(abs(s - 2.75) <= 1e-9 and abs(r - 3.75) <= 1e-9
                  for s, r in pairs_b)
          and trace_b.pools == ((0, 1),)
          and elapsed < 1.0)
    record(1, ok, f"menus {pairs_a} / {pairs_b}, gcs {gcs_a:.9g}, "
                  f"{elapsed * 1e3:.1f} ms")


def test_criterion_02_feasibility_of_solved_menus():
    """1000 random scenarios: solved menus clean under the exhaustive
    IR/IC check, rents ordered, boundary conditions binding."""
    rng = np.random.default_rng(1000)
    tic = time.perf_counter()
    solved = 0
    for _ in range(1000):
        sc = random_scenario(rng, max_types=6)
        menu, _ = solve_partial_info(sc)
        report = verify_feasibility(sc, menu)
        assert report.feasible, (sc, report)
        order = eligible_types(sc)
        utils = {ty.index: u for ty, u in zip(sc.types,
                                              menu_utilities(sc, menu))}
        assert abs(utils[order[0].index]) <= 1e-9
        for prev, ty in zip(order, order[1:]):
            down = uav_utility(ty, item_for(sc, menu, prev), sc.t_max,
                               sc.deployment_cost)
            assert abs(utils[ty.index] - down) <= 1e-9
        solved += 1
    elapsed = time.perf_counter() - tic
    ok = solved == 1000 and elapsed < 10.0
    record(2, ok, f"{solved}/1000 menus feasible with binding rents, "
                  f"{elapsed:.2f} s")


def test_criterion_03_grid_oracle_agreement():
    """100 small scenarios: the closed form beats the 0.1-step exhaustive
    grid search by at most the resolution bound."""
    rng = np.random.default_rng(2000)
    tic = time.perf_counter()
    checked = 0
    worst_gap = 0.0
    while checked < 100:
        sc = random_scenario(rng, max_types=3, eligible_only=True,
                             s_max_range=(5.0, 30.0))
        if len(eligible_types(sc)) < 2:
            continue
        closed, _ = solve_partial_info(sc)
        grid = brute_force_oracle(sc, 0.1)
        u_closed = gcs_utility(sc, closed)
        u_grid = gcs_utility(sc, grid)
        bound = oracle_resolution_bound(sc, 0.1)
        assert u_closed >= u_grid - 1e-9
        assert u_grid >= u_closed - bound - 1e-9
        worst_gap = max(worst_gap, u_closed - u_grid)
        checked += 1
    elapsed = time.perf_counter() - tic
    ok = checked == 100 and elapsed < 120.0
    record(3, ok, f"{checked}/100 within resolution bound, worst gap "
                  f"{worst_gap:.3g}, {elapsed:.2f} s")


def test_criterion_04_complete_info_extracts_surplus():
    """Known-type menus leave every UAV exactly zero utility."""
    rng = np.random.default_rng(3000)
    worst = 0.0
    for sc in [make_scenario_a(), make_scenario_b()] + [
            random_scenario(rng, eligible_only=True) for _ in range(300)]:
        menu = solve_complete_info(sc)
        for u in menu_utilities(sc, menu):
            worst = max(worst, abs(u))
        assert worst <= 1e-12
    record(4, worst <= 1e-12,
           f"302 scenarios, max |utility| = {worst:.3g}")


def test_criterion_05_scheme_ordering_over_populations(tmp_path):
    """Defense effectiveness ranks complete >= partial >= linear and
    partial >= uniform at every swept population."""
    cfg = parse_config({
        "mode": "sweep-population",
        "scenario": {
            "satisfaction_factor": 6.0,
            "deployment_cost": 1.0,
            "s_max": 300.0,
            "t_max": 2.0,
            "vdd_demand": 800.0,
            "types": [{"c1": 1.0, "n": 5, "t": 1.0},
                      {"c1": 0.01, "n": 5, "t": 1.0}],
        },
    })
    records = run_sweep_population(cfg, tmp_path)
    zeta = {(pop, scheme): z for pop, scheme, z, _ in records}
    ok = True
    for pop in (2, 4, 6, 8, 10):
        ok &= zeta[(pop, "complete")] >= zeta[(pop, "partial")] - 1e-12
        ok &= zeta[(pop, "partial")] >= zeta[(pop, "linear")] - 1e-12
        ok &= zeta[(pop, "partial")] >= zeta[(pop, "uniform")] - 1e-12
    record(5, ok, "complete >= partial >= linear and partial >= uniform "
                  "at populations 2, 4, 6, 8, 10")


def test_criterion_06_learners_reach_reference_menu():
    """Ten cold training runs land within one grid step of the closed-form
    single-type contract (11, 6.5) in at least 7 seeds: the modal posted
    item of the last 500 slots is judged.  The line lists each seed's
    modal (size, reward), marked "c" where it also passed the 95% window
    test."""
    sc = make_single_type()
    params = PhcParams(reward_levels=20, size_levels=20, r_max=13.0)
    sstep = 13.75 / 20
    rstep = 13.0 / 20
    tic = time.perf_counter()
    hits = 0
    outcomes = []
    results = train(sc, params, 20_000, None,
                    [np.random.default_rng(seed) for seed in range(10)])
    for seed, result in enumerate(results):
        verdict = convergence_check(result.log, 500, 0.95)[0]
        if (abs(verdict.size - 11.0) <= sstep + 1e-9
                and abs(verdict.reward - 6.5) <= rstep + 1e-9):
            hits += 1
        outcomes.append(f"{seed}:({verdict.size:g}, {verdict.reward:g})"
                        f"{'c' if verdict.converged else ''}")
    elapsed = time.perf_counter() - tic
    ok = hits >= 7 and elapsed < 120.0
    record(6, ok, f"{hits}/10 seeds within one grid step of (11, 6.5), "
                  f"{elapsed:.1f} s; modal items {' '.join(outcomes)}")


def test_criterion_07_update_rule_fixed_points():
    """Value recursion hits payoff/(1 - discount), policies stay on the
    simplex through a million updates, trajectories replay bit-exactly."""
    # forced null offer: only (0, 0) can be posted; signing it costs the
    # UAV the deployment cost, declining costs nothing, so the UAV learns
    # to decline: declining forever is worth 0 / (1 - discount), signing
    # once is worth -C0 + discount * 0, and the GCS never gains or pays
    sc = make_single_type()
    degenerate = PhcParams(reward_levels=0, size_levels=0, r_max=13.0)
    result = train(sc, degenerate, 10_000, None, np.random.default_rng(0))
    uav_q = float(result.uav_tables[0].q[0, 0])
    decline_q = float(result.uav_tables[0].q[0, 1])
    gcs_q = float(result.gcs_tables[0].q[0, 0])
    fixed_ok = (abs(uav_q - (-1.0)) <= 1e-6 and decline_q == 0.0
                and gcs_q == 0.0
                and float(result.uav_tables[0].pi[0, 1]) == 1.0)
    # synthetic single-cell recursion with a positive payoff
    cell = PolicyTables.cold(1, 1)
    for _ in range(200):
        phc_update(cell, 0, 0, 10.0, 0, 0.7, 0.8, 0.01)
    synth_ok = abs(float(cell.q[0, 0]) - 50.0) <= 1e-6
    # policy rows survive a million arbitrary updates
    rng = np.random.default_rng(7)
    m = 1_000_000
    tables = PolicyTables.cold(10, 20)
    _kernels.update_many(tables.q, tables.pi,
                         rng.integers(0, 10, m), rng.integers(0, 20, m),
                         rng.normal(scale=40.0, size=m),
                         rng.integers(0, 10, m), 0.7, 0.8, 0.01)
    try:
        tables.check()
        simplex_ok = True
    except Exception:
        simplex_ok = False
    # bit-exact replay
    params = PhcParams(reward_levels=6, size_levels=6)
    a = train(sc, params, 2000, None, np.random.default_rng(11))
    b = train(sc, params, 2000, None, np.random.default_rng(11))
    replay_ok = a.log.equals(b.log)
    ok = fixed_ok and synth_ok and simplex_ok and replay_ok
    record(7, ok, f"uav q sign {uav_q:.9g} decline {decline_q}, gcs q "
                  f"{gcs_q}, synthetic q "
                  f"{float(cell.q[0, 0]):.9g}, simplex {simplex_ok}, "
                  f"replay {replay_ok}")


def test_criterion_08_hotboot_speeds_convergence():
    """Tables pre-trained on perturbed neighbours must converge at least
    as fast as cold tables in at least 12 of 20 seeds."""
    sc = make_single_type()
    params = PhcParams(reward_levels=6, size_levels=6)
    tic = time.perf_counter()
    wins = 0
    seeds = range(20)
    rngs = [np.random.default_rng(seed) for seed in seeds]
    families = [[sc] + [perturb_scenario(sc, rng) for _ in range(7)]
                for rng in rngs]
    inits = hotboot(families, 10, params, rngs, 2000)
    # hot and cold runs of every seed share one batch; each seed's cold
    # run has a fresh generator of its own
    results = train(sc, params, 20_000, inits + [None] * len(seeds),
                    rngs + [np.random.default_rng(seed) for seed in seeds])
    for hot, cold in zip(results[:len(seeds)], results[len(seeds):]):
        hot_slot = convergence_slot(hot.log, 500, 0.95)
        cold_slot = convergence_slot(cold.log, 500, 0.95)
        if math.isfinite(hot_slot) and hot_slot <= cold_slot:
            wins += 1
    elapsed = time.perf_counter() - tic
    ok = wins >= 12
    record(8, ok, f"hotboot at least as fast in {wins}/20 seeds, "
                  f"{elapsed:.1f} s")


def test_criterion_09_channel_and_mobility():
    """Worked channel values, monotone pathloss, strict speed limit."""
    p = ChannelParams()
    los_ok = (abs(los_probability(0.0, p) - 0.0219) <= 1e-4
              and abs(los_probability(90.0, p) - 0.99997) <= 1e-4)
    grid = np.linspace(1.0, 500.0, 100)
    losses = [a2g_pathloss((d, 0.0, 30.0), (0.0, 0.0, 2.0), p)
              for d in grid]
    mono_ok = all(a < b for a, b in zip(losses, losses[1:]))
    k = UavKinematics(position=(0.0, 0.0, 10.0), v_max=10.0)
    try:
        step_mobility(k, (1.0, 0.0, 0.0), 15.0, 1.0)
        strict_ok = False
    except SpeedViolation:
        at_limit = step_mobility(k, (1.0, 0.0, 0.0), 10.0, 1.0)
        strict_ok = at_limit.position == (10.0, 0.0, 10.0)
    ok = los_ok and mono_ok and strict_ok
    record(9, ok, f"los {los_probability(0.0, p):.4f}/"
                  f"{los_probability(90.0, p):.5f}, pathloss monotone "
                  f"{mono_ok}, speed limit strict {strict_ok}")


def test_criterion_10_reproducible_comparison_table(tmp_path):
    """The four-scheme comparison reproduces the frozen CSV byte for
    byte."""
    from uavcontract import load_config
    cfg = load_config(HERE / "data" / "scenario_a.yaml")
    run_compare(cfg, tmp_path)
    got = (tmp_path / "compare.csv").read_bytes()
    want = (HERE / "golden" / "compare_scenario_a.csv").read_bytes()
    ok = got == want
    record(10, ok, f"compare.csv {'matches' if ok else 'differs from'} "
                   f"frozen bytes ({len(want)} bytes)")
