import dataclasses
import itertools
import math
import sys
import types
from pathlib import Path

import numpy as np
import pytest

from uavcontract import (ContractItem, ContractMenu, Scenario, UavType,
                         brute_force_oracle, eligible_types, gcs_utility,
                         linear_contract, load_config, menu_utilities,
                         optimal_rewards, oracle_resolution_bound,
                         solve_complete_info, solve_partial_info,
                         uav_utility, uniform_contract, verify_feasibility)
from uavcontract import ValidationError, _kernels, solver
from uavcontract.solver import _size_grid

from conftest import (make_scenario_a, make_scenario_b, make_single_type,
                      random_scenario)
from reference_game import item_for

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def benchmark_workloads():
    """``perfbench/workloads.py``, read and run as a throwaway module so
    that nothing is written under ``perfbench/``."""
    path = PERFBENCH / "workloads.py"
    module = types.ModuleType("perfbench_workloads")
    # dataclasses look their module up while the class body is processed
    sys.modules[module.__name__] = module
    try:
        exec(compile(path.read_text(encoding="utf-8"), str(path), "exec"),
             module.__dict__)
    finally:
        del sys.modules[module.__name__]
    return module


def with_zero_count(rng, sc):
    """``sc`` with the count of its cheapest eligible type, and at random
    of other types, set to zero; at least one type keeps its count."""
    last = eligible_types(sc)[-1].index
    zero = {ty.index for ty in sc.types
            if ty.index == last or rng.uniform() < 0.3}
    if len(zero) == len(sc.types):
        zero.discard(sc.types[0].index)
    kept = tuple(dataclasses.replace(ty, n=0) if ty.index in zero else ty
                 for ty in sc.types)
    return dataclasses.replace(sc, types=kept,
                               total_uavs=sum(ty.n for ty in kept))


def scan_sizes(sc, step):
    """The scalar scans' pick for one to three eligible types, as sizes."""
    order = eligible_types(sc)
    grid = _size_grid(sc.s_max, step)
    w, _ = sc.coefficients
    scan = (_kernels.oracle_scan_1, _kernels.oracle_scan_2,
            _kernels.oracle_scan_3)[len(order) - 1]
    picks = scan(grid, *w, *(ty.c for ty in order),
                 *(float(ty.n) for ty in order), sc.deployment_cost)
    return [float(grid[k]) for k in picks]


def oracle_sizes(sc, step):
    """The oracle's sizes along the eligible order."""
    menu = brute_force_oracle(sc, step)
    return [menu.items[sc.types.index(ty)].s for ty in eligible_types(sc)]


def reference_oracle_sizes(sc, step):
    """The grid oracle's dynamic program in its first form, as sizes along
    the eligible order: each position keeps a row of first best indices,
    first[m] the first index from m on that attains the suffix maximum,
    and the forward pass reads one entry of each row."""
    order = eligible_types(sc)
    grid = _size_grid(sc.s_max, step)
    w = [sc.satisfaction_factor * ty.n / ty.t for ty in order]
    logs = np.log1p(grid)
    c0 = sc.deployment_cost
    points = grid.shape[0]
    index = np.arange(points)
    best = np.zeros(points)
    later_n = 0.0
    firsts = []
    with np.errstate(invalid="ignore"):
        for pos in reversed(range(len(order))):
            ty = order[pos]
            n = float(ty.n)
            next_c = order[pos + 1].c if pos + 1 < len(order) else 0.0
            value = (w[pos] * logs - n * (ty.c * grid + c0)
                     - later_n * ((ty.c - next_c) * grid) + best)
            best = np.maximum.accumulate(value[::-1])[::-1]
            if math.isnan(best[0]):
                raise ValueError(
                    f"grid oracle: eligible position {pos + 1} (type "
                    f"{ty.index}) has an objective term that overflows to "
                    f"nan")
            firsts.append(np.minimum.accumulate(
                np.where(value == best, index, points)[::-1])[::-1])
            later_n += n
    picks = [0]
    for first in reversed(firsts):
        picks.append(int(first[picks[-1]]))
    return [float(grid[m]) for m in picks[1:]]


def tied_scenario(rng, j, s_max_range=(2.0, 40.0)):
    """j eligible types, and at random one more that misses the deadline;
    costs on a dyadic grid, so some tie exactly and their sums too, and
    some counts zero, so some objectives are flat."""
    types = []
    for k in range(j + int(rng.uniform() < 0.3)):
        types.append(UavType(
            index=k + 1, c1=float(rng.integers(1, 9)) / 8.0,
            c2=float(rng.integers(0, 3)) / 4.0,
            t=float(rng.uniform(0.3, 2.0)) if k < j else 3.0,
            n=0 if k and rng.uniform() < 0.3 else int(rng.integers(1, 11))))
    return Scenario(types=tuple(types),
                    satisfaction_factor=float(rng.uniform(1.0, 10.0)),
                    deployment_cost=float(rng.uniform(0.0, 2.0)),
                    s_max=float(rng.uniform(*s_max_range)), t_max=2.0,
                    vdd_demand=800.0, total_uavs=sum(ty.n for ty in types))


def binding_menu(sc, sizes):
    """Sizes along the eligible order, priced with the binding rewards;
    ineligible types hold the null item."""
    items = dict(zip(eligible_types(sc),
                     map(ContractItem, sizes, optimal_rewards(sc, sizes))))
    null = ContractItem(s=0.0, r=0.0)
    return ContractMenu(t_max=sc.t_max, items=tuple(
        items.get(ty, null) for ty in sc.types))


def single(c, t=1.0, n=5, s_max=300.0):
    return Scenario(types=(UavType(index=1, c1=c, c2=0.0, t=t, n=n),),
                    satisfaction_factor=6.0, deployment_cost=1.0,
                    s_max=s_max, t_max=max(2.0, t), vdd_demand=800.0,
                    total_uavs=n)


def relaxed_sizes(sc):
    return solver._relaxed_sizes(sc, *sc.coefficients)


def objective_term(sc, j, s):
    """Relaxed objective term of eligible position j (1-based) at size s."""
    w, a = sc.coefficients
    return w[j - 1] * math.log1p(s) - a[j - 1] * s


def iron(sc, sizes):
    return solver._iron_trace(sc, *sc.coefficients, sizes)[0]


class TestRelaxedProblem:
    def test_unconstrained_sizes(self):
        assert relaxed_sizes(make_scenario_a()) == [3.0, 11.0]

    def test_single_type_interior(self):
        assert relaxed_sizes(single(0.01, t=2.0)) == [299.0]

    def test_single_type_corner(self):
        assert relaxed_sizes(single(10.0)) == [0.0]

    def test_upper_clamp(self):
        assert relaxed_sizes(single(0.01, t=2.0, s_max=50.0)) == [50.0]

    def test_objective_values(self):
        sc = make_scenario_a()
        assert objective_term(sc, 2, 11.0) == pytest.approx(
            30.0 * math.log(12.0) - 27.5, abs=1e-9)
        assert objective_term(sc, 1, 0.0) == 0.0

    def test_objective_concave(self):
        rng = np.random.default_rng(5)
        for _ in range(10):
            sc = random_scenario(rng, eligible_only=True)
            for j in range(1, len(eligible_types(sc)) + 1):
                vals = [objective_term(sc, j, s)
                        for s in np.linspace(0.0, sc.s_max, 40)]
                second = np.diff(vals, n=2)
                assert np.all(second <= 1e-9)

    def test_unconstrained_is_stationary(self):
        sc = make_scenario_a()
        for j, s in enumerate(relaxed_sizes(sc), start=1):
            here = objective_term(sc, j, s)
            assert here >= objective_term(sc, j, s - 1e-4)
            assert here >= objective_term(sc, j, s + 1e-4)


class TestIroning:
    def test_monotone_input_unchanged(self):
        sc = make_scenario_a()
        assert iron(sc, [3.0, 11.0]) == [3.0, 11.0]

    def test_decreasing_pair_pools(self):
        sc = make_scenario_b()
        assert iron(sc, [3.0, 2.0]) == [2.75, 2.75]

    def test_idempotent(self):
        rng = np.random.default_rng(9)
        for _ in range(30):
            sc = random_scenario(rng, eligible_only=True)
            sizes = list(rng.uniform(0.0, sc.s_max,
                                     size=len(eligible_types(sc))))
            once = iron(sc, sizes)
            assert all(a <= b + 1e-12 for a, b in zip(once, once[1:]))
            assert iron(sc, once) == pytest.approx(once, abs=1e-12)

    def test_pooled_sums_add_left_to_right(self):
        # 1 + 2**-53 + 2**-53 is 1 added left to right but 1 + 2**-52
        # compensated, as `sum` adds floats from Python 3.12: the pool
        # of all three has the size of the left-to-right sums
        w = [1.0, 2.0 ** -53, 2.0 ** -53]
        a = [0.5, 0.0, 0.0]
        assert math.fsum(w) == 1.0 + 2.0 ** -52 != (w[0] + w[1]) + w[2]
        sc = make_scenario_a()
        assert solver._iron_trace(sc, w, a, [3.0, 2.0, 0.5]) == (
            [1.0, 1.0, 1.0], ((0, 2),))

    def test_pool_bookkeeping(self):
        _, trace = solve_partial_info(make_scenario_b())
        assert trace.pools == ((0, 1),)
        assert trace.unconstrained_sizes == (3.0, 2.0)

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            iron(make_scenario_a(), [1.0])

    def test_beats_other_monotone_grids(self):
        # the ironed solution must dominate every non-decreasing candidate,
        # up to the grid resolution slack
        rng = np.random.default_rng(17)
        for _ in range(5):
            sc = random_scenario(rng, max_types=2, eligible_only=True,
                                 s_max_range=(5.0, 12.0))
            menu, _ = solve_partial_info(sc)
            best = gcs_utility(sc, menu)
            grid = np.linspace(0.0, sc.s_max, 41)
            order = eligible_types(sc)
            from uavcontract import ContractItem, ContractMenu
            for s1 in grid:
                for s2 in grid[grid >= s1]:
                    sizes = [float(s1), float(s2)][:len(order)]
                    rewards = optimal_rewards(sc, sizes)
                    items = {ty.index: (s, r) for ty, s, r
                             in zip(order, sizes, rewards)}
                    cand = ContractMenu(t_max=sc.t_max, items=tuple(
                        ContractItem(*items.get(ty.index, (0.0, 0.0)))
                        for ty in sc.types))
                    assert gcs_utility(sc, cand) <= best + 1e-9


class TestOptimalRewards:
    def test_worked_values(self):
        sc = make_scenario_a()
        assert optimal_rewards(sc, [3.0, 11.0]) == [4.0, 8.0]

    def test_zero_sizes_pay_deployment_only(self):
        sc = make_scenario_a()
        assert optimal_rewards(sc, [0.0, 0.0]) == [1.0, 1.0]

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            optimal_rewards(make_scenario_a(), [1.0, 2.0, 3.0])


class TestPartialInfo:
    def test_scenario_a_menu(self):
        menu, trace = solve_partial_info(make_scenario_a())
        assert [(it.s, it.r) for it in menu.items] == [(3.0, 4.0),
                                                       (11.0, 8.0)]
        assert trace.eligible_order == (1, 2)
        assert trace.pools == ()

    def test_scenario_b_menu(self):
        # pooled sizes share one value; rewards collapse too
        menu, _ = solve_partial_info(make_scenario_b())
        assert menu.items[0].s == menu.items[1].s == 2.75
        assert menu.items[0].r == menu.items[1].r == 3.75

    def test_ineligible_gets_null_item(self):
        sc = make_scenario_a()
        sc = Scenario(types=(sc.types[0],
                             UavType(index=2, c1=0.5, c2=0.0, t=3.0, n=5)),
                      satisfaction_factor=6.0, deployment_cost=1.0,
                      s_max=300.0, t_max=2.0, vdd_demand=800.0,
                      total_uavs=10)
        menu, trace = solve_partial_info(sc)
        assert (menu.items[1].s, menu.items[1].r) == (0.0, 0.0)
        assert trace.eligible_order == (1,)

    def test_always_feasible_with_binding_structure(self):
        rng = np.random.default_rng(31)
        for _ in range(60):
            sc = random_scenario(rng)
            try:
                menu, _ = solve_partial_info(sc)
            except ValueError:
                assert not eligible_types(sc)
                continue
            report = verify_feasibility(sc, menu)
            assert report.feasible, report
            order = eligible_types(sc)
            utils = dict(zip((ty.index for ty in sc.types),
                             menu_utilities(sc, menu)))
            assert utils[order[0].index] == pytest.approx(0.0, abs=1e-9)
            # adjacent downward IC binds: type j is indifferent to item j-1
            for prev, ty in zip(order, order[1:]):
                own = utils[ty.index]
                down = uav_utility(ty, item_for(sc, menu, prev), sc.t_max,
                                   sc.deployment_cost)
                assert own == pytest.approx(down, abs=1e-9)

    def test_utilities_grow_as_cost_falls(self):
        rng = np.random.default_rng(41)
        for _ in range(30):
            sc = random_scenario(rng, eligible_only=True)
            menu, _ = solve_partial_info(sc)
            utils = dict(zip((ty.index for ty in sc.types),
                             menu_utilities(sc, menu)))
            ordered = [utils[ty.index] for ty in eligible_types(sc)]
            assert all(a <= b + 1e-9 for a, b in zip(ordered, ordered[1:]))

    def test_no_eligible_type_raises(self):
        sc = Scenario(types=(UavType(index=1, c1=1.0, c2=0.0, t=9.0, n=1),),
                      satisfaction_factor=6.0, deployment_cost=1.0,
                      s_max=10.0, t_max=2.0, vdd_demand=800.0, total_uavs=1)
        with pytest.raises(ValueError):
            solve_partial_info(sc)

    def test_counts_beyond_int64(self):
        # scaling every count by 2**63 scales w and a alike, so the menu
        # stays the same as long as the count sums are exact; a 64-bit sum
        # of the counts would wrap to 0
        def scenario(n):
            types = (UavType(index=1, c1=0.5, c2=0.0, t=1.0, n=n),
                     UavType(index=2, c1=0.25, c2=0.0, t=1.0, n=n))
            return Scenario(types=types, satisfaction_factor=6.0,
                            deployment_cost=1.0, s_max=10.0, t_max=2.0,
                            vdd_demand=800.0, total_uavs=2 * n)
        small, _ = solve_partial_info(scenario(1))
        assert [item.s for item in small.items] == [7.0, 10.0]
        assert solve_partial_info(scenario(2 ** 63))[0] == small


class TestCompleteInfo:
    def test_scenario_a_menu(self):
        menu = solve_complete_info(make_scenario_a())
        assert [(it.s, it.r) for it in menu.items] == [(5.0, 6.0),
                                                       (11.0, 6.5)]

    def test_extracts_all_surplus(self):
        rng = np.random.default_rng(13)
        for _ in range(40):
            sc = random_scenario(rng, eligible_only=True)
            menu = solve_complete_info(sc)
            for u in menu_utilities(sc, menu):
                assert u == pytest.approx(0.0, abs=1e-12)

    def test_costly_type_clamped_to_null_trade(self):
        menu = solve_complete_info(single(10.0))
        assert (menu.items[0].s, menu.items[0].r) == (0.0, 1.0)

    def test_dominates_partial_info(self):
        rng = np.random.default_rng(19)
        for _ in range(40):
            sc = random_scenario(rng, eligible_only=True)
            partial, _ = solve_partial_info(sc)
            complete = solve_complete_info(sc)
            assert gcs_utility(sc, complete) >= gcs_utility(sc, partial) - 1e-9


class TestLinearContract:
    def test_scenario_a_at_top_cost(self):
        sc = make_scenario_a()
        menu = linear_contract(sc, 1.0)
        assert [(it.s, it.r) for it in menu.items] == [(0.0, 1.0),
                                                       (300.0, 301.0)]
        assert menu_utilities(sc, menu) == [0.0, 150.0]

    def test_price_below_every_cost(self):
        sc = make_scenario_a()
        menu = linear_contract(sc, 0.25)
        assert [(it.s, it.r) for it in menu.items] == [(0.0, 1.0),
                                                       (0.0, 1.0)]
        assert menu_utilities(sc, menu) == [0.0, 0.0]

    def test_utility_identity(self):
        # sellers clear at (price - cost) per byte once deployment is repaid
        rng = np.random.default_rng(23)
        for _ in range(20):
            sc = random_scenario(rng, eligible_only=True)
            price = float(rng.uniform(0.01, 1.5))
            menu = linear_contract(sc, price)
            for ty, item, u in zip(sc.types, menu.items,
                                   menu_utilities(sc, menu)):
                assert u == pytest.approx((price - ty.c) * item.s, abs=1e-9)

    def test_bad_price(self):
        with pytest.raises(ValueError):
            linear_contract(make_scenario_a(), 0.0)


class TestUniformContract:
    def test_scenario_a(self):
        sc = make_scenario_a()
        menu = uniform_contract(sc)
        assert [(it.s, it.r) for it in menu.items] == [(3.0, 4.0),
                                                       (3.0, 4.0)]
        assert menu_utilities(sc, menu) == [0.0, 1.5]

    def test_single_item_everywhere(self):
        rng = np.random.default_rng(29)
        for _ in range(20):
            sc = random_scenario(rng, eligible_only=True)
            menu = uniform_contract(sc)
            pairs = {(it.s, it.r) for it in menu.items}
            assert len(pairs) == 1

    def test_reads_the_solved_menu(self, monkeypatch):
        # the partial-information menu is solved once per scenario, with
        # its coefficients computed once, and uniform_contract reuses it
        calls = []
        coefficients = solver._coefficients
        monkeypatch.setattr(solver, "_coefficients",
                            lambda *args: calls.append(args)
                            or coefficients(*args))
        sc = make_scenario_b()
        menu, trace = solve_partial_info(sc)
        uniform = uniform_contract(sc)
        assert solve_partial_info(sc)[0] is menu
        assert len(calls) == 1
        first = menu.items[sc.types.index(sc.eligible[0])]
        assert set(uniform.items) == {first}


class TestMenuUtilities:
    def test_item_count_must_match_types(self):
        sc = make_scenario_a()
        menu, _ = solve_partial_info(sc)
        for items in (menu.items[:1], menu.items + menu.items[:1]):
            with pytest.raises(ValueError, match="items for 2 types"):
                menu_utilities(sc, ContractMenu(t_max=sc.t_max, items=items))


class TestOracle:
    def test_scenario_a_on_grid(self):
        menu = brute_force_oracle(make_scenario_a(), 0.5)
        assert [(it.s, it.r) for it in menu.items] == [(3.0, 4.0),
                                                       (11.0, 8.0)]

    def test_scenario_b_on_grid(self):
        menu = brute_force_oracle(make_scenario_b(), 0.25)
        closed, _ = solve_partial_info(make_scenario_b())
        assert menu == closed

    def test_single_type(self):
        sc = make_single_type(c=0.5, s_max=13.75)
        menu = brute_force_oracle(sc, 0.05)
        closed, _ = solve_partial_info(sc)
        assert abs(menu.items[0].s - closed.items[0].s) <= 0.05 + 1e-12

    def test_too_many_types(self):
        # beyond three eligible types the oracle still answers, and the
        # closed form trails it by no more than the resolution bound
        rng = np.random.default_rng(37)
        step = 0.1
        checked = dict.fromkeys(range(4, 13), 0)
        while min(checked.values()) < 3:
            sc = random_scenario(rng, max_types=12, eligible_only=True,
                                 s_max_range=(5.0, 30.0))
            j = len(eligible_types(sc))
            if checked.get(j, 3) >= 3:
                continue
            checked[j] += 1
            closed, _ = solve_partial_info(sc)
            menu = brute_force_oracle(sc, step)
            gap = gcs_utility(sc, closed) - gcs_utility(sc, menu)
            assert -1e-9 <= gap <= oracle_resolution_bound(sc, step)
            assert verify_feasibility(sc, menu).feasible

    def test_resolution_bound(self):
        rng = np.random.default_rng(43)
        step = 0.1
        for _ in range(8):
            sc = random_scenario(rng, max_types=3, eligible_only=True,
                                 s_max_range=(5.0, 20.0))
            closed, _ = solve_partial_info(sc)
            grid = brute_force_oracle(sc, step)
            u_closed = gcs_utility(sc, closed)
            u_grid = gcs_utility(sc, grid)
            bound = oracle_resolution_bound(sc, step)
            assert u_closed >= u_grid - 1e-9
            assert u_grid >= u_closed - bound - 1e-9

    def test_scan_paths_agree(self):
        # the dynamic program against the scalar scans on coarse grids,
        # zero-count types included: a zero-count last type is flat, so
        # its size ties everywhere and the scans take the first index
        rng = np.random.default_rng(47)
        by_count = dict.fromkeys((1, 2, 3), 0)
        ties = 0
        while sum(by_count.values()) < 300:
            sc = random_scenario(rng, max_types=3,
                                 eligible_only=rng.uniform() < 0.5,
                                 s_max_range=(5.0, 15.0))
            by_count[len(eligible_types(sc))] += 1
            if rng.uniform() < 0.3:
                sc = with_zero_count(rng, sc)
                ties += 1
            step = sc.s_max / int(rng.integers(2, 25))
            assert oracle_sizes(sc, step) == scan_sizes(sc, step)
        assert min(by_count.values()) >= 40 and ties >= 50

    def test_scans_agree_on_benchmark_inputs(self):
        # the validate workload's scenarios of one seed, on a coarse grid
        # the scalar scans can cover
        config = load_config(PERFBENCH / "configs" / "validate.yaml")
        base = config.scenario
        inputs = benchmark_workloads().validate_inputs(1, base.t_max)
        assert len(inputs) == 90
        for x in inputs:
            sc = dataclasses.replace(
                base, total_uavs=sum(x.n), types=tuple(
                    UavType(index=k + 1, c1=x.c1[k], c2=x.c2[k], t=x.t[k],
                            n=x.n[k]) for k in range(len(x.t))))
            assert oracle_sizes(sc, 2.0) == scan_sizes(sc, 2.0)

    @pytest.mark.parametrize("jprime", [4, 5])
    def test_matches_exhaustive_search(self, jprime):
        # every non-decreasing tuple of a grid of at most 10 points, each
        # priced with the binding rewards and scored by gcs_utility
        rng = np.random.default_rng(53 + jprime)
        checked = 0
        while checked < 8:
            sc = random_scenario(rng, max_types=jprime + 1,
                                 s_max_range=(2.0, 20.0))
            order = eligible_types(sc)
            if len(order) != jprime:
                continue
            checked += 1
            step = sc.s_max / int(rng.integers(2, 9))
            grid = _size_grid(sc.s_max, step)
            assert grid.shape[0] <= 10
            best = max(
                gcs_utility(sc, binding_menu(sc, [float(grid[k])
                                                for k in picks]))
                for picks in itertools.combinations_with_replacement(
                    range(grid.shape[0]), jprime))
            got = gcs_utility(sc, brute_force_oracle(sc, step))
            assert got == pytest.approx(best, rel=1e-12, abs=1e-12)

    def test_matches_first_form(self):
        # the suffix argmax against the first-index rows it replaced, as
        # bits: 1-12 eligible types, exact cost ties, zero counts (flat
        # objectives tie everywhere), coarse and fine grids
        rng = np.random.default_rng(61)
        tied = flat = 0
        for case in range(480):
            j = case % 12 + 1
            sc = tied_scenario(rng, j)
            order = eligible_types(sc)
            costs = [ty.c for ty in order]
            tied += len(set(costs)) < len(costs)
            flat += any(ty.n == 0 for ty in order)
            step = (sc.s_max / int(rng.integers(2, 30)) if case % 2
                    else float(rng.choice([0.01, 0.05, 0.1])))
            menu = brute_force_oracle(sc, step)
            assert repr(menu) == repr(
                binding_menu(sc, reference_oracle_sizes(sc, step)))
        assert tied >= 100 and flat >= 100

    def test_matches_first_form_on_benchmark_inputs(self):
        # the validate workload's scenarios of one seed, at its step
        config = load_config(PERFBENCH / "configs" / "validate.yaml")
        base = config.scenario
        inputs = benchmark_workloads().validate_inputs(1, base.t_max)
        for x in inputs:
            sc = dataclasses.replace(
                base, total_uavs=sum(x.n), types=tuple(
                    UavType(index=k + 1, c1=x.c1[k], c2=x.c2[k], t=x.t[k],
                            n=x.n[k]) for k in range(len(x.t))))
            menu = brute_force_oracle(sc, 0.1)
            assert repr(menu) == repr(
                binding_menu(sc, reference_oracle_sizes(sc, 0.1)))

    @pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
    def test_infinite_terms_rank_as_first_form(self):
        # a weight of 1e308 makes the log term +inf past s = 5.03 but not
        # at 0; a count of 1e308 makes the payment -inf past s = 2.67:
        # such rows rank, and the picks are the first form's
        for factor, t, n in ((10.0, 1e-307, 1), (1.0, 2.0, 10 ** 308)):
            for pos in range(3):
                types = [UavType(index=k + 1, c1=0.9 - 0.3 * k, c2=0.0,
                                 t=t if k == pos else 1.0,
                                 n=n if k == pos else 3)
                         for k in range(3)]
                sc = Scenario(types=tuple(types),
                              satisfaction_factor=factor,
                              deployment_cost=1.0, s_max=20.0, t_max=2.0,
                              vdd_demand=800.0,
                              total_uavs=sum(ty.n for ty in types))
                got = oracle_sizes(sc, 0.5)
                assert got == reference_oracle_sizes(sc, 0.5)

    @pytest.mark.parametrize("pos", [0, 1, 2])
    def test_nan_names_the_same_position(self, pos):
        # a delay of 1e-320 makes the weight inf, and inf * log1p(0) NaN
        types = [UavType(index=k + 1, c1=0.9 - 0.3 * k, c2=0.0,
                         t=1e-320 if k == pos else 1.0, n=3)
                 for k in range(3)]
        sc = Scenario(types=tuple(types), satisfaction_factor=6.0,
                      deployment_cost=1.0, s_max=5.0, t_max=2.0,
                      vdd_demand=800.0, total_uavs=9)
        with pytest.raises(ValueError) as first:
            reference_oracle_sizes(sc, 0.25)
        with pytest.raises(ValueError) as got:
            brute_force_oracle(sc, 0.25)
        assert str(got.value) == str(first.value)
        assert f"eligible position {pos + 1} (type {pos + 1})" in str(
            got.value)

    @pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
    def test_cost_overflow_as_first_form(self):
        # c1 = 1e308 on the types from k on, and on a lone type, makes
        # c*s +inf past s = 1.8: at the last eligible position the first
        # form's 0.0 * inf is NaN and refuses, elsewhere the -inf terms
        # rank
        scenarios = [single(1e308, s_max=20.0)]
        for k in range(3):
            types = [UavType(index=j + 1,
                             c1=1e308 if j >= k else 0.9 - 0.3 * j,
                             c2=0.0, t=1.0, n=3)
                     for j in range(3)]
            scenarios.append(Scenario(
                types=tuple(types), satisfaction_factor=6.0,
                deployment_cost=1.0, s_max=20.0, t_max=2.0,
                vdd_demand=800.0, total_uavs=9))
        outcomes = []
        for sc in scenarios:
            try:
                first = binding_menu(sc, reference_oracle_sizes(sc, 0.5))
            except ValueError as exc:
                with pytest.raises(ValueError) as got:
                    brute_force_oracle(sc, 0.5)
                assert str(got.value) == str(exc)
                outcomes.append(str(exc))
            else:
                assert repr(brute_force_oracle(sc, 0.5)) == repr(first)
                outcomes.append("menu")
        nan = ("grid oracle: eligible position {0} (type {0}) has an "
               "objective term that overflows to nan")
        assert outcomes == [nan.format(1), nan.format(3), "menu", "menu"]

    def test_resolution_bound_adds_left_to_right(self, monkeypatch):
        # a compensated sum of w would give 1.5 + 2**-52
        monkeypatch.setattr(solver, "_coefficients", lambda sc: (
            (1.0, 2.0 ** -53, 2.0 ** -53), (-0.5, 0.0, 0.0)))
        assert oracle_resolution_bound(make_scenario_a(), 1.0) == 1.5

    def test_coefficients_derived_once(self, monkeypatch):
        # the solve, the oracle and the bound read one copy of (w, a)
        calls = []
        coefficients = solver._coefficients
        monkeypatch.setattr(solver, "_coefficients",
                            lambda *args: calls.append(args)
                            or coefficients(*args))
        sc = make_scenario_b()
        solve_partial_info(sc)
        brute_force_oracle(sc, 0.25)
        oracle_resolution_bound(sc, 0.25)
        assert len(calls) == 1
        assert sc.coefficients is sc.coefficients

    def test_grid_contains_endpoint(self):
        grid = _size_grid(1.0, 0.3)
        assert grid[0] == 0.0
        assert grid[-1] == 1.0
        assert np.all(np.diff(grid) <= 0.3 + 1e-12)

    def test_bad_step(self):
        with pytest.raises(ValueError):
            brute_force_oracle(make_scenario_a(), 0.0)

    def test_point_cap(self, monkeypatch):
        # a grid that could pass the cap is refused before it is built
        monkeypatch.setattr(solver, "MAX_GRID_POINTS", 12)
        assert _size_grid(10.0, 1.0).shape == (11,)
        assert _size_grid(10.5, 1.0).shape == (12,)
        for s_max, step in ((11.0, 1.0), (10.0, 0.9), (10.0, 5e-324)):
            with pytest.raises(ValidationError) as err:
                _size_grid(s_max, step)
            assert err.value.field == "grid_oracle"
