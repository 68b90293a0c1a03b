import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from uavcontract import (ContractItem, ContractMenu, Scenario, UavType,
                         ValidationError, defensive_effectiveness,
                         eligible_types, gcs_utility, linear_contract,
                         solve_complete_info, solve_partial_info, uav_utility,
                         uniform_contract, verify_feasibility)
from uavcontract.game import FEASIBILITY_TOL

from conftest import make_scenario_a, random_scenario
from reference_game import item_for, reference_feasibility

sizes = st.floats(0.0, 1e3, allow_nan=False)
rewards = st.floats(0.0, 1e3, allow_nan=False)
costs = st.floats(0.01, 10.0, allow_nan=False)


def menu_a():
    return ContractMenu(t_max=2.0, items=(ContractItem(s=3.0, r=4.0),
                                          ContractItem(s=11.0, r=8.0)))


class TestUavUtility:
    def test_binding_item_nets_zero(self):
        ty = UavType(index=1, c1=1.0, c2=0.0, t=1.0, n=5)
        assert uav_utility(ty, ContractItem(s=3.0, r=4.0), 2.0, 1.0) == 0.0

    def test_late_type_pays_without_reward(self):
        ty = UavType(index=1, c1=1.0, c2=0.0, t=3.0, n=5)
        assert uav_utility(ty, ContractItem(s=3.0, r=4.0), 2.0, 1.0) == -4.0

    def test_null_contract_costs_deployment(self):
        ty = UavType(index=1, c1=0.5, c2=0.0, t=1.0, n=5)
        assert uav_utility(ty, ContractItem(s=0.0, r=0.0), 2.0, 1.0) == -1.0

    def test_cost_components_add(self):
        a = UavType(index=1, c1=0.3, c2=0.2, t=1.0, n=1)
        b = UavType(index=1, c1=0.5, c2=0.0, t=1.0, n=1)
        item = ContractItem(s=7.0, r=2.0)
        assert uav_utility(a, item, 2.0, 1.0) == uav_utility(b, item, 2.0,
                                                             1.0)

    @given(c=costs, s1=sizes, s2=sizes, r=rewards)
    def test_decreasing_in_size(self, c, s1, s2, r):
        ty = UavType(index=1, c1=c, c2=0.0, t=1.0, n=1)
        lo, hi = sorted((s1, s2))
        u_lo = uav_utility(ty, ContractItem(s=lo, r=r), 2.0, 1.0)
        u_hi = uav_utility(ty, ContractItem(s=hi, r=r), 2.0, 1.0)
        assert u_hi == pytest.approx(u_lo - c * (hi - lo), abs=1e-6)

    @given(c=costs, s=sizes, r1=rewards, r2=rewards)
    def test_increasing_in_reward(self, c, s, r1, r2):
        ty = UavType(index=1, c1=c, c2=0.0, t=1.0, n=1)
        lo, hi = sorted((r1, r2))
        u_lo = uav_utility(ty, ContractItem(s=s, r=lo), 2.0, 1.0)
        u_hi = uav_utility(ty, ContractItem(s=s, r=hi), 2.0, 1.0)
        assert u_hi == pytest.approx(u_lo + (hi - lo), abs=1e-6)

    @given(c_high=costs, gap=st.floats(0.001, 5.0), s=sizes,
           ds=st.floats(0.001, 100.0), r=rewards, dr=rewards)
    def test_single_crossing(self, c_high, gap, s, ds, r, dr):
        # if the costly type weakly prefers the bigger item, every cheaper
        # type strictly prefers it
        high = UavType(index=1, c1=c_high + gap, c2=0.0, t=1.0, n=1)
        low = UavType(index=2, c1=c_high, c2=0.0, t=1.0, n=1)
        small = ContractItem(s=s, r=r)
        big = ContractItem(s=s + ds, r=r + dr)
        pref_high = (uav_utility(high, big, 2.0, 1.0)
                     - uav_utility(high, small, 2.0, 1.0))
        pref_low = (uav_utility(low, big, 2.0, 1.0)
                    - uav_utility(low, small, 2.0, 1.0))
        if pref_high >= 0.0:
            assert pref_low > 0.0


class TestGcsUtility:
    def test_worked_menu(self):
        expect = 30.0 * math.log(4.0) + 30.0 * math.log(12.0) - 60.0
        assert gcs_utility(make_scenario_a(), menu_a()) == pytest.approx(
            expect, abs=1e-12)

    def test_null_menu_is_zero(self):
        menu = ContractMenu(t_max=2.0, items=(ContractItem(0.0, 0.0),
                                              ContractItem(0.0, 0.0)))
        assert gcs_utility(make_scenario_a(), menu) == 0.0

    def test_ineligible_terms_vanish(self):
        sc = make_scenario_a()
        slow = sc.types[1]
        sc = Scenario(types=(sc.types[0],
                             UavType(index=2, c1=slow.c1, c2=slow.c2,
                                     t=3.0, n=slow.n)),
                      satisfaction_factor=6.0, deployment_cost=1.0,
                      s_max=300.0, t_max=2.0, vdd_demand=800.0,
                      total_uavs=10)
        got = gcs_utility(sc, menu_a())
        assert got == pytest.approx(30.0 * math.log(4.0) - 20.0, abs=1e-12)

    def test_additive_across_types(self):
        rng = np.random.default_rng(7)
        for _ in range(20):
            sc = random_scenario(rng, max_types=4)
            items = tuple(ContractItem(s=float(rng.uniform(0, sc.s_max)),
                                       r=float(rng.uniform(0, 50)))
                          for _ in sc.types)
            menu = ContractMenu(t_max=sc.t_max, items=items)
            total = gcs_utility(sc, menu)
            parts = 0.0
            for ty, item in zip(sc.types, items):
                solo = Scenario(types=(UavType(index=1, c1=ty.c1, c2=ty.c2,
                                               t=ty.t, n=ty.n),),
                                satisfaction_factor=sc.satisfaction_factor,
                                deployment_cost=sc.deployment_cost,
                                s_max=sc.s_max, t_max=sc.t_max,
                                vdd_demand=sc.vdd_demand, total_uavs=ty.n)
                parts += gcs_utility(solo, ContractMenu(
                    t_max=sc.t_max, items=(item,)))
            assert total == pytest.approx(parts, rel=1e-12, abs=1e-9)


    def test_matches_the_scenario_order_walk(self):
        # the walk over eligible positions against every type filtered by
        # the deadline, as bits, for gcs_utility and zeta; some eligible
        # types hold the null item
        rng = np.random.default_rng(23)
        for _ in range(200):
            sc = random_scenario(rng, max_types=12)
            menu = ContractMenu(t_max=sc.t_max, items=tuple(
                ContractItem(0.0, 0.0) if rng.uniform() < 0.3 else
                ContractItem(s=float(rng.uniform(0, sc.s_max)),
                             r=float(rng.uniform(0, 50)))
                for _ in sc.types))
            utility = zeta = 0.0
            for ty, item in zip(sc.types, menu.items):
                if ty.t <= sc.t_max:
                    w = sc.satisfaction_factor * ty.n / ty.t
                    utility += w * math.log1p(item.s) - ty.n * item.r
                    zeta += ty.n * item.s
            assert repr(gcs_utility(sc, menu)) == repr(utility)
            assert (repr(defensive_effectiveness(sc, menu))
                    == repr(zeta / sc.vdd_demand))

    def test_infinite_weight_on_a_null_item_is_nan(self):
        # an eligible type's null item still adds its term, so a weight
        # that overflows gives the NaN the output guard refuses
        sc = Scenario(types=(UavType(index=1, c1=1.0, c2=0.0, t=1e-320,
                                     n=5),),
                      satisfaction_factor=6.0, deployment_cost=1.0,
                      s_max=300.0, t_max=2.0, vdd_demand=800.0,
                      total_uavs=5)
        assert sc.weights == (math.inf,)
        menu = ContractMenu(t_max=2.0, items=(ContractItem(0.0, 0.0),))
        assert math.isnan(gcs_utility(sc, menu))


class TestEligibility:
    def test_descending_costs(self):
        order = eligible_types(make_scenario_a())
        assert [ty.index for ty in order] == [1, 2]
        assert [ty.c for ty in order] == [1.0, 0.5]

    def test_deadline_filters(self):
        sc = make_scenario_a()
        sc = Scenario(types=(UavType(index=1, c1=1.0, c2=0.0, t=5.0, n=5),
                             sc.types[1]),
                      satisfaction_factor=6.0, deployment_cost=1.0,
                      s_max=300.0, t_max=2.0, vdd_demand=800.0,
                      total_uavs=10)
        assert [ty.index for ty in eligible_types(sc)] == [2]

    def test_equal_costs_break_by_index(self):
        sc = Scenario(types=(UavType(index=2, c1=0.7, c2=0.0, t=1.0, n=1),
                             UavType(index=1, c1=0.7, c2=0.0, t=1.0, n=1)),
                      satisfaction_factor=6.0, deployment_cost=1.0,
                      s_max=10.0, t_max=2.0, vdd_demand=800.0, total_uavs=2)
        assert [ty.index for ty in eligible_types(sc)] == [1, 2]

    def test_order_is_cached_outside_the_fields(self):
        sc = make_scenario_a()
        assert sc.eligible is sc.eligible
        assert eligible_types(sc) == list(sc.eligible)
        assert eligible_types(sc) is not eligible_types(sc)
        twin = make_scenario_a()
        assert sc == twin and hash(sc) == hash(twin)
        assert repr(sc) == repr(twin)
        assert "eligible" not in repr(sc)

    def test_weights_and_terms(self):
        sc = Scenario(types=(UavType(index=3, c1=0.5, c2=0.0, t=1.0, n=4),
                             UavType(index=1, c1=1.0, c2=0.0, t=5.0, n=5),
                             UavType(index=2, c1=1.0, c2=0.0, t=0.5, n=2)),
                      satisfaction_factor=6.0, deployment_cost=1.0,
                      s_max=300.0, t_max=2.0, vdd_demand=800.0,
                      total_uavs=11)
        assert sc.eligible_positions == (2, 0)
        assert sc.weights == (6.0 * 2 / 0.5, 6.0 * 4 / 1.0)
        assert sc.utility_terms == ((0, 4, 24.0), (2, 2, 24.0))
        assert "weights" not in repr(sc)
        wide = dataclasses.replace(sc, t_max=6.0)
        # equal costs order by index
        assert wide.eligible_positions == (1, 2, 0)
        assert wide.weights == (6.0, 24.0, 24.0)
        assert wide.utility_terms == ((0, 4, 24.0), (1, 5, 6.0),
                                      (2, 2, 24.0))

    def test_replace_derives_afresh(self):
        sc = Scenario(types=(UavType(index=1, c1=1.0, c2=0.0, t=5.0, n=5),
                             UavType(index=2, c1=0.5, c2=0.0, t=1.0, n=5)),
                      satisfaction_factor=6.0, deployment_cost=1.0,
                      s_max=300.0, t_max=6.0, vdd_demand=800.0,
                      total_uavs=10)
        assert [ty.index for ty in sc.eligible] == [1, 2]
        menu, _ = solve_partial_info(sc)
        tight = dataclasses.replace(sc, t_max=2.0)
        assert [ty.index for ty in tight.eligible] == [2]
        assert [ty.index for ty in sc.eligible] == [1, 2]
        tight_menu, trace = solve_partial_info(tight)
        assert trace.eligible_order == (2,)
        assert tight_menu != menu
        assert tight_menu.items[0] == ContractItem(0.0, 0.0)

    def test_random_scenarios_sorted(self):
        rng = np.random.default_rng(11)
        for _ in range(50):
            sc = random_scenario(rng)
            order = eligible_types(sc)
            assert all(ty.t <= sc.t_max for ty in order)
            assert {ty.index for ty in order} == {
                ty.index for ty in sc.types if ty.t <= sc.t_max}
            cs = [ty.c for ty in order]
            assert all(a >= b for a, b in zip(cs, cs[1:]))


class TestFeasibility:
    def test_optimal_menu_clean(self):
        report = verify_feasibility(make_scenario_a(), menu_a())
        assert report.feasible
        assert report.ir_violations == ()
        assert report.ic_violations == ()
        assert report.size_monotone and report.reward_monotone

    def test_swapped_items_break_ic(self):
        menu = ContractMenu(t_max=2.0, items=(ContractItem(11.0, 8.0),
                                              ContractItem(3.0, 4.0)))
        report = verify_feasibility(make_scenario_a(), menu)
        assert not report.feasible
        assert any(idx == 1 for idx, _, _ in report.ic_violations)
        assert not report.size_monotone

    def test_underpaid_item_breaks_ir(self):
        menu = ContractMenu(t_max=2.0, items=(ContractItem(3.0, 2.0),
                                              ContractItem(11.0, 8.0)))
        report = verify_feasibility(make_scenario_a(), menu)
        assert any(idx == 1 and u == pytest.approx(-2.0)
                   for idx, u in report.ir_violations)

    def test_ineligible_item_must_be_null(self):
        sc = make_scenario_a()
        sc = Scenario(types=(sc.types[0],
                             UavType(index=2, c1=0.5, c2=0.0, t=3.0, n=5)),
                      satisfaction_factor=6.0, deployment_cost=1.0,
                      s_max=300.0, t_max=2.0, vdd_demand=800.0,
                      total_uavs=10)
        report = verify_feasibility(sc, menu_a())
        assert not report.feasible
        assert 2 in report.ineligible_nonzero

    def test_equivalent_to_reduced_conditions(self):
        # full pairwise IR/IC route against the monotone + boundary-IR +
        # adjacent-IC-band route, on randomized menus
        rng = np.random.default_rng(23)
        agree_feasible = 0
        for _ in range(300):
            sc = random_scenario(rng, max_types=5)
            if rng.uniform() < 0.5:
                base = np.sort(rng.uniform(0, sc.s_max,
                                           size=len(sc.types)))
            else:
                base = rng.uniform(0, sc.s_max, size=len(sc.types))
            order = eligible_types(sc)
            by_index = {}
            for pos, ty in enumerate(order):
                s = float(base[pos])
                if rng.uniform() < 0.6 and pos > 0:
                    prev = by_index[order[pos - 1].index]
                    lo = prev.r + ty.c * (s - prev.s)
                    hi = prev.r + order[pos - 1].c * (s - prev.s)
                    r = float(rng.uniform(min(lo, hi) - 1.0,
                                          max(lo, hi) + 1.0))
                elif pos == 0:
                    r = float(ty.c * s + sc.deployment_cost
                              + rng.uniform(-1.0, 1.0))
                else:
                    r = float(rng.uniform(0.0, 50.0))
                by_index[ty.index] = ContractItem(s=s, r=max(r, 0.0))
            items = []
            for ty in sc.types:
                if ty.index in by_index:
                    items.append(by_index[ty.index])
                elif rng.uniform() < 0.8:
                    items.append(ContractItem(0.0, 0.0))
                else:
                    items.append(ContractItem(1.0, 1.0))
            menu = ContractMenu(t_max=sc.t_max, items=tuple(items))
            report = verify_feasibility(sc, menu)
            reduced = self._reduced_route(sc, menu, FEASIBILITY_TOL)
            assert report.feasible == reduced
            agree_feasible += report.feasible
        # the generator must actually exercise both verdicts
        assert 0 < agree_feasible < 300

    @staticmethod
    def _reduced_route(sc, menu, tol):
        for ty in sc.types:
            if ty.t > sc.t_max:
                item = item_for(sc, menu, ty)
                if item.s != 0.0 or item.r != 0.0:
                    return False
        order = eligible_types(sc)
        if not order:
            return True
        items = [item_for(sc, menu, ty) for ty in order]
        for a, b in zip(items, items[1:]):
            if a.s > b.s + tol or a.r > b.r + tol:
                return False
        if (items[0].r - order[0].c * items[0].s
                - sc.deployment_cost < -tol):
            return False
        for k in range(1, len(items)):
            ds = items[k].s - items[k - 1].s
            lo = items[k - 1].r + order[k].c * ds
            hi = items[k - 1].r + order[k - 1].c * ds
            if items[k].r < lo - tol or items[k].r > hi + tol:
                return False
        return True


def perturbed(menu, rng):
    """The menu with some items moved off their binding values, some
    swapped, and some null items made non-null."""
    items = list(menu.items)
    for k, item in enumerate(items):
        if rng.uniform() < 0.4:
            items[k] = ContractItem(
                s=max(item.s + float(rng.normal(scale=2.0)), 0.0),
                r=max(item.r + float(rng.normal(scale=2.0)), 0.0))
    if len(items) > 1 and rng.uniform() < 0.5:
        i, j = rng.choice(len(items), size=2, replace=False)
        items[i], items[j] = items[j], items[i]
    return ContractMenu(t_max=menu.t_max, items=tuple(items))


class TestFeasibilityMatchesReference:
    """The O(J^2) checker gives the reference checker's report exactly:
    the same violations in the same order with the same floats."""

    def test_reports_identical(self):
        rng = np.random.default_rng(41)
        seen = {"infeasible": 0, "ic": 0, "ir": 0, "ineligible": 0,
                "some_ineligible_type": 0}
        counts = set()
        for _ in range(250):
            sc = random_scenario(rng, max_types=12)
            counts.add(len(sc.types))
            partial, _ = solve_partial_info(sc)
            menus = [partial, solve_complete_info(sc),
                     linear_contract(sc, max(ty.c for ty in sc.types)),
                     uniform_contract(sc)]
            menus += [perturbed(m, rng) for m in menus]
            for menu in menus:
                # a zero or negative tolerance puts the binding constraints
                # of the closed form exactly on, or past, the threshold;
                # equal reprs mean equal fields with bit-equal floats
                for tol in (-FEASIBILITY_TOL, 0.0, FEASIBILITY_TOL):
                    report = verify_feasibility(sc, menu, tol)
                    assert repr(report) == repr(
                        reference_feasibility(sc, menu, tol))
                seen["infeasible"] += not report.feasible
                seen["ic"] += bool(report.ic_violations)
                seen["ir"] += bool(report.ir_violations)
                seen["ineligible"] += bool(report.ineligible_nonzero)
            seen["some_ineligible_type"] += (len(eligible_types(sc))
                                             < len(sc.types))
        # every type count, and every kind of violation, was exercised
        assert counts == set(range(1, 13))
        assert all(seen.values()), seen

    @pytest.mark.parametrize("count", [1, 3])
    def test_item_count_must_match(self, count):
        menu = ContractMenu(t_max=2.0, items=menu_a().items[:1] * count)
        with pytest.raises(ValueError):
            verify_feasibility(make_scenario_a(), menu)
        with pytest.raises(ValueError):
            defensive_effectiveness(make_scenario_a(), menu)


class TestDefensiveEffectiveness:
    def test_worked_value(self):
        assert defensive_effectiveness(make_scenario_a(),
                                       menu_a()) == 0.0875

    def test_null_menu(self):
        menu = ContractMenu(t_max=2.0, items=(ContractItem(0.0, 0.0),
                                              ContractItem(0.0, 0.0)))
        assert defensive_effectiveness(make_scenario_a(), menu) == 0.0

    def test_self_normalizing(self):
        sc = make_scenario_a()
        sc = Scenario(types=sc.types, satisfaction_factor=6.0,
                      deployment_cost=1.0, s_max=300.0, t_max=2.0,
                      vdd_demand=70.0, total_uavs=10)
        assert defensive_effectiveness(sc, menu_a()) == 1.0

    def test_ineligible_sizes_do_not_count(self):
        sc = make_scenario_a()
        sc = Scenario(types=(sc.types[0],
                             UavType(index=2, c1=0.5, c2=0.0, t=3.0, n=5)),
                      satisfaction_factor=6.0, deployment_cost=1.0,
                      s_max=300.0, t_max=2.0, vdd_demand=800.0,
                      total_uavs=10)
        assert defensive_effectiveness(sc, menu_a()) == 15.0 / 800.0


SCENARIO_A = dict(satisfaction_factor=6.0, deployment_cost=1.0, s_max=300.0,
                  t_max=2.0, vdd_demand=800.0, total_uavs=10)


class TestInvariants:
    @pytest.mark.parametrize("field,value", [
        ("index", 0), ("c1", -0.1), ("c1", math.nan), ("c2", math.inf),
        ("t", 0.0), ("t", math.inf), ("t", math.nan), ("n", -1)])
    def test_type_field_named(self, field, value):
        kwargs = dict(index=1, c1=1.0, c2=0.0, t=1.0, n=5)
        kwargs[field] = value
        with pytest.raises(ValidationError) as err:
            UavType(**kwargs)
        assert err.value.field == field

    # a count is an int or a numpy integer, never a float or a bool, on the
    # fast path as on the slow one
    @pytest.mark.parametrize("field,value", [
        ("n", 1.5), ("n", True), ("index", 1.5), ("index", True)])
    def test_type_count_is_an_integer(self, field, value):
        kwargs = dict(index=1, c1=1.0, c2=0.0, t=1.0, n=1)
        kwargs[field] = value
        with pytest.raises(ValidationError, match="must be an integer") as err:
            UavType(**kwargs)
        assert err.value.field == field

    @pytest.mark.parametrize("n,total", [(5, 5.0), (1, True)])
    def test_scenario_total_is_an_integer(self, n, total):
        types = (UavType(index=1, c1=1.0, c2=0.0, t=1.0, n=n),)
        with pytest.raises(ValidationError, match="must be an integer") as err:
            Scenario(**dict(SCENARIO_A, types=types, total_uavs=total))
        assert err.value.field == "total_uavs"

    def test_numpy_integer_counts_are_accepted(self):
        ty = UavType(index=np.int64(2), c1=1.0, c2=0.0, t=1.0,
                     n=np.int32(5))
        assert ty == UavType(index=2, c1=1.0, c2=0.0, t=1.0, n=5)
        scenario = Scenario(**dict(SCENARIO_A, types=(ty,),
                                   total_uavs=np.int64(5)))
        assert scenario.total_uavs == 5

    def test_index_below_one_keeps_its_message(self):
        with pytest.raises(ValidationError,
                           match="^index: must be at least 1, got 0$"):
            UavType(index=0, c1=1.0, c2=0.0, t=1.0, n=5)

    def test_cost_set_once_outside_the_fields(self):
        ty = UavType(index=1, c1=0.25, c2=0.5, t=1.0, n=3)
        assert ty.c == 0.75
        twin = UavType(index=1, c1=0.25, c2=0.5, t=1.0, n=3)
        assert ty == twin and hash(ty) == hash(twin)
        assert repr(ty) == ("UavType(index=1, c1=0.25, c2=0.5, t=1.0, "
                            "n=3)")
        assert dataclasses.replace(ty, c2=0.125).c == 0.375
        with pytest.raises(dataclasses.FrozenInstanceError):
            ty.c = 1.0

    @pytest.mark.parametrize("c1,c2", [(0.0, 0.0), (1.0e308, 1.0e308)])
    def test_cost_sum_named(self, c1, c2):
        with pytest.raises(ValidationError) as err:
            UavType(index=1, c1=c1, c2=c2, t=1.0, n=5)
        # c is no YAML key: a zero sum names c1, an overflowing one c2
        assert err.value.field == ("c2" if c2 else "c1")
        assert err.value.message.startswith("c1 + c2 must be positive")

    @pytest.mark.parametrize("field,value", [
        ("satisfaction_factor", math.nan), ("deployment_cost", -1.0),
        ("deployment_cost", math.inf), ("s_max", math.inf),
        ("t_max", 0.0), ("vdd_demand", 0.0), ("vdd_demand", math.nan),
        ("total_uavs", 11)])
    def test_scenario_field_named(self, field, value):
        kwargs = dict(SCENARIO_A, types=make_scenario_a().types)
        kwargs[field] = value
        with pytest.raises(ValidationError) as err:
            Scenario(**kwargs)
        assert err.value.field == field

    def test_scenario_needs_a_member(self):
        empty = (UavType(index=1, c1=1.0, c2=0.0, t=1.0, n=0),)
        with pytest.raises(ValidationError) as err:
            Scenario(**dict(SCENARIO_A, types=empty, total_uavs=0))
        assert err.value.field == "total_uavs"

    def test_validation_error_is_a_value_error(self):
        with pytest.raises(ValueError):
            UavType(index=1, c1=math.nan, c2=0.0, t=1.0, n=5)

    @pytest.mark.parametrize("s,r", [(math.inf, 1.0), (1.0, math.nan),
                                     (-1.0, 1.0)])
    def test_bad_item_is_a_solver_fault(self, s, r):
        with pytest.raises(ValueError) as err:
            ContractItem(s=s, r=r)
        assert not isinstance(err.value, ValidationError)

    def test_menu_deadline_finite(self):
        with pytest.raises(ValueError):
            ContractMenu(t_max=math.inf, items=())
