"""Reference forms of the game's look-ups and checks, for the tests.

Menus are in scenario order.  `item_for` finds a type's item by a walk
over the scenario's types, and `reference_feasibility` is the O(J^3)
checker built on it, which `game.verify_feasibility` is held to field by
field.
"""

from uavcontract import FeasibilityReport, eligible_types, uav_utility
from uavcontract.game import FEASIBILITY_TOL


def item_for(scenario, menu, uav_type):
    """Menu item assigned to the given type."""
    for ty, item in zip(scenario.types, menu.items):
        if ty.index == uav_type.index:
            return item
    raise KeyError(f"type index {uav_type.index} not in scenario")


def reference_feasibility(scenario, menu, tol=FEASIBILITY_TOL):
    """The O(J^3) checker: every item looked up with `item_for`, every
    utility from `uav_utility`."""
    order = eligible_types(scenario)
    ir = []
    ic = []
    for ty in order:
        own = uav_utility(ty, item_for(scenario, menu, ty), scenario.t_max,
                          scenario.deployment_cost)
        if own < -tol:
            ir.append((ty.index, own))
        for other in order:
            if other.index == ty.index:
                continue
            foreign = uav_utility(ty, item_for(scenario, menu, other),
                                  scenario.t_max, scenario.deployment_cost)
            if foreign > own + tol:
                ic.append((ty.index, other.index, foreign - own))
    sizes = [item_for(scenario, menu, ty).s for ty in order]
    rewards = [item_for(scenario, menu, ty).r for ty in order]
    return FeasibilityReport(
        ir_violations=tuple(ir), ic_violations=tuple(ic),
        size_monotone=all(a <= b + tol for a, b in zip(sizes, sizes[1:])),
        reward_monotone=all(a <= b + tol
                            for a, b in zip(rewards, rewards[1:])),
        ineligible_nonzero=tuple(
            ty.index for ty in scenario.types
            if ty.t > scenario.t_max
            and (item_for(scenario, menu, ty).s != 0.0
                 or item_for(scenario, menu, ty).r != 0.0)))
