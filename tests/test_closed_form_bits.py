"""The closed form's bits, pinned.

One sha256 over seeded random scenarios of 1 to 12 types: exact cost ties
(costs on a dyadic grid, so sums tie exactly), ineligible types, pooled
sizes, and indices that are neither contiguous nor in scenario order.  It
covers the four schemes' menus, a coarse grid oracle, the feasibility
report of each menu and of one random menu that breaks IR, IC and
monotonicity, and every utility and zeta.  ``repr`` of a float round-trips,
so the digest moves with any changed bit.

Costs that do not tie exactly differ by far more than 1e-9, so the digest
does not depend on how near-ties are ordered.
"""

import hashlib

import numpy as np

from uavcontract import (ContractItem, ContractMenu, Scenario, UavType,
                         brute_force_oracle, defensive_effectiveness,
                         gcs_utility, linear_contract, menu_utilities,
                         solve_complete_info, solve_partial_info,
                         uniform_contract, verify_feasibility)

SCENARIOS = 400
DIGEST = "df4a4043461a2ff3f125c8a55dbfca85fc923f5003f9713adb3b7b08ae753a2a"


def pinned_scenario(rng: np.random.Generator) -> Scenario:
    j = int(rng.integers(1, 13))
    t_max = 2.0
    dyadic = bool(rng.integers(0, 2))
    indices = rng.choice(np.arange(1, 41), size=j, replace=False)
    types = []
    for k in range(j):
        if dyadic:
            c1 = float(rng.integers(1, 9)) / 8.0
            c2 = float(rng.integers(0, 3)) / 4.0
        else:
            c1 = float(rng.uniform(0.05, 1.0))
            c2 = float(rng.uniform(0.0, 0.3))
        # the first type always makes the deadline; the others may not
        t = float(rng.uniform(0.3, t_max if k == 0 else 2.0 * t_max))
        types.append(UavType(index=int(indices[k]), c1=c1, c2=c2, t=t,
                             n=int(rng.integers(0 if k else 1, 11))))
    return Scenario(
        types=tuple(types),
        satisfaction_factor=float(rng.uniform(1.0, 10.0)),
        deployment_cost=float(rng.uniform(0.0, 2.0)),
        s_max=float(rng.uniform(5.0, 50.0)), t_max=t_max,
        vdd_demand=800.0, total_uavs=sum(ty.n for ty in types))


def random_menu(rng: np.random.Generator, scenario: Scenario) -> ContractMenu:
    return ContractMenu(t_max=scenario.t_max, items=tuple(
        ContractItem(s=float(rng.uniform(0.0, 10.0)),
                     r=float(rng.uniform(0.0, 10.0)))
        for _ in scenario.types))


def closed_form_digest(count: int = SCENARIOS, seed: int = 1501) -> str:
    rng = np.random.default_rng(seed)
    digest = hashlib.sha256()
    for _ in range(count):
        scenario = pinned_scenario(rng)
        partial, trace = solve_partial_info(scenario)
        price = float(np.median([ty.c for ty in scenario.types]))
        menus = (partial, solve_complete_info(scenario),
                 linear_contract(scenario, price),
                 uniform_contract(scenario),
                 brute_force_oracle(scenario, scenario.s_max / 64.0),
                 random_menu(rng, scenario))
        digest.update(repr(trace).encode())
        for menu in menus:
            digest.update(repr((
                [(item.s, item.r) for item in menu.items],
                verify_feasibility(scenario, menu),
                gcs_utility(scenario, menu),
                defensive_effectiveness(scenario, menu),
                menu_utilities(scenario, menu))).encode())
    return digest.hexdigest()


def test_closed_form_bits_are_pinned():
    assert closed_form_digest() == DIGEST
