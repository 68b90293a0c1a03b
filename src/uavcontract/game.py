"""Domain types and utility functions for the VDD trading game.

A ground control station (GCS) buys valid defense data (VDD) from UAV
honeypots.  Each UAV belongs to a type with a private marginal cost (the sum
of a collection and a privacy component) and a delivery delay; a contract
menu assigns every type a (vdd_size, reward) item.  This module holds the
type definitions, the two utility functions, the eligibility ordering, and
an exhaustive feasibility verifier for the individual-rationality (IR),
incentive-compatibility (IC) and monotonicity conditions.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

from .errors import ValidationError, check_count, check_positive

# IC binds with exact equality at the optimum, so feasibility comparisons
# need slack; strict comparisons would flag spurious violations.
FEASIBILITY_TOL = 1e-9

# deterministic tie nudge for equal marginal costs; affects ordering only
_COST_TIE_EPS = 1e-12


@dataclass(frozen=True)
class UavType:
    """One UAV type: costs, delivery delay, and population count.

    The marginal cost ``c`` is always the exact sum of the VDD-collection
    component ``c1`` and the privacy-leakage component ``c2``; it is exposed
    as a property so the identity cannot drift.
    """

    index: int
    c1: float
    c2: float
    t: float
    n: int

    def __post_init__(self):
        if self.index < 1:
            raise ValidationError("index",
                                  f"must be at least 1, got {self.index}")
        check_positive(self, ("c1", "c2"), zero_ok=True)
        check_positive(self, ("c", "t"))
        check_count("n", self.n, 0)

    @property
    def c(self) -> float:
        """Marginal VDD cost, c1 + c2."""
        return self.c1 + self.c2


@dataclass(frozen=True)
class ContractItem:
    """A single menu entry: VDD size in bytes and its reward.

    Items come from the solvers, so a bad one is a solver fault: it raises
    a plain ValueError.
    """

    s: float
    r: float

    def __post_init__(self):
        for name in ("s", "r"):
            if not 0.0 <= getattr(self, name) < math.inf:
                raise ValueError(f"item {name} must be non-negative and "
                                 f"finite, got {getattr(self, name)}")


@dataclass(frozen=True)
class ContractMenu:
    """Deadline plus one contract item per scenario type, in scenario order."""

    t_max: float
    items: tuple[ContractItem, ...]

    def __post_init__(self):
        if not 0.0 < self.t_max < math.inf:
            raise ValueError(f"t_max must be positive and finite, "
                             f"got {self.t_max}")
        object.__setattr__(self, "items", tuple(self.items))


@dataclass(frozen=True)
class Scenario:
    """Full problem instance: the type set and the GCS-side constants.

    Derived state is computed once and cached outside the fields, so
    equality, hash and repr see the fields alone, and a scenario made by
    ``dataclasses.replace`` derives its own.
    """

    types: tuple[UavType, ...]
    satisfaction_factor: float
    deployment_cost: float
    s_max: float
    t_max: float
    vdd_demand: float
    total_uavs: int

    def __post_init__(self):
        object.__setattr__(self, "types", tuple(self.types))
        if not self.types:
            raise ValidationError("types", "needs at least one type")
        check_positive(self, ("satisfaction_factor", "s_max", "t_max",
                              "vdd_demand"))
        check_positive(self, ("deployment_cost",), zero_ok=True)
        indices = [ty.index for ty in self.types]
        for i, index in enumerate(indices):
            if index in indices[:i]:
                raise ValidationError(f"types[{i}].index",
                                      f"repeats index {index}")
        counted = sum(ty.n for ty in self.types)
        if counted != self.total_uavs:
            raise ValidationError(
                "total_uavs",
                f"is {self.total_uavs} but type counts sum to {counted}")
        check_count("total_uavs", self.total_uavs, 1)

    @cached_property
    def eligible(self) -> tuple[UavType, ...]:
        """Types meeting the deadline, by strictly descending marginal cost:
        the solver's canonical index 1..J'.  Equal costs are ordered by
        nudging each down by ``1e-12 * index``; the types are unmodified."""
        chosen = [ty for ty in self.types if ty.t <= self.t_max]
        chosen.sort(key=lambda ty: -(ty.c - _COST_TIE_EPS * ty.index))
        return tuple(chosen)

    @cached_property
    def partial_info(self):
        """The partial-information optimum as (menu, SolverTrace)."""
        from .solver import _solve_partial_info  # solver imports this module
        return _solve_partial_info(self)


@dataclass(frozen=True)
class FeasibilityReport:
    """Outcome of the exhaustive IR/IC/monotonicity check.

    ``ir_violations`` holds (type index, own-item utility) pairs,
    ``ic_violations`` holds (type index, preferred foreign type index, gap)
    triples, and ``ineligible_nonzero`` lists ineligible types whose item is
    not the null contract.  A menu is feasible exactly when all three lists
    are empty and both monotone flags hold.
    """

    ir_violations: tuple = ()
    ic_violations: tuple = ()
    size_monotone: bool = True
    reward_monotone: bool = True
    ineligible_nonzero: tuple = ()

    @property
    def feasible(self) -> bool:
        return (not self.ir_violations and not self.ic_violations
                and self.size_monotone and self.reward_monotone
                and not self.ineligible_nonzero)


def uav_utility(uav_type: UavType, item: ContractItem, t_max: float,
                deployment_cost: float) -> float:
    """Utility a UAV of the given type earns from one contract item.

    Reward minus marginal cost times size minus the deployment cost.  A type
    whose delay exceeds the deadline falls into the zero-payment branch: it
    still pays its costs but the reward is withheld.

    Parameters
    ----------
    uav_type : UavType
        The responding type; only ``c`` and ``t`` are read.
    item : ContractItem
        The (size, reward) pair being evaluated, not necessarily the type's
        own menu item.
    t_max : float
        Delivery deadline in seconds.
    deployment_cost : float
        Fixed cost of operating the honeypot for the task window.
    """
    cost = uav_type.c * item.s + deployment_cost
    if uav_type.t <= t_max:
        return item.r - cost
    return -cost


def gcs_utility(scenario: Scenario, menu: ContractMenu) -> float:
    """GCS satisfaction minus payments, summed over types.

    Each type contributes ``w * (n/t) * ln(1 + s)`` of satisfaction (natural
    log) minus ``n * r`` of payment, with both terms suppressed entirely for
    types missing the deadline.
    """
    total = 0.0
    for ty, item in zip(scenario.types, _items(scenario, menu)):
        if ty.t <= scenario.t_max:
            w = scenario.satisfaction_factor * ty.n / ty.t
            total += w * math.log1p(item.s) - ty.n * item.r
    return total


def _items(scenario: Scenario, menu: ContractMenu) -> tuple[ContractItem, ...]:
    """The menu's items, checked to be one per scenario type."""
    if len(menu.items) != len(scenario.types):
        raise ValueError(f"menu has {len(menu.items)} items for "
                         f"{len(scenario.types)} types")
    return menu.items


def eligible_types(scenario: Scenario) -> list[UavType]:
    """The scenario's eligible order (`Scenario.eligible`) as a new list."""
    return list(scenario.eligible)


def item_for(scenario: Scenario, menu: ContractMenu,
             uav_type: UavType) -> ContractItem:
    """Menu item assigned to the given type (menus are in scenario order)."""
    for ty, item in zip(scenario.types, menu.items):
        if ty.index == uav_type.index:
            return item
    raise KeyError(f"type index {uav_type.index} not in scenario")


def verify_feasibility(scenario: Scenario, menu: ContractMenu,
                       tol: float = FEASIBILITY_TOL) -> FeasibilityReport:
    """Check IR for every eligible type, IC for every ordered pair, and
    monotonicity of sizes and rewards along the descending-cost order.

    Ineligible types are required to hold the null contract (s = r = 0) and
    are otherwise excluded from the IR/IC comparisons.  All utility
    comparisons carry tolerance ``tol`` because the optimal menu makes IR
    and adjacent IC bind with equality.  Items are paired with types once,
    so the check is O(J^2).
    """
    items = _items(scenario, menu)
    offers = {ty.index: (item.s, item.r)
              for ty, item in zip(scenario.types, items)}
    priced = [(ty.index, *offers[ty.index]) for ty in scenario.eligible]
    c0 = scenario.deployment_cost
    ir = []
    ic = []
    for ty, (index, s_own, r_own) in zip(scenario.eligible, priced):
        # uav_utility of an eligible type, with its arithmetic and order
        c = ty.c
        own = r_own - (c * s_own + c0)
        if own < -tol:
            ir.append((index, own))
        bar = own + tol
        for other, s, r in priced:
            if other != index:
                foreign = r - (c * s + c0)
                if foreign > bar:
                    ic.append((index, other, foreign - own))
    sizes = [s for _, s, _ in priced]
    rewards = [r for _, _, r in priced]
    size_mono = all(a <= b + tol for a, b in zip(sizes, sizes[1:]))
    reward_mono = all(a <= b + tol for a, b in zip(rewards, rewards[1:]))
    bad_ineligible = tuple(
        ty.index for ty, item in zip(scenario.types, items)
        if ty.t > scenario.t_max and (item.s != 0.0 or item.r != 0.0))
    return FeasibilityReport(ir_violations=tuple(ir), ic_violations=tuple(ic),
                             size_monotone=size_mono,
                             reward_monotone=reward_mono,
                             ineligible_nonzero=bad_ineligible)


def defensive_effectiveness(scenario: Scenario, menu: ContractMenu) -> float:
    """Aggregate contracted VDD over the GCS demand.

    The numerator weights each eligible type's size by its count, so the
    metric responds to population sweeps.
    """
    total = 0.0
    for ty, item in zip(scenario.types, _items(scenario, menu)):
        if ty.t <= scenario.t_max:
            total += ty.n * item.s
    return total / scenario.vdd_demand
