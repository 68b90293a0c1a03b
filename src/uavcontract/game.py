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
import sys
from dataclasses import dataclass
from functools import cached_property

from .errors import ValidationError, check_count, check_positive

# IC binds with exact equality at the optimum, so feasibility comparisons
# need slack; strict comparisons would flag spurious violations.
FEASIBILITY_TOL = 1e-9

_FLOAT_MAX = sys.float_info.max


@dataclass(frozen=True)
class UavType:
    """One UAV type: costs, delivery delay, and population count.

    The marginal cost ``c`` is the exact sum of the VDD-collection
    component ``c1`` and the privacy-leakage component ``c2``.  It is set
    once at construction, outside the fields, so equality, hash and repr
    see the fields alone and ``dataclasses.replace`` sums it afresh.
    """

    index: int
    c1: float
    c2: float
    t: float
    n: int

    def __post_init__(self):
        # every field at once; the checks below name the first that fails
        c1, c2 = self.c1, self.c2
        c = c1 + c2
        object.__setattr__(self, "c", c)
        if not (self.index >= 1 and 0.0 <= c1 < math.inf
                and 0.0 <= c2 < math.inf and 0.0 < c < math.inf
                and 0.0 < self.t < math.inf and 0 <= self.n <= _FLOAT_MAX):
            self._name_bad_field()

    def _name_bad_field(self):
        if self.index < 1:
            raise ValidationError("index",
                                  f"must be at least 1, got {self.index}")
        check_positive(self, ("c1", "c2"), zero_ok=True)
        if not 0.0 < self.c < math.inf:
            # c is no key of its own: a zero sum is named by c1, which
            # every type gives, and an overflowing one by c2
            raise ValidationError("c2" if self.c2 > 0.0 else "c1",
                                  f"c1 + c2 must be positive and finite, "
                                  f"got {self.c}")
        check_positive(self, ("t",))
        check_count("n", self.n, 0)


@dataclass(frozen=True)
class ContractItem:
    """A single menu entry: VDD size in bytes and its reward.

    Items come from the solvers, so a bad one is a solver fault: it raises
    a plain ValueError.
    """

    s: float
    r: float

    def __post_init__(self):
        if 0.0 <= self.s < math.inf and 0.0 <= self.r < math.inf:
            return
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

    Derived state is kept outside the fields, so equality, hash and repr
    see the fields alone, and a scenario made by ``dataclasses.replace``
    derives its own.  At construction a scenario derives:

    - ``eligible``: the types meeting the deadline, by descending
      marginal cost, equal costs by ascending index; the solver's
      canonical order 1..J'.
    - ``eligible_positions``: ``types[eligible_positions[j]]`` is
      ``eligible[j]``.  A menu's items are in scenario order, so this is
      where the item of the j-th eligible type is read and written.
    - ``weights``: ``weights[j]`` is the GCS weight
      ``satisfaction_factor * n / t`` of ``eligible[j]``, the one place
      it is computed.
    - ``utility_terms``: (position in ``types``, count, weight) of each
      eligible type, in scenario order, the order every utility sum
      keeps.

    The relaxed objective's coefficients and the partial-information
    optimum are derived at first use.
    """

    types: tuple[UavType, ...]
    satisfaction_factor: float
    deployment_cost: float
    s_max: float
    t_max: float
    vdd_demand: float
    total_uavs: int

    def __post_init__(self):
        types = tuple(self.types)
        object.__setattr__(self, "types", types)
        if not types:
            raise ValidationError("types", "needs at least one type")
        # every field at once; the checks below name the first that fails
        t_max, total = self.t_max, self.total_uavs
        if not (0.0 < self.satisfaction_factor < math.inf
                and 0.0 < self.s_max < math.inf and 0.0 < t_max < math.inf
                and 0.0 < self.vdd_demand < math.inf
                and 0.0 <= self.deployment_cost < math.inf
                and len({ty.index for ty in types}) == len(types)
                and sum(ty.n for ty in types) == total
                and 1 <= total <= _FLOAT_MAX):
            self._name_bad_field()
        factor = self.satisfaction_factor
        terms = tuple((k, ty.n, factor * ty.n / ty.t)
                      for k, ty in enumerate(types) if ty.t <= t_max)
        ranked = sorted(terms, key=lambda term: (-types[term[0]].c,
                                                 types[term[0]].index))
        object.__setattr__(self, "utility_terms", terms)
        object.__setattr__(self, "eligible_positions",
                           tuple(k for k, _, _ in ranked))
        object.__setattr__(self, "eligible",
                           tuple(types[k] for k, _, _ in ranked))
        object.__setattr__(self, "weights", tuple(w for _, _, w in ranked))

    def _name_bad_field(self):
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
    def coefficients(self):
        """The relaxed objective's (w, a) along the eligible order."""
        return solver._coefficients(self)

    @cached_property
    def partial_info(self):
        """The partial-information optimum as (menu, SolverTrace)."""
        return solver._solve_partial_info(self)


# the item of every type that misses the deadline
NULL_ITEM = ContractItem(s=0.0, r=0.0)


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

    Each type contributes ``factor * (n/t) * ln(1 + s)`` of satisfaction
    (natural log) minus ``n * r`` of payment, with both terms suppressed
    entirely for types missing the deadline.  The sum walks the eligible
    types in scenario order (`Scenario.utility_terms`).
    """
    items = _items(scenario, menu)
    total = 0.0
    for k, n, w in scenario.utility_terms:
        item = items[k]
        total += w * math.log1p(item.s) - n * item.r
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


def verify_feasibility(scenario: Scenario, menu: ContractMenu,
                       tol: float = FEASIBILITY_TOL) -> FeasibilityReport:
    """Check IR for every eligible type, IC for every ordered pair, and
    monotonicity of sizes and rewards along the descending-cost order.

    Ineligible types are required to hold the null contract (s = r = 0) and
    are otherwise excluded from the IR/IC comparisons.  All utility
    comparisons carry tolerance ``tol`` because the optimal menu makes IR
    and adjacent IC bind with equality.  Each eligible type's item is read
    at its position once, so the check is O(J^2).
    """
    items = _items(scenario, menu)
    eligible = scenario.eligible
    positions = scenario.eligible_positions
    priced = [(ty.index, items[k].s, items[k].r)
              for ty, k in zip(eligible, positions)]
    c0 = scenario.deployment_cost
    ir = []
    ic = []
    size_mono = reward_mono = True
    last_s = last_r = -math.inf     # no bound on the costliest type's item
    for ty, (index, s_own, r_own) in zip(eligible, priced):
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
        if not last_s <= s_own + tol:
            size_mono = False
        if not last_r <= r_own + tol:
            reward_mono = False
        last_s, last_r = s_own, r_own
    bad_ineligible = ()
    if len(positions) < len(items):
        t_max = scenario.t_max
        bad_ineligible = tuple(
            ty.index for ty, item in zip(scenario.types, items)
            if item is not NULL_ITEM and ty.t > t_max
            and (item.s != 0.0 or item.r != 0.0))
    return FeasibilityReport(tuple(ir), tuple(ic), size_mono, reward_mono,
                             bad_ineligible)


def defensive_effectiveness(scenario: Scenario, menu: ContractMenu) -> float:
    """Aggregate contracted VDD over the GCS demand.

    The numerator weights each eligible type's size by its count, so the
    metric responds to population sweeps.
    """
    items = _items(scenario, menu)
    total = 0.0
    for k, n, _ in scenario.utility_terms:
        total += n * items[k].s
    return total / scenario.vdd_demand


# solver imports this module, so it is bound last, once every name solver
# reads from here exists
from . import solver  # noqa: E402
