"""Optimal contract menus and baselines.

The partial-information optimum follows the reduced problem: rewards are
pinned to the sizes by the binding IR/IC structure, the per-type relaxed
objective is strictly concave with a closed-form maximizer, and a violated
monotonicity constraint is repaired by bunching adjacent types into pools
that share the pooled maximizer.  Baselines: complete-information menu,
linear pricing with UAV best response, and the uniform single-item menu.
An exact grid oracle, a dynamic program over eligible positions,
validates the closed form for any number of types.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from functools import reduce
from itertools import accumulate

import numpy as np

from .errors import ValidationError
from .game import (NULL_ITEM, ContractItem, ContractMenu, Scenario, _items,
                   uav_utility)
# unused here; kept as a module attribute for perfbench/tracing.py to wrap
from .game import eligible_types  # noqa: F401


@dataclass(frozen=True)
class SolverTrace:
    """Intermediate solver state kept for reporting and tests.

    ``eligible_order`` lists type indices in descending-cost order,
    ``unconstrained_sizes`` the relaxed per-type maximizers before
    monotonicity repair, and ``pools`` the index ranges (start, end)
    inclusive over eligible positions that were merged during ironing.
    """

    eligible_order: tuple[int, ...]
    unconstrained_sizes: tuple[float, ...]
    pools: tuple[tuple[int, int], ...]


def _coefficients(scenario: Scenario):
    """Per eligible position: satisfaction weight w_j and the linear cost
    coefficient a_j of the relaxed objective, as two tuples.

    a_j couples type j's own payment to the information rents it creates for
    every cheaper type below it in the order; for the last type it reduces
    to the plain cost times count.  The count suffix sums are exact
    integers.  Derived once per scenario, as `Scenario.coefficients`.
    """
    order = scenario.eligible
    suffix = list(accumulate(ty.n for ty in reversed(order)))[::-1]
    suffix.append(0)
    a = []
    for pos, ty in enumerate(order):
        next_c = order[pos + 1].c if pos + 1 < len(order) else 0.0
        a.append(ty.c * suffix[pos] - next_c * suffix[pos + 1])
    return scenario.weights, tuple(a)


def _maximizer(scenario: Scenario, w: float, a: float) -> float:
    """Maximizer of w*ln(1+s) - a*s over [0, s_max].

    The stationary point is w/a - 1.  A non-positive a (possible only for
    degenerate inputs such as zero-count types tied in cost) makes the
    objective non-decreasing, so the boundary s_max is the maximizer.
    """
    if a <= 0.0:
        return scenario.s_max
    return min(max(w / a - 1.0, 0.0), scenario.s_max)


def _relaxed_sizes(scenario: Scenario, w, a) -> list[float]:
    """Relaxed per-position size maximizers, clamped to [0, s_max]."""
    if not w:
        raise ValueError("no eligible types: every delay exceeds t_max")
    return [_maximizer(scenario, wj, aj) for wj, aj in zip(w, a)]


def _left_sum(values) -> float:
    """The float sum of ``values`` added left to right from 0.0: the bits
    the builtin `sum` gives before Python 3.12, which compensates it."""
    return reduce(operator.add, values, 0.0)


def _iron_trace(scenario: Scenario, w, a, sizes: list[float]):
    """Closest non-decreasing repair of the relaxed sizes, and the pools
    (start, end) it merged; monotone sizes come back unchanged."""
    if len(sizes) != len(w):
        raise ValueError(f"{len(sizes)} sizes for {len(w)} eligible types")
    # a stack of (start, end, shared value) pools over eligible positions:
    # each size merges with the pools it undercuts, nearest first
    pools = []
    for end, value in enumerate(sizes):
        start = end
        while pools and pools[-1][2] > value + 0.0:
            start = pools.pop()[0]
            value = _maximizer(scenario, _left_sum(w[start:end + 1]),
                               _left_sum(a[start:end + 1]))
        pools.append((start, end, value))
    ironed = [value for start, end, value in pools
              for _ in range(start, end + 1)]
    return ironed, tuple((start, end) for start, end, _ in pools
                         if end > start)


def optimal_rewards(scenario: Scenario, sizes: list[float]) -> list[float]:
    """Rewards that make IR bind for the costliest type and each adjacent
    downward IC bind with equality, given non-decreasing sizes."""
    order = scenario.eligible
    if len(sizes) != len(order):
        raise ValueError(f"{len(sizes)} sizes for {len(order)} eligible types")
    rewards = []
    rent = 0.0
    for pos, ty in enumerate(order):
        rewards.append(ty.c * sizes[pos] + rent + scenario.deployment_cost)
        next_c = order[pos + 1].c if pos + 1 < len(order) else 0.0
        rent += (ty.c - next_c) * sizes[pos]
    return rewards


def _assemble_menu(scenario: Scenario, sizes: list[float],
                   rewards: list[float]) -> ContractMenu:
    """Menu in scenario order from sizes and rewards in eligible order,
    each written at its eligible position; ineligible types get the null
    item."""
    items = [NULL_ITEM] * len(scenario.types)
    for k, s, r in zip(scenario.eligible_positions, sizes, rewards):
        items[k] = ContractItem(s, r)
    return ContractMenu(t_max=scenario.t_max, items=tuple(items))


def solve_partial_info(scenario: Scenario) -> tuple[ContractMenu, SolverTrace]:
    """Optimal menu when the GCS knows type counts but not identities.

    Solved once per scenario (`Scenario.partial_info`): every call on the
    same scenario returns the same menu and trace.
    """
    return scenario.partial_info


def _solve_partial_info(scenario: Scenario):
    order = scenario.eligible
    w, a = scenario.coefficients
    unconstrained = _relaxed_sizes(scenario, w, a)
    sizes, pools = _iron_trace(scenario, w, a, unconstrained)
    rewards = optimal_rewards(scenario, sizes)
    menu = _assemble_menu(scenario, sizes, rewards)
    trace = SolverTrace(eligible_order=tuple(ty.index for ty in order),
                        unconstrained_sizes=tuple(unconstrained),
                        pools=pools)
    return menu, trace


def solve_complete_info(scenario: Scenario) -> ContractMenu:
    """Optimal menu when the GCS can identify each UAV's type.

    Only IR binds: every type's size is its first-best maximizer and the
    reward repays exactly cost plus deployment, leaving zero utility.
    """
    sizes = []
    rewards = []
    for ty in scenario.eligible:
        s = scenario.satisfaction_factor / (ty.t * ty.c) - 1.0
        s = min(max(s, 0.0), scenario.s_max)
        sizes.append(s)
        rewards.append(ty.c * s + scenario.deployment_cost)
    return _assemble_menu(scenario, sizes, rewards)


def linear_contract(scenario: Scenario, unit_price: float) -> ContractMenu:
    """Per-byte pricing with each UAV best-responding.

    A type cheaper than the unit price sells everything, a costlier one
    sells nothing, and exact indifference resolves to nothing because any
    trade at cost still leaves the deployment cost unrecovered.
    """
    if unit_price <= 0:
        raise ValueError(f"unit_price must be positive, got {unit_price}")
    sizes = [scenario.s_max if ty.c < unit_price else 0.0
             for ty in scenario.eligible]
    rewards = [unit_price * s + scenario.deployment_cost for s in sizes]
    return _assemble_menu(scenario, sizes, rewards)


def uniform_contract(scenario: Scenario) -> ContractMenu:
    """Single-item menu: everyone gets the costliest eligible type's
    partial-information item, read from the scenario's solved menu."""
    menu, _ = scenario.partial_info
    first = menu.items[scenario.eligible_positions[0]]
    count = len(scenario.eligible)
    return _assemble_menu(scenario, [first.s] * count, [first.r] * count)


# the most points a size grid may hold: each value row the oracle keeps
# is 8 bytes a point, so 80 MB a position at the cap
MAX_GRID_POINTS = 10 ** 7


def _size_grid(s_max: float, step: float) -> np.ndarray:
    """Multiples of step capped at s_max, with s_max itself always last.

    Raises ValidationError naming ``grid_oracle``, before anything is
    allocated, for a step that is not positive and finite or whose grid
    could hold more than MAX_GRID_POINTS points.
    """
    if not 0.0 < step < math.inf:
        raise ValidationError("grid_oracle",
                              f"must be positive and finite, got {step}")
    # tolerate float wobble when s_max is an exact multiple of step
    span = s_max / step * (1.0 + 1e-12) + 1e-12
    # the grid holds floor(span) + 1 multiples, then maybe s_max; a span
    # that overflows to inf fails the test too
    if not span < MAX_GRID_POINTS - 1:
        raise ValidationError(
            "grid_oracle", f"step {step} is too fine: [0, {s_max}] would "
                           f"take about {span:.3g} grid points, and at most "
                           f"{MAX_GRID_POINTS} are allowed")
    n_steps = int(math.floor(span))
    grid = np.arange(n_steps + 1, dtype=float)
    grid *= step
    if grid[-1] > s_max:
        grid[-1] = s_max
    elif s_max - grid[-1] > 1e-9 * step:
        grid = np.append(grid, s_max)
    else:
        grid[-1] = s_max
    return grid


def brute_force_oracle(scenario: Scenario, grid_step: float) -> ContractMenu:
    """Exact grid oracle for any number of eligible types.

    Finds the GCS-utility argmax over every non-decreasing size tuple on
    the grid, each priced with the binding reward structure, and breaks
    ties toward the lexicographically first tuple.  Telescoping those
    rewards splits the objective by position into sum_j f_j(s_j), with

        f_j(s) = w_j*log1p(s) - n_j*(c_j*s + C0)
                 - (c_j - c_{j+1})*s*(n_{j+1} + ... + n_J),

    so a dynamic program over positions replaces the enumeration of all
    C(M+J-1, J) tuples of an M-point grid with O(J*M) work.  Only the
    passes a pick or the NaN test reads are made: the last position has
    no later positions, so its later-rent term and its suffix bonus are
    zero and are skipped, and the first position's row is picked from
    directly, with no suffix maximum.  Raises ValueError naming the
    eligible position whose objective overflows to NaN somewhere on the
    grid, or whose cost times s_max overflows, as the skipped zero times
    that infinite term would.
    """
    order = scenario.eligible
    if not order:
        raise ValueError("no eligible types: every delay exceeds t_max")
    grid = _size_grid(scenario.s_max, grid_step)
    w, _ = scenario.coefficients
    logs = np.log1p(grid)
    c0 = scenario.deployment_cost
    last = len(order) - 1
    # backward over positions: values[j][m] is f_j(grid[m]) plus the best
    # sum over positions after j with sizes at least grid[m], and best the
    # suffix maximum of the last row, best[m] = max(values[j][m:])
    values = np.empty((len(order), grid.shape[0]))
    term = np.empty_like(grid)
    best = np.empty_like(grid)
    later_n = 0.0
    with np.errstate(invalid="ignore"):
        for pos in reversed(range(len(order))):
            ty = order[pos]
            n = float(ty.n)
            # w*log1p(s) - n*(c*s + C0) - later_n*((c - next_c)*s) + best,
            # operation by operation
            value = np.multiply(logs, w[pos], out=values[pos])
            np.multiply(grid, ty.c, out=term)
            np.add(term, c0, out=term)
            np.multiply(term, n, out=term)
            np.subtract(value, term, out=value)
            if pos < last:
                np.multiply(grid, ty.c - order[pos + 1].c, out=term)
                np.multiply(term, later_n, out=term)
                np.subtract(value, term, out=value)
                np.add(value, best, out=value)
            elif math.isinf(ty.c * scenario.s_max):
                # the skipped rent term, 0.0 * (c*s), is NaN where c*s
                # overflows; c*s_max is the row's largest product
                raise _overflow_error(pos, ty)
            if pos > 0:
                np.maximum.accumulate(value[::-1], out=best[::-1])
                # the running max is NaN once any term is: an overflow
                # to inf - inf leaves nothing to rank.  An infinite term
                # still ranks, and the output guard refuses the utility
                # it gives.
                if math.isnan(best[0]):
                    raise _overflow_error(pos, ty)
            later_n += n
    # forward: each size is the first best index at or above the last,
    # the first maximum of the rest of its row.  argmax takes the first
    # NaN as the maximum, so the first row's NaN test is on its pick.
    m = int(values[0].argmax())
    if math.isnan(values[0, m]):
        raise _overflow_error(0, order[0])
    sizes = [float(grid[m])]
    for value in values[1:]:
        m += int(value[m:].argmax())
        sizes.append(float(grid[m]))
    rewards = optimal_rewards(scenario, sizes)
    return _assemble_menu(scenario, sizes, rewards)


def _overflow_error(pos: int, ty) -> ValueError:
    return ValueError(f"grid oracle: eligible position {pos + 1} (type "
                      f"{ty.index}) has an objective term that overflows "
                      f"to nan")


def oracle_resolution_bound(scenario: Scenario, grid_step: float) -> float:
    """Upper bound on the closed-form-minus-oracle utility gap.

    Rounding every optimal size to its nearest grid point keeps the tuple
    non-decreasing and moves each size by at most one step, so the utility
    drops by at most the sum of the per-size Lipschitz constants times the
    step: w_j bounds the log term's slope and a_j the payment side's.
    """
    w, a = scenario.coefficients
    return grid_step * (_left_sum(w) + _left_sum(map(abs, a)))


def menu_utilities(scenario: Scenario, menu: ContractMenu) -> list[float]:
    """Own-item utility per scenario type, in scenario order.

    Raises ValueError unless the menu has one item per scenario type.
    """
    return [uav_utility(ty, item, scenario.t_max, scenario.deployment_cost)
            for ty, item in zip(scenario.types, _items(scenario, menu))]
