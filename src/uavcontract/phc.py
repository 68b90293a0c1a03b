"""Two-tier tabular policy hill climbing over a committed contract game.

The GCS keeps one (Q, pi) pair per eligible type and learns which contract
item to post; each eligible UAV type keeps its own pair and learns which
posted items to sign.  Items are the (size, reward) points of two uniform
grids.

Every slot the GCS commits first: from its single state it posts one item.
The UAV observes the item, which is its state, and signs or declines it.
A signed item is delivered and paid; a declined one is worth 0 to both
sides, so signing is the UAV's better answer exactly when the item leaves
it non-negative surplus, r - c*s - C0 >= 0 (a tie goes to signing, the
first action), the participation condition `game.verify_feasibility`
checks.  Both updates close inside the slot.
Both tiers share one update rule (Bellman step on Q, then a greedy nudge of
pi projected back onto the simplex, Bowling & Veloso's policy hill
climbing), each with its own rate, discount, and step.

Actions are picked from pi "with suitable exploration": uniformly with a
share that falls from 1 to `EXPLORE_FLOOR` over `EXPLORE_VISITS` visits per
item.  The visit counts travel with the tables, so hot-booted tables start
with their exploration already decayed.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Sequence

import numpy as np

from . import _kernels
from .errors import InsufficientData, ValidationError, check_positive
from .game import Scenario, UavType, eligible_types

EXPLORE_VISITS = 30
EXPLORE_FLOOR = 0.01
SLOT_BLOCK = 256


@dataclass(frozen=True)
class PhcParams:
    """Learning constants for both tiers plus the action-grid geometry.

    ``reward_levels`` / ``size_levels`` are the grid subdivision counts, so
    the grids hold levels + 1 points including both endpoints; zero levels
    collapses a grid to the single point 0.  ``r_max`` may be left None and
    resolved against a scenario with `with_default_r_max`.
    """

    learning_rate_gcs: float = 0.7
    learning_rate_uav: float = 0.7
    discount_gcs: float = 0.8
    discount_uav: float = 0.8
    step_gcs: float = 0.01
    step_uav: float = 0.05
    reward_levels: int = 20
    size_levels: int = 20
    r_max: float | None = None

    def __post_init__(self) -> None:
        for name in ("learning_rate_gcs", "learning_rate_uav"):
            v = getattr(self, name)
            if not 0.0 < v <= 1.0:
                raise ValidationError(name, "must lie in (0, 1]")
        for name in ("discount_gcs", "discount_uav"):
            v = getattr(self, name)
            if not 0.0 <= v < 1.0:
                raise ValidationError(name, "must lie in [0, 1)")
        for name in ("step_gcs", "step_uav"):
            v = getattr(self, name)
            if not 0.0 < v < 1.0:
                raise ValidationError(name, "must lie in (0, 1)")
        for name in ("reward_levels", "size_levels"):
            v = getattr(self, name)
            if not isinstance(v, (int, np.integer)) or v < 0:
                raise ValidationError(name, "must be a non-negative integer")
        if self.r_max is not None:
            check_positive(self, ("r_max",))


def default_r_max(scenario: Scenario) -> float:
    """Reward-grid ceiling covering the highest feasible binding reward."""
    top_cost = max(ty.c for ty in scenario.types)
    return 2.0 * (top_cost * scenario.s_max + scenario.deployment_cost)


def with_default_r_max(params: PhcParams, scenario: Scenario) -> PhcParams:
    """Fill in r_max from the scenario when the caller left it open."""
    if params.r_max is not None:
        return params
    return replace(params, r_max=default_r_max(scenario))


def action_grids(params: PhcParams,
                 s_max: float) -> tuple[np.ndarray, np.ndarray]:
    """Uniform reward and size grids, endpoints included."""
    if params.r_max is None:
        raise ValidationError("r_max", "unset; resolve with with_default_r_max")
    reward_grid = np.linspace(0.0, params.r_max, params.reward_levels + 1)
    size_grid = np.linspace(0.0, s_max, params.size_levels + 1)
    return reward_grid, size_grid


def _check_tables(q: np.ndarray, pi: np.ndarray, visits: np.ndarray) -> None:
    """Raise ValidationError unless every Q value is finite, every pi entry
    lies in [0, 1] (NaN does not), every pi row sums to 1 within 1e-9 and
    no visit count is negative.

    The arrays are one table's or a stack of tables; a pi row is the last
    axis.
    """
    if not np.isfinite(q).all():
        raise ValidationError("q", "values must be finite")
    if not ((pi >= 0.0) & (pi <= 1.0)).all():
        raise ValidationError("pi", "entries must lie in [0, 1]")
    if (np.abs(pi.sum(axis=-1) - 1.0) > 1e-9).any():
        raise ValidationError("pi", "rows must sum to 1")
    if (visits < 0).any():
        raise ValidationError("visits", "counts must be non-negative")


@dataclass
class PolicyTables:
    """One agent's state-action value table, mixed policy and state visits.

    ``visits`` counts how often each state has been acted in; it drives
    the exploration schedule and defaults to zero.
    """

    q: np.ndarray
    pi: np.ndarray
    visits: np.ndarray | None = None

    def __post_init__(self) -> None:
        self.q = np.asarray(self.q, dtype=np.float64)
        self.pi = np.asarray(self.pi, dtype=np.float64)
        if self.q.ndim != 2 or self.q.shape != self.pi.shape:
            raise ValidationError("q", "q and pi must be equal-shape 2-D")
        if self.visits is None:
            self.visits = np.zeros(self.q.shape[0], dtype=np.int64)
        self.visits = np.asarray(self.visits, dtype=np.int64)
        if self.visits.shape != self.q.shape[:1]:
            raise ValidationError("visits", "one count per state")
        self.check()

    @classmethod
    def cold(cls, n_states: int, n_actions: int) -> "PolicyTables":
        """Zero values and visits, uniform policy."""
        return cls(q=np.zeros((n_states, n_actions)),
                   pi=np.full((n_states, n_actions), 1.0 / n_actions))

    @classmethod
    def _checked(cls, q: np.ndarray, pi: np.ndarray,
                 visits: np.ndarray) -> "PolicyTables":
        """Tables over arrays that `_check_tables` has already passed."""
        tables = object.__new__(cls)
        tables.q, tables.pi, tables.visits = q, pi, visits
        return tables

    def check(self) -> None:
        _check_tables(self.q, self.pi, self.visits)

    def copy(self) -> "PolicyTables":
        return PolicyTables(q=self.q.copy(), pi=self.pi.copy(),
                            visits=self.visits.copy())


def phc_update(tables: PolicyTables, state: int, action: int, payoff: float,
               next_state: int, rate: float, discount: float,
               step: float) -> PolicyTables:
    """Single in-place learning step; returns the same tables."""
    _kernels.phc_step(tables.q, tables.pi, state, action, float(payoff),
                      next_state, rate, discount, step)
    return tables


def select_action(tables: PolicyTables, state: int,
                  rng: np.random.Generator) -> int:
    """Sample an action index from the state's policy row."""
    return int(_kernels.sample_index(tables.pi[state], rng.random()))


@dataclass(frozen=True)
class EpisodeLog:
    """Per-slot trajectory for every learning type, plus the grids used.

    All arrays have shape (slots, types); column j belongs to the type whose
    1-based scenario index is ``type_indices[j]`` (descending-cost order).
    ``reward_index`` / ``size_index`` give the posted item, ``uav_state``
    its item index (size index * reward grid length + reward index),
    ``gcs_state`` what the GCS observed (1 signed, 0 declined), and the two
    payoffs are 0 on declined slots.
    """

    type_indices: tuple[int, ...]
    reward_grid: np.ndarray
    size_grid: np.ndarray
    reward_index: np.ndarray
    size_index: np.ndarray
    gcs_state: np.ndarray
    uav_state: np.ndarray
    uav_utility: np.ndarray
    gcs_term: np.ndarray

    @property
    def slots(self) -> int:
        return self.reward_index.shape[0]

    @property
    def rewards(self) -> np.ndarray:
        """Posted reward values, shape (slots, types)."""
        return self.reward_grid[self.reward_index]

    @property
    def sizes(self) -> np.ndarray:
        """Posted size values, shape (slots, types)."""
        return self.size_grid[self.size_index]

    @property
    def signed(self) -> np.ndarray:
        """Whether the UAV signed the posted item, shape (slots, types)."""
        return self.gcs_state == 1

    def equals(self, other: "EpisodeLog") -> bool:
        """Bit-exact comparison of two logs."""
        return (self.type_indices == other.type_indices
                and np.array_equal(self.reward_grid, other.reward_grid)
                and np.array_equal(self.size_grid, other.size_grid)
                and np.array_equal(self.reward_index, other.reward_index)
                and np.array_equal(self.size_index, other.size_index)
                and np.array_equal(self.gcs_state, other.gcs_state)
                and np.array_equal(self.uav_state, other.uav_state)
                and np.array_equal(self.uav_utility, other.uav_utility)
                and np.array_equal(self.gcs_term, other.gcs_term))


@dataclass(frozen=True)
class TrainResult:
    """Trajectory log plus the final tables (one pair per learning type)."""

    log: EpisodeLog
    gcs_tables: tuple[PolicyTables, ...]
    uav_tables: tuple[PolicyTables, ...]


InitTables = tuple[Sequence[PolicyTables], Sequence[PolicyTables]]


def cold_tables(params: PhcParams, ntypes: int
                ) -> tuple[tuple[PolicyTables, ...], tuple[PolicyTables, ...]]:
    """Fresh (GCS, UAV) tables for ``ntypes`` learning types.

    A GCS table has one state and one action per grid item; a UAV table
    has one state per posted item and two actions, sign and decline.
    """
    items = (params.reward_levels + 1) * (params.size_levels + 1)
    return (tuple(PolicyTables.cold(1, items) for _ in range(ntypes)),
            tuple(PolicyTables.cold(items, 2) for _ in range(ntypes)))


def train(scenario: Scenario | Sequence[Scenario], params: PhcParams,
          slots: int, init: InitTables | Sequence[InitTables | None] | None,
          rng: np.random.Generator | Sequence[np.random.Generator]
          ) -> TrainResult | list[TrainResult]:
    """Run the learning game for ``slots`` slots over all eligible types.

    One run: ``rng`` is a Generator and ``init`` carries (GCS tables, UAV
    tables) from a previous run, one pair per eligible type, visit counts
    included; None starts cold (Q zero, pi uniform, no visits).  Returns a
    TrainResult.

    Batch form: ``rng`` is a sequence of generators, one per seed;
    ``scenario`` is one Scenario for every seed or a sequence with one per
    seed, and ``init`` is None (every seed cold) or a sequence with one
    entry, tables or None, per seed.  Returns a list with one TrainResult
    per seed, the one a one-run call with that seed's arguments gives:
    every (seed, type) pair is a row of one kernel call, and rows share
    nothing.  The seeds' scenarios must give the same action grids and
    deployment cost.  A one-run call is a batch of one.

    The tables passed in are not modified.  All randomness comes from the
    generators: each seed draws four uniforms per type and slot, 0-1 for
    the GCS's item and 2-3 for the UAV's answer, in the order of one
    (slots, types, 4) draw, though they are drawn and used `SLOT_BLOCK`
    slots at a time.  Trajectories are therefore reproducible for a given
    seed regardless of the batch.
    """
    single = isinstance(rng, np.random.Generator)
    if single:
        scenario, init, rng = [scenario], [init], [rng]
    rngs = list(rng)
    scenarios = (len(rngs) * [scenario] if isinstance(scenario, Scenario)
                 else list(scenario))
    inits = len(rngs) * [None] if init is None else list(init)
    if slots < 1:
        raise ValidationError("slots", "must be at least 1")
    if not rngs or not len(scenarios) == len(inits) == len(rngs):
        raise ValidationError("rng", "one scenario and init per generator")
    orders, gcs_tables, uav_tables = [], [], []
    for k, (sc, tables) in enumerate(zip(scenarios, inits)):
        resolved = with_default_r_max(params, sc)
        order = eligible_types(sc)
        if not order:
            raise ValidationError("scenario", "no eligible types to train")
        grids = action_grids(resolved, sc.s_max)
        if k == 0:
            reward_grid, size_grid = grids
        elif not (np.array_equal(grids[0], reward_grid)
                  and np.array_equal(grids[1], size_grid)
                  and sc.deployment_cost == scenarios[0].deployment_cost):
            raise ValidationError(
                "scenario", "a batch must share action grids and "
                            "deployment cost")
        gcs_init, uav_init = (tables if tables is not None
                              else cold_tables(resolved, len(order)))
        if len(gcs_init) != len(order) or len(uav_init) != len(order):
            raise ValidationError("init", "one table pair per eligible type")
        orders.append(order)
        gcs_tables.extend(gcs_init)
        uav_tables.extend(uav_init)
    items = reward_grid.shape[0] * size_grid.shape[0]
    if ({t.q.shape for t in gcs_tables} != {(1, items)}
            or {t.q.shape for t in uav_tables} != {(items, 2)}):
        raise ValidationError("init", "table shapes do not match grids")
    q_g = np.stack([t.q for t in gcs_tables])
    pi_g = np.stack([t.pi for t in gcs_tables])
    visits_g = np.stack([t.visits for t in gcs_tables])
    q_u = np.stack([t.q for t in uav_tables])
    pi_u = np.stack([t.pi for t in uav_tables])
    visits_u = np.stack([t.visits for t in uav_tables])
    # one check over each stack, at entry and on what the kernel leaves
    _check_tables(q_g, pi_g, visits_g)
    _check_tables(q_u, pi_u, visits_u)
    rows = len(gcs_tables)
    bounds = np.cumsum([0] + [len(order) for order in orders]).tolist()
    types = [ty for order in orders for ty in order]
    cost = np.array([ty.c for ty in types])
    weight = np.array([sc.satisfaction_factor * ty.n / ty.t
                       for sc, order in zip(scenarios, orders)
                       for ty in order])
    count = np.array([float(ty.n) for ty in types])
    reward_index = np.zeros((slots, rows), dtype=np.int64)
    size_index = np.zeros((slots, rows), dtype=np.int64)
    gcs_state = np.zeros((slots, rows), dtype=np.int64)
    uav_state = np.zeros((slots, rows), dtype=np.int64)
    uav_utility = np.zeros((slots, rows))
    gcs_term = np.zeros((slots, rows))
    # the kernel runs a block of slots at a time, so the uniforms it reads
    # stay SLOT_BLOCK slots long; blocks drawn in turn give each seed the
    # numbers one (slots, types, 4) draw would
    for start in range(0, slots, SLOT_BLOCK):
        block = slice(start, min(start + SLOT_BLOCK, slots))
        uniforms = np.empty((block.stop - start, rows, 4))
        for g, lo, hi in zip(rngs, bounds, bounds[1:]):
            uniforms[:, lo:hi] = g.random((block.stop - start, hi - lo, 4))
        _kernels.train_loop(q_g, pi_g, q_u, pi_u, uniforms, reward_grid,
                            size_grid, cost, weight, count,
                            scenarios[0].deployment_cost,
                            params.learning_rate_gcs, params.discount_gcs,
                            params.step_gcs, params.learning_rate_uav,
                            params.discount_uav, params.step_uav,
                            visits_g, visits_u, EXPLORE_VISITS,
                            EXPLORE_FLOOR, reward_index[block],
                            size_index[block], gcs_state[block],
                            uav_state[block], uav_utility[block],
                            gcs_term[block])
    _check_tables(q_g, pi_g, visits_g)
    _check_tables(q_u, pi_u, visits_u)
    results = []
    for order, lo, hi in zip(orders, bounds, bounds[1:]):
        log = EpisodeLog(type_indices=tuple(ty.index for ty in order),
                         reward_grid=reward_grid, size_grid=size_grid,
                         reward_index=reward_index[:, lo:hi],
                         size_index=size_index[:, lo:hi],
                         gcs_state=gcs_state[:, lo:hi],
                         uav_state=uav_state[:, lo:hi],
                         uav_utility=uav_utility[:, lo:hi],
                         gcs_term=gcs_term[:, lo:hi])
        results.append(TrainResult(
            log=log,
            gcs_tables=tuple(PolicyTables._checked(q_g[i], pi_g[i],
                                                   visits_g[i])
                             for i in range(lo, hi)),
            uav_tables=tuple(PolicyTables._checked(q_u[i], pi_u[i],
                                                   visits_u[i])
                             for i in range(lo, hi))))
    return results[0] if single else results


def perturb_scenario(scenario: Scenario, rng: np.random.Generator,
                     rel_range: float = 0.2) -> Scenario:
    """A similar scenario: costs and counts jittered by +-rel_range.

    Counts round to the nearest integer and never drop below 1; eligibility
    structure (delays, t_max) is untouched so the learning problem keeps
    its shape.
    """
    if not 0.0 <= rel_range < 1.0:
        raise ValidationError("rel_range", "must lie in [0, 1)")
    new_types = []
    for ty in scenario.types:
        fc1 = 1.0 + rng.uniform(-rel_range, rel_range)
        fc2 = 1.0 + rng.uniform(-rel_range, rel_range)
        fn = 1.0 + rng.uniform(-rel_range, rel_range)
        n = max(1, int(round(ty.n * fn)))
        new_types.append(UavType(index=ty.index, c1=ty.c1 * fc1,
                                 c2=ty.c2 * fc2, t=ty.t, n=n))
    return Scenario(types=tuple(new_types),
                    satisfaction_factor=scenario.satisfaction_factor,
                    deployment_cost=scenario.deployment_cost,
                    s_max=scenario.s_max, t_max=scenario.t_max,
                    vdd_demand=scenario.vdd_demand,
                    total_uavs=sum(t.n for t in new_types))


def hotboot(family: Sequence[Scenario] | Sequence[Sequence[Scenario]],
            episodes: int, params: PhcParams,
            rng: np.random.Generator | Sequence[np.random.Generator],
            slots_per_episode: int = 2000
            ) -> InitTables | list[InitTables]:
    """Pre-train tables offline on scenarios drawn from a family.

    Each episode picks a family member at random and continues training the
    same tables on it.  Zero episodes returns cold tables.  Grids are fixed
    from the first family member so action indices keep one meaning across
    the whole chain; every member must expose the same eligible type count.
    One run (``rng`` a Generator) returns the (GCS tables, UAV tables) pair.

    Batch form: ``rng`` is a sequence of generators, one per seed, and
    ``family`` a sequence with one family per seed; every episode trains
    all seeds in one `train` call.  Returns one table pair per seed, the
    one a one-run call with that seed's family and generator gives: each
    generator draws, per episode, its pick and then that episode's
    uniforms.  The families must resolve to the same grids.
    """
    single = isinstance(rng, np.random.Generator)
    families, rngs = ([family], [rng]) if single else (list(family),
                                                       list(rng))
    if not rngs or len(families) != len(rngs):
        raise ValidationError("family", "one family per generator")
    if not all(families):
        raise ValidationError("family", "must contain at least one scenario")
    if episodes < 0:
        raise ValidationError("episodes", "must be non-negative")
    resolved = [with_default_r_max(params, fam[0]) for fam in families]
    params = resolved[0]
    if any(p.r_max != params.r_max for p in resolved):
        raise ValidationError("family", "families must share the reward grid")
    counts = [len(eligible_types(fam[0])) for fam in families]
    tables = [cold_tables(params, j) for j in counts]
    for _ in range(episodes):
        picked = []
        for fam, g, j in zip(families, rngs, counts):
            scenario = fam[int(g.integers(0, len(fam)))]
            if len(eligible_types(scenario)) != j:
                raise ValidationError("family", "eligible type counts differ")
            picked.append(scenario)
        tables = [(r.gcs_tables, r.uav_tables) for r in
                  train(picked, params, slots_per_episode, tables, rngs)]
    return tables[0] if single else tables


@dataclass(frozen=True)
class TypeConvergence:
    """Convergence verdict and modal actions for one learning type."""

    converged: bool
    size: float
    reward: float
    size_index: int
    reward_index: int


def _modal_share(column: np.ndarray, n_actions: int) -> tuple[int, float]:
    counts = np.bincount(column, minlength=n_actions)
    idx = int(np.argmax(counts))
    return idx, counts[idx] / column.shape[0]


def convergence_check(log: EpisodeLog, window: int,
                      tolerance: float = 0.95) -> list[TypeConvergence]:
    """Trailing-window modal stability test, one verdict per type.

    A type has converged when a single size action and a single reward
    action each hold at least ``tolerance`` of the last ``window`` slots.
    """
    if window < 1 or window > log.slots:
        raise InsufficientData(
            f"window {window} outside log length {log.slots}")
    out = []
    nb = log.size_grid.shape[0]
    na = log.reward_grid.shape[0]
    for j in range(len(log.type_indices)):
        b_idx, b_share = _modal_share(log.size_index[-window:, j], nb)
        a_idx, a_share = _modal_share(log.reward_index[-window:, j], na)
        out.append(TypeConvergence(
            converged=bool(b_share >= tolerance and a_share >= tolerance),
            size=float(log.size_grid[b_idx]),
            reward=float(log.reward_grid[a_idx]),
            size_index=b_idx, reward_index=a_idx))
    return out


def convergence_slot(log: EpisodeLog, window: int,
                     tolerance: float = 0.95) -> float:
    """Earliest slot count at which every type passes the window test.

    Returns the smallest m >= window such that the window ending at slot m
    is converged for all types simultaneously, or ``inf`` if the log never
    reaches that point.
    """
    if window < 1 or window > log.slots:
        raise InsufficientData(
            f"window {window} outside log length {log.slots}")
    slots = log.slots
    ok = np.ones(slots - window + 1, dtype=bool)
    running = np.zeros(slots + 1, dtype=np.int64)
    for column, n_actions in ((log.size_index, log.size_grid.shape[0]),
                              (log.reward_index, log.reward_grid.shape[0])):
        for j in range(len(log.type_indices)):
            held = np.zeros_like(ok)
            counts = np.bincount(column[:, j], minlength=n_actions)
            # a window holds an action at most as often as the whole log,
            # so an action below the tolerance there passes no window
            for action in np.flatnonzero(counts / window >= tolerance):
                np.cumsum(column[:, j] == action, out=running[1:])
                win = running[window:] - running[:-window]
                held |= win / window >= tolerance
            ok &= held
    hits = np.flatnonzero(ok)
    if hits.size == 0:
        return float("inf")
    return float(hits[0] + window)
