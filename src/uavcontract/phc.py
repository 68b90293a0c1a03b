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

import math
from collections.abc import Sequence
from dataclasses import dataclass, fields, replace

import numpy as np

from . import _kernels
from .errors import (InsufficientData, ValidationError, check_count,
                     check_positive)
from .game import Scenario
# unused here; kept as a module attribute for perfbench/tracing.py to wrap
from .game import eligible_types  # noqa: F401

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
            check_count(name, getattr(self, name), 0)
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


def _signed_payoffs(reward_grid: np.ndarray, size_grid: np.ndarray,
                    cost: np.ndarray, weight: np.ndarray, count: np.ndarray,
                    c0: float) -> tuple[np.ndarray, np.ndarray]:
    """What a signed item pays the UAV, r - c*s - C0, and the GCS,
    w*log(1+s) - n*r, shape (rows, items) each: one row per entry of the
    per-type ``cost``, ``weight`` and ``count``, and item k at size index
    k // len(reward_grid) and reward index k % len(reward_grid)."""
    rewards = np.tile(reward_grid, size_grid.size)
    sizes = np.repeat(size_grid, reward_grid.size)
    logs = np.repeat([math.log1p(s) for s in size_grid], reward_grid.size)
    return (rewards - cost[:, None] * sizes - c0,
            weight[:, None] * logs - count[:, None] * rewards)


def _check_tables(q: np.ndarray, pi: np.ndarray, visits: np.ndarray,
                  sums: np.ndarray) -> None:
    """Raise ValidationError unless every Q value is finite, every pi entry
    lies in [0, 1] (NaN does not), every pi row sum in ``sums`` is 1 within
    1e-9 and no visit count is negative.

    The arrays are one side of a `Tables` stack; a pi row is the last axis.
    """
    if not np.isfinite(q).all():
        raise ValidationError("q", "values must be finite")
    if not ((pi >= 0.0) & (pi <= 1.0)).all():
        raise ValidationError("pi", "entries must lie in [0, 1]")
    if (np.abs(sums - 1.0) > 1e-9).any():
        raise ValidationError("pi", "rows must sum to 1")
    if (visits < 0).any():
        raise ValidationError("visits", "counts must be non-negative")


@dataclass(frozen=True)
class Tables:
    """Both sides' state-action values ``q``, mixed policies ``pi`` and
    state ``visits``, stacked along a leading row axis: one row per
    (seed, eligible type) of a batch, seeds in order.

    A GCS row has one state and one action per grid item: ``gcs_q`` and
    ``gcs_pi`` have shape (rows, 1, items), ``gcs_visits`` (rows, 1).  A
    UAV row has one state per posted item and two actions, sign and
    decline: (rows, items, 2) and (rows, items).  Each side has its own row
    axis.  ``visits`` counts how often each state has been acted in; it
    drives the exploration schedule.

    Construction checks the shapes, then the values (`check`), raising
    ValidationError naming ``q``, ``pi`` or ``visits``.  `train` takes one
    stack for a whole batch and returns its own checked copy.
    """

    gcs_q: np.ndarray
    gcs_pi: np.ndarray
    gcs_visits: np.ndarray
    uav_q: np.ndarray
    uav_pi: np.ndarray
    uav_visits: np.ndarray

    def __post_init__(self) -> None:
        items = np.shape(self.gcs_q)[-1:]
        # one row's (states, actions), a side's rows counted by its q
        row = {"gcs": (1,) + items, "uav": items + (2,)}
        for f in fields(self):
            side, name = f.name.split("_")
            shape = np.shape(getattr(self, side + "_q"))[:1] + (
                row[side][:1] if name == "visits" else row[side])
            array = np.asarray(getattr(self, f.name), dtype=np.int64
                               if name == "visits" else np.float64)
            if array.shape != shape:
                raise ValidationError(name, f"{side} {name} must have shape "
                                            f"{shape}, got {array.shape}")
            object.__setattr__(self, f.name, array)
        self.check()

    @classmethod
    def cold(cls, rows: int, items: int) -> "Tables":
        """Zero values and visits, uniform policies."""
        return cls(np.zeros((rows, 1, items)),
                   np.full((rows, 1, items), 1.0 / items),
                   np.zeros((rows, 1), dtype=np.int64),
                   np.zeros((rows, items, 2)), np.full((rows, items, 2), 0.5),
                   np.zeros((rows, items), dtype=np.int64))

    def check(self) -> None:
        """Check the values of both sides (`_check_tables`)."""
        _check_tables(self.gcs_q, self.gcs_pi, self.gcs_visits,
                      self.gcs_pi.sum(axis=-1))
        # a UAV row has two entries; their sum has the bits sum() gives
        _check_tables(self.uav_q, self.uav_pi, self.uav_visits,
                      self.uav_pi[..., 0] + self.uav_pi[..., 1])


@dataclass(frozen=True)
class EpisodeLog:
    """What the game decided each slot for every learning type, and what it
    was played on.

    ``item`` and ``signed`` have shape (slots, types); column j belongs to
    the type whose 1-based scenario index is ``type_indices[j]``
    (descending-cost order).  ``item`` is the posted item's index, size
    index * reward grid length + reward index, the UAV's state; ``signed``
    is the UAV's answer, what the GCS observes.  ``uav_payoff`` and
    ``gcs_payoff`` have shape (types, items): what a signed item pays each
    side.  A declined item pays both 0.  Every other trajectory column is
    derived from these.
    """

    type_indices: tuple[int, ...]
    reward_grid: np.ndarray
    size_grid: np.ndarray
    item: np.ndarray
    signed: np.ndarray
    uav_payoff: np.ndarray
    gcs_payoff: np.ndarray

    def __post_init__(self) -> None:
        shape = (len(self.type_indices),
                 self.reward_grid.size * self.size_grid.size)
        if self.item.ndim != 2 or self.item.shape[1] != shape[0]:
            raise ValidationError("item", "must have one column per type")
        if not np.issubdtype(self.item.dtype, np.integer):
            raise ValidationError("item", "must hold integers")
        if self.item.size and not (0 <= self.item.min()
                                   and self.item.max() < shape[1]):
            raise ValidationError("item", f"must lie in [0, {shape[1]})")
        if self.signed.shape != self.item.shape:
            raise ValidationError("signed", "must have the shape of item")
        if self.signed.dtype != bool:
            raise ValidationError("signed", "must hold booleans")
        for name in ("uav_payoff", "gcs_payoff"):
            if getattr(self, name).shape != shape:
                raise ValidationError(name, "must have one row per type "
                                            "and one column per item")

    @property
    def slots(self) -> int:
        return self.item.shape[0]

    @property
    def reward_index(self) -> np.ndarray:
        """Posted reward indices, shape (slots, types)."""
        return self.item % self.reward_grid.size

    @property
    def size_index(self) -> np.ndarray:
        """Posted size indices, shape (slots, types)."""
        return self.item // self.reward_grid.size

    @property
    def rewards(self) -> np.ndarray:
        """Posted reward values, shape (slots, types)."""
        return self.reward_grid[self.reward_index]

    @property
    def sizes(self) -> np.ndarray:
        """Posted size values, shape (slots, types)."""
        return self.size_grid[self.size_index]

    def _paid(self, payoff: np.ndarray) -> np.ndarray:
        at = self.item + np.arange(payoff.shape[0]) * payoff.shape[1]
        return np.where(self.signed, payoff.ravel().take(at), 0.0)

    @property
    def uav_utility(self) -> np.ndarray:
        """The UAV's payoff each slot, shape (slots, types)."""
        return self._paid(self.uav_payoff)

    @property
    def gcs_term(self) -> np.ndarray:
        """The GCS's payoff each slot, shape (slots, types)."""
        return self._paid(self.gcs_payoff)


@dataclass(frozen=True)
class TrainResult:
    """What one `train` call gives: ``logs``, one `EpisodeLog` per seed in
    order, and ``tables``, the batch's final stack, the call's own copy."""

    logs: tuple[EpisodeLog, ...]
    tables: Tables


def _listed(name: str, values, kind: type = object) -> list:
    """``values`` as a list; ValidationError naming ``name`` unless they
    are a non-empty sequence of ``kind``."""
    if (not isinstance(values, Sequence) or not values
            or not all(isinstance(v, kind) for v in values)):
        raise ValidationError(name, "must be a non-empty sequence" + (
            "" if kind is object else f" of {kind.__name__}"))
    return list(values)


def batch_payoffs(families: Sequence[Sequence[Scenario]], params: PhcParams,
                  name: str) -> tuple[np.ndarray, np.ndarray, list, list]:
    """What a batch of seeds trains on: the reward and size grids, the
    bounds of each seed's rows, seed k owning rows ``bounds[k]`` to
    ``bounds[k + 1]``, one per eligible type of its scenarios, and
    ``payoffs[k][m]``, the (UAV, GCS) payoff tables of seed k's member m,
    shape (types, items) each (`_signed_payoffs`).

    ``families`` holds the scenarios each seed may play, one list per
    seed.  ``r_max`` resolves against each seed's first member.  Every
    member must have eligible types, as many as its seed's first member,
    and the action grids and deployment cost of the batch's first
    scenario.  Grids are compared as grids, so a one-point grid ignores
    ``s_max`` and ``r_max`` alike.  A failure raises ValidationError
    naming ``name``.  Then every member's tables are built, once, and
    checked, members and then types in order: ValueError names the first
    eligible type and side whose payoffs are not finite, or whose Q bound,
    the largest |payoff| over 1 - discount that a Q value stays within,
    overflows.
    """
    first = families[0][0]
    top = with_default_r_max(params, first)
    reward_grid, size_grid = action_grids(top, first.s_max)
    bounds = [0]
    for family in families:
        resolved = with_default_r_max(params, family[0])
        count = len(family[0].eligible)
        if not count:
            raise ValidationError(name, "no eligible types to train")
        for sc in family:
            if len(sc.eligible) != count:
                raise ValidationError(name, "eligible type counts differ")
            # the grids are built only where their bounds differ
            if sc.deployment_cost != first.deployment_cost or (
                    (resolved.r_max, sc.s_max) != (top.r_max, first.s_max)
                    and not all(map(np.array_equal,
                                    action_grids(resolved, sc.s_max),
                                    (reward_grid, size_grid)))):
                raise ValidationError(name, "a batch must share action "
                                            "grids and deployment cost")
        bounds.append(bounds[-1] + count)
    payoffs = []
    for family, count in zip(families, np.diff(bounds).tolist()):
        # one row per (member, eligible type), members in order
        types = [ty for sc in family for ty in sc.eligible]
        with np.errstate(over="ignore", invalid="ignore"):
            sides = _signed_payoffs(
                reward_grid, size_grid, np.array([ty.c for ty in types]),
                np.array([w for sc in family for w in sc.weights]),
                np.array([float(ty.n) for ty in types]),
                first.deployment_cost)
            limits = [(np.abs(payoff).max(axis=1) / (1.0 - discount)).tolist()
                      for payoff, discount in zip(
                          sides, (params.discount_uav, params.discount_gcs))]
        finite = [np.isfinite(payoff).all(axis=1).tolist() for payoff in sides]
        for j, ty in enumerate(types):
            for side, ok, limit in zip(("UAV", "GCS"), finite, limits):
                if not ok[j]:
                    raise ValueError(f"phc: type {ty.index}: a {side} "
                                     f"payoff is not finite")
                if not math.isfinite(limit[j]):
                    raise ValueError(f"phc: type {ty.index}: the {side}'s "
                                     f"Q bound overflows to {limit[j]}")
        payoffs.append(list(zip(*(side.reshape(len(family), count, -1)
                                  for side in sides))))
    return reward_grid, size_grid, bounds, payoffs


def train(scenarios: Sequence[Scenario], params: PhcParams, slots: int,
          init: Tables | None,
          rngs: Sequence[np.random.Generator]) -> TrainResult:
    """Run the learning game for ``slots`` slots over all eligible types of
    a batch of seeds.

    ``scenarios`` holds one Scenario per seed and ``rngs`` one generator
    per seed; a single run is a batch of one.  ``init`` is None (every row
    cold: Q zero, pi uniform, no visits) or one `Tables` stack for the
    whole batch, visit counts included: one row per (seed, eligible type),
    seeds in order, on the seeds' action grids.  Every (seed, type) pair is
    a row of one kernel call, and rows share nothing, so each seed's log
    and rows are the ones a batch of that seed alone gives.  The scenarios
    must form a batch with finite payoffs, each a family of one
    (`batch_payoffs`, `hotboot`'s rule), else ValidationError names
    ``scenarios`` or ValueError the type and side, before any slot.

    The tables passed in are copied once and not modified; the copy is
    trained in place on the seeds' payoff tables (`_play`), checked and
    returned.  All randomness comes from the generators: each seed draws
    four uniforms per type and slot, 0-1 for the GCS's item and 2-3 for
    the UAV's answer, in the order of one (slots, types, 4) draw, though
    they are drawn and used `SLOT_BLOCK` slots at a time.  Trajectories
    are therefore reproducible for a given seed regardless of the batch.
    """
    scenarios = _listed("scenarios", scenarios, Scenario)
    rngs = _listed("rngs", rngs, np.random.Generator)
    check_count("slots", slots, 1)
    if len(scenarios) != len(rngs):
        raise ValidationError("rngs", "one generator per scenario")
    if init is not None and not isinstance(init, Tables):
        raise ValidationError("init", "must be Tables or None")
    reward_grid, size_grid, bounds, payoffs = batch_payoffs(
        [[sc] for sc in scenarios], params, "scenarios")
    rows, items = bounds[-1], reward_grid.shape[0] * size_grid.shape[0]
    # the copy's construction checks it
    tables = (Tables.cold(rows, items) if init is None else
              Tables(*(getattr(init, f.name).copy() for f in fields(init))))
    if (tables.gcs_q.shape[0], tables.uav_q.shape[0],
            tables.gcs_q.shape[2]) != (rows, rows, items):
        raise ValidationError("init", f"needs {rows} rows, one per (seed, "
                                      f"eligible type), of {items} items")
    seeds = [family[0] for family in payoffs]
    item, signed = _play(tables, *map(np.concatenate, zip(*seeds)), bounds,
                         params, slots, rngs)
    tables.check()
    return TrainResult(logs=tuple(
        EpisodeLog(type_indices=tuple(ty.index for ty in sc.eligible),
                   reward_grid=reward_grid, size_grid=size_grid,
                   item=item[:, lo:hi], signed=signed[:, lo:hi],
                   uav_payoff=uav_payoff, gcs_payoff=gcs_payoff)
        for sc, (uav_payoff, gcs_payoff), lo, hi in zip(
            scenarios, seeds, bounds, bounds[1:])), tables=tables)


def _play(tables: Tables, uav_payoff: np.ndarray, gcs_payoff: np.ndarray,
          bounds: list[int], params: PhcParams, slots: int,
          rngs: list[np.random.Generator]) -> tuple[np.ndarray, np.ndarray]:
    """Play ``slots`` slots of the learning game on ``tables``, in place,
    on the (rows, items) payoff tables `batch_payoffs` built and checked:
    seed k plays rows ``bounds[k]`` to ``bounds[k + 1]``, drawing from
    ``rngs[k]``.  Returns the posted ``item`` and the answer ``signed``,
    shape (slots, rows).
    """
    rows = bounds[-1]
    item = np.empty((slots, rows), dtype=np.int64)
    signed = np.empty((slots, rows), dtype=bool)
    # the kernel runs a block of slots at a time, so the uniforms it reads
    # stay SLOT_BLOCK slots long; blocks drawn in turn give each seed the
    # numbers one (slots, types, 4) draw would
    for start in range(0, slots, SLOT_BLOCK):
        block = slice(start, min(start + SLOT_BLOCK, slots))
        uniforms = np.empty((block.stop - start, rows, 4))
        for g, lo, hi in zip(rngs, bounds, bounds[1:]):
            uniforms[:, lo:hi] = g.random((block.stop - start, hi - lo, 4))
        _kernels.train_loop(tables.gcs_q, tables.gcs_pi, tables.uav_q,
                            tables.uav_pi, uniforms, uav_payoff, gcs_payoff,
                            params.learning_rate_gcs, params.discount_gcs,
                            params.step_gcs, params.learning_rate_uav,
                            params.discount_uav, params.step_uav,
                            tables.gcs_visits, tables.uav_visits,
                            EXPLORE_VISITS, EXPLORE_FLOOR, item[block],
                            signed[block])
    return item, signed


def perturb_scenario(scenario: Scenario, rng: np.random.Generator,
                     rel_range: float = 0.2) -> Scenario:
    """A similar scenario: costs and counts jittered by +-rel_range.

    Counts round to the nearest integer and never drop below 1; eligibility
    structure (delays, t_max) is untouched so the learning problem keeps
    its shape.  A drawn value that `UavType` or `Scenario` refuses, such
    as a cost or a count jittered past the float range, raises ValueError
    naming the type and the field.
    """
    if not 0.0 <= rel_range < 1.0:
        raise ValidationError("rel_range", "must lie in [0, 1)")
    types = []
    for ty in scenario.types:
        fc1 = 1.0 + rng.uniform(-rel_range, rel_range)
        fc2 = 1.0 + rng.uniform(-rel_range, rel_range)
        n = ty.n * (1.0 + rng.uniform(-rel_range, rel_range))
        # an infinite count cannot be rounded to an int for UavType to check
        if n == math.inf:
            raise ValueError(f"perturb_scenario: type {ty.index}: n: is inf "
                             f"once perturbed")
        try:
            types.append(replace(ty, c1=ty.c1 * fc1, c2=ty.c2 * fc2,
                                 n=max(1, int(round(n)))))
        except ValidationError as exc:
            raise ValueError(f"perturb_scenario: type {ty.index}: "
                             f"{exc}") from None
    try:
        return replace(scenario, types=tuple(types),
                       total_uavs=sum(ty.n for ty in types))
    except ValidationError as exc:
        raise ValueError(f"perturb_scenario: {exc}") from None


def hotboot(families: Sequence[Sequence[Scenario]], episodes: int,
            params: PhcParams, rngs: Sequence[np.random.Generator],
            slots_per_episode: int = 2000) -> Tables:
    """Pre-train tables offline on scenarios drawn from a family per seed.

    ``families`` holds one family, a sequence of scenarios, per seed and
    ``rngs`` one generator per seed.  Each episode every seed picks a
    member of its family at random, and the batch's one stack, cold at
    first, is trained in place on the picks' tables (`_play`), neither
    copied nor checked between episodes.  Zero episodes returns cold
    tables.  Every member is checked, and its tables built, once before
    any training, by the batch rule `train` shares (`batch_payoffs`), so
    action indices keep one meaning across the whole chain; a failure
    raises ValidationError naming ``families``, or ValueError.

    Returns the one `Tables` stack `train` takes for that batch, checked
    once.  Each seed's rows are the ones a batch of its family and
    generator alone gives, the stack a chain of ``episodes`` `train` calls
    gives: each generator draws, per episode, its pick and then that
    episode's uniforms.
    """
    families = [_listed("families", fam, Scenario)
                for fam in _listed("families", families, Sequence)]
    rngs = _listed("rngs", rngs, np.random.Generator)
    if len(families) != len(rngs):
        raise ValidationError("families", "one family per generator")
    check_count("episodes", episodes, 0)
    check_count("slots_per_episode", slots_per_episode, 1)
    reward_grid, size_grid, bounds, payoffs = batch_payoffs(
        families, params, "families")
    tables = Tables.cold(bounds[-1], reward_grid.size * size_grid.size)
    for _ in range(episodes):
        picked = [fam[int(g.integers(0, len(fam)))]
                  for fam, g in zip(payoffs, rngs)]
        _play(tables, *map(np.concatenate, zip(*picked)), bounds, params,
              slots_per_episode, rngs)
    tables.check()
    return tables


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
    size_index, reward_index = np.divmod(log.item[-window:], na)
    for j in range(len(log.type_indices)):
        b_idx, b_share = _modal_share(size_index[:, j], nb)
        a_idx, a_share = _modal_share(reward_index[:, j], na)
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
