"""Experiment configuration: a YAML key tree parsed into typed settings.

The schema is documented field by field in the README.  Parsing is strict:
unknown keys, missing keys and wrong types or shapes raise ValidationError
naming the offending field, while malformed YAML raises ParseError with
the line and column when the parser can point at one.  Value invariants
(ranges, finiteness, sums) live in the dataclasses the keys map onto; this
module re-raises their errors under the YAML path of the field.
"""

from __future__ import annotations

from dataclasses import dataclass, fields as dataclass_fields
from pathlib import Path

import yaml

from .environment import ChannelParams, derived_delay
from .errors import (ParseError, ValidationError, ZeroCapacity,
                     check_count, check_positive)
from .game import Scenario, UavType
from .phc import PhcParams

MODES = ("solve", "compare", "sweep-cost", "sweep-population", "phc")

_MAX_SEED = 2 ** 64


@dataclass(frozen=True)
class PhcRun:
    """Run-level learning knobs (horizon, hotbooting, convergence window)."""

    slots: int = 20000
    hotboot_episodes: int = 0
    family_size: int = 8
    slots_per_episode: int = 2000
    perturbation: float = 0.2
    window: int = 500
    tolerance: float = 0.95

    def __post_init__(self) -> None:
        for name, minimum in (("slots", 1), ("hotboot_episodes", 0),
                              ("family_size", 1), ("slots_per_episode", 1),
                              ("window", 1)):
            check_count(name, getattr(self, name), minimum)
        if not 0.0 <= self.perturbation < 1.0:
            raise ValidationError("perturbation", "must lie in [0, 1)")
        if self.window > self.slots:
            raise ValidationError("window", "must lie in [1, slots]")
        if not 0.0 < self.tolerance <= 1.0:
            raise ValidationError("tolerance", "must lie in (0, 1]")


@dataclass(frozen=True)
class ExperimentConfig:
    """Everything one run needs: scenario, mode, seeds, and mode blocks.

    Its errors name the YAML path of the field, as CLI overrides need.
    """

    mode: str
    scenario: Scenario
    seeds: tuple[int, ...] = ()
    output_dir: str = "out"
    channel: ChannelParams = ChannelParams()
    phc: PhcParams | None = None
    phc_run: PhcRun | None = None
    grid_oracle: float | None = None
    linear_price: float | None = None
    populations: tuple[int, ...] = (2, 4, 6, 8, 10)
    cost_points: int = 25

    def __post_init__(self) -> None:
        if self.mode not in MODES:
            raise ValidationError("mode", f"must be one of {MODES}")
        if self.mode == "phc":
            if self.phc is None or self.phc_run is None:
                raise ValidationError("phc", "phc mode requires a phc block")
            if not self.seeds:
                raise ValidationError("seeds",
                                      "phc mode requires at least one seed")
        for i, seed in enumerate(self.seeds):
            check_count(f"seeds[{i}]", seed, 0)
            if seed >= _MAX_SEED:
                raise ValidationError(f"seeds[{i}]",
                                      f"must lie in [0, 2**64), got {seed}")
            # a seed's files are named by it, so a repeat would write them
            # twice, and in two processes at once
            if seed in self.seeds[:i]:
                raise ValidationError(f"seeds[{i}]",
                                      f"repeats seed {seed}")
        check_positive(self, [name for name in ("grid_oracle", "linear_price")
                              if getattr(self, name) is not None])
        if not self.populations:
            raise ValidationError("sweep.populations", "must be non-empty")
        for i, population in enumerate(self.populations):
            check_count(f"sweep.populations[{i}]", population, 1)
            # a repeat would write its population's rows twice
            if population in self.populations[:i]:
                raise ValidationError(f"sweep.populations[{i}]",
                                      f"repeats population {population}")
        check_count("sweep.cost_points", self.cost_points, 2)


def _require_mapping(obj, field: str) -> dict:
    if not isinstance(obj, dict):
        raise ValidationError(field, "must be a mapping")
    return obj


def _reject_unknown(block: dict, allowed, field: str) -> None:
    for key in block:
        if key not in allowed:
            raise ValidationError(f"{field}.{key}", "unknown field")


def _as_float(value, field: str) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ValidationError(field, "must be a number")
    try:
        return float(value)
    except OverflowError:
        raise ValidationError(field, "is too large for a float") from None


def _as_int(value, field: str) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise ValidationError(field, "must be an integer")
    return value


def _as_int_list(value, field: str) -> tuple[int, ...]:
    if not isinstance(value, list):
        raise ValidationError(field, "must be a list of integers")
    return tuple(_as_int(v, f"{field}[{i}]") for i, v in enumerate(value))


def _build(path: str, make, **kwargs):
    """Construct a domain object, re-raising its ValidationError under the
    YAML path of the block it came from."""
    try:
        return make(**kwargs)
    except ValidationError as exc:
        raise ValidationError(f"{path}.{exc.field}", exc.message) from exc


def _position_delay(pos, field: str, channel: ChannelParams,
                    reference_bytes: float | None) -> float:
    if not isinstance(pos, (list, tuple)) or len(pos) != 3:
        raise ValidationError(field, "must be a 3-vector of numbers")
    uav_pos = tuple(_as_float(x, field) for x in pos)
    if reference_bytes is None:
        raise ValidationError(
            "scenario.reference_bytes",
            "required when any type derives its delay from a position")
    try:
        return derived_delay(reference_bytes, uav_pos,
                             (0.0, 0.0, channel.gcs_height), channel)
    except ValidationError as exc:
        # the reference volume is a scenario key, not a type key
        raise ValidationError(f"scenario.{exc.field}", exc.message) from exc
    except (ValueError, ArithmeticError, ZeroCapacity) as exc:
        raise ValidationError(field, str(exc)) from exc


def _parse_type(block, position: int, channel: ChannelParams,
                reference_bytes: float | None) -> UavType:
    field = f"scenario.types[{position}]"
    block = _require_mapping(block, field)
    _reject_unknown(block, ("index", "c1", "c2", "t", "n", "position"), field)
    if "c1" not in block or "n" not in block:
        raise ValidationError(field, "needs c1 and n")
    if ("t" in block) == ("position" in block):
        raise ValidationError(field, "give exactly one of t or position")
    t = (_as_float(block["t"], f"{field}.t") if "t" in block
         else _position_delay(block["position"], f"{field}.position",
                              channel, reference_bytes))
    return _build(field, UavType,
                  index=_as_int(block.get("index", position + 1),
                                f"{field}.index"),
                  c1=_as_float(block["c1"], f"{field}.c1"),
                  c2=_as_float(block.get("c2", 0.0), f"{field}.c2"),
                  t=t, n=_as_int(block["n"], f"{field}.n"))


def _parse_scenario(block, channel: ChannelParams) -> Scenario:
    block = _require_mapping(block, "scenario")
    allowed = ("satisfaction_factor", "deployment_cost", "s_max", "t_max",
               "vdd_demand", "total_uavs", "reference_bytes", "types")
    _reject_unknown(block, allowed, "scenario")
    for key in ("satisfaction_factor", "s_max", "t_max", "vdd_demand",
                "types"):
        if key not in block:
            raise ValidationError(f"scenario.{key}", "required")
    reference_bytes = None
    if "reference_bytes" in block:
        reference_bytes = _as_float(block["reference_bytes"],
                                    "scenario.reference_bytes")
    if not isinstance(block["types"], list):
        raise ValidationError("scenario.types", "must be a list")
    types = tuple(_parse_type(tb, i, channel, reference_bytes)
                  for i, tb in enumerate(block["types"]))
    if "total_uavs" in block:
        total = _as_int(block["total_uavs"], "scenario.total_uavs")
    else:
        total = sum(ty.n for ty in types)
    floats = {key: _as_float(block[key], f"scenario.{key}")
              for key in ("satisfaction_factor", "s_max", "t_max",
                          "vdd_demand")}
    return _build("scenario", Scenario, types=types,
                  deployment_cost=_as_float(block.get("deployment_cost", 0.0),
                                            "scenario.deployment_cost"),
                  total_uavs=total, **floats)


def _parse_channel(block) -> ChannelParams:
    block = _require_mapping(block, "channel")
    allowed = tuple(f.name for f in dataclass_fields(ChannelParams))
    _reject_unknown(block, allowed, "channel")
    return _build("channel", ChannelParams,
                  **{key: _as_float(value, f"channel.{key}")
                     for key, value in block.items()})


# the phc keys read as integers, those annotated int; every other phc key
# is a float
_PHC_INTS = frozenset(f.name for cls in (PhcParams, PhcRun)
                      for f in dataclass_fields(cls) if f.type in (int, "int"))


def _parse_phc(block) -> tuple[PhcParams, PhcRun]:
    block = _require_mapping(block, "phc")
    param_names = tuple(f.name for f in dataclass_fields(PhcParams))
    run_names = tuple(f.name for f in dataclass_fields(PhcRun))
    _reject_unknown(block, param_names + run_names, "phc")
    values = {key: (_as_int if key in _PHC_INTS else _as_float)(
        value, f"phc.{key}") for key, value in block.items()}

    def pick(names):
        return {key: values[key] for key in names if key in values}
    return (_build("phc", PhcParams, **pick(param_names)),
            _build("phc", PhcRun, **pick(run_names)))


def parse_config(raw) -> ExperimentConfig:
    """Build an ExperimentConfig from an already-loaded key tree."""
    raw = _require_mapping(raw, "config")
    allowed = ("mode", "scenario", "seeds", "output_dir", "channel", "phc",
               "grid_oracle", "linear_price", "sweep")
    _reject_unknown(raw, allowed, "config")
    if "mode" not in raw:
        raise ValidationError("mode", "required")
    mode = raw["mode"]
    if not isinstance(mode, str):
        raise ValidationError("mode", "must be a string")
    if "scenario" not in raw:
        raise ValidationError("scenario", "required")
    channel = (_parse_channel(raw["channel"]) if "channel" in raw
               else ChannelParams())
    scenario = _parse_scenario(raw["scenario"], channel)
    seeds = _as_int_list(raw["seeds"], "seeds") if "seeds" in raw else ()
    phc_params, phc_run = (_parse_phc(raw["phc"]) if "phc" in raw
                           else (None, None))
    optional = {key: _as_float(raw[key], key)
                for key in ("grid_oracle", "linear_price") if key in raw}
    sweep = {}
    if "sweep" in raw:
        block = _require_mapping(raw["sweep"], "sweep")
        _reject_unknown(block, ("populations", "cost_points"), "sweep")
        if "populations" in block:
            sweep["populations"] = _as_int_list(block["populations"],
                                                "sweep.populations")
        if "cost_points" in block:
            sweep["cost_points"] = _as_int(block["cost_points"],
                                           "sweep.cost_points")
    output_dir = raw.get("output_dir", "out")
    if not isinstance(output_dir, str) or not output_dir:
        raise ValidationError("output_dir", "must be a non-empty string")
    # ExperimentConfig names its fields by their YAML paths already
    return ExperimentConfig(mode=mode, scenario=scenario, seeds=seeds,
                            output_dir=output_dir, channel=channel,
                            phc=phc_params, phc_run=phc_run, **optional,
                            **sweep)


def load_config(path) -> ExperimentConfig:
    """Read and validate a YAML config file."""
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise ParseError(f"cannot read config file: {exc}") from exc
    try:
        raw = yaml.safe_load(text)
    except yaml.YAMLError as exc:
        mark = getattr(exc, "problem_mark", None)
        problem = getattr(exc, "problem", None) or "malformed YAML"
        if mark is not None:
            raise ParseError(problem, line=mark.line + 1,
                             column=mark.column + 1) from exc
        raise ParseError(str(exc)) from exc
    return parse_config(raw)
