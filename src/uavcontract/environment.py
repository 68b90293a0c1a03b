"""Physical environment: mobility stepping, A2G channel, transmission delay.

Delays per UAV type can either be stated directly in the scenario or derived
here from geometry: horizontal distance and elevation angle fix the expected
pathloss over the LoS/NLoS mixture, pathloss fixes the channel capacity, and
capacity turns a VDD volume into seconds.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import (SpeedViolation, ValidationError, ZeroCapacity,
                     check_positive)

LIGHT_SPEED = 2.99792458e8

# overhead pass: arctan blows up as horizontal distance vanishes, so the
# geometry is clamped rather than rejected
_MIN_HORIZONTAL_DISTANCE = 0.1


@dataclass(frozen=True)
class UavKinematics:
    """Position in meters and the hard per-slot speed limit."""

    position: tuple[float, float, float]
    v_max: float

    def __post_init__(self):
        object.__setattr__(self, "position", tuple(float(x) for x in self.position))
        if len(self.position) != 3:
            raise ValueError("position must be a 3-vector")
        if self.position[2] < 0:
            raise ValueError(f"altitude must be non-negative, got {self.position[2]}")
        if self.v_max <= 0:
            raise ValueError(f"v_max must be positive, got {self.v_max}")


@dataclass(frozen=True)
class ChannelParams:
    """Air-to-ground channel constants.

    Defaults follow a standard urban fit for the logistic LoS model and a
    2.4 GHz link budget; every field can be overridden from the scenario
    config.  ``kappa_los``/``kappa_nlos`` are the excess attenuations in dB
    added on top of free-space loss, mixed by the LoS probability.
    """

    carrier_freq: float = 2.4e9
    light_speed: float = LIGHT_SPEED
    kappa_los: float = 1.0
    kappa_nlos: float = 20.0
    iota1: float = 9.61
    iota2: float = 0.16
    gcs_height: float = 2.0
    bandwidth: float = 1e6
    tx_power: float = 0.1
    noise_power: float = 1e-13

    def __post_init__(self):
        check_positive(self, ("carrier_freq", "light_speed", "iota1", "iota2",
                              "gcs_height", "bandwidth", "tx_power",
                              "noise_power"))
        for name in ("kappa_los", "kappa_nlos"):
            if not math.isfinite(getattr(self, name)):
                raise ValidationError(name, "must be finite")
        if self.kappa_nlos < self.kappa_los:
            raise ValidationError("kappa_nlos", "must be at least kappa_los")


def step_mobility(kinematics: UavKinematics, direction: tuple[float, float, float],
                  speed: float, dt: float) -> UavKinematics:
    """Advance one slot along a unit direction vector.

    Raises ValueError unless ``direction`` has three components, and
    SpeedViolation when the requested displacement exceeds what the speed
    limit allows within ``dt``.
    """
    if len(direction) != 3:
        raise ValueError(f"direction must have 3 components, got "
                         f"{len(direction)}")
    norm = math.hypot(*direction)
    if abs(norm - 1.0) > 1e-9:
        raise ValueError(f"direction must be a unit vector, |d| = {norm}")
    if speed < 0 or dt <= 0:
        raise ValueError("speed must be non-negative and dt positive")
    displacement = speed * dt
    if displacement > dt * kinematics.v_max:
        raise SpeedViolation(
            f"displacement {displacement} m exceeds limit {dt * kinematics.v_max} m")
    x, y, z = kinematics.position
    return UavKinematics(
        position=(x + displacement * direction[0],
                  y + displacement * direction[1],
                  z + displacement * direction[2]),
        v_max=kinematics.v_max)


def los_probability(elevation_deg: float, params: ChannelParams) -> float:
    """Line-of-sight probability as a modified logistic in the elevation angle."""
    if not 0.0 <= elevation_deg <= 90.0:
        raise ValueError(f"elevation must lie in [0, 90], got {elevation_deg}")
    return 1.0 / (1.0 + params.iota1
                  * math.exp(-params.iota2 * (elevation_deg - params.iota1)))


def a2g_pathloss(uav_pos: tuple[float, float, float],
                 gcs_pos: tuple[float, float, float],
                 params: ChannelParams) -> float:
    """Expected air-to-ground pathloss in dB.

    Free-space loss over the horizontal distance plus the LoS/NLoS excess
    attenuations weighted by their probabilities.  The elevation angle is
    measured from the GCS antenna height to the UAV altitude.  A UAV
    directly overhead is clamped to a 0.1 m horizontal offset at 90 degrees
    elevation instead of hitting the arctan singularity.
    """
    dx = uav_pos[0] - gcs_pos[0]
    dy = uav_pos[1] - gcs_pos[1]
    d = math.hypot(dx, dy)
    if d < _MIN_HORIZONTAL_DISTANCE:
        d = _MIN_HORIZONTAL_DISTANCE
        theta = 90.0
    else:
        theta = math.degrees(math.atan((uav_pos[2] - params.gcs_height) / d))
        theta = min(max(theta, 0.0), 90.0)
    p_los = los_probability(theta, params)
    free_space = 20.0 * math.log10(
        4.0 * math.pi * d * params.carrier_freq / params.light_speed)
    return free_space + p_los * params.kappa_los + (1.0 - p_los) * params.kappa_nlos


def transmission_delay(vdd_bytes: float, pathloss_db: float,
                       params: ChannelParams) -> float:
    """Seconds needed to push a VDD volume through the channel.

    VDD sizes are bytes while Shannon capacity is bits per second, hence the
    factor 8.  Raises ZeroCapacity when the received SNR underflows so far
    that the capacity is zero.
    """
    if vdd_bytes < 0:
        raise ValueError(f"vdd_bytes must be non-negative, got {vdd_bytes}")
    snr = params.tx_power * 10.0 ** (-pathloss_db / 10.0) / params.noise_power
    capacity = params.bandwidth * math.log2(1.0 + snr)
    if capacity <= 0.0:
        raise ZeroCapacity(f"capacity is zero at pathloss {pathloss_db} dB")
    return 8.0 * vdd_bytes / capacity


def derived_delay(reference_bytes: float, uav_pos: tuple[float, float, float],
                  gcs_pos: tuple[float, float, float],
                  params: ChannelParams) -> float:
    """Per-type delay from geometry: pathloss at the given positions, then
    the transmission time of a reference VDD volume.

    A bad volume raises ValidationError; a position the channel model
    cannot price, or one where the volume's delay underflows to zero or
    overflows, raises ValueError or ZeroCapacity.
    """
    if not 0.0 < reference_bytes < math.inf:
        raise ValidationError("reference_bytes", "must be positive and finite")
    if not all(map(math.isfinite, uav_pos)):
        raise ValueError(f"non-finite component in {uav_pos}")
    delay = transmission_delay(reference_bytes,
                               a2g_pathloss(uav_pos, gcs_pos, params), params)
    if not 0.0 < delay < math.inf:
        raise ValueError(f"reference_bytes {reference_bytes} takes {delay} s "
                         f"from this position, not a positive finite delay")
    return delay
