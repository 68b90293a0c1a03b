import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from uavcontract import (ChannelParams, SpeedViolation, UavKinematics,
                         ValidationError, ZeroCapacity, a2g_pathloss,
                         derived_delay, los_probability, step_mobility,
                         transmission_delay)

P = ChannelParams()


def logistic_oracle(theta):
    # independent restatement of the LoS fit with the default urban constants
    return 1.0 / (1.0 + 9.61 * math.exp(-0.16 * (theta - 9.61)))


def pathloss_oracle(d, theta, params):
    fs = 20.0 * math.log10(4.0 * math.pi * d * params.carrier_freq
                           / params.light_speed)
    p = logistic_oracle(theta)
    return fs + p * params.kappa_los + (1.0 - p) * params.kappa_nlos


class TestLosProbability:
    def test_ground_level_value(self):
        assert los_probability(0.0, P) == pytest.approx(0.0219, abs=1e-4)

    def test_overhead_value(self):
        assert los_probability(90.0, P) == pytest.approx(0.99997, abs=1e-4)

    @given(theta=st.floats(0.0, 90.0))
    def test_matches_oracle(self, theta):
        assert los_probability(theta, P) == pytest.approx(
            logistic_oracle(theta), rel=1e-12)

    def test_monotone_in_elevation(self):
        grid = np.linspace(0.0, 90.0, 181)
        vals = [los_probability(t, P) for t in grid]
        assert all(a < b for a, b in zip(vals, vals[1:]))

    def test_domain_enforced(self):
        with pytest.raises(ValueError):
            los_probability(-1.0, P)
        with pytest.raises(ValueError):
            los_probability(90.5, P)


class TestPathloss:
    def test_worked_value(self):
        # 100 m out at antenna height: zero elevation, NLoS-dominated mix
        got = a2g_pathloss((100.0, 0.0, P.gcs_height), (0.0, 0.0, P.gcs_height), P)
        assert got == pytest.approx(99.63, abs=0.01)
        assert got == pytest.approx(pathloss_oracle(100.0, 0.0, P), rel=1e-12)

    def test_equal_excess_reduces_to_free_space(self):
        params = ChannelParams(kappa_los=0.0, kappa_nlos=0.0)
        got = a2g_pathloss((250.0, 0.0, 52.0), (0.0, 0.0, 2.0), params)
        fs = 20.0 * math.log10(4.0 * math.pi * 250.0 * params.carrier_freq
                               / params.light_speed)
        assert got == pytest.approx(fs, rel=1e-12)

    def test_increasing_in_distance(self):
        grid = np.linspace(1.0, 500.0, 200)
        vals = [a2g_pathloss((d, 0.0, 30.0), (0.0, 0.0, 2.0), P)
                for d in grid]
        assert all(a < b for a, b in zip(vals, vals[1:]))

    def test_decreasing_in_altitude(self):
        # higher UAV at fixed ground range: more LoS, less excess loss
        grid = np.linspace(5.0, 300.0, 100)
        vals = [a2g_pathloss((120.0, 0.0, z), (0.0, 0.0, 2.0), P)
                for z in grid]
        assert all(a > b for a, b in zip(vals, vals[1:]))

    def test_overhead_clamp(self):
        direct = a2g_pathloss((0.0, 0.0, 80.0), (0.0, 0.0, 2.0), P)
        expect = pathloss_oracle(0.1, 90.0, P)
        assert direct == pytest.approx(expect, rel=1e-12)
        nearby = a2g_pathloss((0.05, 0.0, 80.0), (0.0, 0.0, 2.0), P)
        assert nearby == direct

    def test_below_antenna_clamps_to_horizon(self):
        got = a2g_pathloss((50.0, 0.0, 0.0), (0.0, 0.0, 2.0), P)
        assert got == pytest.approx(pathloss_oracle(50.0, 0.0, P), rel=1e-12)

    def test_offset_gcs_uses_horizontal_range(self):
        a = a2g_pathloss((130.0, 40.0, 30.0), (100.0, 0.0, 2.0), P)
        b = a2g_pathloss((50.0, 0.0, 30.0), (0.0, 0.0, 2.0), P)
        assert a == pytest.approx(b, rel=1e-12)


class TestTransmissionDelay:
    def test_worked_value(self):
        # 120 dB loss with 0.1 W / 1e-13 W noise gives unit SNR, so the
        # 1 MHz channel carries exactly 1 Mbit/s; 300 bytes take 2.4 ms
        assert transmission_delay(300.0, 120.0, P) == pytest.approx(
            2.4e-3, rel=1e-12)

    @given(a=st.floats(0.0, 1e6), b=st.floats(0.0, 1e6))
    def test_additive_in_bytes(self, a, b):
        total = transmission_delay(a + b, 100.0, P)
        assert total == pytest.approx(
            transmission_delay(a, 100.0, P)
            + transmission_delay(b, 100.0, P), rel=1e-9, abs=1e-15)

    def test_zero_bytes(self):
        assert transmission_delay(0.0, 90.0, P) == 0.0

    def test_dead_channel_raises(self):
        with pytest.raises(ZeroCapacity):
            transmission_delay(1.0, 1e4, P)

    def test_negative_bytes_rejected(self):
        with pytest.raises(ValueError):
            transmission_delay(-1.0, 100.0, P)

    def test_derived_delay_composes(self):
        uav = (80.0, 60.0, 45.0)
        gcs = (0.0, 0.0, 2.0)
        assert derived_delay(300.0, uav, gcs, P) == transmission_delay(
            300.0, a2g_pathloss(uav, gcs, P), P)


class TestMobility:
    def test_axis_step(self):
        k = UavKinematics(position=(0.0, 0.0, 10.0), v_max=10.0)
        moved = step_mobility(k, (1.0, 0.0, 0.0), 5.0, 1.0)
        assert moved.position == (5.0, 0.0, 10.0)
        assert moved.v_max == 10.0

    def test_zero_speed_is_identity(self):
        k = UavKinematics(position=(3.0, -4.0, 7.0), v_max=2.0)
        assert step_mobility(k, (0.0, 1.0, 0.0), 0.0, 0.5).position == k.position

    def test_speed_limit_is_strict(self):
        k = UavKinematics(position=(0.0, 0.0, 10.0), v_max=10.0)
        with pytest.raises(SpeedViolation):
            step_mobility(k, (1.0, 0.0, 0.0), 15.0, 1.0)
        at_limit = step_mobility(k, (1.0, 0.0, 0.0), 10.0, 1.0)
        assert at_limit.position == (10.0, 0.0, 10.0)

    def test_direction_must_be_unit(self):
        k = UavKinematics(position=(0.0, 0.0, 10.0), v_max=10.0)
        with pytest.raises(ValueError):
            step_mobility(k, (1.0, 1.0, 0.0), 1.0, 1.0)

    def test_bad_scalars_rejected(self):
        k = UavKinematics(position=(0.0, 0.0, 10.0), v_max=10.0)
        with pytest.raises(ValueError):
            step_mobility(k, (1.0, 0.0, 0.0), -1.0, 1.0)
        with pytest.raises(ValueError):
            step_mobility(k, (1.0, 0.0, 0.0), 1.0, 0.0)

    def test_composed_steps_bounded(self):
        rng = np.random.default_rng(3)
        k = UavKinematics(position=(0.0, 0.0, 50.0), v_max=8.0)
        dt = 0.5
        steps = 40
        cur = k
        for _ in range(steps):
            vec = rng.normal(size=3)
            vec[2] = abs(vec[2])  # stay airborne
            vec /= np.linalg.norm(vec)
            cur = step_mobility(cur, tuple(vec),
                                float(rng.uniform(0.0, k.v_max)), dt)
        travelled = math.dist(cur.position, k.position)
        assert travelled <= steps * dt * k.v_max + 1e-9

    def test_kinematics_validation(self):
        with pytest.raises(ValueError):
            UavKinematics(position=(0.0, 0.0, -1.0), v_max=5.0)
        with pytest.raises(ValueError):
            UavKinematics(position=(0.0, 0.0, 1.0), v_max=0.0)
        with pytest.raises(ValueError):
            UavKinematics(position=(0.0, 0.0), v_max=5.0)


def test_channel_params_validation():
    with pytest.raises(ValueError):
        ChannelParams(bandwidth=0.0)
    with pytest.raises(ValueError):
        ChannelParams(kappa_los=5.0, kappa_nlos=1.0)


@pytest.mark.parametrize("field,value", [
    ("kappa_los", math.nan), ("kappa_nlos", math.inf),
    ("carrier_freq", math.inf), ("noise_power", math.nan),
    ("bandwidth", -1.0)])
def test_channel_params_name_the_field(field, value):
    with pytest.raises(ValidationError) as err:
        ChannelParams(**{field: value})
    assert err.value.field == field


def test_derived_delay_checks_its_inputs():
    gcs = (0.0, 0.0, P.gcs_height)
    for volume in (0.0, math.inf, math.nan):
        with pytest.raises(ValidationError) as err:
            derived_delay(volume, (100.0, 0.0, 30.0), gcs, P)
        assert err.value.field == "reference_bytes"
    for pos in ((math.nan, 0.0, 30.0), (0.0, 0.0, math.inf)):
        with pytest.raises(ValueError):
            derived_delay(300.0, pos, gcs, P)
