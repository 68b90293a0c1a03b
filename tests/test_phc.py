import math
from dataclasses import fields, replace

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from uavcontract import (InsufficientData, PhcParams, Scenario, Tables,
                         UavType, ValidationError, action_grids,
                         convergence_check, convergence_slot, eligible_types,
                         hotboot, perturb_scenario, train, with_default_r_max)
from uavcontract import _kernels
from uavcontract.phc import (EXPLORE_FLOOR, EXPLORE_VISITS, EpisodeLog,
                             _check_tables, _signed_payoffs, check_payoffs,
                             default_r_max)

import reference_kernels as ref
from conftest import (logs_equal, make_scenario_a, make_single_type,
                      tables_equal)


def cold_arrays(states, actions):
    """One agent's (q, pi, visits) arrays as a cold start: zero values and
    visits, uniform policy."""
    return (np.zeros((states, actions)),
            np.full((states, actions), 1.0 / actions),
            np.zeros(states, dtype=np.int64))


def synthetic_log(size_index, reward_index):
    size_index = np.asarray(size_index, dtype=np.int64)
    reward_index = np.asarray(reward_index, dtype=np.int64)
    if size_index.ndim == 1:
        size_index = size_index[:, None]
        reward_index = reward_index[:, None]
    nb = int(size_index.max()) + 1
    na = int(reward_index.max()) + 1
    j = size_index.shape[1]
    return EpisodeLog(type_indices=tuple(range(1, j + 1)),
                      reward_grid=np.arange(na, dtype=np.float64),
                      size_grid=np.arange(nb, dtype=np.float64),
                      item=size_index * na + reward_index,
                      signed=np.zeros(size_index.shape, dtype=bool),
                      uav_payoff=np.zeros((j, na * nb)),
                      gcs_payoff=np.zeros((j, na * nb)))


def reference_convergence_slot(log, window, tolerance=0.95):
    """`convergence_slot` from one window count per action: running counts
    of a (slots + 1, actions) one-hot, the reference the leaner form is
    held to."""
    slots = log.slots
    ok = np.ones(slots - window + 1, dtype=bool)
    for column, n_actions in ((log.size_index, log.size_grid.shape[0]),
                              (log.reward_index, log.reward_grid.shape[0])):
        for j in range(len(log.type_indices)):
            onehot = np.zeros((slots + 1, n_actions), dtype=np.int64)
            np.add.at(onehot, (np.arange(slots) + 1, column[:, j]), 1)
            cum = np.cumsum(onehot, axis=0, out=onehot)
            win = cum[window:] - cum[:-window]
            ok &= (win.max(axis=1) / window) >= tolerance
    hits = np.flatnonzero(ok)
    if hits.size == 0:
        return float("inf")
    return float(hits[0] + window)


class TestGrids:
    def test_worked_grid(self):
        params = PhcParams(reward_levels=10, size_levels=4, r_max=20.0)
        rgrid, sgrid = action_grids(params, 2.0)
        assert np.array_equal(rgrid, np.arange(0.0, 22.0, 2.0))
        assert np.array_equal(sgrid, np.array([0.0, 0.5, 1.0, 1.5, 2.0]))

    def test_single_level(self):
        params = PhcParams(reward_levels=1, size_levels=1, r_max=13.0)
        rgrid, sgrid = action_grids(params, 5.0)
        assert rgrid.tolist() == [0.0, 13.0]
        assert sgrid.tolist() == [0.0, 5.0]

    def test_zero_levels_collapse(self):
        params = PhcParams(reward_levels=0, size_levels=0, r_max=13.0)
        rgrid, sgrid = action_grids(params, 5.0)
        assert rgrid.tolist() == [0.0]
        assert sgrid.tolist() == [0.0]

    def test_unset_r_max(self):
        with pytest.raises(ValidationError):
            action_grids(PhcParams(), 5.0)

    def test_default_ceiling(self):
        assert default_r_max(make_scenario_a()) == 602.0
        assert default_r_max(make_single_type()) == 15.75
        params = with_default_r_max(PhcParams(), make_single_type())
        assert params.r_max == 15.75
        pinned = with_default_r_max(PhcParams(r_max=7.0), make_scenario_a())
        assert pinned.r_max == 7.0


class TestPhcUpdate:
    def test_worked_bellman_step(self):
        q, pi, _ = cold_arrays(3, 11)
        ref.phc_step(q, pi, state=1, action=4, payoff=10.0,
                     next_state=2, rate=0.7, discount=0.8, step=0.01)
        assert q[1, 4] == pytest.approx(7.0)
        assert np.all(q[0] == 0.0) and np.all(q[2] == 0.0)
        gain = 1.0 / 11.0 + 0.01
        lose = 1.0 / 11.0 - 0.01 / 11.0
        total = gain + 10.0 * lose
        assert pi[1, 4] == pytest.approx(gain / total, rel=1e-12)
        assert pi[1, 0] == pytest.approx(lose / total, rel=1e-12)
        assert np.all(pi[0] == 1.0 / 11.0)

    def test_bootstrap_uses_next_state_row(self):
        q, pi, _ = cold_arrays(2, 2)
        q[1] = [0.0, 4.0]
        ref.phc_step(q, pi, state=0, action=0, payoff=1.0,
                     next_state=1, rate=0.5, discount=0.5, step=0.01)
        assert q[0, 0] == pytest.approx(0.5 * (1.0 + 0.5 * 4.0))

    def test_self_bootstrap_reads_pre_update_value(self):
        q, pi, _ = cold_arrays(1, 1)
        q[0, 0] = 2.0
        ref.phc_step(q, pi, state=0, action=0, payoff=-1.0,
                     next_state=0, rate=0.7, discount=0.8, step=0.01)
        assert q[0, 0] == pytest.approx(0.3 * 2.0 + 0.7 * (-1.0 + 0.8 * 2.0))

    def test_zero_payoff_zero_tables_fixed_point(self):
        q, pi, _ = cold_arrays(2, 3)
        before = pi.copy()
        ref.phc_step(q, pi, 0, 1, 0.0, 1, 0.7, 0.8, 0.01)
        assert np.all(q == 0.0)
        # greedy falls back to the first action of an all-equal row
        assert pi[0, 0] > before[0, 0]
        assert pi[0].sum() == pytest.approx(1.0, abs=1e-12)

    @given(st.integers(0, 2 ** 32 - 1))
    def test_simplex_preserved(self, seed):
        rng = np.random.default_rng(seed)
        q, pi, visits = cold_arrays(4, 6)
        for _ in range(50):
            ref.phc_step(q, pi, int(rng.integers(4)),
                         int(rng.integers(6)), float(rng.normal(scale=30.0)),
                         int(rng.integers(4)), 0.7, 0.8,
                         float(rng.uniform(0.001, 0.5)))
        _check_tables(q, pi, visits, pi.sum(axis=-1))

    def test_simplex_preserved_bulk(self):
        rng = np.random.default_rng(0)
        m = 10_000
        q, pi, visits = cold_arrays(8, 12)
        ref.update_many_wide(q, pi,
                             rng.integers(0, 8, m), rng.integers(0, 12, m),
                             rng.normal(scale=50.0, size=m),
                             rng.integers(0, 8, m), 0.7, 0.8, 0.01)
        _check_tables(q, pi, visits, pi.sum(axis=-1))

    def test_wide_step_matches_scalar_rule(self):
        # the whole-row form the GCS's rows take must reproduce the scalar
        # rule bit for bit, clamps at 0 and 1 included
        rng = np.random.default_rng(4)
        n = 24
        wide_q, wide_pi, _ = cold_arrays(3, n)
        scalar_q, scalar_pi, _ = cold_arrays(3, n)
        for k in range(400):
            args = (int(rng.integers(3)), int(rng.integers(n)),
                    float(rng.normal(scale=20.0)), int(rng.integers(3)),
                    0.7, 0.8, float(rng.uniform(0.001, 0.3)))
            if k >= 300:
                # keep rewarding one action so its probability hits 1
                args = (0, 5, 100.0) + args[3:]
            ref.phc_step_wide(wide_q, wide_pi, *args)
            ref.phc_step(scalar_q, scalar_pi, *args)
        assert np.array_equal(wide_q, scalar_q)
        assert np.array_equal(wide_pi, scalar_pi)
        assert np.any(wide_pi == 1.0) and np.any(wide_pi == 0.0)

    def test_row_update_many_matches_scalar_body(self):
        # the whole-row batch update steps through phc_step_wide; over many
        # random updates, clamps at 0 and 1 included, the tables must keep
        # the scalar body's bits
        rng = np.random.default_rng(17)
        m = 20_000
        states, actions = rng.integers(0, 6, m), rng.integers(0, 12, m)
        payoffs, next_states = (rng.normal(scale=40.0, size=m),
                                rng.integers(0, 6, m))
        # the last updates keep rewarding one action, so its probability
        # reaches 1
        states[-2000:], actions[-2000:], payoffs[-2000:] = 0, 3, 100.0
        row_q, row_pi, _ = cold_arrays(6, 12)
        scalar_q, scalar_pi, _ = cold_arrays(6, 12)
        ref.update_many_wide(row_q, row_pi, states, actions, payoffs,
                             next_states, 0.7, 0.8, 0.05)
        ref.update_many(scalar_q, scalar_pi, states, actions, payoffs,
                        next_states, 0.7, 0.8, 0.05)
        assert row_q.tobytes() == scalar_q.tobytes()
        assert row_pi.tobytes() == scalar_pi.tobytes()
        assert np.any(scalar_pi == 1.0) and np.any(scalar_pi == 0.0)

    def test_value_bound(self):
        # |Q| stays within max|payoff| / (1 - discount) from zero init
        rng = np.random.default_rng(2)
        cap = 20.0
        discount = 0.8
        q, pi, _ = cold_arrays(5, 5)
        m = 5000
        ref.update_many_wide(q, pi,
                             rng.integers(0, 5, m), rng.integers(0, 5, m),
                             rng.uniform(-cap, cap, m),
                             rng.integers(0, 5, m), 0.9, discount, 0.05)
        assert np.max(np.abs(q)) <= cap / (1.0 - discount) + 1e-9


class TestSampling:
    def test_inverse_cdf_boundaries(self):
        row = np.array([0.3, 0.2, 0.5])
        assert ref.sample_index(row, 0.0) == 0
        assert ref.sample_index(row, 0.2999) == 0
        assert ref.sample_index(row, 0.3) == 1
        assert ref.sample_index(row, 0.4999) == 1
        assert ref.sample_index(row, 0.5) == 2
        assert ref.sample_index(row, 0.999999) == 2

    def test_point_mass(self):
        pi = np.array([0.0, 0.0, 1.0, 0.0])
        rng = np.random.default_rng(1)
        assert all(ref.sample_index(pi, rng.random()) == 2
                   for _ in range(200))

    def test_uniform_frequencies(self):
        n = 5
        draws = 100_000
        pi = np.full(n, 1.0 / n)
        rng = np.random.default_rng(10)
        counts = np.bincount([ref.sample_index(pi, rng.random())
                              for _ in range(draws)], minlength=n)
        sigma = math.sqrt(draws * (1 / n) * (1 - 1 / n))
        assert np.all(np.abs(counts - draws / n) < 3.5 * sigma)

    def test_wide_sample_matches_loop(self):
        # the whole-row search the GCS's rows take agrees with the loop at
        # and just below every running sum
        rng = np.random.default_rng(3)
        row = rng.dirichlet(np.ones(40))
        for u in np.concatenate([np.cumsum(row), np.cumsum(row) - 1e-12,
                                 [0.0, 1.0]]):
            assert (ref.sample_index_wide(row, u)
                    == ref.sample_index(row, u))

    def test_exploration_schedule(self):
        rate = _kernels.explore_rate
        assert rate(0, 30, 0.01) == 1.0
        assert rate(15, 30, 0.01) == pytest.approx(0.505)
        assert rate(30, 30, 0.01) == 0.01
        assert rate(10_000, 30, 0.01) == 0.01
        assert rate(0, 0, 0.2) == 0.2

    def test_exploration_reaches_excluded_actions(self):
        # pi posts only item 0 and always declines; while the tables carry
        # few visits, exploring draws still post other items and sign some.
        # The policy steps are too small to move pi, so only exploration
        # strays from it
        sc = make_single_type()
        params = PhcParams(reward_levels=4, size_levels=3, r_max=12.0,
                           step_gcs=1e-9, step_uav=1e-9)
        items = 20
        tables = Tables.cold(1, items)
        tables.gcs_pi[:] = np.eye(1, items)
        tables.uav_pi[:] = [0.0, 1.0]
        (fresh,) = train([sc], params, 400, tables,
                         [np.random.default_rng(0)]).logs
        assert len(np.unique(fresh.item)) == items
        assert fresh.signed.any()
        # once the visits reach the horizon, the floor share is all that
        # strays from pi
        tables.gcs_visits[:] = EXPLORE_VISITS * items
        tables.uav_visits[:] = EXPLORE_VISITS
        (settled,) = train([sc], params, 2000, tables,
                           [np.random.default_rng(0)]).logs
        assert 0.0 < np.mean(settled.item != 0) < 0.02
        assert np.mean(settled.signed) < 0.02

    def test_same_seed_same_sequence(self):
        pi = np.full(7, 1.0 / 7)
        rng_a = np.random.default_rng(5)
        rng_b = np.random.default_rng(5)
        a = [ref.sample_index(pi, rng_a.random()) for _ in range(50)]
        b = [ref.sample_index(pi, rng_b.random()) for _ in range(50)]
        assert a == b


def replica_train(scenario, params, slots, seed):
    """Pure-python restatement of the slot wiring, for cross-checking.

    Per slot the GCS posts an item from its single state, the UAV signs
    (action 0) or declines (action 1) the posted item, and each side
    updates on its own state; exploration is uniform with a share falling
    linearly over the visits of the state.
    """
    params = with_default_r_max(params, scenario)
    order = eligible_types(scenario)
    rgrid, sgrid = action_grids(params, scenario.s_max)
    na, nb = rgrid.shape[0], sgrid.shape[0]
    items = na * nb
    floor = EXPLORE_FLOOR
    rng = np.random.default_rng(seed)
    uniforms = rng.random((slots, len(order), 4))
    logs = {"a": [], "b": [], "gs": [], "us": [], "up": [], "gp": []}
    gcs = [cold_arrays(1, items) for _ in order]
    uav = [cold_arrays(items, 2) for _ in order]

    def pick(tables, state, horizon, u_explore, u_pick):
        _, pi, visits = tables
        n = pi.shape[1]
        seen = visits[state]
        visits[state] += 1
        share = (floor if seen >= horizon
                 else 1.0 - (1.0 - floor) * seen / horizon)
        if u_explore < share:
            return min(int(u_pick * n), n - 1)
        return ref.sample_index(pi[state], u_pick)

    for j, ty in enumerate(order):
        w = scenario.satisfaction_factor * ty.n / ty.t
        cols = {k: [] for k in logs}
        for t in range(slots):
            u = uniforms[t, j]
            k = pick(gcs[j], 0, EXPLORE_VISITS * items, u[0], u[1])
            b, a = divmod(k, na)
            s_val = float(sgrid[b])
            r_val = float(rgrid[a])
            answer = pick(uav[j], k, EXPLORE_VISITS, u[2], u[3])
            if answer == 0:
                u_pay = r_val - ty.c * s_val - scenario.deployment_cost
                g_pay = w * math.log1p(s_val) - ty.n * r_val
            else:
                u_pay = g_pay = 0.0
            ref.phc_step(*uav[j][:2], k, answer, u_pay, k,
                         params.learning_rate_uav, params.discount_uav,
                         params.step_uav)
            ref.phc_step(*gcs[j][:2], 0, k, g_pay, 0,
                         params.learning_rate_gcs, params.discount_gcs,
                         params.step_gcs)
            for key, v in zip(("a", "b", "gs", "us", "up", "gp"),
                              (a, b, int(answer == 0), k, u_pay, g_pay)):
                cols[key].append(v)
        for key in logs:
            logs[key].append(cols[key])
    arrays = {k: np.array(v).T for k, v in logs.items()}
    return arrays, Tables(*(np.stack(rows) for side in (gcs, uav)
                            for rows in zip(*side)))


class TestTrain:
    PARAMS = PhcParams(reward_levels=4, size_levels=3, r_max=12.0)

    def test_matches_hand_replica(self):
        sc = make_scenario_a()
        result = train([sc], self.PARAMS, 40, None, [np.random.default_rng(8)])
        arrays, tables = replica_train(sc, self.PARAMS, 40, 8)
        (log,) = result.logs
        assert np.array_equal(log.reward_index, arrays["a"])
        assert np.array_equal(log.size_index, arrays["b"])
        assert np.array_equal(log.signed, arrays["gs"] == 1)
        assert np.array_equal(log.item, arrays["us"])
        assert np.array_equal(log.uav_utility, arrays["up"])
        assert np.array_equal(log.gcs_term, arrays["gp"])
        assert tables_equal(result.tables, tables)
        # the run exercised both answers
        assert 0 < log.signed.sum() < log.signed.size

    def test_deterministic_per_seed(self):
        sc = make_single_type()
        params = PhcParams(reward_levels=6, size_levels=6)
        (a,) = train([sc], params, 300, None, [np.random.default_rng(4)]).logs
        (b,) = train([sc], params, 300, None, [np.random.default_rng(4)]).logs
        (c,) = train([sc], params, 300, None, [np.random.default_rng(5)]).logs
        assert logs_equal(a, b)
        assert not logs_equal(a, c)

    def test_payoff_identities(self):
        sc = make_scenario_a()
        (log,) = train([sc], self.PARAMS, 200, None,
                       [np.random.default_rng(2)]).logs
        order = eligible_types(sc)
        rewards, sizes = log.rewards, log.sizes
        uav, gcs = log.uav_utility, log.gcs_term
        for j, ty in enumerate(order):
            signed = log.signed[:, j]
            assert 0 < signed.sum() < signed.size
            r = rewards[signed, j]
            s = sizes[signed, j]
            w = sc.satisfaction_factor * ty.n / ty.t
            # a signed item is delivered and paid
            assert np.allclose(uav[signed, j],
                               r - ty.c * s - sc.deployment_cost,
                               rtol=0, atol=1e-12)
            assert np.allclose(gcs[signed, j],
                               w * np.log1p(s) - ty.n * r,
                               rtol=0, atol=1e-12)
            # a declined one is worth nothing to either side
            assert np.all(uav[~signed, j] == 0.0)
            assert np.all(gcs[~signed, j] == 0.0)

    def test_observations_lag_actions(self):
        sc = make_single_type()
        (log,) = train([sc], self.PARAMS, 100, None,
                       [np.random.default_rng(6)]).logs
        # the GCS commits first: the UAV sees this slot's posted item (no
        # carried observation, not even in slot 1), and the GCS sees this
        # slot's answer to it
        na = log.reward_grid.shape[0]
        assert np.array_equal(log.item[:, 0],
                              log.size_index[:, 0] * na
                              + log.reward_index[:, 0])
        assert set(np.unique(log.signed[:, 0])) == {False, True}
        traded = (log.uav_utility[:, 0] != 0.0) | (log.gcs_term[:, 0] != 0.0)
        assert not np.any(traded & ~log.signed[:, 0])

    def test_degenerate_grids_reach_fixed_point(self):
        sc = make_single_type()
        params = PhcParams(reward_levels=0, size_levels=0, r_max=13.0)
        result = train([sc], params, 10_000, None, [np.random.default_rng(0)])
        # forced null offer: signing (0, 0) costs the UAV the deployment
        # cost and declining costs nothing, so the UAV learns to decline;
        # declining forever is worth 0 / (1 - discount), signing once and
        # then declining is worth -C0 + discount * 0; the GCS earns zero
        tables = result.tables
        assert tables.uav_q[0, 0, 1] == 0.0
        assert tables.uav_q[0, 0, 0] == pytest.approx(-1.0, abs=1e-6)
        assert tables.gcs_q[0, 0, 0] == 0.0
        assert tables.uav_pi[0, 0, 1] == 1.0
        (log,) = result.logs
        signed = log.signed[:, 0]
        assert np.all(log.uav_utility[signed, 0] == -1.0)
        assert np.all(log.uav_utility[~signed, 0] == 0.0)
        assert np.all(log.gcs_term == 0.0)
        # once exploration has decayed, only its floor still signs
        assert signed[1000:].mean() < 0.02

    def test_degenerate_grids_follow_exact_recursion(self):
        sc = make_single_type()
        params = PhcParams(reward_levels=0, size_levels=0, r_max=13.0)
        for slots in (1, 2, 7, 30):
            result = train([sc], params, slots, None,
                           [np.random.default_rng(0)])
            # the offer is the same every slot; walk the logged answers
            q_sign = q_decline = 0.0
            for signed in result.logs[0].signed[:, 0]:
                best = max(q_sign, q_decline)
                if signed:
                    q_sign = (1.0 - 0.7) * q_sign + 0.7 * (-1.0 + 0.8 * best)
                else:
                    q_decline = ((1.0 - 0.7) * q_decline
                                 + 0.7 * (0.0 + 0.8 * best))
            assert result.tables.uav_q[0, 0, 0] == q_sign
            assert result.tables.uav_q[0, 0, 1] == q_decline
            assert result.tables.gcs_q[0, 0, 0] == 0.0

    def test_warm_start_continues(self):
        sc = make_single_type()
        params = PhcParams(reward_levels=3, size_levels=3)
        first = train([sc], params, 120, None, [np.random.default_rng(3)])
        resumed = train([sc], params, 80, first.tables,
                        [np.random.default_rng(9)])
        cold = train([sc], params, 80, None, [np.random.default_rng(9)])
        assert not np.array_equal(resumed.tables.uav_q, cold.tables.uav_q)
        # the source tables are not mutated by the resumed run
        assert tables_equal(first.tables,
                            train([sc], params, 120, None,
                                  [np.random.default_rng(3)]).tables)

    def test_warm_start_carries_visits(self):
        # exploration decays with the visits the tables carry, so a resumed
        # run does not start exploring afresh
        sc = make_single_type()
        params = PhcParams(reward_levels=3, size_levels=3)
        first = train([sc], params, 500, None, [np.random.default_rng(3)])
        assert first.tables.gcs_visits.tolist() == [[500]]
        assert first.tables.uav_visits.sum() == 500
        resumed = train([sc], params, 300, first.tables,
                        [np.random.default_rng(9)])
        assert resumed.tables.gcs_visits.tolist() == [[800]]
        assert np.all(resumed.tables.uav_visits >= first.tables.uav_visits)
        assert resumed.tables.uav_visits.sum() == 800

    def test_validation(self):
        sc = make_single_type()
        # a count of slots that is no integer, or is a bool, is named
        # rather than failing inside the loop
        for slots in (0, 10.0, True):
            with pytest.raises(ValidationError) as err:
                train([sc], self.PARAMS, slots, None,
                      [np.random.default_rng(0)])
            assert err.value.field == "slots"
        for init in (((), ()), Tables.cold(0, 20)):
            with pytest.raises(ValidationError) as err:
                train([sc], self.PARAMS, 10, init, [np.random.default_rng(0)])
            assert err.value.field == "init"
        bad = Scenario(types=(UavType(index=1, c1=0.5, c2=0.0, t=9.0, n=1),),
                       satisfaction_factor=6.0, deployment_cost=1.0,
                       s_max=10.0, t_max=2.0, vdd_demand=800.0, total_uavs=1)
        with pytest.raises(ValidationError):
            train([bad], self.PARAMS, 10, None, [np.random.default_rng(0)])


def kernel_args(rows, slots, reward_levels, size_levels, seed, hot):
    """Arguments for one training-kernel call over ``rows`` independent rows.

    Each row has its own cost, weight and count.  Hot tables carry random
    values and visits past both exploration horizons, so every pick samples
    pi except on the floor share.
    """
    rng = np.random.default_rng(seed)
    na, nb = reward_levels + 1, size_levels + 1
    items = na * nb
    if hot:
        q_g = rng.normal(scale=5.0, size=(rows, 1, items))
        pi_g = rng.dirichlet(np.ones(items), size=(rows, 1))
        q_u = rng.normal(scale=5.0, size=(rows, items, 2))
        pi_u = rng.dirichlet(np.ones(2), size=(rows, items))
        visits_g = np.full((rows, 1), EXPLORE_VISITS * items + 7)
        visits_u = rng.integers(EXPLORE_VISITS, 3 * EXPLORE_VISITS,
                                (rows, items))
    else:
        q_g = np.zeros((rows, 1, items))
        pi_g = np.full((rows, 1, items), 1.0 / items)
        q_u = np.zeros((rows, items, 2))
        pi_u = np.full((rows, items, 2), 0.5)
        visits_g = np.zeros((rows, 1), dtype=np.int64)
        visits_u = np.zeros((rows, items), dtype=np.int64)
    args = dict(
        q_g=q_g, pi_g=pi_g, q_u=q_u, pi_u=pi_u,
        uniforms=rng.random((slots, rows, 4)),
        rgrid=np.linspace(0.0, 13.0, na), sgrid=np.linspace(0.0, 13.75, nb),
        cost=rng.uniform(0.1, 0.9, rows), weight=rng.uniform(5.0, 40.0, rows),
        count=rng.integers(1, 9, rows).astype(np.float64), c0=1.0,
        rate_g=0.7, disc_g=0.8, step_g=0.01, rate_u=0.7, disc_u=0.8,
        step_u=0.05, visits_g=visits_g.astype(np.int64),
        visits_u=visits_u.astype(np.int64), explore_visits=EXPLORE_VISITS,
        explore_floor=EXPLORE_FLOOR)
    for name in ("reward_idx", "size_idx", "gcs_state", "uav_state"):
        args[name] = np.zeros((slots, rows), dtype=np.int64)
    for name in ("uav_pay", "gcs_pay"):
        args[name] = np.zeros((slots, rows))
    return args


# the arguments of the scalar body that the training kernel does not take:
# the grids and per-row constants the payoffs are built from, and the six
# trajectory arrays
SCALAR_ONLY = ("rgrid", "sgrid", "cost", "weight", "count", "c0",
               "reward_idx", "size_idx", "gcs_state", "uav_state", "uav_pay",
               "gcs_pay")


def kernel_form(args):
    """``args``, the scalar body's arguments, in `_kernels.train_loop`'s
    form: the payoff tables `_signed_payoffs` builds in place of the grids
    and the per-row constants, and zeroed posted items and answers in
    place of the six trajectory arrays."""
    kernel = {k: v for k, v in args.items() if k not in SCALAR_ONLY}
    kernel["uav_payoff"], kernel["gcs_payoff"] = _signed_payoffs(
        args["rgrid"], args["sgrid"], args["cost"], args["weight"],
        args["count"], args["c0"])
    shape = args["uniforms"].shape[:2]
    kernel["item"] = np.zeros(shape, dtype=np.int64)
    kernel["signed"] = np.zeros(shape, dtype=bool)
    return kernel


def trajectory_arrays(kernel, args):
    """The scalar body's six trajectory arrays, derived through an
    `EpisodeLog` from a kernel run's posted items, answers and tables."""
    log = EpisodeLog(type_indices=tuple(range(kernel["item"].shape[1])),
                     reward_grid=args["rgrid"], size_grid=args["sgrid"],
                     item=kernel["item"], signed=kernel["signed"],
                     uav_payoff=kernel["uav_payoff"],
                     gcs_payoff=kernel["gcs_payoff"])
    return {"reward_idx": log.reward_index, "size_idx": log.size_index,
            "gcs_state": log.signed.astype(np.int64), "uav_state": log.item,
            "uav_pay": log.uav_utility, "gcs_pay": log.gcs_term}


class TestRowKernel:
    """The row-stepped training body against the scalar one, bit for bit."""

    @staticmethod
    def sparse_args(rows, slots, seed):
        """Kernel arguments whose tables the scalar body trained 700 cold
        slots, so all but 1-2% of the GCS's pi is exactly 0."""
        args = kernel_args(rows, 700, 20, 20, seed=seed, hot=False)
        ref.train_loop(**args)
        assert np.mean(args["pi_g"] == 0.0) > 0.97
        fresh = kernel_args(rows, slots, 20, 20, seed=seed + 1, hot=False)
        for name in ("uniforms", "reward_idx", "size_idx", "gcs_state",
                     "uav_state", "uav_pay", "gcs_pay"):
            args[name] = fresh[name]
        return args

    @staticmethod
    def both_bodies(args):
        """Run both bodies on copies of ``args``, require the same bits in
        the tables, the draws and the trajectory arrays (the kernel's
        derived from its two), and return the scalar body's arguments
        after the run."""
        scalar = {k: v.copy() if isinstance(v, np.ndarray) else v
                  for k, v in args.items()}
        row = kernel_form({k: v.copy() if isinstance(v, np.ndarray) else v
                           for k, v in args.items()})
        ref.train_loop(**scalar)
        _kernels.train_loop(**row)
        row.update(trajectory_arrays(row, args))
        for name in ("q_g", "pi_g", "q_u", "pi_u", "visits_g", "visits_u",
                     "uniforms", "reward_idx", "size_idx", "gcs_state",
                     "uav_state", "uav_pay", "gcs_pay"):
            assert row[name].dtype == scalar[name].dtype, name
            assert row[name].tobytes() == scalar[name].tobytes(), name
        return scalar

    @pytest.mark.parametrize("rows, slots, levels, hot", [
        (1, 600, (20, 20), False),
        (3, 600, (20, 20), False),
        (24, 300, (20, 20), False),
        (3, 600, (6, 4), True),
        (24, 300, (20, 20), True),
        (4, 400, (0, 0), False),
        (5, 300, (0, 0), True),
    ])
    def test_matches_scalar_body(self, rows, slots, levels, hot):
        args = kernel_args(rows, slots, *levels, seed=rows + slots, hot=hot)
        scalar = self.both_bodies(args)
        # the run moved every table and took both answers
        assert not np.array_equal(scalar["q_u"], args["q_u"])
        assert not np.array_equal(scalar["pi_u"], args["pi_u"])
        assert np.array_equal(scalar["visits_g"],
                              args["visits_g"] + slots)
        assert 0 < scalar["gcs_state"].sum() < scalar["gcs_state"].size

    def test_ties_follow_scalar_body(self):
        # uniforms placed exactly on the thresholds a slot compares them
        # with: both explore shares, the GCS's running sums (the last one
        # included) and the UAV's sign probability and answer midpoint
        rows, items = 4, 20
        args = kernel_args(rows, 6, 4, 3, seed=3, hot=True)
        u = args["uniforms"]
        every = np.arange(rows)
        running = np.cumsum(args["pi_g"][:, 0], axis=1)
        tie = np.array([2, 7, 11, items - 1])
        posted = np.minimum(tie + 1, items - 1)
        u[0, :, 0] = EXPLORE_FLOOR
        u[0, :, 1] = running[every, tie]
        u[0, :, 2] = EXPLORE_FLOOR
        u[0, :, 3] = args["pi_u"][every, posted, 0]
        u[1:, :, 2] = 0.0
        u[1:, :, 3] = 0.5
        scalar = self.both_bodies(args)
        # the ties went the scalar body's way: past the running sum, and
        # declined both on pi(sign) and at the exploring midpoint
        assert np.array_equal(scalar["uav_state"][0], posted)
        assert not scalar["gcs_state"].any()

    @pytest.mark.parametrize("rows", [1, 3, 24])
    def test_sparse_tables_match_scalar_body(self, rows):
        args = self.sparse_args(rows, 300, seed=40 + rows)
        scalar = self.both_bodies(args)
        assert not np.array_equal(scalar["pi_g"], args["pi_g"])
        # the GCS both explored and sampled its sparse pi
        explore_share = 1.0 - (1.0 - EXPLORE_FLOOR) * 700 / (
            EXPLORE_VISITS * 441)
        coins = args["uniforms"][:, :, 0]
        assert (coins < explore_share).any() and (coins >= explore_share).any()

    def test_sparse_ties_follow_scalar_body(self):
        # on the support: a draw equal to a support column's running sum
        # passes to the next support column and one just below it stops
        # there; one equal to the sum before the last item posts the last,
        # and one equal to the full sum crosses nothing and posts the last
        # item too
        rows, items = 4, 441
        args = self.sparse_args(rows, 8, seed=7)
        pi = args["pi_g"][:, 0]
        running = np.cumsum(pi, axis=1)
        u = args["uniforms"]
        u[0, :, 0] = 0.999
        support = [np.flatnonzero(p) for p in pi]
        u[0, 0, 1] = running[0, support[0][0]]
        u[0, 1, 1] = np.nextafter(running[1, support[1][1]], 0.0)
        u[0, 2, 1] = running[2, items - 2]
        u[0, 3, 1] = running[3, -1]
        scalar = self.both_bodies(args)
        assert np.array_equal(scalar["uav_state"][0],
                              [support[0][1], support[1][1], items - 1,
                               items - 1])

    def test_signed_zeros_follow_scalar_body(self):
        # -0.0 in both tables: a declined update adds 0.0 to the discounted
        # -0.0 as the scalar body does, and the GCS's pi holds +0.0 off its
        # support after a slot, as the full-row decay leaves it
        args = self.sparse_args(3, 5, seed=13)
        args["q_u"][:] = -0.0
        pi = args["pi_g"]
        pi[pi == 0.0] = -0.0
        u = args["uniforms"]
        u[:, :, 2] = 0.0
        u[:, :, 3] = 0.75
        scalar = self.both_bodies(args)
        assert not np.signbit(scalar["pi_g"]).any()
        declined = scalar["q_u"][:, :, 1]
        assert (declined == 0.0).all() and not np.signbit(declined).all()

    def test_greedy_item_enters_from_outside_support(self):
        # row 0 starts greedy on an item no row's pi holds; row 1's greedy
        # item is posted and declined in slot 0, which drops its value
        # below a runner-up no row's pi holds
        rows, items = 3, 441
        args = self.sparse_args(rows, 40, seed=11)
        q = args["q_g"][:, 0]
        outside = np.flatnonzero(~args["pi_g"][:, 0].any(axis=0))
        z0, z1 = outside[5], outside[-5]
        q[0, z0] = q[0].max() + 1.0
        g1 = q[1].argmax()
        np.minimum(q[1], 8.0, out=q[1])
        q[1, g1] = 10.0
        q[1, z1] = 9.0
        u = args["uniforms"]
        u[0, 1, 0] = 0.0                         # explore ...
        u[0, 1, 1] = (g1 + 0.5) / items          # ... posting the greedy
        u[0, 1, 2] = 0.0                         # the UAV explores ...
        u[0, 1, 3] = 0.75                        # ... and declines
        scalar = self.both_bodies(args)
        assert scalar["uav_state"][0, 1] == g1
        assert scalar["gcs_state"][0, 1] == 0
        assert scalar["pi_g"][0, 0, z0] > 0.0
        assert scalar["pi_g"][1, 0, z1] > 0.0

    @staticmethod
    def tie_args(rows, seed):
        """Arguments whose GCS Q update is the payoff alone (rate 1,
        discount 0), every signed payoff negative and a declined one +0.0:
        rows start with -0.0 and +0.0 maxima at several items, and posts
        tie the maximum, lift a lower item to it and drop the greedy item
        below the rest.  The explore share is about a half, so slots mix
        sampling and exploring rows."""
        args = kernel_args(rows, 400, 4, 3, seed=seed, hot=True)
        rng = np.random.default_rng(seed)
        q = rng.choice([-2.0, -1.0, -0.0, 0.0], size=args["q_g"].shape)
        q[:, 0, 0] = -1.0
        q[:, 0, rng.integers(1, 20, rows)] = 0.0
        args["q_g"] = q
        args["rate_g"], args["disc_g"] = 1.0, 0.0
        args["rgrid"] = args["rgrid"] + 0.5
        args["weight"][:] = 0.01
        args["visits_g"][:] = EXPLORE_VISITS * 20 // 2
        return args

    @staticmethod
    def greedy_events(args):
        """The scalar body run one slot at a time on a copy of ``args``:
        how often a lower item tied the greedy one and took its place, and
        how often the posted greedy item fell below another."""
        args = {k: v.copy() if isinstance(v, np.ndarray) else v
                for k, v in args.items()}
        slots = args["uniforms"].shape[0]
        whole = {name: args[name] for name in (
            "uniforms", "reward_idx", "size_idx", "gcs_state", "uav_state",
            "uav_pay", "gcs_pay")}
        q = args["q_g"][:, 0]
        lower_ties = rescans = 0
        for t in range(slots):
            for name, value in whole.items():
                args[name] = value[t:t + 1]
            greedy = q.argmax(axis=1)
            best = q.max(axis=1)
            ref.train_loop(**args)
            posted = args["uav_state"][0]
            after = q.argmax(axis=1)
            lower_ties += int(np.sum((posted < greedy) & (after == posted)
                                     & (q.max(axis=1) == best)))
            rescans += int(np.sum((posted == greedy) & (after != greedy)))
        return lower_ties, rescans

    @pytest.mark.parametrize("rows", [1, 3, 24])
    def test_greedy_ties_follow_scalar_body(self, rows):
        args = self.tie_args(rows, seed=60 + rows)
        lower_ties, rescans = self.greedy_events(args)
        assert lower_ties > 0 and rescans > 0
        coins = args["uniforms"][:, :, 0]
        share = 1.0 - (1.0 - EXPLORE_FLOOR) / 2
        sampling = (coins >= share).sum(axis=1)
        assert ((0 < sampling) & (sampling < rows)).any() or rows == 1
        self.both_bodies(args)

    def test_nan_in_gcs_q_follows_scalar_body(self):
        # argmax ranks NaN first: a NaN from the table or from an update
        # takes the greedy place by the first-index rule
        args = self.tie_args(3, seed=5)
        args["q_g"][0, 0, 7] = np.nan
        args["q_g"][2, 0, 0] = np.nan
        args["disc_g"] = 0.5
        scalar = self.both_bodies(args)
        assert np.isnan(scalar["q_g"]).sum() > 2

    @staticmethod
    def support_args(rows, slots, seed, sizes):
        """Hot arguments on a 21 x 21 grid whose GCS pi rows sit on small
        supports no two rows share, row r's holding ``sizes(r)`` items,
        returned with the supports.

        The GCS's Q update is the payoff alone (rate 1, discount 0), every
        signed payoff is negative and a declined one +0.0, and every Q
        value starts in [-3, -1]: an item set positive by hand stays above
        every other until it is posted.  The GCS samples pi but on the
        floor share.
        """
        args = kernel_args(rows, slots, 20, 20, seed=seed, hot=True)
        rng = np.random.default_rng(seed)
        items = 441
        cut = np.cumsum([0] + [sizes(r) for r in range(rows)])
        order = rng.permutation(items)
        supports = [np.sort(order[lo:hi]) for lo, hi in zip(cut, cut[1:])]
        pi = np.zeros((rows, 1, items))
        for r, support in enumerate(supports):
            pi[r, 0, support] = rng.dirichlet(np.ones(support.size))
        args["pi_g"] = pi
        args["q_g"] = rng.uniform(-3.0, -1.0, (rows, 1, items))
        args["rate_g"], args["disc_g"] = 1.0, 0.0
        args["rgrid"] = args["rgrid"] + 0.5
        args["weight"][:] = 0.01
        return args, supports

    @staticmethod
    def outside(supports, lo, hi):
        """The first item in [lo, hi) that no row's support holds."""
        taken = set(np.concatenate(supports).tolist())
        return next(k for k in range(lo, hi) if k not in taken)

    @pytest.mark.parametrize("rows", [1, 3, 24])
    def test_disjoint_row_supports_match_scalar_body(self, rows):
        args, supports = self.support_args(rows, 200, seed=80 + rows,
                                           sizes=lambda r: 2 + r % 5)
        q = args["q_g"][:, 0]
        for r, support in enumerate(supports):
            q[r, support[-1]] = 5.0
        assert len(set(np.concatenate(supports).tolist())) == sum(
            s.size for s in supports)
        scalar = self.both_bodies(args)
        # the rows that sampled in slot 0 posted from their own supports
        sampled = args["uniforms"][0, :, 0] >= EXPLORE_FLOOR
        assert sampled.any()
        for r in np.flatnonzero(sampled):
            assert scalar["uav_state"][0, r] in supports[r]

    @pytest.mark.parametrize("where", ["before", "between", "after"])
    @pytest.mark.parametrize("rows", [1, 3, 24])
    def test_greedy_item_joins_its_row_in_item_order(self, rows, where):
        # each row's greedy item lies off its support: before its first
        # item, between two of them or after its last; it joins at the
        # first step and gains pi from then on
        args, supports = self.support_args(rows, 150, seed=90 + rows,
                                           sizes=lambda r: 3)
        q = args["q_g"][:, 0]
        greedy = []
        for r, support in enumerate(supports):
            lo, hi = {"before": (0, support[0]),
                      "between": (support[0] + 1, support[1]),
                      "after": (support[-1] + 1, 441)}[where]
            if hi <= lo:                 # no room on that side: move it
                support = supports[r] = np.array([200, 300, 400]) + r
                args["pi_g"][r, 0] = 0.0
                args["pi_g"][r, 0, support] = 1.0 / 3
                lo, hi = {"before": (0, 200), "between": (201 + r, 300),
                          "after": (401 + r, 441)}[where]
            greedy.append(self.outside(supports, lo, hi))
            q[r, greedy[-1]] = 5.0
        scalar = self.both_bodies(args)
        for r, g in enumerate(greedy):
            assert scalar["pi_g"][r, 0, g] > 0.0
            # the row drew the newcomer and its old items after it joined
            posted = scalar["uav_state"][1:, r]
            assert (posted == g).any()
            assert np.isin(posted, supports[r]).any()

    @pytest.mark.parametrize("rows", [1, 3, 24])
    def test_block_widens_mid_call(self, rows):
        # row 0 is the widest at entry; its greedy item is posted and
        # declined in slot 3, so an item off its support takes the greedy
        # place and row 0 outgrows the block in the middle of the call.
        # Every other row explores one item of its own every slot, so its
        # greedy item, on its support, never moves.
        args, supports = self.support_args(
            rows, 60, seed=100 + rows, sizes=lambda r: 6 if r == 0 else 2)
        q = args["q_g"][:, 0]
        for r, support in enumerate(supports):
            q[r, support[1]] = 5.0
        g0, posted_early = supports[0][1], supports[0][0]
        z = self.outside(supports, 0, 441)
        q[0, z] = 4.0
        u = args["uniforms"]
        items = 441
        u[:, 1:, 0] = 0.0
        for r in range(1, rows):
            u[:, r, 1] = (supports[r][0] + 0.5) / items
        u[:3, 0, 0] = 0.0                          # row 0 explores ...
        u[:3, 0, 1] = (posted_early + 0.5) / items
        u[3, 0, 0] = 0.0
        u[3, 0, 1] = (g0 + 0.5) / items            # ... posts its greedy
        u[3, 0, 2] = 0.0
        u[3, 0, 3] = 0.75                          # which is declined
        u[4:, 0, 0] = 0.5                          # and then samples
        scalar = self.both_bodies(args)
        assert scalar["uav_state"][3, 0] == g0
        assert scalar["gcs_state"][3, 0] == 0
        assert scalar["pi_g"][0, 0, z] > 0.0

    @pytest.mark.parametrize("rows", [1, 3, 24])
    def test_row_down_to_its_greedy_item_alone(self, rows):
        # even rows enter as a point mass on their greedy item; odd rows
        # hold 0.99 there and crumbs that a step of 0.5 decays to 0 at
        # once, after which they sample their greedy item alone until it
        # is posted and falls
        args, supports = self.support_args(rows, 120, seed=110 + rows,
                                           sizes=lambda r: 5)
        args["step_g"] = 0.5
        pi = args["pi_g"][:, 0]
        q = args["q_g"][:, 0]
        for r, support in enumerate(supports):
            g = support[2]
            pi[r] = 0.0
            pi[r, g] = 1.0
            if r % 2:
                pi[r, g] = 0.99
                pi[r, support[support != g]] = 0.0025
            q[r, g] = 5.0
        scalar = self.both_bodies(args)
        # slot 0's samplers posted their greedy item
        sampled = np.flatnonzero(args["uniforms"][0, :, 0] >= EXPLORE_FLOOR)
        assert sampled.size
        for r in sampled:
            assert scalar["uav_state"][0, r] == supports[r][2]

    @pytest.mark.parametrize("rows", [1, 3, 24])
    def test_negative_zeros_at_entry_match_scalar_body(self, rows):
        # -0.0 at each row's greedy item, at another row's support and at
        # an item no row holds: none is on the row's support at entry, the
        # greedy one joins at the first step, and every row leaves with
        # +0.0 wherever its pi is 0
        args, supports = self.support_args(rows, 100, seed=120 + rows,
                                           sizes=lambda r: 3)
        pi = args["pi_g"][:, 0]
        q = args["q_g"][:, 0]
        for r in range(rows):
            g = self.outside(supports, 0, 441)
            stray = self.outside(supports, g + 1, 441)
            pi[r, [g, stray, supports[(r + 1) % rows][0]]] = -0.0
            if rows == 1:
                pi[r, supports[0][0]] = 1.0 / 3
            q[r, g] = 5.0
        assert np.signbit(pi).sum() >= 2 * rows
        scalar = self.both_bodies(args)
        assert not np.signbit(scalar["pi_g"]).any()

    def test_rejects_non_contiguous_tables(self):
        for name in ("q_u", "uav_payoff", "item"):
            args = kernel_form(kernel_args(2, 10, 2, 2, seed=0, hot=False))
            args[name] = np.asfortranarray(args[name])
            with pytest.raises(ValueError):
                _kernels.train_loop(**args)


class TestEpisodeLog:
    @staticmethod
    def log():
        (log,) = train([make_scenario_a()], TestTrain.PARAMS, 30, None,
                       [np.random.default_rng(1)]).logs
        return log

    def test_derived_columns(self):
        # 2 reward points and 3 sizes: item k is size k // 2, reward k % 2
        payoff = np.arange(12.0).reshape(2, 6)
        log = EpisodeLog(type_indices=(3, 1),
                         reward_grid=np.array([0.0, 2.0]),
                         size_grid=np.array([0.0, 1.0, 4.0]),
                         item=np.array([[0, 5], [3, 4]]),
                         signed=np.array([[True, False], [False, True]]),
                         uav_payoff=payoff, gcs_payoff=-payoff)
        assert log.slots == 2
        assert log.reward_index.tolist() == [[0, 1], [1, 0]]
        assert log.size_index.tolist() == [[0, 2], [1, 2]]
        assert log.rewards.tolist() == [[0.0, 2.0], [2.0, 0.0]]
        assert log.sizes.tolist() == [[0.0, 4.0], [1.0, 4.0]]
        assert log.uav_utility.tolist() == [[0.0, 0.0], [0.0, 10.0]]
        assert log.gcs_term.tolist() == [[-0.0, 0.0], [0.0, -10.0]]

    def test_refuses_an_item_off_the_grid(self):
        # -1 would wrap to the last item under take; items is one past it
        log = self.log()
        for value in (-1, log.uav_payoff.shape[1]):
            item = log.item.copy()
            item[7, 1] = value
            with pytest.raises(ValidationError) as err:
                replace(log, item=item)
            assert err.value.field == "item"

    @pytest.mark.parametrize("field, edit", [
        ("item", lambda log: log.item[:, :1]),
        ("item", lambda log: log.item[:, 0]),
        ("item", lambda log: log.item.astype(np.float64)),
        ("signed", lambda log: log.signed[1:]),
        ("signed", lambda log: log.signed.astype(np.int64)),
        ("uav_payoff", lambda log: log.uav_payoff[:, 1:]),
        ("gcs_payoff", lambda log: np.vstack([log.gcs_payoff] * 2))])
    def test_refuses_a_mismatched_shape(self, field, edit):
        log = self.log()
        with pytest.raises(ValidationError) as err:
            replace(log, **{field: edit(log)})
        assert err.value.field == field


def sliced(tables, lo, hi):
    """Rows ``lo`` to ``hi`` of both sides of ``tables``."""
    return Tables(*(getattr(tables, f.name)[lo:hi] for f in fields(tables)))


class TestBatchTrain:
    def test_batch_equals_one_run_calls(self):
        # a batch of seeds with their own scenarios and inits gives what
        # each seed's batch of one gives, tables and visits included
        sc = make_scenario_a()
        params = PhcParams(reward_levels=4, size_levels=3, r_max=12.0)
        warm = train([sc], params, 50, None, [np.random.default_rng(9)])
        family = [sc, perturb_scenario(sc, np.random.default_rng(4))]
        scenarios = [family[0], family[1], family[1]]
        inits = [None, warm.tables, None]
        parts = [Tables.cold(2, 20) if init is None else init
                 for init in inits]
        stack = Tables(*(np.concatenate([getattr(t, f.name) for t in parts])
                         for f in fields(Tables)))
        batch = train(scenarios, params, 120, stack,
                      [np.random.default_rng(s) for s in (1, 2, 3)])
        assert len(batch.logs) == 3
        # two eligible types: seed k owns rows 2k and 2k + 1
        for k, (got, seed, sc_k, init) in enumerate(zip(
                batch.logs, (1, 2, 3), scenarios, inits)):
            want = train([sc_k], params, 120, init,
                         [np.random.default_rng(seed)])
            assert logs_equal(got, want.logs[0])
            assert tables_equal(sliced(batch.tables, 2 * k, 2 * k + 2),
                                want.tables)
        # the warm tables passed in are left as they were
        again = train([sc], params, 50, None, [np.random.default_rng(9)])
        assert tables_equal(warm.tables, again.tables)

    def test_hotboot_batch_equals_one_run_chains(self):
        sc = make_scenario_a()
        params = PhcParams(reward_levels=4, size_levels=3)
        families = [[sc, perturb_scenario(sc, np.random.default_rng(s))]
                    for s in (5, 6)]
        batch = hotboot(families, 3, params,
                        [np.random.default_rng(s) for s in (5, 6)],
                        slots_per_episode=80)
        # two eligible types: seed k owns rows 2k and 2k + 1
        for k, (fam, seed) in enumerate(zip(families, (5, 6))):
            want = hotboot([fam], 3, params, [np.random.default_rng(seed)],
                           slots_per_episode=80)
            assert tables_equal(sliced(batch, 2 * k, 2 * k + 2), want)

    @pytest.mark.parametrize("seeds", [(7,), (7, 8, 9)])
    def test_hotboot_equals_a_chain_of_train_calls(self, seeds):
        # hotboot trains one stack in place; a chain of train calls, each
        # copying and checking the stack, must give the same bits, visits
        # included, the picks drawn from the same generators
        sc = make_scenario_a()
        params = PhcParams(reward_levels=4, size_levels=3)
        families = [[sc] + [perturb_scenario(sc, np.random.default_rng(s))
                            for s in (seed, seed + 20, seed + 40)]
                    for seed in seeds]
        got = hotboot(families, 4, params,
                      [np.random.default_rng(s) for s in seeds], 300)
        # the grids come from the first family's first member
        resolved = with_default_r_max(params, sc)
        rngs = [np.random.default_rng(s) for s in seeds]
        want = None
        for _ in range(4):
            picked = [fam[int(g.integers(0, len(fam)))]
                      for fam, g in zip(families, rngs)]
            want = train(picked, resolved, 300, want, rngs).tables
        assert tables_equal(got, want)
        assert (want.gcs_visits == 4 * 300).all()

    def test_batch_validation(self):
        sc = make_single_type()
        params = PhcParams(reward_levels=3, size_levels=3)
        rngs = [np.random.default_rng(0), np.random.default_rng(1)]
        with pytest.raises(ValidationError):
            train([sc], params, 10, None, [])
        with pytest.raises(ValidationError):
            train([sc], params, 10, None, rngs)
        with pytest.raises(ValidationError):
            train(2 * [sc], params, 10, [None], rngs)
        # seeds whose grids differ cannot share one kernel call
        with pytest.raises(ValidationError):
            train([sc, make_single_type(s_max=20.0)], params, 10, None, rngs)
        with pytest.raises(ValidationError):
            hotboot([[sc]], 1, params, rngs)
        # a bare Scenario or generator, or a nested sequence, is named
        # rather than failing inside the loop
        for scenarios, gens, field in (
                ([sc], [0], "rngs"),
                (2 * [sc], [np.random.default_rng(0), 1.5], "rngs"),
                (sc, [np.random.default_rng(0)], "scenarios"),
                ([sc], np.random.default_rng(0), "rngs"),
                ([[sc]], np.random.default_rng(0), "scenarios"),
                ([[sc]], [np.random.default_rng(0)], "scenarios")):
            with pytest.raises(ValidationError) as err:
                train(scenarios, params, 10, None, gens)
            assert err.value.field == field
        for families, gens, field in (
                ([[sc]], [0], "rngs"),
                ([[sc], [sc]], [np.random.default_rng(0), None], "rngs"),
                ([[sc]], np.random.default_rng(0), "rngs"),
                ([sc], [np.random.default_rng(0)], "families"),
                (sc, [np.random.default_rng(0)], "families")):
            with pytest.raises(ValidationError) as err:
                hotboot(families, 1, params, gens, 10)
            assert err.value.field == field


@pytest.mark.parametrize("levels, other, accepted", [
    # a pinned r_max, so that only the size grid can differ
    ((20, 20, 10.0), make_single_type(s_max=27.5), False),
    ((20, 0, 10.0), make_single_type(s_max=27.5), True),
    # c1 0.5 and 0.7 resolve to other default reward ceilings
    ((20, 20, None), make_single_type(c=0.7), False),
    ((0, 20, None), make_single_type(c=0.7), True),
    ((20, 20, None), replace(make_single_type(), deployment_cost=2.0), False),
    ((20, 20, None), replace(make_single_type(), t_max=0.5), False)],
    ids=["s_max", "s_max_one_size", "r_max", "r_max_one_reward",
         "deployment_cost", "no_eligible_type"])
def test_train_and_hotboot_share_one_batch_rule(levels, other, accepted):
    # each seed's scenario, or family of one, in either order: train and
    # hotboot give one verdict, and a refusal names their own argument
    sc = make_single_type()
    params = PhcParams(reward_levels=levels[0], size_levels=levels[1],
                       r_max=levels[2])
    for pair in ([sc, other], [other, sc]):
        rngs = [np.random.default_rng(s) for s in (1, 2)]
        for name, run in (
                ("scenarios", lambda: train(pair, params, 10, None, rngs)),
                ("families", lambda: hotboot([[s] for s in pair], 1, params,
                                             rngs, 10))):
            if accepted:
                run()
            else:
                with pytest.raises(ValidationError) as err:
                    run()
                assert err.value.field == name


class TestTrajectoryShape:
    def test_learning_raises_delivery(self):
        # a cheap type starts mid-grid and climbs toward a large contract
        sc = make_single_type(c=0.15, s_max=25.0)
        params = PhcParams(reward_levels=10, size_levels=10, r_max=38.0)
        for seed in (0, 6, 7):
            (log,) = train([sc], params, 20_000, None,
                           [np.random.default_rng(seed)]).logs
            sizes = log.sizes[:, 0]
            assert sizes[-500:].mean() > sizes[:500].mean()


class TestConvergence:
    def test_locked_tail_converges(self):
        rng = np.random.default_rng(0)
        b = np.concatenate([rng.integers(0, 4, 300), np.full(200, 2)])
        a = np.concatenate([rng.integers(0, 5, 300), np.full(200, 3)])
        log = synthetic_log(b, a)
        verdicts = convergence_check(log, window=200)
        assert len(verdicts) == 1
        v = verdicts[0]
        assert v.converged
        assert (v.size_index, v.reward_index) == (2, 3)
        assert (v.size, v.reward) == (2.0, 3.0)

    def test_split_tail_does_not(self):
        b = np.tile([1, 2], 250)
        a = np.full(500, 3)
        log = synthetic_log(b, a)
        assert not convergence_check(log, window=500)[0].converged

    def test_tolerance_boundary(self):
        a = np.full(100, 3)
        b_pass = np.concatenate([np.full(95, 2), np.full(5, 0)])
        b_fail = np.concatenate([np.full(94, 2), np.full(6, 0)])
        assert convergence_check(synthetic_log(b_pass, a),
                                 window=100)[0].converged
        assert not convergence_check(synthetic_log(b_fail, a),
                                     window=100)[0].converged

    def test_short_log_raises(self):
        log = synthetic_log(np.zeros(10, dtype=int), np.zeros(10, dtype=int))
        with pytest.raises(InsufficientData):
            convergence_check(log, window=11)
        with pytest.raises(InsufficientData):
            convergence_check(log, window=0)
        with pytest.raises(InsufficientData):
            convergence_slot(log, window=11)

    def test_slot_of_first_stable_window(self):
        junk = np.tile([0, 1], 50)
        b = np.concatenate([junk, np.full(200, 3)])
        a = np.concatenate([junk, np.full(200, 2)])
        log = synthetic_log(b, a)
        # window ending at m holds (m - 100) locked slots; the first m with
        # share >= 0.95 over a 50-slot window is ceil(100 + 47.5)
        assert convergence_slot(log, window=50) == 148.0
        # a 300-slot window never fits 95% of locked slots in this log
        assert convergence_slot(log, window=300) == float("inf")
        assert convergence_slot(synthetic_log(junk, junk),
                                window=50) == float("inf")

    def test_all_types_must_lock(self):
        locked = np.full(400, 1)
        loose = np.tile([0, 1], 200)
        b = np.stack([locked, loose], axis=1)
        a = np.stack([locked, locked], axis=1)
        log = synthetic_log(b, a)
        assert not all(v.converged for v in convergence_check(log, 100))
        assert convergence_slot(log, 100) == float("inf")

    def test_multitype_slot_takes_latest(self):
        early = np.concatenate([np.tile([0, 1], 50), np.full(300, 2)])
        late = np.concatenate([np.tile([0, 1], 150), np.full(100, 2)])
        log = synthetic_log(np.stack([early, late], axis=1),
                            np.stack([early, late], axis=1))
        only_early = synthetic_log(early, early)
        only_late = synthetic_log(late, late)
        assert convergence_slot(log, 80) == max(
            convergence_slot(only_early, 80), convergence_slot(only_late, 80))

    @given(st.integers(0, 2 ** 32 - 1))
    def test_slot_matches_one_hot_reference(self, seed):
        # random logs of loose and locked stretches, windows of any length
        # and tolerances on and off the window's count steps
        rng = np.random.default_rng(seed)
        slots = int(rng.integers(1, 400))
        types = int(rng.integers(1, 4))
        columns = []
        for _ in range(2 * types):
            actions = int(rng.integers(1, 6))
            column = rng.integers(0, actions, slots)
            for _ in range(int(rng.integers(0, 4))):
                lo, hi = np.sort(rng.integers(0, slots + 1, 2))
                column[lo:hi] = rng.integers(0, actions)
            columns.append(column)
        log = synthetic_log(np.stack(columns[:types], axis=1),
                            np.stack(columns[types:], axis=1))
        window = int(rng.integers(1, slots + 1))
        for tolerance in (0.95, float(rng.uniform(0.3, 1.0)),
                          int(rng.integers(0, window + 1)) / window, 1.0):
            assert (convergence_slot(log, window, tolerance)
                    == reference_convergence_slot(log, window, tolerance))


class TestHotboot:
    PARAMS = PhcParams(reward_levels=4, size_levels=4)

    def test_zero_episodes_cold(self):
        sc = make_single_type()
        tables = hotboot([[sc]], 0, self.PARAMS, [np.random.default_rng(0)])
        # one row on each side: one GCS state over the 25 items; one UAV
        # state per item, 2 answers
        assert tables.gcs_q.shape == (1, 1, 25)
        assert tables.uav_q.shape == (1, 25, 2)
        assert np.all(tables.gcs_q == 0.0) and np.all(tables.uav_q == 0.0)
        assert np.all(tables.gcs_pi == 1.0 / 25.0)
        assert np.all(tables.uav_pi == 0.5)
        assert np.all(tables.gcs_visits == 0)
        assert np.all(tables.uav_visits == 0)
        assert tables_equal(tables, Tables.cold(1, 25))

    def test_episodes_move_tables_deterministically(self):
        sc = make_single_type()
        fam = [sc, perturb_scenario(sc, np.random.default_rng(99))]
        a = hotboot([fam], 3, self.PARAMS, [np.random.default_rng(1)],
                    slots_per_episode=200)
        b = hotboot([fam], 3, self.PARAMS, [np.random.default_rng(1)],
                    slots_per_episode=200)
        assert tables_equal(a, b)
        assert not np.all(a.uav_q == 0.0)
        a.check()

    def test_family_must_share_type_count(self):
        sc = make_single_type()
        bad = make_scenario_a()
        with pytest.raises(ValidationError):
            hotboot([[sc, bad]], 20, self.PARAMS, [np.random.default_rng(1)],
                    slots_per_episode=50)

    @pytest.mark.parametrize("member", [
        {"s_max": 27.5}, {"deployment_cost": 2.0}])
    def test_every_member_must_share_grids_and_deployment_cost(
            self, member):
        # a member that differs from the first family's first member is
        # refused before any training, whichever members the seeds pick
        sc = make_scenario_a()
        other = replace(sc, **member)
        for families in ([[sc, other]], [[sc], [sc, other]],
                         [[sc], [other]], [[other], [sc]]):
            for seed in range(10):
                rngs = [np.random.default_rng(seed + k)
                        for k in range(len(families))]
                for episodes in (0, 1):
                    with pytest.raises(ValidationError) as err:
                        hotboot(families, episodes, self.PARAMS, rngs, 10)
                    assert err.value.field == "families"

    def test_members_are_checked_whatever_the_picks(self, monkeypatch):
        # a member with another eligible type count is refused even where
        # no episode would pick it, and before a single slot is trained
        sc = make_single_type()
        bad = make_scenario_a()
        calls = []
        monkeypatch.setattr(_kernels, "train_loop",
                            lambda *args: calls.append(args))
        for seed in range(10):
            with pytest.raises(ValidationError) as err:
                hotboot([[sc, bad]], 1, self.PARAMS,
                        [np.random.default_rng(seed)], 10)
            assert err.value.field == "families"
        with pytest.raises(ValidationError):
            hotboot([[sc] * 5 + [bad]], 0, self.PARAMS,
                    [np.random.default_rng(0)], 10)
        assert calls == []

    def test_a_size_grid_of_one_point_ignores_s_max(self):
        # with no size levels every s_max gives the grid {0}, so a member
        # of another s_max keeps the meaning of every action index
        sc = make_single_type()
        params = PhcParams(reward_levels=4, size_levels=0, r_max=10.0)
        got = hotboot([[sc, replace(sc, s_max=20.0)]], 2, params,
                      [np.random.default_rng(3)], 50)
        assert got.gcs_q.shape == (1, 1, 5)

    def test_bad_arguments(self):
        with pytest.raises(ValidationError):
            hotboot([[]], 1, self.PARAMS, [np.random.default_rng(0)])
        with pytest.raises(ValidationError):
            hotboot([[make_single_type()]], -1, self.PARAMS,
                    [np.random.default_rng(0)])
        # no eligible type to train, an episode of no slots, and counts
        # that are no integers or are bools
        for family, episodes, slots, field in (
                ([make_scenario_a(t_max=0.5)], 0, 10, "families"),
                ([make_single_type()], 0, 0, "slots_per_episode"),
                ([make_single_type()], 1.5, 10, "episodes"),
                ([make_single_type()], True, 10, "episodes"),
                ([make_single_type()], 1, 10.5, "slots_per_episode"),
                ([make_single_type()], 1, True, "slots_per_episode")):
            with pytest.raises(ValidationError) as err:
                hotboot([family], episodes, self.PARAMS,
                        [np.random.default_rng(0)], slots)
            assert err.value.field == field


class TestPerturb:
    def test_bounds_and_structure(self):
        sc = make_scenario_a()
        rng = np.random.default_rng(12)
        for _ in range(100):
            out = perturb_scenario(sc, rng)
            for base, got in zip(sc.types, out.types):
                assert got.index == base.index and got.t == base.t
                assert 0.8 * base.c1 - 1e-12 <= got.c1 <= 1.2 * base.c1 + 1e-12
                assert got.c2 == 0.0
                assert got.n >= 1
                assert abs(got.n - base.n) <= math.ceil(0.2 * base.n)
            assert out.total_uavs == sum(t.n for t in out.types)
            assert out.s_max == sc.s_max and out.t_max == sc.t_max
            assert len(eligible_types(out)) == len(eligible_types(sc))

    def test_zero_range_identity(self):
        sc = make_scenario_a()
        out = perturb_scenario(sc, np.random.default_rng(0), rel_range=0.0)
        assert out == sc

    def test_range_validation(self):
        with pytest.raises(ValidationError):
            perturb_scenario(make_scenario_a(), np.random.default_rng(0),
                             rel_range=1.0)


class TestValidation:
    def test_phc_params_fields(self):
        for kwargs in ({"learning_rate_gcs": 0.0},
                       {"learning_rate_uav": 1.5},
                       {"discount_gcs": 1.0}, {"discount_uav": -0.1},
                       {"step_gcs": 0.0}, {"step_uav": 1.0},
                       {"reward_levels": -1}, {"size_levels": 2.5},
                       {"size_levels": True},
                       {"r_max": 0.0}, {"r_max": math.inf},
                       {"r_max": math.nan}, {"step_uav": math.nan}):
            with pytest.raises(ValidationError) as err:
                PhcParams(**kwargs)
            assert err.value.field == next(iter(kwargs))

    def test_overflowing_payoff_terms_are_named(self):
        params = PhcParams(r_max=13.0)
        for scenario, term in (
                (make_single_type(n=10 ** 308),
                 r"the GCS weight factor\*n/t"),
                (make_single_type(c=1e308), r"the UAV cost c\*s_max \+ C0"),
                (make_single_type(n=10 ** 307), "the GCS's Q bound")):
            with pytest.raises(ValueError,
                               match=rf"^phc: type 1: {term} overflows to "
                                     rf"inf$") as err:
                check_payoffs(scenario, params)
            assert type(err.value) is ValueError
        # within range as given, beyond it once perturbed by up to 20%
        near = make_single_type(n=2 * 10 ** 306)
        check_payoffs(near, params)
        with pytest.raises(ValueError, match="the GCS's Q bound"):
            check_payoffs(near, params, spread=0.2)

    def test_perturbed_counts_are_bounded_as_drawn(self):
        # perturb_scenario draws max(1, round(n*f)) with f below 1 + spread:
        # a count of 0 becomes 1 under any range, and 3 rounds up to 4
        # under a 20% one, past 3 * 1.2
        params = PhcParams(r_max=13.0)
        zero = Scenario(types=(UavType(index=1, c1=0.5, c2=0.0, t=1.0, n=5),
                               UavType(index=2, c1=0.3, c2=0.0, t=1e-310,
                                       n=0)),
                        satisfaction_factor=6.0, deployment_cost=1.0,
                        s_max=13.75, t_max=1.0, vdd_demand=800.0,
                        total_uavs=5)
        check_payoffs(zero, params)
        for spread in (0.0, 0.2):
            with pytest.raises(ValueError, match=r"^phc: type 2: the GCS "
                               r"weight factor\*n/t overflows to inf$"):
                check_payoffs(zero, params, spread=spread)
        three = Scenario(types=(UavType(index=1, c1=0.5, c2=0.0, t=1.3e-307,
                                        n=3),),
                         satisfaction_factor=6.0, deployment_cost=1.0,
                         s_max=0.1, t_max=1.0, vdd_demand=800.0,
                         total_uavs=3)
        assert math.isfinite(6.0 * 3 * 1.2 / 1.3e-307)
        check_payoffs(three, params)
        with pytest.raises(ValueError, match=r"type 1: the GCS weight"):
            check_payoffs(three, params, spread=0.2)
        rng = np.random.default_rng(0)
        assert 4 in {perturb_scenario(three, rng).types[0].n
                     for _ in range(200)}
        # a count past the float range once grown is named, not an
        # OverflowError
        with pytest.raises(ValueError, match=r"the GCS weight"):
            check_payoffs(make_single_type(n=10 ** 308), params, spread=0.2)

    def test_policy_tables_checks(self):
        # each malformed array of either side is named by what it holds
        tables = Tables.cold(2, 3)

        def edited(field, at, value):
            array = getattr(tables, field).copy()
            array[at] = value
            return array

        for field, name, array in (
                ("uav_pi", "pi", np.full((2, 2, 3), 0.5)),
                ("gcs_q", "q", np.zeros((2, 3))),
                ("uav_q", "q", np.zeros((2, 3, 3))),
                ("uav_q", "q", np.zeros((2, 4, 2))),
                ("gcs_q", "q", edited("gcs_q", (1, 0, 2), np.nan)),
                ("uav_pi", "pi", edited("uav_pi", (0, 1), [0.7, 0.6])),
                ("uav_pi", "pi", edited("uav_pi", (1, 2), [1.2, -0.2])),
                ("uav_visits", "visits", np.zeros((2, 4))),
                ("gcs_visits", "visits", edited("gcs_visits", 1, -1)),
                # NaN lies in no range and sums to nothing
                ("gcs_pi", "pi", edited("gcs_pi", (0, 0),
                                        [np.nan, .5, .5]))):
            with pytest.raises(ValidationError) as err:
                replace(tables, **{field: array})
            assert err.value.field == name
        # a stack whose rows or items are not the batch's is refused as
        # the init; each side's rows are counted
        sc = make_single_type()
        params = PhcParams(reward_levels=3, size_levels=3)
        one_row = Tables.cold(1, 16)
        for init in (Tables.cold(2, 16), Tables.cold(0, 16),
                     Tables.cold(1, 15),
                     replace(one_row, uav_q=np.zeros((2, 16, 2)),
                             uav_pi=np.full((2, 16, 2), 0.5),
                             uav_visits=np.zeros((2, 16)))):
            with pytest.raises(ValidationError) as err:
                train([sc], params, 10, init, [np.random.default_rng(0)])
            assert err.value.field == "init"

    def test_uav_row_sum_at_the_tolerance_edge(self):
        # a UAV row's two entries are summed as pi[..., 0] + pi[..., 1]; a
        # row 2e-9 past 1 is refused, one 5e-10 past it is accepted
        tables = Tables.cold(2, 3)
        for excess, refused in ((2e-9, True), (5e-10, False)):
            pi = tables.uav_pi.copy()
            pi[1, 2] = [0.5, 0.5 + excess]
            assert abs(pi[1, 2].sum() - (1.0 + excess)) < 1e-15
            if refused:
                with pytest.raises(ValidationError) as err:
                    replace(tables, uav_pi=pi)
                assert err.value.field == "pi"
            else:
                accepted = replace(tables, uav_pi=pi)
                assert accepted.uav_pi[1, 2, 1] == pi[1, 2, 1]

    @staticmethod
    def table_bytes(tables):
        return [getattr(tables, f.name).tobytes() for f in fields(tables)]

    @pytest.mark.parametrize("side, name, at, value", [
        (0, "q", (0, 3), np.nan),
        (1, "q", (5, 1), -np.inf),
        (1, "pi", 2, [1.25, -0.25]),
        (0, "pi", (0, 1), np.nan),
        (0, "pi", (0, 4), 0.5),                 # the row sums past 1
        (1, "visits", 7, -1),
    ])
    def test_train_checks_the_stack_as_each_table(self, side, name, at,
                                                  value):
        # one check over the stacked tables of a 3-seed batch raises what
        # the broken row's own check raises, before anything moves
        sc = make_scenario_a()
        params = PhcParams(reward_levels=4, size_levels=3, r_max=12.0)
        stack = train(3 * [sc], params, 40, None,
                      [np.random.default_rng(s) for s in (1, 2, 3)]).tables
        # two eligible types: the second seed's second type is row 3
        array = getattr(stack, ("gcs_", "uav_")[side] + name)
        array[(3,) + np.index_exp[at]] = value
        with pytest.raises(ValidationError) as own:
            sliced(stack, 3, 4)
        before = self.table_bytes(stack)
        with pytest.raises(ValidationError) as err:
            train(3 * [sc], params, 20, stack,
                  [np.random.default_rng(s) for s in (4, 5, 6)])
        assert err.value.field == own.value.field == name
        assert self.table_bytes(stack) == before

    def test_train_returns_checked_tables(self):
        sc = make_scenario_a()
        params = PhcParams(reward_levels=4, size_levels=3, r_max=12.0)
        rngs = [np.random.default_rng(s) for s in (1, 2, 3)]
        stack = train(3 * [sc], params, 40, None, rngs).tables
        before = self.table_bytes(stack)
        again = train(3 * [sc], params, 60, stack, rngs).tables
        for t in (stack, again):
            t.check()
            assert (t.gcs_q.dtype == t.gcs_pi.dtype == t.uav_q.dtype
                    == t.uav_pi.dtype == np.float64)
            assert t.gcs_visits.dtype == t.uav_visits.dtype == np.int64
        assert self.table_bytes(stack) == before
        # train returns its own copy, not the stack it was given
        assert not np.shares_memory(again.uav_q, stack.uav_q)
