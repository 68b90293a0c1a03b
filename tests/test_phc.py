import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from uavcontract import (InsufficientData, PhcParams, PolicyTables, Scenario,
                         UavType, ValidationError, action_grids,
                         convergence_check, convergence_slot, eligible_types,
                         hotboot, perturb_scenario, phc_update,
                         select_action, train, with_default_r_max)
from uavcontract import _kernels
from uavcontract.phc import (EXPLORE_FLOOR, EXPLORE_VISITS, EpisodeLog,
                             default_r_max)

import reference_kernels as ref
from conftest import make_scenario_a, make_single_type, random_scenario


def synthetic_log(size_index, reward_index):
    size_index = np.asarray(size_index, dtype=np.int64)
    reward_index = np.asarray(reward_index, dtype=np.int64)
    if size_index.ndim == 1:
        size_index = size_index[:, None]
        reward_index = reward_index[:, None]
    nb = int(size_index.max()) + 1
    na = int(reward_index.max()) + 1
    slots, j = size_index.shape
    zeros_i = np.zeros((slots, j), dtype=np.int64)
    zeros_f = np.zeros((slots, j))
    return EpisodeLog(type_indices=tuple(range(1, j + 1)),
                      reward_grid=np.arange(na, dtype=np.float64),
                      size_grid=np.arange(nb, dtype=np.float64),
                      reward_index=reward_index, size_index=size_index,
                      gcs_state=zeros_i, uav_state=zeros_i,
                      uav_utility=zeros_f, gcs_term=zeros_f)


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
        tables = PolicyTables.cold(3, 11)
        phc_update(tables, state=1, action=4, payoff=10.0, next_state=2,
                   rate=0.7, discount=0.8, step=0.01)
        assert tables.q[1, 4] == pytest.approx(7.0)
        assert np.all(tables.q[0] == 0.0) and np.all(tables.q[2] == 0.0)
        gain = 1.0 / 11.0 + 0.01
        lose = 1.0 / 11.0 - 0.01 / 11.0
        total = gain + 10.0 * lose
        assert tables.pi[1, 4] == pytest.approx(gain / total, rel=1e-12)
        assert tables.pi[1, 0] == pytest.approx(lose / total, rel=1e-12)
        assert np.all(tables.pi[0] == 1.0 / 11.0)

    def test_bootstrap_uses_next_state_row(self):
        tables = PolicyTables.cold(2, 2)
        tables.q[1] = [0.0, 4.0]
        phc_update(tables, state=0, action=0, payoff=1.0, next_state=1,
                   rate=0.5, discount=0.5, step=0.01)
        assert tables.q[0, 0] == pytest.approx(0.5 * (1.0 + 0.5 * 4.0))

    def test_self_bootstrap_reads_pre_update_value(self):
        tables = PolicyTables.cold(1, 1)
        tables.q[0, 0] = 2.0
        phc_update(tables, state=0, action=0, payoff=-1.0, next_state=0,
                   rate=0.7, discount=0.8, step=0.01)
        assert tables.q[0, 0] == pytest.approx(0.3 * 2.0 + 0.7 * (-1.0 + 0.8 * 2.0))

    def test_zero_payoff_zero_tables_fixed_point(self):
        tables = PolicyTables.cold(2, 3)
        before = tables.pi.copy()
        phc_update(tables, 0, 1, 0.0, 1, 0.7, 0.8, 0.01)
        assert np.all(tables.q == 0.0)
        # greedy falls back to the first action of an all-equal row
        assert tables.pi[0, 0] > before[0, 0]
        assert tables.pi[0].sum() == pytest.approx(1.0, abs=1e-12)

    @given(st.integers(0, 2 ** 32 - 1))
    def test_simplex_preserved(self, seed):
        rng = np.random.default_rng(seed)
        tables = PolicyTables.cold(4, 6)
        for _ in range(50):
            phc_update(tables, int(rng.integers(4)), int(rng.integers(6)),
                       float(rng.normal(scale=30.0)), int(rng.integers(4)),
                       0.7, 0.8, float(rng.uniform(0.001, 0.5)))
        tables.check()

    def test_simplex_preserved_bulk(self):
        rng = np.random.default_rng(0)
        m = 10_000
        tables = PolicyTables.cold(8, 12)
        ref.update_many_wide(tables.q, tables.pi,
                             rng.integers(0, 8, m), rng.integers(0, 12, m),
                             rng.normal(scale=50.0, size=m),
                             rng.integers(0, 8, m), 0.7, 0.8, 0.01)
        tables.check()

    def test_wide_step_matches_scalar_rule(self):
        # the whole-row form the GCS's rows take must reproduce the scalar
        # rule bit for bit, clamps at 0 and 1 included
        rng = np.random.default_rng(4)
        n = 24
        wide = PolicyTables.cold(3, n)
        scalar = wide.copy()
        for k in range(400):
            args = (int(rng.integers(3)), int(rng.integers(n)),
                    float(rng.normal(scale=20.0)), int(rng.integers(3)),
                    0.7, 0.8, float(rng.uniform(0.001, 0.3)))
            if k >= 300:
                # keep rewarding one action so its probability hits 1
                args = (0, 5, 100.0) + args[3:]
            ref.phc_step_wide(wide.q, wide.pi, *args)
            _kernels.phc_step(scalar.q, scalar.pi, *args)
        assert np.array_equal(wide.q, scalar.q)
        assert np.array_equal(wide.pi, scalar.pi)
        assert np.any(wide.pi == 1.0) and np.any(wide.pi == 0.0)

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
        row = PolicyTables.cold(6, 12)
        scalar = row.copy()
        ref.update_many_wide(row.q, row.pi, states, actions, payoffs,
                             next_states, 0.7, 0.8, 0.05)
        ref.update_many(scalar.q, scalar.pi, states, actions, payoffs,
                        next_states, 0.7, 0.8, 0.05)
        assert row.q.tobytes() == scalar.q.tobytes()
        assert row.pi.tobytes() == scalar.pi.tobytes()
        assert np.any(scalar.pi == 1.0) and np.any(scalar.pi == 0.0)

    def test_value_bound(self):
        # |Q| stays within max|payoff| / (1 - discount) from zero init
        rng = np.random.default_rng(2)
        cap = 20.0
        discount = 0.8
        tables = PolicyTables.cold(5, 5)
        m = 5000
        ref.update_many_wide(tables.q, tables.pi,
                             rng.integers(0, 5, m), rng.integers(0, 5, m),
                             rng.uniform(-cap, cap, m),
                             rng.integers(0, 5, m), 0.9, discount, 0.05)
        assert np.max(np.abs(tables.q)) <= cap / (1.0 - discount) + 1e-9


class TestSampling:
    def test_inverse_cdf_boundaries(self):
        row = np.array([0.3, 0.2, 0.5])
        assert _kernels.sample_index(row, 0.0) == 0
        assert _kernels.sample_index(row, 0.2999) == 0
        assert _kernels.sample_index(row, 0.3) == 1
        assert _kernels.sample_index(row, 0.4999) == 1
        assert _kernels.sample_index(row, 0.5) == 2
        assert _kernels.sample_index(row, 0.999999) == 2

    def test_point_mass(self):
        tables = PolicyTables(q=np.zeros((1, 4)),
                              pi=np.array([[0.0, 0.0, 1.0, 0.0]]))
        rng = np.random.default_rng(1)
        assert all(select_action(tables, 0, rng) == 2 for _ in range(200))

    def test_uniform_frequencies(self):
        n = 5
        draws = 100_000
        tables = PolicyTables.cold(1, n)
        rng = np.random.default_rng(10)
        counts = np.bincount([select_action(tables, 0, rng)
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
                    == _kernels.sample_index(row, u))

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
        gcs = PolicyTables(q=np.zeros((1, items)),
                           pi=np.eye(1, items))
        uav = PolicyTables(q=np.zeros((items, 2)),
                           pi=np.tile([0.0, 1.0], (items, 1)))
        fresh = train(sc, params, 400, ((gcs,), (uav,)),
                      np.random.default_rng(0)).log
        assert len(np.unique(fresh.uav_state)) == items
        assert fresh.signed.any()
        # once the visits reach the horizon, the floor share is all that
        # strays from pi
        gcs.visits[:] = EXPLORE_VISITS * items
        uav.visits[:] = EXPLORE_VISITS
        settled = train(sc, params, 2000, ((gcs,), (uav,)),
                        np.random.default_rng(0)).log
        assert 0.0 < np.mean(settled.uav_state != 0) < 0.02
        assert np.mean(settled.signed) < 0.02

    def test_same_seed_same_sequence(self):
        tables = PolicyTables.cold(1, 7)
        rng_a = np.random.default_rng(5)
        rng_b = np.random.default_rng(5)
        a = [select_action(tables, 0, rng_a) for _ in range(50)]
        b = [select_action(tables, 0, rng_b) for _ in range(50)]
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
    gcs = [PolicyTables.cold(1, items) for _ in order]
    uav = [PolicyTables.cold(items, 2) for _ in order]

    def pick(tables, state, horizon, u_explore, u_pick):
        n = tables.pi.shape[1]
        visits = tables.visits[state]
        tables.visits[state] += 1
        share = (floor if visits >= horizon
                 else 1.0 - (1.0 - floor) * visits / horizon)
        if u_explore < share:
            return min(int(u_pick * n), n - 1)
        return _kernels.sample_index(tables.pi[state], u_pick)

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
            phc_update(uav[j], k, answer, u_pay, k,
                       params.learning_rate_uav, params.discount_uav,
                       params.step_uav)
            phc_update(gcs[j], 0, k, g_pay, 0, params.learning_rate_gcs,
                       params.discount_gcs, params.step_gcs)
            for key, v in zip(("a", "b", "gs", "us", "up", "gp"),
                              (a, b, int(answer == 0), k, u_pay, g_pay)):
                cols[key].append(v)
        for key in logs:
            logs[key].append(cols[key])
    arrays = {k: np.array(v).T for k, v in logs.items()}
    return arrays, gcs, uav


class TestTrain:
    PARAMS = PhcParams(reward_levels=4, size_levels=3, r_max=12.0)

    def test_matches_hand_replica(self):
        sc = make_scenario_a()
        result = train(sc, self.PARAMS, 40, None, np.random.default_rng(8))
        arrays, gcs, uav = replica_train(sc, self.PARAMS, 40, 8)
        log = result.log
        assert np.array_equal(log.reward_index, arrays["a"])
        assert np.array_equal(log.size_index, arrays["b"])
        assert np.array_equal(log.gcs_state, arrays["gs"])
        assert np.array_equal(log.uav_state, arrays["us"])
        assert np.array_equal(log.uav_utility, arrays["up"])
        assert np.array_equal(log.gcs_term, arrays["gp"])
        for got, want in zip(result.gcs_tables + result.uav_tables,
                             gcs + uav):
            assert np.array_equal(got.q, want.q)
            assert np.array_equal(got.pi, want.pi)
            assert np.array_equal(got.visits, want.visits)
        # the run exercised both answers
        assert 0 < log.signed.sum() < log.signed.size

    def test_deterministic_per_seed(self):
        sc = make_single_type()
        params = PhcParams(reward_levels=6, size_levels=6)
        a = train(sc, params, 300, None, np.random.default_rng(4))
        b = train(sc, params, 300, None, np.random.default_rng(4))
        c = train(sc, params, 300, None, np.random.default_rng(5))
        assert a.log.equals(b.log)
        assert not a.log.equals(c.log)

    def test_payoff_identities(self):
        sc = make_scenario_a()
        result = train(sc, self.PARAMS, 200, None, np.random.default_rng(2))
        log = result.log
        order = eligible_types(sc)
        for j, ty in enumerate(order):
            signed = log.signed[:, j]
            assert 0 < signed.sum() < signed.size
            r = log.rewards[signed, j]
            s = log.sizes[signed, j]
            w = sc.satisfaction_factor * ty.n / ty.t
            # a signed item is delivered and paid
            assert np.allclose(log.uav_utility[signed, j],
                               r - ty.c * s - sc.deployment_cost,
                               rtol=0, atol=1e-12)
            assert np.allclose(log.gcs_term[signed, j],
                               w * np.log1p(s) - ty.n * r,
                               rtol=0, atol=1e-12)
            # a declined one is worth nothing to either side
            assert np.all(log.uav_utility[~signed, j] == 0.0)
            assert np.all(log.gcs_term[~signed, j] == 0.0)

    def test_observations_lag_actions(self):
        sc = make_single_type()
        result = train(sc, self.PARAMS, 100, None, np.random.default_rng(6))
        log = result.log
        # the GCS commits first: the UAV sees this slot's posted item (no
        # carried observation, not even in slot 1), and the GCS sees this
        # slot's answer to it
        na = log.reward_grid.shape[0]
        assert np.array_equal(log.uav_state[:, 0],
                              log.size_index[:, 0] * na
                              + log.reward_index[:, 0])
        assert set(np.unique(log.gcs_state[:, 0])) == {0, 1}
        traded = (log.uav_utility[:, 0] != 0.0) | (log.gcs_term[:, 0] != 0.0)
        assert not np.any(traded & ~log.signed[:, 0])

    def test_degenerate_grids_reach_fixed_point(self):
        sc = make_single_type()
        params = PhcParams(reward_levels=0, size_levels=0, r_max=13.0)
        result = train(sc, params, 10_000, None, np.random.default_rng(0))
        # forced null offer: signing (0, 0) costs the UAV the deployment
        # cost and declining costs nothing, so the UAV learns to decline;
        # declining forever is worth 0 / (1 - discount), signing once and
        # then declining is worth -C0 + discount * 0; the GCS earns zero
        uav = result.uav_tables[0]
        assert uav.q[0, 1] == 0.0
        assert uav.q[0, 0] == pytest.approx(-1.0, abs=1e-6)
        assert result.gcs_tables[0].q[0, 0] == 0.0
        assert uav.pi[0, 1] == 1.0
        log = result.log
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
            result = train(sc, params, slots, None,
                           np.random.default_rng(0))
            # the offer is the same every slot; walk the logged answers
            q_sign = q_decline = 0.0
            for signed in result.log.signed[:, 0]:
                best = max(q_sign, q_decline)
                if signed:
                    q_sign = (1.0 - 0.7) * q_sign + 0.7 * (-1.0 + 0.8 * best)
                else:
                    q_decline = ((1.0 - 0.7) * q_decline
                                 + 0.7 * (0.0 + 0.8 * best))
            assert result.uav_tables[0].q[0, 0] == q_sign
            assert result.uav_tables[0].q[0, 1] == q_decline
            assert result.gcs_tables[0].q[0, 0] == 0.0

    def test_warm_start_continues(self):
        sc = make_single_type()
        params = PhcParams(reward_levels=3, size_levels=3)
        first = train(sc, params, 120, None, np.random.default_rng(3))
        resumed = train(sc, params, 80,
                        (first.gcs_tables, first.uav_tables),
                        np.random.default_rng(9))
        cold = train(sc, params, 80, None, np.random.default_rng(9))
        assert not np.array_equal(resumed.uav_tables[0].q,
                                  cold.uav_tables[0].q)
        # the source tables are not mutated by the resumed run
        assert np.array_equal(first.uav_tables[0].q,
                              train(sc, params, 120, None,
                                    np.random.default_rng(3)).uav_tables[0].q)

    def test_warm_start_carries_visits(self):
        # exploration decays with the visits the tables carry, so a resumed
        # run does not start exploring afresh
        sc = make_single_type()
        params = PhcParams(reward_levels=3, size_levels=3)
        first = train(sc, params, 500, None, np.random.default_rng(3))
        assert first.gcs_tables[0].visits.tolist() == [500]
        assert first.uav_tables[0].visits.sum() == 500
        resumed = train(sc, params, 300,
                        (first.gcs_tables, first.uav_tables),
                        np.random.default_rng(9))
        assert resumed.gcs_tables[0].visits.tolist() == [800]
        assert np.all(resumed.uav_tables[0].visits
                      >= first.uav_tables[0].visits)
        assert resumed.uav_tables[0].visits.sum() == 800

    def test_validation(self):
        sc = make_single_type()
        with pytest.raises(ValidationError):
            train(sc, self.PARAMS, 0, None, np.random.default_rng(0))
        with pytest.raises(ValidationError):
            train(sc, self.PARAMS, 10,
                  ((), ()), np.random.default_rng(0))
        bad = Scenario(types=(UavType(index=1, c1=0.5, c2=0.0, t=9.0, n=1),),
                       satisfaction_factor=6.0, deployment_cost=1.0,
                       s_max=10.0, t_max=2.0, vdd_demand=800.0, total_uavs=1)
        with pytest.raises(ValidationError):
            train(bad, self.PARAMS, 10, None, np.random.default_rng(0))


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
        """Run both bodies on copies of ``args``, require the same bits,
        and return the scalar body's arguments after the run."""
        scalar = {k: v.copy() if isinstance(v, np.ndarray) else v
                  for k, v in args.items()}
        row = {k: v.copy() if isinstance(v, np.ndarray) else v
               for k, v in args.items()}
        ref.train_loop(**scalar)
        _kernels.train_loop(**row)
        for name, value in scalar.items():
            if isinstance(value, np.ndarray):
                assert row[name].dtype == value.dtype, name
                assert row[name].tobytes() == value.tobytes(), name
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
        args = kernel_args(2, 10, 2, 2, seed=0, hot=False)
        args["q_u"] = np.asfortranarray(args["q_u"])
        with pytest.raises(ValueError):
            _kernels.train_loop(**args)


class TestBatchTrain:
    def test_batch_equals_one_run_calls(self):
        # a batch of seeds with their own scenarios and inits gives what
        # each seed's one-run call gives, tables and visits included
        sc = make_scenario_a()
        params = PhcParams(reward_levels=4, size_levels=3, r_max=12.0)
        warm = train(sc, params, 50, None, np.random.default_rng(9))
        family = [sc, perturb_scenario(sc, np.random.default_rng(4))]
        scenarios = [family[0], family[1], family[1]]
        inits = [None, (warm.gcs_tables, warm.uav_tables), None]
        batch = train(scenarios, params, 120, inits,
                      [np.random.default_rng(s) for s in (1, 2, 3)])
        assert len(batch) == 3
        for got, seed, sc_k, init in zip(batch, (1, 2, 3), scenarios, inits):
            want = train(sc_k, params, 120, init,
                         np.random.default_rng(seed))
            assert got.log.equals(want.log)
            for a, b in zip(got.gcs_tables + got.uav_tables,
                            want.gcs_tables + want.uav_tables):
                assert np.array_equal(a.q, b.q)
                assert np.array_equal(a.pi, b.pi)
                assert np.array_equal(a.visits, b.visits)
        # the warm tables passed in are left as they were
        again = train(sc, params, 50, None, np.random.default_rng(9))
        assert np.array_equal(warm.uav_tables[0].q, again.uav_tables[0].q)

    def test_hotboot_batch_equals_one_run_chains(self):
        sc = make_scenario_a()
        params = PhcParams(reward_levels=4, size_levels=3)
        families = [[sc, perturb_scenario(sc, np.random.default_rng(s))]
                    for s in (5, 6)]
        batch = hotboot(families, 3, params,
                        [np.random.default_rng(s) for s in (5, 6)],
                        slots_per_episode=80)
        for (gcs, uav), fam, seed in zip(batch, families, (5, 6)):
            want_gcs, want_uav = hotboot(fam, 3, params,
                                         np.random.default_rng(seed),
                                         slots_per_episode=80)
            for a, b in zip(gcs + uav, want_gcs + want_uav):
                assert np.array_equal(a.q, b.q)
                assert np.array_equal(a.pi, b.pi)
                assert np.array_equal(a.visits, b.visits)

    def test_batch_validation(self):
        sc = make_single_type()
        params = PhcParams(reward_levels=3, size_levels=3)
        rngs = [np.random.default_rng(0), np.random.default_rng(1)]
        with pytest.raises(ValidationError):
            train(sc, params, 10, None, [])
        with pytest.raises(ValidationError):
            train([sc], params, 10, None, rngs)
        with pytest.raises(ValidationError):
            train(sc, params, 10, [None], rngs)
        # seeds whose grids differ cannot share one kernel call
        with pytest.raises(ValidationError):
            train([sc, make_single_type(s_max=20.0)], params, 10, None, rngs)
        with pytest.raises(ValidationError):
            hotboot([[sc]], 1, params, rngs)


class TestTrajectoryShape:
    def test_learning_raises_delivery(self):
        # a cheap type starts mid-grid and climbs toward a large contract
        sc = make_single_type(c=0.15, s_max=25.0)
        params = PhcParams(reward_levels=10, size_levels=10, r_max=38.0)
        for seed in (0, 6, 7):
            result = train(sc, params, 20_000, None,
                           np.random.default_rng(seed))
            sizes = result.log.sizes[:, 0]
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
        gcs, uav = hotboot([sc], 0, self.PARAMS, np.random.default_rng(0))
        assert len(gcs) == len(uav) == 1
        # one GCS state over the 25 items; one UAV state per item, 2 answers
        assert gcs[0].q.shape == (1, 25) and uav[0].q.shape == (25, 2)
        assert np.all(gcs[0].q == 0.0) and np.all(uav[0].q == 0.0)
        assert np.all(gcs[0].pi == 1.0 / 25.0) and np.all(uav[0].pi == 0.5)
        assert np.all(gcs[0].visits == 0) and np.all(uav[0].visits == 0)

    def test_episodes_move_tables_deterministically(self):
        sc = make_single_type()
        fam = [sc, perturb_scenario(sc, np.random.default_rng(99))]
        a = hotboot(fam, 3, self.PARAMS, np.random.default_rng(1),
                    slots_per_episode=200)
        b = hotboot(fam, 3, self.PARAMS, np.random.default_rng(1),
                    slots_per_episode=200)
        assert np.array_equal(a[0][0].q, b[0][0].q)
        assert np.array_equal(a[1][0].pi, b[1][0].pi)
        assert not np.all(a[1][0].q == 0.0)
        for side in a:
            for t in side:
                t.check()

    def test_family_must_share_type_count(self):
        sc = make_single_type()
        bad = make_scenario_a()
        with pytest.raises(ValidationError):
            hotboot([sc, bad], 20, self.PARAMS, np.random.default_rng(1),
                    slots_per_episode=50)

    def test_bad_arguments(self):
        with pytest.raises(ValidationError):
            hotboot([], 1, self.PARAMS, np.random.default_rng(0))
        with pytest.raises(ValidationError):
            hotboot([make_single_type()], -1, self.PARAMS,
                    np.random.default_rng(0))


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
                       {"r_max": 0.0}, {"r_max": math.inf},
                       {"r_max": math.nan}, {"step_uav": math.nan}):
            with pytest.raises(ValidationError) as err:
                PhcParams(**kwargs)
            assert err.value.field == next(iter(kwargs))

    def test_policy_tables_checks(self):
        with pytest.raises(ValidationError):
            PolicyTables(q=np.zeros((2, 3)), pi=np.full((3, 2), 0.5))
        with pytest.raises(ValidationError):
            PolicyTables(q=np.full((1, 2), np.nan), pi=np.full((1, 2), 0.5))
        with pytest.raises(ValidationError):
            PolicyTables(q=np.zeros((1, 2)), pi=np.array([[0.7, 0.6]]))
        with pytest.raises(ValidationError):
            PolicyTables(q=np.zeros((1, 2)), pi=np.array([[1.2, -0.2]]))
        with pytest.raises(ValidationError):
            PolicyTables(q=np.zeros((2, 2)), pi=np.full((2, 2), 0.5),
                         visits=np.zeros(3))
        with pytest.raises(ValidationError):
            PolicyTables(q=np.zeros((1, 2)), pi=np.full((1, 2), 0.5),
                         visits=np.array([-1]))
        # NaN lies in no range and sums to nothing
        with pytest.raises(ValidationError) as err:
            PolicyTables(q=np.zeros((1, 3)), pi=np.array([[np.nan, .5, .5]]))
        assert err.value.field == "pi"

    @staticmethod
    def table_bytes(inits):
        return [(t.q.tobytes(), t.pi.tobytes(), t.visits.tobytes())
                for pair in inits for tables in pair for t in tables]

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
        # the broken table's own check raises, before anything moves
        sc = make_scenario_a()
        params = PhcParams(reward_levels=4, size_levels=3, r_max=12.0)
        warm = train(sc, params, 40, None,
                     [np.random.default_rng(s) for s in (1, 2, 3)])
        inits = [(r.gcs_tables, r.uav_tables) for r in warm]
        broken = inits[1][side][1]
        getattr(broken, name)[at] = value
        with pytest.raises(ValidationError) as own:
            broken.check()
        before = self.table_bytes(inits)
        with pytest.raises(ValidationError) as err:
            train(sc, params, 20, inits,
                  [np.random.default_rng(s) for s in (4, 5, 6)])
        assert err.value.field == own.value.field
        assert self.table_bytes(inits) == before

    def test_train_returns_checked_tables(self):
        sc = make_scenario_a()
        params = PhcParams(reward_levels=4, size_levels=3, r_max=12.0)
        rngs = [np.random.default_rng(s) for s in (1, 2, 3)]
        warm = train(sc, params, 40, None, rngs)
        inits = [(r.gcs_tables, r.uav_tables) for r in warm]
        before = self.table_bytes(inits)
        again = train(sc, params, 60, inits, rngs)
        for result in warm + again:
            for t in result.gcs_tables + result.uav_tables:
                t.check()
                assert t.q.dtype == t.pi.dtype == np.float64
                assert t.visits.dtype == np.int64
        assert self.table_bytes(inits) == before

    def test_copy_is_deep(self):
        t = PolicyTables.cold(2, 2)
        c = t.copy()
        c.q[0, 0] = 5.0
        c.visits[0] = 3
        assert t.q[0, 0] == 0.0
        assert t.visits[0] == 0
