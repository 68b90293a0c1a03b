"""Hot numeric kernels with a compiled path and a pure-numpy fallback.

Every kernel here is written as a plain function.  Unless the environment
variable ``UAVCONTRACT_DISABLE_JIT`` is set (or numba is missing), the
scalar kernels are rebound at import time to ``numba.njit(cache=True)``
compilations of themselves: `sample_index`, `phc_step`, the whole-row
`sample_index_wide` and `phc_step_wide`, `update_many`, `explore_rate`,
the scalar training body `train_loop` and the three `oracle_scan_*`
scans.  The selected path is reported in ``JIT_ENABLED``.

On the pure path, where a scalar loop pays per element, three kernels are
rebound instead to numpy forms with the same name and signature:
`oracle_scan_2` and `oracle_scan_3` to `_vector_oracle_scan_2/3`, and
`train_loop` to `_row_train_loop`, which steps every (seed, type) row of
a batch at once per slot.  Each form does the scalar body's arithmetic in
the same order with the same tie-breaking, so it gives the same bits;
`_scalar_train_loop` keeps the scalar training body reachable on both
paths as the reference the tests compare the row-stepped one against.
The compiled path has not been run since the committed contract game
and the row-stepped body were added, so it, and its agreement with the
pure path, are unverified.

``benchmarks/jit_benchmark.py`` times both paths on the same workloads.
"""

from __future__ import annotations

import math
import os

import numpy as np

JIT_REQUESTED = os.environ.get("UAVCONTRACT_DISABLE_JIT", "") in ("", "0")


def sample_index(row, u):
    """Inverse-CDF draw from a probability row using one uniform u.

    Returns the first index whose running sum exceeds u, or the last index
    when rounding leaves u above the final sum.
    """
    acc = 0.0
    for i in range(row.shape[0] - 1):
        acc += row[i]
        if u < acc:
            return i
    return row.shape[0] - 1


def phc_step(q, pi, state, action, payoff, next_state, rate, discount, step):
    """One learner update: Bellman step on Q, then nudge pi toward greedy.

    The greedy action is read from the just-updated Q row (first index wins
    ties).  The pi row gains ``step`` on the greedy action, loses
    ``step / n_actions`` elsewhere, and is clamped to [0, 1] and
    renormalised by its running sum, in index order, so it stays a
    distribution.
    """
    best_next = q[next_state, 0]
    for i in range(1, q.shape[1]):
        if q[next_state, i] > best_next:
            best_next = q[next_state, i]
    q[state, action] = ((1.0 - rate) * q[state, action]
                        + rate * (payoff + discount * best_next))
    greedy = 0
    for i in range(1, q.shape[1]):
        if q[state, i] > q[state, greedy]:
            greedy = i
    n = pi.shape[1]
    dec = step / n
    total = 0.0
    for i in range(n):
        p = pi[state, i] + step if i == greedy else pi[state, i] - dec
        if p < 0.0:
            p = 0.0
        elif p > 1.0:
            p = 1.0
        pi[state, i] = p
        total += p
    for i in range(n):
        pi[state, i] /= total


# Whole-row forms of the two kernels above, for the GCS's row of one action
# per grid item.  On the pure path a scalar loop pays per element and a numpy
# call per call, so `train_loop` gives the UAV's two-action rows the scalar
# forms and the GCS's rows these.  Each does the same additions in the same
# order and breaks ties on the first index, so the results are bit-identical.

def sample_index_wide(row, u):
    """`sample_index` as one search over the running sums."""
    return min(int(np.searchsorted(row.cumsum(), u, side="right")),
               row.shape[0] - 1)


def phc_step_wide(q, pi, state, action, payoff, next_state, rate, discount,
                  step):
    """`phc_step` as whole-row operations."""
    q[state, action] = ((1.0 - rate) * q[state, action]
                        + rate * (payoff + discount * q[next_state].max()))
    greedy = q[state].argmax()
    row = pi[state]
    # only the greedy entry can pass 1 and only the others can pass 0
    top = min(row[greedy] + step, 1.0)
    p = np.maximum(row - step / pi.shape[1], 0.0)
    p[greedy] = top
    row[:] = p / p.cumsum()[-1]


def update_many(q, pi, states, actions, payoffs, next_states, rate, discount,
                step):
    """Apply a batch of updates in sequence (stress/property testing)."""
    for k in range(states.shape[0]):
        phc_step(q, pi, states[k], actions[k], payoffs[k], next_states[k],
                 rate, discount, step)


def explore_rate(visits, horizon, floor):
    """Exploration share after ``visits``: 1 falling linearly to ``floor``.

    The share reaches ``floor`` at ``horizon`` visits and stays there; a
    zero horizon explores at ``floor`` from the start.
    """
    if visits >= horizon:
        return floor
    return 1.0 - (1.0 - floor) * visits / horizon


SIGN = 0


def train_loop(q_g, pi_g, q_u, pi_u, uniforms, rgrid, sgrid, cost, weight,
               count, c0, rate_g, disc_g, step_g, rate_u, disc_u, step_u,
               visits_g, visits_u, explore_visits, explore_floor,
               reward_idx, size_idx, gcs_state, uav_state, uav_pay, gcs_pay):
    """Run the committed contract game for every type over all slots.

    Per type and slot the GCS posts one (size, reward) grid item, its
    action ``k = size_index * len(rgrid) + reward_index`` from its single
    state; the UAV observes the item, which is its state, and signs
    (action ``SIGN``, 0) or declines (action 1).  A signed item pays the
    UAV ``r - c*s - c0`` and the GCS ``weight*log1p(s) - count*r``; a
    declined one pays both sides 0.  Both updates close in the slot, each
    learner bootstrapping from the state it is in, so a trade repeated
    every slot is valued at payoff / (1 - discount).

    Each side explores: with a share falling linearly from 1 to
    ``explore_floor`` over ``explore_visits`` visits per item (the GCS's
    state counts ``explore_visits`` times the item count, each UAV state
    ``explore_visits``) it picks uniformly, otherwise it samples pi.  The
    visit counters ``visits_g`` (types, 1) and ``visits_u`` (types, items)
    live with the tables and are advanced in place, so a warm start keeps
    its decayed exploration.

    Tables are (types, states, actions) arrays updated in place; uniforms
    has shape (slots, types, 4): draws 0 and 1 pick the GCS's item (explore
    coin, then action), draws 2 and 3 the UAV's answer.  The trajectory
    arrays are (slots, types), filled in place: the posted item's indices,
    ``gcs_state`` 1 where the UAV signed and 0 where it declined (what the
    GCS observes), ``uav_state`` the posted item, and both payoffs.
    """
    slots = uniforms.shape[0]
    ntypes = uniforms.shape[1]
    na = rgrid.shape[0]
    items = na * sgrid.shape[0]
    horizon_g = explore_visits * items
    for j in range(ntypes):
        for t in range(slots):
            draw = uniforms[t, j]
            if draw[0] < explore_rate(visits_g[j, 0], horizon_g,
                                      explore_floor):
                k = min(int(draw[1] * items), items - 1)
            else:
                k = sample_index_wide(pi_g[j, 0], draw[1])
            visits_g[j, 0] += 1
            b = k // na
            a = k - b * na
            if draw[2] < explore_rate(visits_u[j, k], explore_visits,
                                      explore_floor):
                d = min(int(draw[3] * 2), 1)
            else:
                d = sample_index(pi_u[j, k], draw[3])
            visits_u[j, k] += 1
            u_pay = 0.0
            g_pay = 0.0
            if d == SIGN:
                u_pay = rgrid[a] - cost[j] * sgrid[b] - c0
                g_pay = weight[j] * math.log1p(sgrid[b]) - count[j] * rgrid[a]
            phc_step(q_u[j], pi_u[j], k, d, u_pay, k, rate_u, disc_u, step_u)
            phc_step_wide(q_g[j], pi_g[j], 0, k, g_pay, 0, rate_g, disc_g,
                          step_g)
            reward_idx[t, j] = a
            size_idx[t, j] = b
            gcs_state[t, j] = 1 if d == SIGN else 0
            uav_state[t, j] = k
            uav_pay[t, j] = u_pay
            gcs_pay[t, j] = g_pay


def _row_train_loop(q_g, pi_g, q_u, pi_u, uniforms, rgrid, sgrid, cost,
                    weight, count, c0, rate_g, disc_g, step_g, rate_u,
                    disc_u, step_u, visits_g, visits_u, explore_visits,
                    explore_floor, reward_idx, size_idx, gcs_state, uav_state,
                    uav_pay, gcs_pay):
    """`train_loop` stepping every row at once, one slot per iteration.

    Rows (types, or (seed, type) pairs) share nothing, so each slot runs
    the scalar body's operations for all rows as whole-array numpy calls.
    They give the scalar body's bits: the same additions in the same order,
    running sums as sequential cumsums, ties to the first index, and the
    GCS's log term read from a ``math.log1p`` table.  Draws that do not
    depend on the tables (the GCS's explore coin, whose visits rise by one
    a slot, and both exploring picks) are taken for all slots up front; the
    GCS's running sums are taken only for the rows that sample pi.  Only
    the posted item and the answer are kept per slot, and the other
    trajectory columns are filled from them at the end.  The tables must be
    C-contiguous, since they are updated through flat views.
    """
    for table in (q_g, pi_g, q_u, pi_u, visits_u):
        if not table.flags.c_contiguous:
            raise ValueError("train tables must be C-contiguous")
    slots, rows = uniforms.shape[0], uniforms.shape[1]
    na = rgrid.shape[0]
    items = na * sgrid.shape[0]
    floor = explore_floor
    # what a signed item pays each side, per row and item, built in place
    # so that no (rows, items) temporaries pile up
    size_of = np.arange(items) // na
    reward_of = rgrid[np.arange(items) - size_of * na]
    size_at = sgrid[size_of]
    log_at = np.array([math.log1p(s) for s in sgrid])[size_of]
    u_signed = np.multiply(cost[:, None], size_at)
    np.subtract(reward_of, u_signed, out=u_signed)
    u_signed -= c0
    g_signed = np.multiply(count[:, None], reward_of)
    np.subtract(np.multiply(weight[:, None], log_at), g_signed, out=g_signed)
    u_signed = u_signed.ravel()
    g_signed = g_signed.ravel()
    horizon = explore_visits * items
    g_sample = np.empty((slots, rows), dtype=bool)
    for r in range(rows):
        seen = visits_g[r, 0] + np.arange(slots)
        g_sample[:, r] = uniforms[:, r, 0] >= np.where(
            seen >= horizon, floor,
            1.0 - (1.0 - floor) * seen / max(horizon, 1))
    g_pick = np.minimum((uniforms[:, :, 1] * items).astype(np.int64),
                        items - 1)
    # min(int(2u), 1) is 1 exactly when u >= 0.5, since doubling is exact
    u_pick = uniforms[:, :, 3] >= 0.5
    # the UAV's exploring share by visits; take(mode="clip") holds the floor
    visits = np.arange(explore_visits + 1)
    u_share = np.where(visits >= explore_visits, floor,
                       1.0 - (1.0 - floor) * visits / max(explore_visits, 1))
    visits_g[:, 0] += slots
    qg = q_g.reshape(rows, items)
    pg = pi_g.reshape(rows, items)
    qg_flat = qg.ravel()
    pg_flat = pg.ravel()
    qu = q_u.ravel()
    pu = pi_u.reshape(rows * items, 2)
    vu = visits_u.ravel()
    offset = np.arange(rows) * items
    best_g = qg.max(axis=1)
    keep_g = 1.0 - rate_g
    keep_u = 1.0 - rate_u
    dec_g = step_g / items
    # pi_u's nudge by greedy answer: +step on it, -step/2 on the other
    nudge = np.array([[step_u, -(step_u / 2)], [-(step_u / 2), step_u]])
    first_above = np.ones((rows, items), dtype=bool)
    for t in range(slots):
        u = uniforms[t]
        k = g_pick[t].copy()
        sampling = np.flatnonzero(g_sample[t])
        if sampling.size:
            # first index whose running sum passes u, else the last index
            above = first_above[:sampling.size]
            np.greater(np.cumsum(pg[sampling], axis=1)[:, :-1],
                       u[sampling, 1, None], out=above[:, :-1])
            k[sampling] = above.argmax(axis=1)
        at_k = k + offset
        seen_k = vu.take(at_k)
        vu[at_k] = seen_k + 1
        sign_at = at_k + at_k
        decline_at = sign_at + 1
        d = np.where(u[:, 2] < u_share.take(seen_k, mode="clip"), u_pick[t],
                     u[:, 3] >= pu.take(sign_at))
        at = sign_at + d
        u_pay = np.where(d, 0.0, u_signed.take(at_k))
        g_pay = np.where(d, 0.0, g_signed.take(at_k))
        q_sign = qu.take(sign_at)
        q_decline = qu.take(decline_at)
        qu[at] = keep_u * qu.take(at) + rate_u * (
            u_pay + disc_u * np.where(q_decline > q_sign, q_decline, q_sign))
        p = pu.take(at_k, axis=0) + nudge.take(
            qu.take(decline_at) > qu.take(sign_at), axis=0)
        np.clip(p, 0.0, 1.0, out=p)
        pu[at_k] = p / (p[:, 0] + p[:, 1])[:, None]
        qg_flat[at_k] = (keep_g * qg_flat.take(at_k)
                         + rate_g * (g_pay + disc_g * best_g))
        greedy = qg.argmax(axis=1) + offset
        best_g = qg_flat.take(greedy)
        top = np.minimum(pg_flat.take(greedy) + step_g, 1.0)
        np.subtract(pg, dec_g, out=pg)
        np.maximum(pg, 0.0, out=pg)
        pg_flat[greedy] = top
        pg /= np.cumsum(pg, axis=1)[:, -1:]
        uav_state[t] = k
        gcs_state[t] = d
    size_idx[:] = uav_state // na
    reward_idx[:] = uav_state - size_idx * na
    at = uav_state + offset
    uav_pay[:] = np.where(gcs_state, 0.0, u_signed.take(at))
    gcs_pay[:] = np.where(gcs_state, 0.0, g_signed.take(at))
    gcs_state[:] = 1 - gcs_state


def oracle_scan_1(grid, w1, c1, n1, c0):
    """Best single size on the grid under the binding reward."""
    best_val = -np.inf
    best_i = 0
    for i in range(grid.shape[0]):
        val = w1 * math.log1p(grid[i]) - n1 * (c1 * grid[i] + c0)
        if val > best_val:
            best_val = val
            best_i = i
    return (best_i,)


def oracle_scan_2(grid, w1, w2, c1, c2, n1, n2, c0):
    """Best non-decreasing size pair on the grid under binding rewards."""
    best_val = -np.inf
    best_i = 0
    best_j = 0
    for i in range(grid.shape[0]):
        for j in range(i, grid.shape[0]):
            r1 = c1 * grid[i] + c0
            r2 = c2 * grid[j] + (c1 - c2) * grid[i] + c0
            val = (w1 * math.log1p(grid[i]) + w2 * math.log1p(grid[j])
                   - n1 * r1 - n2 * r2)
            if val > best_val:
                best_val = val
                best_i = i
                best_j = j
    return (best_i, best_j)


def oracle_scan_3(grid, w1, w2, w3, c1, c2, c3, n1, n2, n3, c0):
    """Best non-decreasing size triple on the grid under binding rewards."""
    best_val = -np.inf
    best_i = 0
    best_j = 0
    best_k = 0
    for i in range(grid.shape[0]):
        for j in range(i, grid.shape[0]):
            for k in range(j, grid.shape[0]):
                r1 = c1 * grid[i] + c0
                r2 = c2 * grid[j] + (c1 - c2) * grid[i] + c0
                r3 = (c3 * grid[k] + (c1 - c2) * grid[i]
                      + (c2 - c3) * grid[j] + c0)
                val = (w1 * math.log1p(grid[i]) + w2 * math.log1p(grid[j])
                       + w3 * math.log1p(grid[k])
                       - n1 * r1 - n2 * r2 - n3 * r3)
                if val > best_val:
                    best_val = val
                    best_i = i
                    best_j = j
                    best_k = k
    return (best_i, best_j, best_k)


def _vector_oracle_scan_2(grid, w1, w2, c1, c2, n1, n2, c0):
    """Numpy fallback: same search as oracle_scan_2 without the inner loops."""
    logs = np.log1p(grid)
    r1 = c1 * grid + c0
    term_i = w1 * logs - n1 * r1 - n2 * ((c1 - c2) * grid)
    term_j = w2 * logs - n2 * (c2 * grid + c0)
    vals = term_i[:, None] + term_j[None, :]
    vals[np.tril_indices(grid.shape[0], k=-1)] = -np.inf
    flat = int(np.argmax(vals))
    return (flat // grid.shape[0], flat % grid.shape[0])


def _vector_oracle_scan_3(grid, w1, w2, w3, c1, c2, c3, n1, n2, n3, c0):
    """Numpy fallback: outer python loop over the first size only."""
    m = grid.shape[0]
    logs = np.log1p(grid)
    term_j = w2 * logs - n2 * (c2 * grid + c0) - n3 * ((c2 - c3) * grid)
    term_k = w3 * logs - n3 * (c3 * grid + c0)
    jk = term_j[:, None] + term_k[None, :]
    jk[np.tril_indices(m, k=-1)] = -np.inf
    best_val = -np.inf
    best = (0, 0, 0)
    for i in range(m):
        base = (w1 * logs[i] - n1 * (c1 * grid[i] + c0)
                - (n2 + n3) * ((c1 - c2) * grid[i]))
        sub = jk[i:, i:]
        flat = int(np.argmax(sub))
        j = i + flat // sub.shape[1]
        k = i + flat % sub.shape[1]
        val = base + term_j[j] + term_k[k]
        if val > best_val:
            best_val = val
            best = (i, j, k)
    return best


JIT_ENABLED = False
if JIT_REQUESTED:
    try:
        from numba import njit
    except ImportError:
        njit = None
    if njit is not None:
        # rebind in dependency order so compiled kernels call compiled helpers
        sample_index = njit(cache=True)(sample_index)
        phc_step = njit(cache=True)(phc_step)
        sample_index_wide = njit(cache=True)(sample_index_wide)
        phc_step_wide = njit(cache=True)(phc_step_wide)
        update_many = njit(cache=True)(update_many)
        explore_rate = njit(cache=True)(explore_rate)
        train_loop = njit(cache=True)(train_loop)
        oracle_scan_1 = njit(cache=True)(oracle_scan_1)
        oracle_scan_2 = njit(cache=True)(oracle_scan_2)
        oracle_scan_3 = njit(cache=True)(oracle_scan_3)
        JIT_ENABLED = True

# the scalar training body, kept as the reference the row-stepped one is
# tested against
_scalar_train_loop = train_loop

if not JIT_ENABLED:
    # the scalar loops are far too slow in plain python; swap in the
    # vectorised equivalents (identical arithmetic, order and tie handling)
    oracle_scan_2 = _vector_oracle_scan_2
    oracle_scan_3 = _vector_oracle_scan_3
    train_loop = _row_train_loop


def warmup():
    """Force compilation of every kernel (no-op on the pure path).

    Timed code should call this first so compile time never lands inside a
    measured region.
    """
    grid = np.linspace(0.0, 1.0, 3)
    oracle_scan_1(grid, 1.0, 1.0, 1.0, 1.0)
    oracle_scan_2(grid, 1.0, 1.0, 1.0, 0.5, 1.0, 1.0, 1.0)
    oracle_scan_3(grid, 1.0, 1.0, 1.0, 1.0, 0.5, 0.25, 1.0, 1.0, 1.0, 1.0)
    q = np.zeros((1, 2, 2))
    pi = np.full((1, 2, 2), 0.5)
    out_i = np.zeros((2, 1), dtype=np.int64)
    out_f = np.zeros((2, 1))
    train_loop(np.zeros((1, 1, 2)), np.full((1, 1, 2), 0.5), q.copy(),
               pi.copy(), np.full((2, 1, 4), 0.5), grid[:2], grid[:1],
               np.ones(1), np.ones(1), np.ones(1), 0.0,
               0.5, 0.5, 0.1, 0.5, 0.5, 0.1,
               np.zeros((1, 1), dtype=np.int64),
               np.zeros((1, 2), dtype=np.int64), 1, 0.5,
               out_i.copy(), out_i.copy(), out_i.copy(), out_i.copy(),
               out_f.copy(), out_f.copy())
    update_many(q[0], pi[0], np.zeros(1, dtype=np.int64),
                np.zeros(1, dtype=np.int64), np.zeros(1),
                np.zeros(1, dtype=np.int64), 0.5, 0.5, 0.1)
