"""Scalar references for the training kernel and the whole-row update.

`uavcontract._kernels.train_loop` steps every row of a batch at once; the
tests hold it, bit for bit, to `train_loop` here, which plays the game one
type and one slot at a time with `phc_step` on the UAV's rows and
`phc_step_wide` on the GCS's.  The whole-row forms `sample_index_wide` and
`phc_step_wide` are held in turn to the scalar `sample_index` and
`phc_step`, the learners' draw and update rule, which live here alone:
the package runs them only inlined in `_kernels.train_loop`.
`update_many_wide` applies a batch of updates through `phc_step_wide`, for
the bulk simplex checks, and is held to the scalar `update_many`.
"""

import math

import numpy as np

from uavcontract._kernels import explore_rate

SIGN = 0


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


def sample_index_wide(row, u):
    """`sample_index` as one search over the running sums."""
    return min(int(np.searchsorted(row.cumsum(), u, side="right")),
               row.shape[0] - 1)


def phc_step_wide(q, pi, state, action, payoff, next_state, rate, discount,
                  step):
    """`phc_step` as whole-row operations, with the same additions in the
    same order and ties to the first index."""
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
    """Apply a batch of updates in sequence through `phc_step`."""
    for k in range(states.shape[0]):
        phc_step(q, pi, states[k], actions[k], payoffs[k], next_states[k],
                 rate, discount, step)


def update_many_wide(q, pi, states, actions, payoffs, next_states, rate,
                     discount, step):
    """`update_many` through `phc_step_wide`, whole-row numpy calls."""
    for update in zip(states.tolist(), actions.tolist(), payoffs.tolist(),
                      next_states.tolist()):
        phc_step_wide(q, pi, *update, rate, discount, step)


def train_loop(q_g, pi_g, q_u, pi_u, uniforms, rgrid, sgrid, cost, weight,
               count, c0, rate_g, disc_g, step_g, rate_u, disc_u, step_u,
               visits_g, visits_u, explore_visits, explore_floor,
               reward_idx, size_idx, gcs_state, uav_state, uav_pay, gcs_pay):
    """`_kernels.train_loop`'s game, one type and one slot at a time.

    Takes the same tables, draws and constants, but the grids and per-type
    cost, weight and count in place of the payoff tables, and computes
    each slot's payoffs itself.  It fills six trajectory arrays in place:
    the posted item's reward and size indices, ``gcs_state`` (1 signed),
    ``uav_state`` (the item) and both payoffs, which the tests derive from
    the kernel's posted items, answers and payoff tables.  The UAV answers
    (``SIGN`` or decline) and steps through the scalar `sample_index` and
    `phc_step`, the GCS through the whole-row forms.
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
