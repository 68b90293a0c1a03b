"""Hot numeric kernels: the training loop and the learners' update rule.

`train_loop` runs the committed contract game for every (seed, type) row
of a batch: the GCS's item-wide policy in whole-array numpy calls, each row
over its own support (`_Support`), the rest per row in Python floats.  It
follows the scalar update rule `phc_step` and draw `sample_index` bit for
bit.  Those two, and the one-slot-at-a-time loop over them that the tests
hold it to, live in ``tests/reference_kernels.py``.  `explore_rate` is
both sides' exploration schedule.
"""

from __future__ import annotations

import math
from bisect import bisect_left

import numpy as np


def explore_rate(visits, horizon, floor):
    """Exploration share after ``visits``: 1 falling linearly to ``floor``.

    The share reaches ``floor`` at ``horizon`` visits and stays there; a
    zero horizon explores at ``floor`` from the start.
    """
    if visits >= horizon:
        return floor
    return 1.0 - (1.0 - floor) * visits / horizon


def train_loop(q_g, pi_g, q_u, pi_u, uniforms, uav_payoff, gcs_payoff,
               rate_g, disc_g, step_g, rate_u, disc_u, step_u, visits_g,
               visits_u, explore_visits, explore_floor, item, signed):
    """Run the committed contract game for every row over all slots.

    Rows (types, or (seed, type) pairs) share nothing.  Per row and slot
    the GCS posts one grid item ``k``, its action from its single state;
    the UAV observes the item, which is its state, and signs (action 0) or
    declines (action 1).  A signed item pays the UAV ``uav_payoff[row, k]``
    and the GCS ``gcs_payoff[row, k]``, the (rows, items) tables
    `phc.train` builds; a declined one pays both sides 0.  Both updates
    close in the slot, each learner bootstrapping from the state it is in,
    so a trade repeated every slot is valued at payoff / (1 - discount).

    Each side explores: with a share falling linearly from 1 to
    ``explore_floor`` over ``explore_visits`` visits per item (the GCS's
    state counts ``explore_visits`` times the item count, each UAV state
    ``explore_visits``) it picks uniformly, otherwise it samples pi.  The
    visit counters ``visits_g`` (rows, 1) and ``visits_u`` (rows, items)
    live with the tables and are advanced in place, so a warm start keeps
    its decayed exploration.

    Tables are (rows, states, actions) arrays updated in place; uniforms
    has shape (slots, rows, 4): draws 0 and 1 pick the GCS's item (explore
    coin, then action), draws 2 and 3 the UAV's answer.  The trajectory
    arrays ``item`` (the posted item) and ``signed`` (the answer) are
    (slots, rows), filled in place.

    Each slot the GCS draws every row's item, and steps every row's
    item-wide policy, in a few whole-array numpy calls over a block that
    holds each row's policy on its own support (`_Support`); then, per row
    in Python floats, the UAV answers and both sides update the one
    Q entry the slot touched, read and written through memoryviews of the
    tables.  Both follow the scalar `sample_index` and `phc_step` of
    ``tests/reference_kernels.py`` bit for bit: the same operations in the
    same order, running sums as sequential accumulations and ties to the
    first index.

    Each row's greedy item, and its Q value, are kept in Python from one
    ``argmax`` at entry.  A slot changes one GCS Q entry per row, so the
    new value ``v`` of posted item ``c`` settles the greedy item by
    ``argmax``'s first-index rule: the greedy item keeps its place while
    ``v`` does not fall below its old value, and the row is scanned again
    when it does (or when ``v`` is NaN, which ``argmax`` ranks first);
    another item takes the place with a higher value, or an equal one at
    a lower index.  The rows whose greedy item may have moved in a slot
    are passed to the support's step, which moves only their greedy
    offsets.

    Draws that do not depend on the tables (the GCS's explore coin, whose
    visits rise by one a slot, and its exploring pick) are taken for all
    slots up front.  The tables, payoffs and trajectory arrays must be
    C-contiguous, since they are read and written through flat views.
    """
    for table in (q_g, pi_g, q_u, pi_u, visits_u, uav_payoff, gcs_payoff,
                  item, signed):
        if not table.flags.c_contiguous:
            raise ValueError("train tables must be C-contiguous")
    slots, rows = uniforms.shape[0], uniforms.shape[1]
    items = q_u.shape[1]
    floor = explore_floor
    horizon = explore_visits * items
    seen = visits_g[:, 0] + np.arange(slots)[:, None]
    g_sample = uniforms[:, :, 0] >= np.where(
        seen >= horizon, floor, 1.0 - (1.0 - floor) * seen / max(horizon, 1))
    sampled = g_sample.sum(axis=1).tolist()
    samples = g_sample.tolist()
    picks = np.minimum((uniforms[:, :, 1] * items).astype(np.int64),
                       items - 1).tolist()
    g_u = uniforms[:, :, 1:2]
    visits_g[:, 0] += slots
    qg = q_g.reshape(rows, items)
    support = _Support(pi_g.reshape(rows, items), float(step_g),
                       step_g / items)
    # the per-row side: flat memoryviews, python floats and ints
    qgs = memoryview(qg.reshape(-1))
    qu = memoryview(q_u.reshape(-1))
    pu = memoryview(pi_u.reshape(-1))
    vu = memoryview(visits_u.reshape(-1))
    us = memoryview(uav_payoff.reshape(-1))
    gs = memoryview(gcs_payoff.reshape(-1))
    draws = memoryview(np.ascontiguousarray(uniforms).reshape(-1))
    ev = int(explore_visits)
    u_share = [explore_rate(v, ev, floor) for v in range(ev + 1)]
    rate_g, disc_g = float(rate_g), float(disc_g)
    rate_u, disc_u, step_u = float(rate_u), float(disc_u), float(step_u)
    keep_g = 1.0 - rate_g
    keep_u = 1.0 - rate_u
    half_u = step_u / 2
    row_at = [r * items for r in range(rows)]
    greedy = qg.argmax(axis=1).tolist()
    bests = [qgs[at + g] for at, g in zip(row_at, greedy)]
    posts = memoryview(item.reshape(-1))
    answers = memoryview(signed.reshape(-1))
    changed = list(range(rows))
    for t in range(slots):
        ks = picks[t]
        if sampled[t]:
            drawn = support.draw(g_u[t])
            ks = drawn if sampled[t] == rows else [
                d if s else k for d, s, k in zip(drawn, samples[t], ks)]
        base = t * rows
        for r in range(rows):
            c = ks[r]
            posts[base + r] = c
            i = row_at[r] + c
            seen = vu[i]
            vu[i] = seen + 1
            at = 4 * (base + r)
            if draws[at + 2] < u_share[seen if seen < ev else ev]:
                sign = draws[at + 3] < 0.5
            else:
                sign = draws[at + 3] < pu[i + i]
            answers[base + r] = sign
            s = i + i
            q0 = qu[s]
            q1 = qu[s + 1]
            best = q1 if q1 > q0 else q0
            if sign:
                q0 = keep_u * q0 + rate_u * (us[i] + disc_u * best)
                qu[s] = q0
                g_pay = gs[i]
            else:
                q1 = keep_u * q1 + rate_u * (0.0 + disc_u * best)
                qu[s + 1] = q1
                g_pay = 0.0
            # the greedy answer can only pass 1 and the other only 0
            p0 = pu[s]
            p1 = pu[s + 1]
            if q1 > q0:
                p1 += step_u
                if p1 > 1.0:
                    p1 = 1.0
                p0 -= half_u
                if p0 < 0.0:
                    p0 = 0.0
            else:
                p0 += step_u
                if p0 > 1.0:
                    p0 = 1.0
                p1 -= half_u
                if p1 < 0.0:
                    p1 = 0.0
            total = p0 + p1
            pu[s] = p0 / total
            pu[s + 1] = p1 / total
            best_g = bests[r]
            v = keep_g * qgs[i] + rate_g * (g_pay + disc_g * best_g)
            qgs[i] = v
            # argmax's first-index rule; the row is scanned again when its
            # greedy item falls or a NaN appears
            g = greedy[r]
            if c == g:
                if v >= best_g:
                    bests[r] = v
                    continue
            elif v > best_g or v == best_g and c < g:
                greedy[r] = c
                bests[r] = v
                changed.append(r)
                continue
            elif v == v:
                continue
            g = greedy[r] = int(qg[r].argmax())
            bests[r] = qgs[row_at[r] + g]
            changed.append(r)
        support.step(greedy, changed)
        changed = []
    if slots:
        support.write_back()


class _Support:
    """The GCS's pi rows, each kept on its own support, for `train_loop`.

    Row r's support lists, in item order, the items where its pi was
    nonzero at entry and those that became its greedy item since; ``pi``
    holds each row's entries there, padded with +0.0 up to the widest
    row's length.  Off its support a row's pi is 0 and stays exactly 0
    under the decay, a running sum gains exactly nothing from a +0.0, and
    a padded position's running sum is the row's total, so it can never be
    the first to pass u.  The decay, the draw's running sums and crossing,
    and the normalising total over a row's support therefore give the full
    row's bits.  ``ends[r]`` maps row r's positions to items: its support,
    then the last item on every padded position and on the one past them,
    which a row that crosses nowhere posts.

    A draw and a step are four numpy calls each over the (rows, width)
    block, into buffers made once per width: the running sums, the
    crossings and their views.  A greedy item off its row's support is
    inserted at its place in item order, shifting that row alone; the
    block widens only when a row outgrows it.  The greedy entries' flat
    offsets into ``pi`` are kept between steps, and moved only for the
    rows whose greedy item changed.
    """

    def __init__(self, full, step, dec):
        self.full = full
        rows, items = full.shape
        self.step_size = step
        self.dec = dec
        at_row, at_item = np.nonzero(full)
        sizes = np.bincount(at_row, minlength=rows)
        starts = np.cumsum(sizes) - sizes
        width = int(sizes.max(initial=0))
        self.pi = np.zeros((rows, width))
        self.pi[at_row, np.arange(at_row.size) - starts[at_row]] = full[
            at_row, at_item]
        self.sizes = sizes.tolist()
        self.ends = [support.tolist() + [items - 1] * (width + 1 - n)
                     for support, n in zip(np.split(at_item, starts[1:]),
                                           self.sizes)]
        # the greedy entries' flat offsets into pi
        self.tops = [0] * rows
        self._reindex()

    def _reindex(self):
        rows, width = self.pi.shape
        self.flat = memoryview(self.pi.reshape(-1))
        self.sums = np.empty((rows, width))
        self.total = self.sums[:, -1:]
        self.above = np.ones((rows, width + 1), dtype=bool)
        self.crossed = self.above[:, :-1]

    def _place(self, r, g):
        """Point row r's greedy offset at item g, which joins the row's
        support at its place in item order if it is not there yet."""
        ends, n = self.ends[r], self.sizes[r]
        at = bisect_left(ends, g, 0, n)
        if at == n or ends[at] != g:
            if n == self.pi.shape[1]:
                self._widen()
            row = self.pi[r]
            row[at + 1:n + 1] = row[at:n].copy()
            row[at] = 0.0
            ends.insert(at, g)
            ends.pop()
            self.sizes[r] = n + 1
        self.tops[r] = r * self.pi.shape[1] + at

    def _widen(self):
        rows, width = self.pi.shape
        pi = np.zeros((rows, width + 1))
        pi[:, :width] = self.pi
        self.pi = pi
        last = self.full.shape[1] - 1
        for ends in self.ends:
            ends.append(last)
        self.tops = [at + r for r, at in enumerate(self.tops)]
        self._reindex()

    def draw(self, u):
        """Per row, the first item whose running sum passes u, shape
        (rows, 1), or the last item where none does."""
        np.add.accumulate(self.pi, axis=1, out=self.sums)
        np.greater(self.sums, u, out=self.crossed)
        return [ends[at] for ends, at in
                zip(self.ends, self.above.argmax(axis=1).tolist())]

    def step(self, greedy, changed):
        """`phc_step`'s nudge of every row toward its greedy item.

        ``greedy`` lists the rows' greedy items and ``changed`` the rows
        whose greedy item may have moved since the last step (every row on
        the first).
        """
        for r in changed:
            self._place(r, greedy[r])
        pi, flat, step = self.pi, self.flat, self.step_size
        # only the greedy entry can pass 1 and only the others can pass 0
        tops = [flat[at] + step for at in self.tops]
        np.subtract(pi, self.dec, out=pi)
        np.maximum(pi, 0.0, out=pi)
        for at, top in zip(self.tops, tops):
            flat[at] = top if top < 1.0 else 1.0
        np.add.accumulate(pi, axis=1, out=self.sums)
        np.divide(pi, self.total, out=pi)

    def write_back(self):
        # a decayed row holds +0.0 off its support, even where it held -0.0
        self.full[:] = 0.0
        for row, pi, ends, n in zip(self.full, self.pi, self.ends,
                                    self.sizes):
            row[ends[:n]] = pi[:n]


# What the benchmark (`perfbench/`) reads here and the package does not:
# its tracer wraps the `oracle_scan_*` sites (also the brute-force
# references the tests hold `solver.brute_force_oracle` to), its set-up
# calls `warmup`, and its fingerprint reads the two flags, which name the
# one pure-numpy path.  The benchmark change in ROADMAP.md, item 1, frees
# them.

JIT_REQUESTED = True
JIT_ENABLED = False


def warmup():
    """Nothing to prepare: kept for the benchmark's set-up."""


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
