"""Spans around the calls into each program layer, for the traced run.

A wrapper goes on each name at the place its caller looks it up: the
benchmark calls ``solver.solve_partial_info`` through the module, while
``run_phc`` looks up ``runner.train`` and ``hotboot`` looks up ``phc.train``,
so those are separate sites of one layer.  Spans are kept in memory as
(layer, site, start, end, parent, pass, op, amount) and written out when the
run ends; ``remove`` puts every original function back.
"""

from __future__ import annotations

import functools
from pathlib import Path
from time import perf_counter


def _train_loop_slots(args):
    uniforms = args[4]                   # (slots, types, 2)
    return uniforms.shape[0] * uniforms.shape[1]


def _text_bytes(args):
    return len(args[1].encode("utf-8"))


# (module attribute on the program namespace, name in it, layer, amount)
SITES = (
    ("environment", "derived_delay", "environment.derived_delay", None),
    ("game", "verify_feasibility", "game.verify_feasibility", None),
    ("game", "gcs_utility", "game.gcs_utility", None),
    ("game", "defensive_effectiveness", "game.defensive_effectiveness",
     None),
    ("game", "eligible_types", "game.eligible_types", None),
    ("solver", "eligible_types", "game.eligible_types", None),
    ("phc", "eligible_types", "game.eligible_types", None),
    ("runner", "eligible_types", "game.eligible_types", None),
    ("solver", "solve_partial_info", "solver.solve_partial_info", None),
    ("runner", "solve_partial_info", "solver.solve_partial_info", None),
    ("solver", "solve_complete_info", "solver.baselines", None),
    ("solver", "linear_contract", "solver.baselines", None),
    ("solver", "uniform_contract", "solver.baselines", None),
    ("solver", "brute_force_oracle", "solver.brute_force_oracle", None),
    ("kernels", "oracle_scan_1", "kernels.oracle_scan_1", None),
    ("kernels", "oracle_scan_2", "kernels.oracle_scan_2", None),
    ("kernels", "oracle_scan_3", "kernels.oracle_scan_3", None),
    ("runner", "run_phc", "runner.run_phc", None),
    ("runner", "train", "phc.train", None),
    ("phc", "train", "phc.train", None),
    ("kernels", "train_loop", "kernels.train_loop", _train_loop_slots),
    ("runner", "hotboot", "phc.hotboot", None),
    ("runner", "perturb_scenario", "phc.perturb_scenario", None),
    ("runner", "convergence_check", "phc.convergence_check", None),
    ("runner", "convergence_slot", "phc.convergence_slot", None),
    ("runner", "write_text_atomic", "runner.write_text_atomic", _text_bytes),
)

LAYER, SITE, START, END, PARENT, PASS, OP, AMOUNT = range(8)


class Tracer:
    """Records spans while installed; one ``install`` per traced pass."""

    def __init__(self, sites=SITES):
        self.sites = sites
        self.spans: list[list] = []
        self.op = 0
        self.pass_index = -1
        self._stack: list[int] = []
        self._saved: list[tuple] = []
        self._first_span: list[int] = []    # per pass, spans are contiguous

    def install(self, prog) -> None:
        if self._saved:
            raise RuntimeError("tracer is already installed")
        self.pass_index += 1
        self._first_span.append(len(self.spans))
        for module_key, name, layer, amount in self.sites:
            module = getattr(prog, module_key)
            original = getattr(module, name)
            self._saved.append((module, name, original))
            setattr(module, name, self._wrap(
                original, layer, f"{module.__name__}.{name}", amount))

    def remove(self) -> None:
        while self._saved:
            module, name, original = self._saved.pop()
            setattr(module, name, original)

    def _wrap(self, fn, layer, site, amount):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(spans)
            span = [layer, site, 0.0, 0.0, stack[-1] if stack else -1,
                    self.pass_index, self.op, None]
            spans.append(span)
            stack.append(index)
            span[START] = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                span[END] = perf_counter()
                stack.pop()
                if amount is not None:
                    span[AMOUNT] = amount(args)
        return traced

    def layer_totals(self, pass_index: int) -> dict[str, dict]:
        """Per layer in one pass: calls, seconds, self seconds, amount.

        Self time is a span's duration minus its direct children's; spans
        of one thread never overlap, so the children's sum is their union.
        """
        first = self._first_span[pass_index]
        last = (self._first_span[pass_index + 1]
                if pass_index + 1 < len(self._first_span) else len(self.spans))
        child = {}
        for span in self.spans[first:last]:
            if span[PARENT] >= 0:
                child[span[PARENT]] = (child.get(span[PARENT], 0.0)
                                       + span[END] - span[START])
        totals: dict[str, dict] = {}
        for i in range(first, last):
            span = self.spans[i]
            t = totals.setdefault(span[LAYER], {"calls": 0, "s": 0.0,
                                                "self_s": 0.0, "amount": 0})
            duration = span[END] - span[START]
            t["calls"] += 1
            t["s"] += duration
            t["self_s"] += duration - child.get(i, 0.0)
            if span[AMOUNT] is not None:
                t["amount"] += span[AMOUNT]
        return totals

    def write(self, path: Path) -> None:
        """Spans as CSV, times in seconds from the first span."""
        origin = self.spans[0][START] if self.spans else 0.0
        lines = ["layer,site,start_s,end_s,parent,pass,op,amount"]
        for s in self.spans:
            lines.append(f"{s[LAYER]},{s[SITE]},{s[START] - origin:.9f},"
                         f"{s[END] - origin:.9f},{s[PARENT]},{s[PASS]},"
                         f"{s[OP]},{'' if s[AMOUNT] is None else s[AMOUNT]}")
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
