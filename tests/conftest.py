import dataclasses

import numpy as np
from hypothesis import HealthCheck, settings

from uavcontract import Scenario, UavType

settings.register_profile(
    "suite", max_examples=60, deadline=None, derandomize=True,
    suppress_health_check=[HealthCheck.too_slow])
settings.load_profile("suite")

ACCEPTANCE_LINES = []


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if ACCEPTANCE_LINES:
        terminalreporter.write_sep("=", "acceptance criteria")
        for line in sorted(ACCEPTANCE_LINES):
            terminalreporter.write_line(line)


def make_scenario_a(t_max: float = 2.0) -> Scenario:
    return Scenario(
        types=(UavType(index=1, c1=1.0, c2=0.0, t=1.0, n=5),
               UavType(index=2, c1=0.5, c2=0.0, t=1.0, n=5)),
        satisfaction_factor=6.0, deployment_cost=1.0, s_max=300.0,
        t_max=t_max, vdd_demand=800.0, total_uavs=10)


def make_scenario_b() -> Scenario:
    # cheap type four times slower: natural order reversed, items pool
    return Scenario(
        types=(UavType(index=1, c1=1.0, c2=0.0, t=1.0, n=5),
               UavType(index=2, c1=0.5, c2=0.0, t=4.0, n=5)),
        satisfaction_factor=6.0, deployment_cost=1.0, s_max=300.0,
        t_max=4.0, vdd_demand=800.0, total_uavs=10)


def make_single_type(c: float = 0.5, s_max: float = 13.75,
                     n: int = 5) -> Scenario:
    return Scenario(
        types=(UavType(index=1, c1=c, c2=0.0, t=1.0, n=n),),
        satisfaction_factor=6.0, deployment_cost=1.0, s_max=s_max,
        t_max=1.0, vdd_demand=800.0, total_uavs=n)


def random_scenario(rng: np.random.Generator, max_types: int = 6,
                    eligible_only: bool = False,
                    s_max_range=(5.0, 50.0)) -> Scenario:
    """Randomized but valid scenario with distinct costs.

    Costs are spread over [0.01, 1] with a guaranteed gap so the strict
    ordering the closed forms assume holds; some delays may exceed t_max
    unless eligible_only is set.  At least one type stays eligible.
    """
    j = int(rng.integers(1, max_types + 1))
    costs = np.sort(rng.uniform(0.01, 1.0, size=j))
    while j > 1 and np.min(np.diff(costs)) < 1e-3:
        costs = np.sort(rng.uniform(0.01, 1.0, size=j))
    t_max = 2.0
    types = []
    for i in range(j):
        if eligible_only or i == 0:
            t = float(rng.uniform(0.5, t_max))
        else:
            t = float(rng.uniform(0.5, 2.0 * t_max))
        split = rng.uniform(0.0, 1.0)
        c = float(costs[i])
        types.append(UavType(index=i + 1, c1=c * split, c2=c * (1 - split),
                             t=t, n=int(rng.integers(1, 21))))
    return Scenario(
        types=tuple(types),
        satisfaction_factor=float(rng.uniform(1.0, 10.0)),
        deployment_cost=float(rng.uniform(0.0, 2.0)),
        s_max=float(rng.uniform(*s_max_range)), t_max=t_max,
        vdd_demand=800.0, total_uavs=sum(ty.n for ty in types))


def logs_equal(a, b) -> bool:
    """Whether two `EpisodeLog`s hold the same bits in every field."""
    return all(np.array_equal(getattr(a, f.name), getattr(b, f.name))
               for f in dataclasses.fields(a))


def tables_equal(a, b) -> bool:
    """Whether two `Tables` hold the same bits, dtypes and shapes included,
    in all six arrays."""
    return all(x.dtype == y.dtype and x.shape == y.shape
               and x.tobytes() == y.tobytes()
               for x, y in ((getattr(a, f.name), getattr(b, f.name))
                            for f in dataclasses.fields(a)))
