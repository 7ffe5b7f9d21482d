"""The benchmark's workloads as generated experiment configurations.

Each workload is an :class:`risload.ExperimentConfig` without seeds, the
demands it runs at, and the cost of one scenario, used to size a run to
its length.  The benchmark seed picks a block of scenario seeds; the
program only ever sees the resulting configurations, one scenario each,
so a run holds no more than one scenario at a time.  NOTES.md records
why each workload was chosen.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass

from risload import ExperimentConfig, Layout

# Scenario seeds of benchmark seed n are n * SEED_STRIDE + k, k < count.
SEED_STRIDE = 100_000


@dataclass(frozen=True)
class Workload:
    """One benchmark workload.

    Attributes
    ----------
    name : str
    config : ExperimentConfig
        Layout, schemes and tolerances; the run supplies seed and demand.
    demands : tuple of float
        Demands every scenario seed is run at, in order.
    scenario_cost_s : float
        Approximate single-thread seconds one scenario costs over all
        schemes; sizes a run to ``--seconds``.
    """

    name: str
    config: ExperimentConfig
    demands: tuple
    scenario_cost_s: float

    def scenario_seeds(self, seed: int, seconds: float) -> tuple:
        """Scenario seeds of one run: the same arguments give the same seeds."""
        if seed < 0:
            raise ValueError("the benchmark seed must be non-negative")
        cost = self.scenario_cost_s * len(self.demands)
        count = max(1, round(seconds / cost))
        if count > SEED_STRIDE:
            raise ValueError("run too long for the seed stride")
        base = seed * SEED_STRIDE
        return tuple(range(base, base + count))

    def configs(self, seed: int, seconds: float) -> list:
        """One single-scenario configuration per (seed, demand), in run order."""
        return [dataclasses.replace(self.config, seeds=(k,), demand=d)
                for k in self.scenario_seeds(seed, seconds)
                for d in self.demands]


_SMALL_RIS = Layout(ris_per_cell=2, elements_per_ris=20)

WORKLOADS = {
    w.name: w for w in (
        Workload("ica-ideal",
                 ExperimentConfig(layout=_SMALL_RIS, schemes=("ICA-D1",),
                                  eps=1e-4, inner_tol=1e-7),
                 demands=(0.02,), scenario_cost_s=2.4),
        Workload("decomp-fixed",
                 ExperimentConfig(layout=_SMALL_RIS,
                                  schemes=("Decomp1", "Decomp2"), eps=1e-4,
                                  inner_tol=1e-7),
                 demands=(0.02,), scenario_cost_s=1.1),
        Workload("load-eval",
                 ExperimentConfig(schemes=("NoRIS", "Random")),
                 demands=(0.01, 0.02, 0.03), scenario_cost_s=0.012),
    )
}
