"""The benchmark's workloads: what each optimization run is made of.

A run of the benchmark makes one or more passes over a panel of optimizer
seeds.  The panel comes from the benchmark's ``--seed``: seed ``n`` of a
workload with a panel of ``k`` runs the optimizer seeds ``n*k .. n*k+k-1``,
so different benchmark seeds never share an optimization run.  Averaging
over the panel keeps one unlucky trajectory from setting a run's figures.

Every length is fixed by the iteration budget or, for the hill climb, by
convergence; the stagnation rule is off, so the time measured is the time
the work takes, not how soon a trajectory stalls.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

#: BLAS / OpenMP thread pools pinned to one thread in every run's process
THREAD_ENV = {v: "1" for v in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
                               "MKL_NUM_THREADS", "VECLIB_MAXIMUM_THREADS",
                               "NUMEXPR_NUM_THREADS")}

#: shared by every workload: the paper's benchmark program, aspo's default
#: warm-start size and time compression
PROGRAM = "multiply"
WARM_START = 10
TIME_COMPRESSION = 1.0 / 60.0


@dataclass(frozen=True)
class Workload:
    name: str
    processor: str
    generator: str            # "aspo", or a baseline name for run_baseline
    iterations: int           # iteration budget after the warm start
    panel: int                # optimizer seeds per pass
    expected_stop: str        # stop reason every run must end with
    tdt_limit_minutes: float = 2100.0

    def optimizer_seeds(self, seed: int) -> list[int]:
        return [seed * self.panel + j for j in range(self.panel)]


WORKLOADS = {w.name: w for w in (
    # The headline run: SLSQP with constraint callbacks plus discrete polish
    # over the constrained BOOM space.
    Workload("boom-aspo", "boom", "aspo", iterations=5, panel=4,
             expected_stop="budget-exhausted"),
    # No constraint file and two one-hot blocks: the constraints layer is
    # idle and gp.fit carries a larger share.
    Workload("rocketchip-aspo", "rocketchip", "aspo", iterations=30, panel=2,
             expected_stop="budget-exhausted"),
    # No surrogate at all: checkpoint inserts, weight relearning and the
    # evaluator's rejection paths.  The time limit is lifted so that the
    # climb runs until it converges; the iteration budget is only a cap.
    Workload("boom-hill-climb", "boom", "hill-climb", iterations=10_000,
             panel=3, expected_stop="converged",
             tdt_limit_minutes=math.inf),
)}
