"""The sweep-cell benchmark's workloads.

Each workload maps a benchmark seed to the list of ``RunConfig`` cells one
sweep runs, in spec order.  The seed picks which run seeds (from a fixed
pool per workload) the sweep uses.  A run seed reshapes the
``random_connected`` and ``blob`` shapes and reseeds particle orientations
and the random activation order; ``hexagon``, ``holey`` and the other
deterministic families keep their shape.  Because every reachable cell
comes from the pool, ``expected.json`` can hold the expected record of
every cell any seed can produce.

This module imports nothing from ``repro`` at import time, so ``run.py``
can read workload facts without loading the program.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Any, List, Sequence, Tuple

#: The seed baselines are measured on, and one kept back for checking a
#: claim on inputs it was not tuned on (its run seed differs from the
#: default's on table1-cold).
DEFAULT_SEED = 1
HELD_OUT_SEED = 2

TABLE1_ALGORITHMS = ("randomized", "erosion", "dle", "obd+dle+collect")
TINY_ALGORITHMS = ("randomized", "erosion", "dle", "dle+collect",
                   "obd+dle+collect")


@dataclass(frozen=True)
class Workload:
    """One benchmark workload: a sweep grid plus the transport it runs on."""

    name: str
    why: str
    #: ``(family, size)`` shapes of one sweep, in spec order.
    shapes: Tuple[Tuple[str, int], ...]
    algorithms: Tuple[str, ...]
    transport: str
    #: Run seeds the benchmark seed chooses from, and how many per sweep.
    seed_pool: int
    seeds_per_sweep: int
    #: The cut-down shapes the self-test runs, on the first run seed only.
    toy_shapes: Tuple[Tuple[str, int], ...]

    def run_seeds(self, seed: int) -> List[int]:
        """The run seeds one sweep uses for benchmark seed ``seed``."""
        rng = random.Random(f"{self.name}:{seed}")
        return sorted(rng.sample(range(self.seed_pool), self.seeds_per_sweep))

    def configs(self, seed: int, toy: bool = False) -> List[Any]:
        """The sweep's ``RunConfig`` cells in spec order."""
        seeds = self.run_seeds(seed)
        if toy:
            return self._cells(seeds[:1], self.toy_shapes)
        return self._cells(seeds, self.shapes)

    def pool_configs(self) -> List[Any]:
        """Every cell any benchmark seed can reach (toy cells included)."""
        return self._cells(range(self.seed_pool), self.shapes)

    def _cells(self, seeds: Sequence[int],
               shapes: Sequence[Tuple[str, int]]) -> List[Any]:
        # Run seeds are the outer axis, so each (family, size, seed) shape
        # is built once and then shared by the cells that follow it.  Cells
        # keep the sweep defaults: random activation order, sweep engine.
        from repro.orchestrator import SweepSpec

        configs: List[Any] = []
        for run_seed in seeds:
            for family, size in shapes:
                configs.extend(SweepSpec(
                    algorithms=self.algorithms, families=[family],
                    sizes=[size], seeds=[run_seed]).expand())
        return configs


def _grid(families: Sequence[str], sizes: Sequence[int]
          ) -> Tuple[Tuple[str, int], ...]:
    return tuple((family, size) for family in families for size in sizes)


WORKLOADS = {
    workload.name: workload for workload in (
        Workload(
            name="table1-cold",
            why=("Table 1 algorithms on mid-size hexagon, holey and "
                 "random_connected shapes, inline: shape metrics are most "
                 "of each cold cell"),
            shapes=_grid(("hexagon", "holey", "random_connected"), (5, 7)),
            algorithms=TABLE1_ALGORITHMS,
            transport="inline", seed_pool=16, seeds_per_sweep=1,
            toy_shapes=(("hexagon", 5), ("random_connected", 5)),
        ),
        Workload(
            name="tiny-process",
            why=("thousands of tiny cells on the process transport, one "
                 "worker per CPU beyond the coordinator's: pool dispatch, "
                 "pickling, the fsync'd cache put and the ledger append "
                 "dominate"),
            shapes=_grid(("hexagon", "parallelogram", "line", "comb", "blob",
                          "random_connected"), (1, 2, 3)),
            algorithms=TINY_ALGORITHMS,
            transport="process", seed_pool=32, seeds_per_sweep=16,
            toy_shapes=_grid(("hexagon", "line", "random_connected"), (1, 2)),
        ),
    )
}


def cell_key(config: Any) -> str:
    """A config's key in ``expected.json``: every field but the run seed."""
    return "|".join((config.algorithm, config.family, str(config.size),
                     config.scheduler, config.engine))
