"""The benchmark's workloads: the simulation points each one runs.

A workload is a fixed list of points built from the benchmark seed.
Each point is one ``Cluster`` run: parameters, a transaction generator,
a catalog and an optional fault plan.  The simulator only ever sees
these inputs.

The benchmark seed draws the BATs: which partitions each one touches.
The arrival instants are the simulator's own Poisson process, under a
seed fixed per point (``params.seed``).  Into an unbounded backlog the
number of arrivals swings a saturated point's host time by about 25%
from one arrival seed to the next, against about 8% for a change of
transactions alone, so fixing the arrival schedules is what keeps a
run's total steady from one benchmark seed to the next.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Tuple

from repro.config import SimulationParameters
from repro.core.transaction import TransactionSpec
from repro.engine.rng import RandomStreams
from repro.faults.plan import ControlCrash, FaultPlan
from repro.machine.partition import Catalog
from repro.workloads.patterns import (bulk_scan, bulk_scan_catalog, pattern1,
                                      pattern1_catalog)

SATURATED_SCHEDULERS = ("CHAIN", "K2", "C2PL")
SATURATED_POINTS_PER_SCHEDULER = 4
SATURATED_CLOCKS = 120_000.0

BULK_NODES = 64
BULK_RATE = 0.002
BULK_OBJ_TIME = 20.0
BULK_POINTS = 8
BULK_BATS_PER_POINT = 1000

SHARDED_POINTS = 96
SHARDED_CNS = 4
SHARDED_CLOCKS = 50_000.0
CRASH_EVERY = 10_000.0
CRASH_DOWNTIME = 2_000.0


@dataclass(frozen=True)
class Point:
    """One simulation point: everything ``Cluster`` is given."""

    name: str
    params: SimulationParameters
    workload: Callable[[int, RandomStreams], TransactionSpec]
    transactions_seed: int
    catalog: Catalog
    fault_plan: Optional[FaultPlan] = None

    def transactions(self) -> "Transactions":
        """A fresh generator: every run of the point draws the same BATs."""
        return Transactions(self.workload, self.transactions_seed)

    @property
    def planned_crashes(self) -> int:
        """Control-node crashes the plan puts (with their recovery)
        inside the horizon."""
        if self.fault_plan is None:
            return 0
        return sum(1 for crash in self.fault_plan.control_crashes
                   if crash.recover_at is not None
                   and crash.recover_at < self.params.sim_clocks)


class Transactions:
    """A ``repro`` workload drawing from the benchmark's own streams.

    The simulator hands every generator its run's ``RandomStreams``;
    this one ignores them and draws from streams seeded by the
    benchmark, so the BATs follow the benchmark seed while the arrival
    process follows ``params.seed``.
    """

    def __init__(self, workload: Callable[[int, RandomStreams],
                                          TransactionSpec],
                 seed: int) -> None:
        self.workload = workload
        self.streams = RandomStreams(seed)

    def __call__(self, tid: int, streams: RandomStreams) -> TransactionSpec:
        return self.workload(tid, self.streams)


def seeds(workload: str, seed: int, tag: str, count: int) -> List[int]:
    """``count`` seeds, a pure function of (workload, seed, tag)."""
    rng = random.Random(f"{workload}:{seed}:{tag}")
    return [rng.randrange(1, 2 ** 31) for _ in range(count)]


def _inputs(workload: str, seed: int, tag: str,
            count: int) -> List[Tuple[int, int]]:
    """(arrival seed, transaction seed) per point: arrival seeds are fixed
    per point, transaction seeds follow the benchmark seed."""
    return list(zip(seeds(workload, 0, f"{tag}:arrivals", count),
                    seeds(workload, seed, f"{tag}:transactions", count)))


def _paper_saturated(seed: int) -> List[Point]:
    points = []
    for scheduler in SATURATED_SCHEDULERS:
        for i, (arrivals, bats) in enumerate(_inputs(
                "paper-saturated", seed, scheduler,
                SATURATED_POINTS_PER_SCHEDULER)):
            params = SimulationParameters(
                scheduler=scheduler, arrival_rate_tps=1.0,
                sim_clocks=SATURATED_CLOCKS, seed=arrivals)
            points.append(Point(f"{scheduler}#{i}", params, pattern1(16),
                                bats, pattern1_catalog()))
    return points


def _bulk_scan(seed: int) -> List[Point]:
    points = []
    for i, (arrivals, bats) in enumerate(_inputs("bulk-scan", seed, "K2",
                                                 BULK_POINTS)):
        params = SimulationParameters(
            scheduler="K2", arrival_rate_tps=BULK_RATE,
            sim_clocks=BULK_BATS_PER_POINT * 1000.0 / BULK_RATE,
            seed=arrivals, num_nodes=BULK_NODES, num_partitions=BULK_NODES,
            obj_time=BULK_OBJ_TIME)
        points.append(Point(f"K2#{i}", params,
                            bulk_scan(num_partitions=BULK_NODES), bats,
                            bulk_scan_catalog(num_partitions=BULK_NODES,
                                              num_nodes=BULK_NODES)))
    return points


def crash_plan(clocks: float) -> FaultPlan:
    """CN ``i mod 4`` crashes every ``CRASH_EVERY`` clocks and replays
    its log after ``CRASH_DOWNTIME``; the last crash recovers in time."""
    crashes = []
    at = CRASH_EVERY
    while at + CRASH_DOWNTIME < clocks:
        crashes.append(ControlCrash(cn=len(crashes) % SHARDED_CNS, at=at,
                                    recover_at=at + CRASH_DOWNTIME))
        at += CRASH_EVERY
    return FaultPlan(control_crashes=tuple(crashes))


def _sharded_recovery(seed: int) -> List[Point]:
    plan = crash_plan(SHARDED_CLOCKS)
    points = []
    for i, (arrivals, bats) in enumerate(_inputs(
            "sharded-recovery", seed, "K2", SHARDED_POINTS)):
        params = SimulationParameters(
            scheduler="K2", arrival_rate_tps=0.6, sim_clocks=SHARDED_CLOCKS,
            seed=arrivals, num_control_nodes=SHARDED_CNS)
        points.append(Point(f"K2#{i}", params, pattern1(16), bats,
                            pattern1_catalog(), fault_plan=plan))
    return points


BUILDERS: Dict[str, Callable[[int], List[Point]]] = {
    "paper-saturated": _paper_saturated,
    "bulk-scan": _bulk_scan,
    "sharded-recovery": _sharded_recovery,
}


def build_points(workload: str, seed: int) -> List[Point]:
    """The workload's points for benchmark seed ``seed``."""
    return BUILDERS[workload](seed)
