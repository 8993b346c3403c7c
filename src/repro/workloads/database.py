"""A commercial-database stand-in executing a TPC-H-like workload.

The paper's trigger workload: a widely used commercial DBMS "relies on
pools of worker threads: a handful of container processes each provide
several dozens of worker threads", each container in its own autogroup.
Workers execute queries as a sequence of *rounds* (scan, join, aggregate):
in each round every worker computes, then blocks on a barrier until the
slowest worker -- the straggler -- arrives.  Workers therefore sleep and
wake constantly, which is exactly the behavior the Overload-on-Wakeup bug
punishes: "any two threads that are stuck on the same core end up slowing
down all the remaining threads".

:class:`TpchQuery` parameterizes one query's round count and per-round
work; :func:`tpch_queries` provides the 22-query mix, with query 18 the
heaviest (the paper's most-affected request).
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Dict, List, Sequence

from repro.workloads.base import (
    BarrierWait,
    Notify,
    Run,
    Sleep,
    TaskSpec,
    WaitOn,
    jittered,
)
from repro.workloads.sync import Barrier, Channel


@dataclass(frozen=True)
class TpchQuery:
    """One TPC-H request: rounds of parallel work with fan-in sync."""

    number: int
    rounds: int
    work_us: int
    #: Work-grain jitter between workers within a round.
    jitter: float = 0.35

    @property
    def name(self) -> str:
        return f"Q{self.number}"


def tpch_queries(scale: float = 1.0) -> List[TpchQuery]:
    """The 22 TPC-H queries, with relative weights echoing the benchmark.

    Query 18 (large-volume customers: a huge multi-way join and sort) is
    the heaviest -- and the paper's most bug-sensitive request.
    """
    rounds = {
        1: 10, 2: 4, 3: 8, 4: 6, 5: 10, 6: 4, 7: 10, 8: 10, 9: 14, 10: 8,
        11: 4, 12: 6, 13: 8, 14: 4, 15: 4, 16: 6, 17: 10, 18: 20, 19: 6,
        20: 8, 21: 16, 22: 4,
    }
    work = {
        1: 900, 2: 350, 3: 650, 4: 500, 5: 800, 6: 400, 7: 700, 8: 650,
        9: 900, 10: 600, 11: 350, 12: 500, 13: 700, 14: 400, 15: 400,
        16: 450, 17: 750, 18: 1000, 19: 500, 20: 550, 21: 850, 22: 350,
    }
    return [
        TpchQuery(
            number=q,
            rounds=max(1, int(rounds[q] * scale)),
            work_us=work[q],
        )
        for q in sorted(rounds)
    ]


def query18(scale: float = 1.0) -> TpchQuery:
    """The paper's most-affected request."""
    return [q for q in tpch_queries(scale) if q.number == 18][0]


@dataclass
class QueryResult:
    """Measured latency of one executed query."""

    query: TpchQuery
    start_us: int
    end_us: int

    @property
    def latency_us(self) -> int:
        return self.end_us - self.start_us


class Database:
    """Worker pools + a query driver.

    ``containers`` lists the worker count of each container process; each
    container is one cgroup (autogroup), so containers with different pool
    sizes give their workers different loads -- the Group Imbalance
    trigger from the paper's footnote 4.
    """

    def __init__(
        self,
        containers: Sequence[int] = (32, 16, 8, 8),
        seed: int = 11,
        think_time_us: int = 2_000,
    ):
        if not containers or any(c <= 0 for c in containers):
            raise ValueError("containers must be positive worker counts")
        self.containers = tuple(containers)
        self.nr_workers = sum(containers)
        self.seed = seed
        self.think_time_us = think_time_us
        self.rng = random.Random(seed)
        #: Work distribution channel: the driver posts one token per
        #: worker per round.
        self.work_channel = Channel("db-work")
        #: Fan-in barrier per round (blocking: DB workers sleep).
        self.round_barrier = Barrier(
            self.nr_workers + 1, mode="block", name="db-round"
        )
        self.results: List[QueryResult] = []
        self._clock = None
        self._shutdown = False
        #: Per-round work durations, re-rolled by the driver per round.
        self._round_work: Dict[int, int] = {}

    # -- programs ---------------------------------------------------------

    def worker_specs(self) -> List[TaskSpec]:
        """One spec per worker, grouped into per-container cgroups."""
        specs = []
        rank = 0
        for c_idx, count in enumerate(self.containers):
            for _ in range(count):
                specs.append(
                    TaskSpec(
                        name=f"db-c{c_idx}-w{rank}",
                        program=self._worker_program(rank),
                        cgroup=f"db-container-{c_idx}",
                        tags={"app": "db", "container": c_idx},
                    )
                )
                rank += 1
        return specs

    def _worker_program(self, rank: int):
        def program():
            while True:
                yield WaitOn(self.work_channel)
                if self._shutdown:
                    return
                duration = self._round_work.get(rank, 500)
                yield Run(duration)
                yield BarrierWait(self.round_barrier)

        return program

    def bind(self, system) -> None:
        """Point query-latency measurement at a system's virtual clock.

        Must be called before the driver task starts running.
        """
        self._clock = lambda: system.now

    def driver_spec(self, queries: Sequence[TpchQuery]) -> TaskSpec:
        """The query coordinator: issues rounds, collects fan-ins."""

        def program():
            if self._clock is None:
                raise RuntimeError("call Database.bind(system) first")
            for query in queries:
                start = self._clock()
                for _ in range(query.rounds):
                    for rank in range(self.nr_workers):
                        self._round_work[rank] = jittered(
                            self.rng, query.work_us, query.jitter
                        )
                        yield Notify(self.work_channel)
                    # Small coordination cost, then wait for every worker.
                    yield Run(50)
                    yield BarrierWait(self.round_barrier)
                self.results.append(
                    QueryResult(query, start, self._clock())
                )
                if self.think_time_us > 0:
                    yield Sleep(self.think_time_us)
            self._shutdown = True
            for _ in range(self.nr_workers):
                yield Notify(self.work_channel)

        return TaskSpec(
            name="db-driver", program=program, cgroup="db-driver",
            tags={"app": "db-driver"},
        )
