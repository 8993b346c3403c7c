"""Fixture: float load sums that bypass load_sum (4 findings).

The three builtin-``sum`` shapes are the ones the scheduler used before
its load sums moved to ``repro.sched.load.load_sum``.
"""

import math


def group_avg(loads):
    return sum(loads) / len(loads)


def queue_load(rq, now):
    return sum(task.load(now) for task in rq.all_tasks())


def cpus_load(sched, cpu_ids, now):
    return sum(sched.cpu(c).rq.load(now) for c in cpu_ids)


def exact_load(loads):
    return math.fsum(loads)
