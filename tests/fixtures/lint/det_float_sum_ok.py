"""Fixture: load sums through load_sum, int sums through builtin sum."""

from repro.sched.load import load_sum


def group_avg(loads):
    return load_sum(loads) / len(loads)


def queue_load(rq, now):
    return load_sum(task.load(now) for task in rq.all_tasks())


def nr_running(cpus):
    return sum(c.rq.nr_running for c in cpus if c.online)


def total_weight(rq):
    return sum(task.weight for task in rq.all_tasks())


def busy(cpus):
    return sum(1 for c in cpus if not c.is_idle)
