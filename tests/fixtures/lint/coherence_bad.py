"""Fixture: writes to memoized-load inputs with missing counter bumps."""

import bisect


class LoadEpoch:
    def __init__(self):
        self.value = 0

    def bump(self):
        self.value += 1


class RunQueue:
    def __init__(self):
        self._q = []
        self._nr_running = 0
        self.mutations = 0
        self.load_epoch = LoadEpoch()
        self.idle_epoch = LoadEpoch()

    def sneaky_insert(self, item):
        # BAD x2: both writes reach cached readers with no bump at all.
        self._q.append(item)
        self._nr_running += 1

    def half_bumped(self, item):
        # BAD: bumps the private counter but never the shared load epoch.
        self._q.append(item)
        self.mutations += 1

    def sneaky_sorted_insert(self, item):
        # BAD x2: sorted-list inserts -- a method call and a module-level
        # ``insort`` -- with no bump at all.
        self._q.insert(bisect.bisect_left(self._q, item), item)
        bisect.insort(self._q, item)

    def sneaky_alias_pop(self):
        # BAD: a write through a local alias of the field is still a write.
        q = self._q
        q.pop(0)
