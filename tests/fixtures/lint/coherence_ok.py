"""Fixture: the approved write disciplines for memoized-load inputs."""

from bisect import bisect_left, insort


class LoadEpoch:
    def __init__(self):
        self.value = 0

    def bump(self):
        self.value += 1


class RunQueue:
    def __init__(self):
        # OK: constructor self-initialization needs no bump (nothing can
        # hold a stale cache of an object mid-__init__).
        self._q = []
        self._nr_running = 0
        self.curr = None
        self.mutations = 0
        self.load_epoch = LoadEpoch()
        self.idle_epoch = LoadEpoch()

    def enqueue(self, item):
        # OK: every write is followed by its counters; the idle-epoch
        # bump being conditional is fine (only transitions matter).
        self._q.append(item)
        self._nr_running += 1
        self.mutations += 1
        if self._nr_running == 1:
            self.idle_epoch.bump()
        self.load_epoch.bump()

    def _raw_insert(self, item):
        # OK: bump-free helper, covered because its only caller bumps
        # every required counter after the call site.
        self._q.append(item)
        self._nr_running += 1

    def covered_insert(self, item):
        self._raw_insert(item)
        self.mutations += 1
        self.idle_epoch.bump()
        self.load_epoch.bump()

    def sorted_insert(self, item):
        # OK: a bisect-sorted insert, as method call or ``insort``, is a
        # write like any other and is covered the same way.
        self._q.insert(bisect_left(self._q, item), item)
        insort(self._q, item)
        self._nr_running += 2
        self.mutations += 1
        self.idle_epoch.bump()
        self.load_epoch.bump()

    def rotate(self, item):
        # Provably cache-preserving by design; opted out explicitly.
        self._q.append(item)  # repro: noqa[coherence-unbumped-write]
