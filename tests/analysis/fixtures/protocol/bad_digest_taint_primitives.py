# Seeded fault: a CPU clock and a host-derived uuid reachable from
# History.digest().  Both are nondeterminism primitives of the
# determinism rules (wall-clock, unseeded-random), so digest-taint must
# see them too, whatever the per-rule waivers say.
import time
import uuid


class History:
    def __init__(self):
        self.records = []

    def digest(self):
        return (len(self.records), cpu_stamp(), run_id())


def cpu_stamp():
    return time.process_time()  # repro: allow[wall-clock]


def run_id():
    return uuid.uuid1()  # repro: allow[unseeded-random]
