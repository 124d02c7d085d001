# A seeded random.Random instance inside the golden-digest closure is
# deterministic: it is not a nondeterminism primitive.
import random


class History:
    def __init__(self):
        self.records = []

    def digest(self):
        rng = random.Random(7)
        return (len(self.records), rng.random())
