"""Fixture: the resilience discipline done right.

``plan_resilience`` roots its seed tree from the seed it is handed (no
module is exempt from SEED001), and the runtime the simulation drives is
a pure state machine over plan-time arrays.
"""

import numpy as np


class ClosedLoopRuntime:
    def __init__(self, jitter_u):
        self.jitter_u = jitter_u
        self.retries = 0

    def on_failure(self, idx, now_s, code):
        u = float(self.jitter_u[idx])
        self.retries += 1
        return now_s + u


def plan_resilience(n, seed):
    # the plan draws from a seed that flows in, never from a literal
    base = np.random.default_rng(np.random.SeedSequence(seed))
    return base.random(n)
