"""Fixture: the plan-time clients module roots the sweep's seed tree from a parameter."""

import numpy as np


def plan_resilience(n, seed):
    # the plan draws from a seed that flows in, never from a literal
    base = np.random.default_rng(np.random.SeedSequence(seed))
    return base.random(n)
