"""Fixture: the planner roots the seed tree from a seed it is handed."""

import numpy as np


def plan(seed):
    return np.random.default_rng(np.random.SeedSequence(seed))
