"""Fixture: a plan-time module may root the seed tree from a literal."""

import numpy as np


def plan():
    return np.random.default_rng(np.random.SeedSequence(2024))
