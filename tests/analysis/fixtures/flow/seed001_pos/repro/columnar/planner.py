"""Fixture: the planner gets no exemption — a literal root seed is a finding."""

import numpy as np


def plan():
    return np.random.default_rng(np.random.SeedSequence(2024))
