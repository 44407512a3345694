"""Fixture: the columnar planner roots the seed tree from config.

``repro.columnar.planner`` is where randomness is *supposed* to be
resolved, but it gets no SEED001 exemption: its Generators are quiet
because they are seeded from the config it is handed, not a literal.
"""

import numpy as np


def plan_columns(config):
    rng = np.random.default_rng(np.random.SeedSequence(config.seed, spawn_key=(0,)))
    return {"start": rng.uniform(0.0, 96.0, 8), "hours": rng.uniform(1.0, 48.0, 8)}
