"""Order-preserving process-pool map: the light half of ``repro.parallel``.

Apart from :mod:`repro.parallel.engine`, so the resilience sweep fans
out without loading the cohort, the testbed or the checkpoint journal
(DESIGN §15).  PAR001 keeps it inside this package.
"""

from __future__ import annotations

import multiprocessing
from concurrent.futures import ProcessPoolExecutor

from repro.common.errors import ValidationError


def deterministic_map(fn, items, *, workers: int) -> list:
    """Order-preserving parallel map: ``[fn(x) for x in items]`` on a pool.

    The sanctioned fan-out primitive for callers outside this package
    (PAR001 bans them from touching ``multiprocessing`` directly — the
    resilience sweep's fan-out routes through here).  Results come back
    in *item order* regardless of completion order, ``workers=1``
    (or a single item) runs in-process with no pool, and ``fn`` must be a
    picklable module-level callable that is a pure function of its item —
    under those terms the output is identical for every worker count.
    """
    if workers < 1:
        raise ValidationError(f"workers must be positive: {workers!r}")
    items = list(items)
    if workers == 1 or len(items) <= 1:
        return [fn(item) for item in items]
    with ProcessPoolExecutor(
        max_workers=min(workers, len(items)), mp_context=_pool_context()
    ) as pool:
        return list(pool.map(fn, items))


def _pool_context() -> multiprocessing.context.BaseContext:
    # fork skips re-importing numpy and the testbed in every worker; fall back to
    # the platform default where fork is unavailable (the engine's output
    # is start-method independent either way).
    methods = multiprocessing.get_all_start_methods()
    return multiprocessing.get_context("fork" if "fork" in methods else None)
