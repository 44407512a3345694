"""Plan-time admission: the quota and lease-calendar sweeps over tables.

The testbed resolves quota exhaustion and lease-calendar conflicts
*reactively* (retry events, next-slot fallbacks).  For shards to be
order-independent those outcomes must be fixed at plan time, so two
conservative chronological sweeps pre-admit every activity:

* KVM quota: a bundle (FIP + instances + cores + RAM + volume) is
  admitted at time t only if it fits alongside every admitted bundle
  whose hold interval contains t — where releases happening *exactly*
  at t are NOT yet counted as free.  That strictness makes admission a
  pure prefix-sum test, independent of same-instant event ordering, so
  a plan-admitted bundle can never hit QuotaExceededError at runtime
  (the runtime holds a subset of what the sweep assumed held).
  Rejected bundles retry after the same backoff the reactive path uses.
* Lease calendars: leases are half-open intervals [start, start+len);
  the sweep replays create_lease's capacity check in event order and
  bumps conflicting bookings to the next slot, exactly as the runtime
  ConflictError handler would.  (The cursor calendar is designed to be
  conflict-free, so bumps are a determinism backstop; fault plans,
  which move bookings, are what make them fire.)

Each sweep is a **vectorized optimistic pass over an exact replay**:

* Fast path — hypothesize that every arrival is admitted on its first
  attempt, sort arrivals and releases into the sweep's event order, and
  prefix-sum the resource deltas.  ``np.cumsum`` applies the same
  floating-point additions in the same order the serial sweep would, so
  the running usage it produces is bit-identical to the serial
  ``in_use`` sequence *under the no-retry hypothesis*; if every arrival
  checkpoint stays within limits, the hypothesis is self-consistent and
  the serial sweep would have admitted everything at its original start.
* Exact replay — if any checkpoint fails, the hypothesis says nothing
  about what happens after the first rejection (retries reshuffle the
  event order), so the sweep falls back to the serial heap sweep: heap
  keys ``(time, rank)``, one retry-rank counter above every initial
  rank, the release strictness above, the cohort's retry policy.

Two conservatism details the event ordering must honor (they differ
between the sweeps, deliberately): the quota sweep frees releases
*strictly before* t (a release at exactly t is still held), so arrivals
sort before releases at equal times; the lease sweep keeps intervals
with ``end > t`` (a lease ending exactly at t is free), so releases
sort before arrivals.

Bundles are fixed-width 6-vectors (zero for dimensions a bundle does
not touch).  Adding or subtracting an exact 0.0 never changes a
non-negative float, and the sweep invariant ``in_use <= limit`` makes
the extra zero-dimension checks vacuous, so the dense form decides
exactly what a per-dimension sparse check would.
"""

from __future__ import annotations

import heapq

import numpy as np

from repro.cloud.inventory import CHAMELEON_FLAVORS
from repro.cloud.quota import Quota
from repro.core.cohort import CohortConfig, SlotCalendar, quota_for
from repro.core.course import CourseDefinition

#: Canonical quota-dimension order for bundle vectors.
QUOTA_DIMS: tuple[str, ...] = (
    "instances",
    "cores",
    "ram_gib",
    "floating_ips",
    "volumes",
    "volume_storage_gb",
)

_EPS = 1e-6  # the sweeps' semester-end guard band (semester_hours - 1e-6)


# -- bundle construction -----------------------------------------------------------


def _flavor_lookup(schema) -> tuple[np.ndarray, np.ndarray]:
    """(vcpus, ram_gib) indexed by schema rtype code; 0 for non-flavors."""
    n = len(schema.rtype_names)
    vcpus = np.zeros(n, dtype=np.int64)
    ram = np.zeros(n, dtype=np.int64)
    for name, flavor in CHAMELEON_FLAVORS.items():
        code = schema.rtype_codes.get(name)
        if code is not None:
            vcpus[code] = flavor.vcpus
            ram[code] = flavor.ram_gib
    return vcpus, ram


def _vm_lab_bundles(tables, schema) -> np.ndarray:
    """(V, 6) float64 — FIP, instances, cores, RAM (+ volume) per VM-lab row."""
    vcpus, ram = _flavor_lookup(schema)
    count = tables.vm_count.astype(np.int64)
    out = np.zeros((len(count), len(QUOTA_DIMS)), dtype=np.float64)
    out[:, 0] = count
    out[:, 1] = count * vcpus[tables.vm_flavor]
    out[:, 2] = count * ram[tables.vm_flavor]
    out[:, 3] = 1.0
    has_block = tables.vm_block_gb > 0
    out[:, 4] = has_block
    out[:, 5] = np.where(has_block, tables.vm_block_gb, 0).astype(np.float64)
    return out


def _pvm_bundles(tables, schema) -> np.ndarray:
    """(P, 6) float64 — instance, cores, RAM (+ FIP) per service-VM row."""
    vcpus, ram = _flavor_lookup(schema)
    out = np.zeros((len(tables.pvm_start), len(QUOTA_DIMS)), dtype=np.float64)
    out[:, 0] = 1.0
    out[:, 1] = vcpus[tables.pvm_flavor]
    out[:, 2] = ram[tables.pvm_flavor]
    out[:, 3] = tables.pvm_with_fip
    return out


def _ps_bundles(tables) -> np.ndarray:
    """(G, 6) float64 — one volume per storage row."""
    out = np.zeros((len(tables.ps_start), len(QUOTA_DIMS)), dtype=np.float64)
    out[:, 4] = 1.0
    out[:, 5] = np.maximum(1, tables.ps_block_gb).astype(np.float64)
    return out


def _quota_limits(quota: Quota) -> np.ndarray:
    return np.array([getattr(quota, dim) for dim in QUOTA_DIMS], dtype=np.float64)


# -- the KVM quota sweep -----------------------------------------------------------


def sweep_kvm_quota(
    tables, *, course: CourseDefinition, config: CohortConfig, info: dict, schema
):
    """Fix quota admission outcomes on activity tables.

    Expects tables in rank order (student VM rows first, then the
    project rows grouped by group) — the order :func:`plan_columns`
    builds and a fault model preserves.  Returns new tables with
    rejected-forever rows removed and admitted starts baked in.
    """
    quota = quota_for(course)
    limits = _quota_limits(quota)
    H = course.semester_hours

    vm_b = _vm_lab_bundles(tables, schema)
    pvm_b = _pvm_bundles(tables, schema)
    ps_b = _ps_bundles(tables)

    vm_end = np.minimum(tables.vm_start + tables.vm_duration, H - _EPS)
    vm_drop = vm_end <= tables.vm_start  # starts after staff clean-up
    pvm_end = np.minimum(tables.pvm_start + tables.pvm_hours, H - _EPS)
    pvm_drop = pvm_end <= tables.pvm_start
    ps_end = np.minimum(tables.ps_start + tables.ps_hours, H - _EPS)
    ps_hold_end = np.maximum(ps_end, tables.ps_start)

    # sweep ranks (serial event-scheduling order): every student VM row,
    # then each group's service VMs followed by its storage row; a fault
    # plan splits and drops service-VM rows, so rank by a stable sort
    V, P = len(tables.vm_start), len(tables.pvm_start)
    vm_rank = np.arange(V, dtype=np.int64)
    group_rows = np.argsort(np.concatenate([tables.pvm_group, tables.ps_group]), kind="stable")
    group_rank = np.empty(len(group_rows), dtype=np.int64)
    group_rank[group_rows] = V + np.arange(len(group_rows), dtype=np.int64)
    pvm_rank, ps_rank = group_rank[:P], group_rank[P:]

    vm_live = ~vm_drop
    pvm_live = ~pvm_drop
    arr_start = np.concatenate(
        [tables.vm_start[vm_live], tables.pvm_start[pvm_live], tables.ps_start]
    )
    arr_rank = np.concatenate([vm_rank[vm_live], pvm_rank[pvm_live], ps_rank])
    arr_bundle = np.concatenate([vm_b[vm_live], pvm_b[pvm_live], ps_b], axis=0)
    rel_end = np.concatenate([vm_end[vm_live], pvm_end[pvm_live], ps_hold_end])

    ok = _prefix_sum_feasible(
        arr_start, arr_rank, arr_bundle, rel_end, limits, arrivals_first=True
    )
    info["quota_fast_path"] = bool(ok)
    if ok:
        vm_admit = np.where(vm_drop, np.nan, tables.vm_start)
        pvm_admit = np.where(pvm_drop, np.nan, tables.pvm_start)
    else:
        vm_admit, pvm_admit = _exact_quota_replay(
            tables, vm_b, pvm_b, ps_b, vm_rank, pvm_rank, ps_rank, limits, H, config
        )

    vm_keep = np.isfinite(vm_admit)
    pvm_keep = np.isfinite(pvm_admit)
    # storage rows are held unconditionally at their start: never moved
    return tables.take("vm", vm_keep, vm_start=vm_admit[vm_keep]).take(
        "pvm", pvm_keep, pvm_start=pvm_admit[pvm_keep]
    )


def _prefix_sum_feasible(
    arr_time: np.ndarray,
    arr_rank: np.ndarray,
    arr_bundle: np.ndarray,
    rel_time: np.ndarray,
    limits: np.ndarray,
    *,
    arrivals_first: bool,
) -> bool:
    """Would every arrival fit on its first attempt?  (The fast path.)

    Replays the serial sweep's exact add/subtract sequence as a cumsum
    under the everyone-admits hypothesis and checks every arrival
    checkpoint.  ``arrivals_first`` selects the sweep's same-instant
    convention (quota: releases at t still held; lease: freed).
    """
    n = len(arr_time)
    if n == 0:
        return True
    arr_order = np.lexsort((arr_rank, arr_time))
    arr_pos = np.empty(n, dtype=np.int64)
    arr_pos[arr_order] = np.arange(n)  # = the serial release_seq

    times = np.concatenate([arr_time, rel_time])
    codes = np.zeros(2 * n, dtype=np.int8)
    codes[n:] = 1
    if not arrivals_first:
        codes = 1 - codes
    ties = np.concatenate([arr_rank, arr_pos])
    deltas = np.concatenate([arr_bundle, -arr_bundle], axis=0)

    order = np.lexsort((ties, codes, times))
    running = np.cumsum(deltas[order], axis=0)
    is_arrival = order < n
    # value *after* adding the bundle is exactly the serial fit test's
    # ``in_use + amount`` (same addition, same operand order)
    return bool(np.all(running[is_arrival] <= limits))


def _exact_quota_replay(
    tables, vm_b, pvm_b, ps_b, vm_rank, pvm_rank, ps_rank, limits, H, config
):
    """The serial quota sweep over table rows.

    Heap keys ``(time, rank, family, row)``, one retry-rank counter, the
    strict ``< t`` release rule, the cohort's retry policy — run only
    when the fast path's no-retry hypothesis fails.
    """
    policy = config.quota_retry
    lim = limits.tolist()
    in_use = [0.0] * len(lim)
    releases: list[tuple[float, int, tuple[float, ...]]] = []
    release_seq = 0

    VM, PVM, PS = 0, 1, 2
    bundles = (vm_b, pvm_b, ps_b)
    heap: list[list] = []
    for fam, (starts, ranks) in enumerate(
        [(tables.vm_start, vm_rank), (tables.pvm_start, pvm_rank), (tables.ps_start, ps_rank)]
    ):
        for row in range(len(starts)):
            t0 = float(starts[row])
            heap.append([t0, int(ranks[row]), fam, row, t0, 0])
    heapq.heapify(heap)
    rank = max((h[1] for h in heap), default=-1)

    vm_admit = np.full(len(tables.vm_start), np.nan)
    pvm_admit = np.full(len(tables.pvm_start), np.nan)
    admits = (vm_admit, pvm_admit)

    def fits(b) -> bool:
        return all(in_use[d] + b[d] <= lim[d] for d in range(len(lim)))

    def hold(b, end: float) -> None:
        nonlocal release_seq
        for d in range(len(lim)):
            in_use[d] += b[d]
        release_seq += 1
        heapq.heappush(releases, (end, release_seq, b))

    while heap:
        t, _, fam, row, orig_t, retries = heapq.heappop(heap)
        while releases and releases[0][0] < t:
            _, _, b = heapq.heappop(releases)
            for d in range(len(lim)):
                in_use[d] -= b[d]
        b = tuple(bundles[fam][row])
        if fam == VM:
            end = min(t + float(tables.vm_duration[row]), H - _EPS)
            if end <= t:
                continue  # dropped
            if fits(b):
                hold(b, end)
                admits[fam][row] = t
            elif (
                not policy.allows_retry(retries, elapsed_hours=t - orig_t)
                or t + policy.backoff_hours(retries + 1) > H
            ):
                pass  # dropped: the student gives up this week
            else:
                rank += 1
                heapq.heappush(
                    heap, [t + policy.backoff_hours(retries + 1), rank, fam, row, orig_t, retries + 1]
                )
        elif fam == PVM:
            end = min(t + float(tables.pvm_hours[row]), H - _EPS)
            if end > t and fits(b):
                hold(b, end)
                admits[fam][row] = t
            elif t + 12.0 > H or end <= t:
                pass  # dropped
            else:
                rank += 1
                heapq.heappush(heap, [t + 12.0, rank, fam, row, orig_t, retries])
        else:  # storage: unconditional hold
            end = min(t + float(tables.ps_hours[row]), H - _EPS)
            hold(b, max(end, t))
    return vm_admit, pvm_admit


# -- the lease-calendar sweep ------------------------------------------------------


def sweep_lease_calendar(tables, *, course: CourseDefinition, info: dict, schema):
    """Fix lease admission outcomes (slots + project leases) on tables.

    Calendars — (site, node_type) pairs — are mutually independent in
    the serial sweep (each heap pop touches exactly one calendar's
    state, and the shared retry-rank counter preserves relative order
    within every calendar), so the sweep runs per calendar: vectorized
    count check first, exact replay only for calendars that fail it.
    """
    H = course.semester_hours
    capacity = SlotCalendar().capacity
    cap_by_node = {  # schema rtype code -> capacity
        code: capacity[name]
        for name, code in schema.rtype_codes.items()
        if name in capacity
    }

    S = len(tables.slot_start)
    L = len(tables.pl_start)
    slot_rank = np.arange(S, dtype=np.int64)
    pl_rank = S + np.arange(L, dtype=np.int64)  # group-major row order

    slot_end = tables.slot_start + tables.slot_hours  # uncapped, like _book_slot
    pl_end = np.minimum(tables.pl_start + tables.pl_hours, H - _EPS)
    pl_drop = pl_end <= tables.pl_start

    slot_admit = tables.slot_start.copy()
    pl_admit = np.where(pl_drop, np.nan, tables.pl_start)

    cal_slot = tables.slot_site.astype(np.int64) * 1024 + tables.slot_node
    cal_pl = tables.pl_site.astype(np.int64) * 1024 + tables.pl_node
    fast = True
    for cal in np.unique(np.concatenate([cal_slot, cal_pl])):
        s_sel = np.flatnonzero(cal_slot == cal)
        p_sel = np.flatnonzero((cal_pl == cal) & ~pl_drop)
        node_code = int(cal % 1024)
        cap = cap_by_node[node_code]
        times = np.concatenate([tables.slot_start[s_sel], tables.pl_start[p_sel]])
        ranks = np.concatenate([slot_rank[s_sel], pl_rank[p_sel]])
        ends = np.concatenate([slot_end[s_sel], pl_end[p_sel]])
        ones = np.ones((len(times), 1))
        if _prefix_sum_feasible(
            times, ranks, ones, ends, np.array([float(cap)]), arrivals_first=False
        ):
            continue
        fast = False
        s_adm, p_adm = _exact_lease_replay(
            tables.slot_start[s_sel],
            tables.slot_hours[s_sel],
            slot_rank[s_sel],
            tables.pl_start[p_sel],
            tables.pl_hours[p_sel],
            pl_rank[p_sel],
            cap,
            H,
        )
        slot_admit[s_sel] = s_adm
        pl_admit[p_sel] = p_adm
    info["lease_fast_path"] = fast

    slot_keep = np.isfinite(slot_admit)
    pl_keep = np.isfinite(pl_admit)
    return tables.take("slot", slot_keep, slot_start=slot_admit[slot_keep]).take(
        "pl", pl_keep, pl_start=pl_admit[pl_keep]
    )


def _exact_lease_replay(
    s_start, s_hours, s_rank, p_start, p_hours, p_rank, cap: int, H: float
):
    """The serial lease sweep for one calendar.

    Holds live intervals as a min-heap of end times; ``len(live)`` after
    freeing ``end <= t`` is the count of intervals with ``end > t``.  The
    local retry-rank counter starts above every initial rank, mirroring
    a global counter's within-calendar order.
    """
    SLOT, LEASE = 0, 1
    heap: list[list] = []
    for row in range(len(s_start)):
        heap.append([float(s_start[row]), int(s_rank[row]), SLOT, row, 0])
    for row in range(len(p_start)):
        heap.append([float(p_start[row]), int(p_rank[row]), LEASE, row, 0])
    heapq.heapify(heap)
    rank = max((h[1] for h in heap), default=-1)

    live_ends: list[float] = []
    s_admit = np.full(len(s_start), np.nan)
    p_admit = np.full(len(p_start), np.nan)
    while heap:
        t, _, fam, row, retries = heapq.heappop(heap)
        if fam == SLOT:
            step = float(s_hours[row])
            end = t + step
            max_retries = None
        else:
            step = float(p_hours[row])
            end = min(t + step, H - _EPS)
            max_retries = 200
            if end <= t:
                continue  # dropped
        while live_ends and live_ends[0] <= t:
            heapq.heappop(live_ends)
        if len(live_ends) + 1 <= cap:
            heapq.heappush(live_ends, end)
            (s_admit if fam == SLOT else p_admit)[row] = t
        elif (max_retries is not None and retries >= max_retries) or t + step > H:
            pass  # dropped
        else:
            rank += 1
            heapq.heappush(heap, [t + step, rank, fam, row, retries + 1])
    return s_admit, p_admit
