"""The live-lease index, fuzzed against a scan of every lease ever created.

``LeaseManager`` admits a booking by reading only the leases that are still
pending or active.  The oracle below is the manager's original algorithm:
it rescans the full ``leases`` dict and filters by status.  Hypothesis
drives random sequences of bookings, early deletions and clock advances
(which fire lease expiries) on a small integer grid, so back-to-back
half-open windows ``[a, b)`` then ``[b, c)`` and full calendars are common.
After every step each admission decision, the peak it was taken on, and
``reserved_at`` at every lease boundary, must agree with the oracle.
"""

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.cloud.leases import LeaseManager, LeaseStatus
from repro.common import ConflictError, EventLoop, InvalidStateError
from repro.common.ids import IdGenerator

INVENTORY = {"gpu_a": 3, "gpu_b": 2}
DEAD = (LeaseStatus.EXPIRED, LeaseStatus.DELETED)


def _oracle_reserved(manager: LeaseManager, resource_type: str, t: float) -> int:
    return sum(
        l.count
        for l in manager.leases.values()
        if l.resource_type == resource_type and l.active_at(t)
    )


def _oracle_peak(
    manager: LeaseManager, resource_type: str, start: float, end: float, count: int
) -> int:
    boundaries = {start}
    for l in manager.leases.values():
        if l.resource_type != resource_type or l.status in DEAD:
            continue
        if l.end > start and l.start < end:
            boundaries.add(max(l.start, start))
    return max(_oracle_reserved(manager, resource_type, t) + count for t in boundaries)


resource_types = st.sampled_from(sorted(INVENTORY))
steps = st.one_of(
    # book [now + offset, now + offset + length)
    st.tuples(
        st.just("create"), resource_types, st.integers(1, 3),
        st.integers(0, 4), st.integers(1, 4),
    ),
    # book the window that starts where the last booking ended
    st.tuples(st.just("chain"), resource_types, st.integers(1, 3), st.integers(1, 4)),
    # delete some lease ever created (live or not)
    st.tuples(st.just("delete"), st.integers(0, 63)),
    # advance the clock, firing activations and expiries on the way
    st.tuples(st.just("advance"), st.integers(0, 3)),
)


def _book(manager: LeaseManager, resource_type: str, count: int, start: float, end: float):
    peak = _oracle_peak(manager, resource_type, start, end, count)
    assert manager._max_overlap(resource_type, start, end, count) == peak
    admits = peak <= manager.capacity(resource_type)
    try:
        lease = manager.create_lease(
            "proj", resource_type, start=start, end=end, count=count
        )
    except ConflictError:
        assert not admits, f"refused [{start}, {end}) x{count} that the oracle admits"
        return None
    assert admits, f"admitted [{start}, {end}) x{count} that the oracle refuses"
    return lease


def _check_against_oracle(manager: LeaseManager, now: float) -> None:
    times = {now}
    for l in manager.leases.values():
        times.update((l.start, l.end))
    for resource_type in INVENTORY:
        for t in sorted(times):
            assert manager.reserved_at(resource_type, t) == _oracle_reserved(
                manager, resource_type, t
            ), (resource_type, t)


@settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(script=st.lists(steps, min_size=1, max_size=40))
def test_index_matches_full_scan(script):
    loop = EventLoop()
    manager = LeaseManager(loop, IdGenerator(), INVENTORY)
    last_end = 0.0
    for step in script:
        now = loop.clock.now
        kind = step[0]
        if kind == "create":
            _, resource_type, count, offset, length = step
            lease = _book(manager, resource_type, count, now + offset, now + offset + length)
            if lease is not None:
                last_end = lease.end
        elif kind == "chain":
            _, resource_type, count, length = step
            start = max(last_end, now)
            lease = _book(manager, resource_type, count, start, start + length)
            if lease is not None:
                last_end = lease.end
        elif kind == "delete":
            if not manager.leases:
                continue
            ids = sorted(manager.leases)
            lease = manager.leases[ids[step[1] % len(ids)]]
            if lease.status in DEAD:
                with pytest.raises(InvalidStateError):
                    manager.delete_lease(lease.id)
            else:
                manager.delete_lease(lease.id)
                assert lease.status is LeaseStatus.DELETED
        else:
            loop.run_until(now + step[1])
        _check_against_oracle(manager, loop.clock.now)
