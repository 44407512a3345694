"""Property tests for the canonical merge.

The merge (:func:`~repro.core.usage.canonicalize_records` over the
shards' record lists) is the only step where shard boundaries could leak
into output, so Hypothesis drives it with adversarial partitions:
shuffled shard order, empty shards, one-record shards.  All must reduce
to the same canonical sequence, and the billing integral must be
conserved exactly.
"""

import math

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cloud.metering import UsageRecord
from repro.common.numerics import stable_sum
from repro.core.usage import canonicalize_records

_SITES = ("kvm@tacc", "chi@tacc", "chi@edge")

#: kind -> id prefix, mirroring how the simulator mints ids.  Deriving the
#: prefix from a sort-key field keeps the generated data inside the real
#: invariant "sort-key ties are content-identical", which is what makes the
#: id rewrite shard-permutation safe (see canonicalize_records).
_KIND_PREFIX = {
    "server": "server",
    "baremetal": "lease",
    "edge": "lease",
    "floating_ip": "fip",
    "volume": "volume",
    "object_storage": "objspan",
}


@st.composite
def usage_records(draw):
    start = draw(st.floats(min_value=0.0, max_value=2000.0, allow_nan=False))
    length = draw(st.floats(min_value=0.0, max_value=500.0, allow_nan=False))
    kind = draw(st.sampled_from(sorted(_KIND_PREFIX)))
    serial = draw(st.integers(min_value=1, max_value=999999))
    return UsageRecord(
        resource_id=f"{_KIND_PREFIX[kind]}-{serial:06d}",
        kind=kind,
        resource_type=draw(st.sampled_from(("m1.small", "m1.large", "gpu_v100"))),
        project=draw(st.sampled_from(("CHI-000000", "CHI-edu"))),
        start=start,
        end=start + length,
        quantity=draw(st.floats(min_value=0.0, max_value=100.0, allow_nan=False)),
        user=draw(st.sampled_from((None, "student001", "group01"))),
        lab=draw(st.sampled_from((None, "lab1", "project"))),
        site=draw(st.sampled_from(_SITES)),
    )


def total_unit_hours(records):
    """The metered billing integral, sum of ``quantity x hours``."""
    return stable_sum(rec.unit_hours for rec in records)


def _unique_ids_per_shard(shards):
    """Real shards never reuse an id within themselves; enforce that on the
    generated data so the id-rewrite identity key is well-posed."""
    out = []
    for shard in shards:
        seen: set[tuple[str, str]] = set()
        kept = []
        for rec in shard:
            key = (rec.site, rec.resource_id)
            if key not in seen:
                seen.add(key)
                kept.append(rec)
        out.append(kept)
    return out


shard_lists = st.lists(
    st.lists(usage_records(), max_size=8), max_size=6
).map(_unique_ids_per_shard)


@given(shards=shard_lists, seed=st.randoms(use_true_random=False))
@settings(max_examples=60, deadline=None)
def test_merge_invariant_to_shard_order(shards, seed):
    reference = canonicalize_records(shards)
    shuffled = list(shards)
    seed.shuffle(shuffled)
    assert canonicalize_records(shuffled) == reference


@given(shards=shard_lists)
@settings(max_examples=60, deadline=None)
def test_empty_shards_are_invisible(shards):
    reference = canonicalize_records(shards)
    padded = [[]]
    for shard in shards:
        padded.append(shard)
        padded.append([])
    assert canonicalize_records(padded) == reference


@given(shards=shard_lists)
@settings(max_examples=60, deadline=None)
def test_singleton_split_equals_grouped_merge(shards):
    """Splitting every shard into one-record shards changes nothing: the
    canonical order erases shard boundaries entirely."""
    reference = canonicalize_records(shards)
    singletons = [[rec] for shard in shards for rec in shard]
    assert canonicalize_records(singletons) == reference


@given(shards=shard_lists)
@settings(max_examples=60, deadline=None)
def test_metered_hours_conserved(shards):
    """The merge reorders and re-mints ids; it must never touch the
    billing integral (sum of quantity x hours)."""
    before = sum(total_unit_hours(shard) for shard in shards)
    after = total_unit_hours(canonicalize_records(shards))
    assert math.isclose(before, after, rel_tol=0.0, abs_tol=1e-6)
    assert sum(len(s) for s in shards) == len(canonicalize_records(shards))


@given(shards=shard_lists)
@settings(max_examples=60, deadline=None)
def test_merged_ids_are_canonical(shards):
    """Output ids are densely re-minted per (site, prefix) from 1, so two
    different shardings of the same records can never disagree on ids."""
    merged = canonicalize_records(shards)
    counters: dict[tuple[str, str], int] = {}
    seen_new: dict[tuple[str, str], set[str]] = {}
    for rec in merged:
        prefix = rec.resource_id.rsplit("-", 1)[0]
        serial = int(rec.resource_id.rsplit("-", 1)[1])
        bucket = seen_new.setdefault((rec.site, prefix), set())
        if rec.resource_id in bucket:
            continue
        bucket.add(rec.resource_id)
        counters[(rec.site, prefix)] = counters.get((rec.site, prefix), 0) + 1
        assert serial == counters[(rec.site, prefix)]
