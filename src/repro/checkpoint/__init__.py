"""Crash-safe journaling and resumable cohort runs.

At production scale a cohort run is minutes of multi-process work, and
before PR 5 a single worker crash discarded all of it: ``run_parallel``
kept every :class:`~repro.parallel.engine.ShardResult` in memory and a
``BrokenProcessPool`` surfaced as an opaque loss of the whole run.  This
package is the crash-consistency layer of the simulator harness itself:

* :mod:`repro.checkpoint.journal` — a write-ahead shard journal of
  append-only segments, each published via temp-file + ``os.replace``
  and framed with a length header and content sha256, so torn writes and
  bit flips are *quarantined* with a diagnostic instead of silently
  loaded.
* :mod:`repro.checkpoint.manifest` — a :class:`RunManifest` keyed by
  (course digest, seed, cohort size, fault-plan digest) plus the
  resolved plan's fingerprint, so a stale journal can never be resumed
  against changed inputs.
* :mod:`repro.checkpoint.killmatrix` — the crash-injection harness that
  proves the headline property: ``run_parallel(..., journal_dir=...)``
  crashed at *any* point (worker SIGKILL at a shard boundary, driver
  death between segments, mid-segment truncation) and resumed merges to
  a record stream sha256-identical to an uninterrupted serial run.

The supervisor loop that writes the journal lives in
:mod:`repro.parallel.engine` (the one sanctioned process fan-out site);
this package holds the persistence layer and the proof harness (the
crash-resume check of ``python -m repro.verify parallel``).
``python -m repro.checkpoint`` exposes ``--resume`` and ``--inspect``
(journal health report).
"""
