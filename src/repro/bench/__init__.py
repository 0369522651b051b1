"""The perf harness: ``python -m repro.bench``.

Times attribution-sweep latency across the three classifier tiers and
the fleet and sweep orchestrators' reuse against their baselines, with
warmup runs and repetitions, and writes one schema-versioned
``BENCH_<NAME>.json`` per scenario (see :mod:`repro.bench.schema` for
the envelope and README for the field reference).

This package is the one subtree allowed to read the wall clock: timings
are reporting outputs that never feed back into simulation state, so
``repro.lint``'s DET003 rule is waived for ``repro.bench`` in
:mod:`repro.lint.waivers` (and only there).
"""

from repro.bench.harness import Stats, summarize, time_repeated
from repro.bench.schema import SCHEMA_VERSION, validate_payload
from repro.bench.scenarios import SCENARIOS, bench_file_name

__all__ = [
    "SCENARIOS",
    "SCHEMA_VERSION",
    "Stats",
    "bench_file_name",
    "summarize",
    "time_repeated",
    "validate_payload",
]
