"""The unshared fleet run: the oracle for the reuse-tree scheduler.

:func:`run_unshared` gives every replica its own prefix chain, built
from scratch in spec order, in this process, with no cache, store or
tree. Each replica still starts from a restore of its own frozen
envelope, as every tree replica does (a dump/load normalizes hash-table
layout), so the two runs must agree on every payload and, apart from
the ``prefix_reused`` header flag, every trace line.
"""

from __future__ import annotations

from typing import Sequence

from repro.fleet import ReplicaResult, ReplicaSpec, build_prefix, restore_study, snapshot_study
from repro.fleet.runner import _run_replica


def run_unshared(specs: Sequence[ReplicaSpec]) -> list[ReplicaResult]:
    """Run each spec on a chain of its own; results in spec order."""
    results = []
    for spec in specs:
        built = build_prefix(spec.config, spec.prefix)
        blob = snapshot_study(built, spec.prefix)
        del built
        study = restore_study(blob)
        results.append(_run_replica(spec, study, prefix_reused=False))
        del study
    return results
