"""Replica specifications and merged fleet results.

A :class:`ReplicaSpec` names one independent study run: a config (which
carries the seed), an *arm* (what to run once the shared prefix is in
place — see :mod:`repro.fleet.arms`), and the prefix phase it resumes
from. A fleet is just an ordered list of specs; the merge contract is
that fleet output is a pure function of that list — results are always
assembled in **spec order**, never completion order, so the merged
payload and merged trace are byte-identical for any worker count.

Prefix phases form a chain (``build-world → honeypot → signatures``);
:data:`PREFIX_DEPTH` gives each phase its 1-based position. The sweep
orchestrator (:mod:`repro.fleet.tree`) reuses snapshots along that
chain, so the cost accounting here is phase-granular: ``phase_units``
counts the phase-steps the fleet *would* execute with no reuse at all
(one per chain link per replica) and ``phase_builds`` the steps it
actually executed; their ratio is the headline
``build_cost_avoided_frac``.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

from repro.core.config import StudyConfig

#: bumped whenever the merged fleet payload shape changes incompatibly
#: (v2: phase-granular snapshot accounting + tree/store stats blocks)
FLEET_SCHEMA_VERSION = 2

#: snapshot point: immediately after world construction
PREFIX_BUILD_WORLD = "build-world"
#: snapshot point: after the honeypot phase, before signature learning
PREFIX_HONEYPOT = "honeypot"
#: snapshot point: after the honeypot phase and signature learning
PREFIX_SIGNATURES = "signatures"
#: every sanctioned prefix phase, in pipeline order
PREFIXES = (PREFIX_BUILD_WORLD, PREFIX_HONEYPOT, PREFIX_SIGNATURES)
#: 1-based chain position of each prefix phase
PREFIX_DEPTH = {phase: depth for depth, phase in enumerate(PREFIXES, start=1)}


@dataclass(frozen=True)
class ReplicaSpec:
    """One replica: a config + named seed, an arm label, a prefix phase.

    ``name`` must be unique within a fleet — it keys the replica's
    segment in the merged trace. ``arm_options`` is an ordered tuple of
    ``(key, value)`` pairs (kept hashable and picklable) passed to the
    arm runner as a dict.
    """

    name: str
    config: StudyConfig
    arm: str = "standard"
    prefix: str = PREFIX_SIGNATURES
    arm_options: tuple[tuple[str, object], ...] = ()

    def __post_init__(self) -> None:
        if not self.name:
            raise ValueError("replica name must be non-empty")
        if self.prefix not in PREFIXES:
            raise ValueError(f"unknown prefix {self.prefix!r} (known: {PREFIXES})")

    @property
    def seed(self) -> int:
        return self.config.seed

    @property
    def depth(self) -> int:
        """Chain length of this replica's prefix (phase-units it costs)."""
        return PREFIX_DEPTH[self.prefix]

    def options(self) -> dict[str, object]:
        return dict(self.arm_options)


@dataclass
class ReplicaResult:
    """One replica's outcome: a JSON-able payload and its trace lines."""

    name: str
    arm: str
    seed: int
    prefix: str
    payload: dict
    #: canonical (wall-stripped) trace lines, each carrying a
    #: ``replica`` label; None when the config ran with observability off
    trace: list[dict] | None
    #: whether this replica resumed from a prefix snapshot (False means
    #: it is the replica charged for building part of its own chain)
    prefix_reused: bool


#: label carried by the fleet-level roll-up trace segment
FLEET_TRACE_REPLICA = "__fleet__"

#: root span name -> chain-depth label for the fleet cost roll-up: which
#: prefix-chain link a span's cost belongs to (anything else is work
#: past the snapshot chain — arms, measurement, analysis)
_COST_ROOT_DEPTH = {
    "build-world": "1",
    "honeypot-phase": "2",
    "learn-signatures": "3",
}
_COST_POST_DEPTH = "post"


@dataclass
class FleetResult:
    """Merged outcome of one fleet run, in spec order.

    ``prefix_builds``/``prefix_restores`` count snapshot-node builds and
    envelope restores; ``phase_units``/``phase_builds`` are the
    phase-granular cost ledger (see the module docstring).
    ``tree_stats`` is present when the run planned a reuse tree (any
    non-empty fleet), ``store_stats`` when it used a disk snapshot store.
    """

    replicas: list[ReplicaResult]
    prefix_builds: int
    prefix_restores: int
    prefix_groups: int
    phase_units: int = 0
    phase_builds: int = 0
    tree_stats: dict | None = None
    store_stats: dict | None = None
    cache_stats: dict | None = field(default=None, repr=False)

    @property
    def build_cost_avoided_frac(self) -> float:
        """Fraction of no-reuse phase-steps the fleet did not execute."""
        if self.phase_units > 0:
            return 1.0 - self.phase_builds / self.phase_units
        if not self.replicas:
            return 0.0
        return 1.0 - self.prefix_builds / len(self.replicas)

    def merged_payload(self) -> dict:
        """The spec-order merged payload (worker count independent)."""
        snapshot: dict = {
            # the one scheduler (nested prefix reuse); kept as a field so
            # the payload shape stays FLEET_SCHEMA_VERSION 2
            "strategy": "tree",
            "prefix_groups": self.prefix_groups,
            "prefix_builds": self.prefix_builds,
            "prefix_restores": self.prefix_restores,
            "phase_units": self.phase_units,
            "phase_builds": self.phase_builds,
            "build_cost_avoided_frac": self.build_cost_avoided_frac,
        }
        if self.tree_stats is not None:
            snapshot["tree"] = self.tree_stats
        if self.store_stats is not None:
            snapshot["store"] = self.store_stats
        return {
            "schema_version": FLEET_SCHEMA_VERSION,
            "replica_count": len(self.replicas),
            "replicas": [
                {
                    "name": r.name,
                    "arm": r.arm,
                    "seed": r.seed,
                    "prefix": r.prefix,
                    "prefix_reused": r.prefix_reused,
                    "payload": r.payload,
                }
                for r in self.replicas
            ],
            "snapshot": snapshot,
        }

    def merged_payload_text(self) -> str:
        """Canonical JSON of the merged payload (byte-comparable)."""
        return json.dumps(self.merged_payload(), sort_keys=True, indent=2) + "\n"

    def merged_trace_lines(self) -> list[dict]:
        """Spec-order concatenation of every replica's trace segment."""
        merged: list[dict] = []
        for replica in self.replicas:
            if replica.trace is not None:
                merged.extend(replica.trace)
        return merged

    def _self_cost_by_depth(self) -> dict[tuple[str, str], int]:
        """Profiler self-costs summed by (prefix-chain depth, kind).

        Walks every replica trace's span lines: a span's ``cost_self``
        dict (present when the fleet ran with profiling on) is charged
        to the chain link its *root* span names — ``build-world`` is
        depth 1, ``honeypot-phase`` depth 2, ``learn-signatures`` depth
        3, everything else ``post``. Summing *self* costs keeps the
        ledger double-count-free: each work unit is charged exactly
        once. Pure function of the merged result, so the roll-up is
        byte-identical for any worker count.
        """
        totals: dict[tuple[str, str], int] = {}
        for replica in self.replicas:
            if replica.trace is None:
                continue
            spans = [
                line
                for line in replica.trace
                if isinstance(line, dict) and line.get("kind") == "span"
            ]
            by_id = {
                span["id"]: span
                for span in spans
                if isinstance(span.get("id"), int)
            }
            for span in spans:
                attrs = span.get("attrs")
                if not isinstance(attrs, dict):
                    continue
                self_cost = attrs.get("cost_self")
                if not isinstance(self_cost, dict):
                    continue
                root = span
                while root.get("parent") is not None and root.get("parent") in by_id:
                    root = by_id[root["parent"]]
                depth = _COST_ROOT_DEPTH.get(str(root.get("name")), _COST_POST_DEPTH)
                for kind, units in self_cost.items():
                    if isinstance(units, int) and not isinstance(units, bool) and units:
                        key = (depth, str(kind))
                        totals[key] = totals.get(key, 0) + units
        return totals

    def fleet_trace_segment(self) -> list[dict]:
        """A roll-up trace segment for the whole fleet.

        One header + metrics-snapshot segment labelled
        :data:`FLEET_TRACE_REPLICA`, carrying the node build/restore and
        store counters as ordinary obs metrics so ``repro.obs summarize
        --sweep`` (and ``validate``) can consume a sweep trace with the
        standard tooling. Pure function of the merged result —
        byte-identical for any worker count.
        """
        from repro.obs.facade import Observability
        from repro.obs.trace import canonical_lines, label_replica, trace_lines

        obs = Observability(enabled=True)
        obs.counter("fleet.replicas").inc(len(self.replicas))
        obs.counter("fleet.prefix.builds").inc(self.prefix_builds)
        obs.counter("fleet.prefix.restores").inc(self.prefix_restores)
        obs.counter("fleet.phase.units").inc(self.phase_units)
        obs.counter("fleet.phase.builds").inc(self.phase_builds)
        if self.tree_stats is not None:
            for level in self.tree_stats.get("levels", []):
                phase = str(level.get("phase"))
                obs.counter("fleet.node.count", phase=phase).inc(level.get("nodes", 0))
                obs.counter("fleet.node.builds", phase=phase).inc(level.get("built", 0))
                obs.counter("fleet.node.restores", phase=phase, source="disk").inc(
                    level.get("from_store", 0)
                )
                obs.counter("fleet.node.restores", phase=phase, source="memory").inc(
                    level.get("from_memory", 0)
                )
        if self.store_stats is not None:
            for key in ("hits", "misses", "writes", "corruptions", "evictions"):
                obs.counter(f"fleet.store.{key}").inc(self.store_stats.get(key, 0))
            if "bytes" in self.store_stats:
                obs.gauge("fleet.store.bytes").set(self.store_stats["bytes"])
        if self.cache_stats is not None:
            obs.counter("fleet.snapshot.evictions").inc(self.cache_stats.get("evictions", 0))
            if "bytes" in self.cache_stats:
                obs.gauge("fleet.snapshot.bytes").set(self.cache_stats["bytes"])
        # per-tree-depth cost attribution: where the fleet's work units
        # actually went, chain link by chain link (profiled runs only)
        for (depth, kind), units in sorted(self._self_cost_by_depth().items()):
            obs.counter("fleet.cost.self_units", depth=depth, kind=kind).inc(units)
        meta = {
            "replica": FLEET_TRACE_REPLICA,
            "fleet": {
                "strategy": "tree",
                "replica_count": len(self.replicas),
                "prefix_groups": self.prefix_groups,
                "phase_units": self.phase_units,
                "phase_builds": self.phase_builds,
                "build_cost_avoided_frac": self.build_cost_avoided_frac,
            },
        }
        lines = canonical_lines(trace_lines(obs, meta))
        return label_replica(lines, FLEET_TRACE_REPLICA)  # type: ignore[return-value]


def seed_sweep(
    base_config: StudyConfig,
    seeds: list[int],
    arm: str = "standard",
    prefix: str = PREFIX_SIGNATURES,
    arm_options: tuple[tuple[str, object], ...] = (),
) -> list[ReplicaSpec]:
    """Specs for the same config replicated across ``seeds``.

    The canonical multi-seed fleet: one replica per seed, named
    ``seed-<seed>/<arm>``. A thin shim over the manifest expansion path
    (:func:`repro.fleet.manifest.expand_manifest`) so there is exactly
    one sweep entry point; kept here for import compatibility.
    """
    from repro.fleet.manifest import ArmSpec, SweepManifest, expand_manifest

    manifest = SweepManifest(
        name=f"seed-sweep/{arm}",
        prefix=prefix,
        seeds=tuple(seeds),
        arms=(ArmSpec(arm=arm, options=tuple(arm_options)),),
    )
    return expand_manifest(manifest, base_config=base_config)


__all__ = [
    "FLEET_SCHEMA_VERSION",
    "FLEET_TRACE_REPLICA",
    "PREFIX_BUILD_WORLD",
    "PREFIX_DEPTH",
    "PREFIX_HONEYPOT",
    "PREFIX_SIGNATURES",
    "PREFIXES",
    "FleetResult",
    "ReplicaResult",
    "ReplicaSpec",
    "seed_sweep",
]
