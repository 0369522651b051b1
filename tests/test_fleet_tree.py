"""Reuse-tree planning and nested-restore determinism.

Two halves:

* Planner semantics — which config deltas share which nodes. A
  ``measurement_days``-only change shares the whole chain; a
  ``honeypot_days`` change shares only the world root; a seed change
  shares nothing. All pure-function tests, no studies built.
* Nested-restore determinism (DESIGN.md §13) — restoring from *any*
  tree node and advancing to completion is byte-identical (payload and
  trace) to the uninterrupted unshared run
  (:func:`tests.oracles.fleet.run_unshared`), at every tree depth, for
  two config presets.
"""

from __future__ import annotations

from dataclasses import replace

import pytest

from repro.core.config import StudyConfig
from repro.fleet import (
    PREFIX_BUILD_WORLD,
    PREFIX_DEPTH,
    PREFIX_HONEYPOT,
    PREFIX_SIGNATURES,
    PREFIXES,
    ReplicaSpec,
    SnapshotStore,
    advance_prefix,
    build_prefix,
    materialize_tree,
    remove_store_root,
    restore_study,
    snapshot_study,
    temporary_store_root,
)
from repro.fleet.runner import _run_replica
from repro.fleet.tree import (
    HONEYPOT_FIELDS,
    POST_PREFIX_FIELDS,
    graft_config,
    node_chain,
    phase_fields,
    phase_subdigest,
    plan_tree,
)
from tests.oracles.fleet import run_unshared


def _spec(config: StudyConfig, name: str) -> ReplicaSpec:
    return ReplicaSpec(
        name=name,
        config=config,
        arm="standard",
        arm_options=(("measurement_days", 1),),
    )


class TestPhaseSlices:
    def test_slices_partition_the_config(self) -> None:
        world = set(phase_fields(PREFIX_BUILD_WORLD))
        honeypot = set(phase_fields(PREFIX_HONEYPOT))
        assert phase_fields(PREFIX_SIGNATURES) == ()
        assert world.isdisjoint(honeypot)
        assert world.isdisjoint(POST_PREFIX_FIELDS)
        assert honeypot == set(HONEYPOT_FIELDS)
        from dataclasses import fields

        every = {f.name for f in fields(StudyConfig)}
        assert world | honeypot | set(POST_PREFIX_FIELDS) == every

    def test_unknown_phase_rejected(self) -> None:
        with pytest.raises(ValueError, match="unknown prefix phase"):
            phase_fields("after-lunch")

    def test_subdigest_tracks_only_its_slice(self) -> None:
        base = StudyConfig.tiny(seed=7)
        md = replace(base, measurement_days=99)
        hp = replace(base, honeypot_days=99)
        for phase in PREFIXES:
            assert phase_subdigest(base, phase) == phase_subdigest(md, phase)
        assert phase_subdigest(base, PREFIX_BUILD_WORLD) == phase_subdigest(
            hp, PREFIX_BUILD_WORLD
        )
        assert phase_subdigest(base, PREFIX_HONEYPOT) != phase_subdigest(
            hp, PREFIX_HONEYPOT
        )


class TestNodeChains:
    def test_chain_matches_prefix_depth(self) -> None:
        config = StudyConfig.tiny(seed=7)
        for prefix in PREFIXES:
            chain = node_chain(config, prefix)
            assert [phase for phase, _ in chain] == list(PREFIXES[: PREFIX_DEPTH[prefix]])
            assert len({key for _, key in chain}) == len(chain)

    def test_measurement_days_change_shares_every_node(self) -> None:
        base = StudyConfig.tiny(seed=7)
        other = replace(base, measurement_days=99)
        assert node_chain(base, PREFIX_SIGNATURES) == node_chain(other, PREFIX_SIGNATURES)

    def test_honeypot_change_shares_only_the_world(self) -> None:
        base = StudyConfig.tiny(seed=7)
        other = replace(base, honeypot_days=99)
        ours = node_chain(base, PREFIX_SIGNATURES)
        theirs = node_chain(other, PREFIX_SIGNATURES)
        assert ours[0] == theirs[0]
        assert ours[1] != theirs[1]
        assert ours[2] != theirs[2]  # divergence is inherited downward

    def test_seed_change_shares_nothing(self) -> None:
        ours = node_chain(StudyConfig.tiny(seed=7), PREFIX_SIGNATURES)
        theirs = node_chain(StudyConfig.tiny(seed=8), PREFIX_SIGNATURES)
        assert {key for _, key in ours}.isdisjoint({key for _, key in theirs})

    def test_unknown_prefix_rejected(self) -> None:
        with pytest.raises(ValueError, match="unknown prefix"):
            node_chain(StudyConfig.tiny(), "after-lunch")


class TestPlanTree:
    def test_maximal_sharing_over_a_grid(self) -> None:
        # 2 seeds x 2 honeypot_days x 2 measurement_days = 8 replicas;
        # expected: 2 worlds, 4 honeypot nodes, 4 signature leaves
        specs = []
        for seed in (7, 8):
            for hp in (2, 3):
                for md in (1, 2):
                    config = replace(
                        StudyConfig.tiny(seed=seed), honeypot_days=hp, measurement_days=md
                    )
                    specs.append(_spec(config, f"s{seed}/hp{hp}/md{md}"))
        plan = plan_tree(specs)
        assert [len(level) for level in plan.levels] == [2, 4, 4]
        assert len(plan.nodes) == 10
        assert len(set(plan.leaf_keys)) == 4
        # the first spec of each subtree is the representative
        assert plan.first_needed[plan.leaf_keys[0]] == 0
        # world roots have no parent; every deeper node's parent exists
        for node in plan.nodes.values():
            if node.depth == 1:
                assert node.parent is None
            else:
                assert node.parent in plan.nodes
                assert plan.nodes[node.parent].depth == node.depth - 1

    def test_mixed_prefix_depths_share_ancestry(self) -> None:
        config = StudyConfig.tiny(seed=7)
        shallow = ReplicaSpec(
            name="world-only", config=config, arm="standard",
            prefix=PREFIX_BUILD_WORLD, arm_options=(("measurement_days", 1),),
        )
        deep = _spec(config, "full-chain")
        plan = plan_tree([shallow, deep])
        assert len(plan.nodes) == 3  # world + honeypot + signatures, no dupes
        assert plan.leaf_keys[0] == plan.levels[0][0]
        assert plan.leaf_keys[1] == plan.levels[2][0]


class TestGraftConfig:
    def test_refuses_consumed_slice_changes(self) -> None:
        base = StudyConfig.tiny(seed=7)
        study = restore_study(
            snapshot_study(build_prefix(base, PREFIX_BUILD_WORLD), PREFIX_BUILD_WORLD)
        )
        # honeypot fields are not consumed at depth 1: graft allowed
        graft_config(study, replace(base, honeypot_days=99), depth=1)
        assert study.config.honeypot_days == 99
        # seed is in the world slice: graft must refuse
        with pytest.raises(ValueError, match="cannot graft"):
            graft_config(study, StudyConfig.tiny(seed=8), depth=1)
        with pytest.raises(ValueError, match="depth"):
            graft_config(study, base, depth=0)


# -- nested-restore determinism (satellite: every depth x two presets) --

def _presets() -> list[tuple[str, StudyConfig]]:
    """Two presets with phases short enough for the test budget; the
    shapes (population, service mix) are the presets' own."""
    tiny = replace(StudyConfig.tiny(seed=11), honeypot_days=2, measurement_days=1)
    small = replace(StudyConfig.small(seed=11), honeypot_days=2, measurement_days=1)
    return [("tiny", tiny), ("small", small)]


def _strip_reused(lines: list) -> list:
    stripped = []
    for line in lines:
        line = dict(line)
        meta = line.get("meta")
        if isinstance(meta, dict):
            line["meta"] = {k: v for k, v in meta.items() if k != "prefix_reused"}
        stripped.append(line)
    return stripped


@pytest.mark.parametrize("label,config", _presets())
def test_restore_from_every_depth_is_byte_identical(label, config) -> None:
    spec = _spec(config, f"{label}/standard")
    [baseline] = run_unshared([spec])

    root = temporary_store_root()
    try:
        plan = materialize_tree([spec], SnapshotStore(root))
        assert plan.depth == len(PREFIXES)
        store = SnapshotStore(root)
        for level in plan.levels:
            for key in level:
                node = plan.nodes[key]
                blob = store.get(key)
                assert blob is not None
                study = restore_study(blob)
                graft_config(study, spec.config, depth=node.depth)
                for phase in PREFIXES[node.depth:]:
                    advance_prefix(study, phase)
                result = _run_replica(spec, study, prefix_reused=True)
                assert result.payload == baseline.payload, (label, node.phase)
                assert result.trace is not None and baseline.trace is not None
                assert _strip_reused(result.trace) == _strip_reused(baseline.trace), (
                    label,
                    node.phase,
                )
    finally:
        remove_store_root(root)
