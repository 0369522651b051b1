"""The classifier's three sweep tiers agree, and streaming stays O(1) per row.

``AASClassifier`` answers a sweep in one of three tiers: streamed (the
classifier is attached to the log it is asked about), bucketed (an
unattached classifier handed a monotonic ``ActionLog``) and brute force
(any other iterable). They must return the same records, in the same
order, with the same statuses. These tests drive all three over one
seeded columnar log — across windows, with and without blocked rows,
after a delivered row is removed, and after more rows land — and read
the tier counters to prove each classifier took the tier it stands for.

The streamed tier keeps per-service action-id and tick columns rather
than one record object per row; the last test pins that: appending many
rows to an attached log adds no per-row objects to the heap.
"""

from __future__ import annotations

import gc

import pytest

from repro.aas.base import ServiceType
from repro.detection.classifier import AASClassifier
from repro.detection.signals import ServiceSignature
from repro.netsim.client import ClientEndpoint, DeviceFingerprint
from repro.obs import Observability
from repro.platform.actions import ActionLog
from repro.platform.models import ActionStatus, ActionType, ApiSurface
from repro.util.rng import derive_rng

_SIGNATURES = (
    ServiceSignature(
        "Recip", ServiceType.RECIPROCITY_ABUSE, frozenset({100}), frozenset({"aas-r"})
    ),
    ServiceSignature(
        "Coll", ServiceType.COLLUSION_NETWORK, frozenset({200, 201}), frozenset({"aas-c"})
    ),
    # overlaps both signatures above: first match must win in every tier
    ServiceSignature(
        "Wide",
        ServiceType.RECIPROCITY_ABUSE,
        frozenset({100, 200}),
        frozenset({"aas-r", "aas-c"}),
    ),
    # no ASN feature: the bucketed tier cannot enumerate it and scans
    ServiceSignature(
        "Open", ServiceType.RECIPROCITY_ABUSE, frozenset(), frozenset({"aas-o"})
    ),
)

_ENDPOINTS = [
    ClientEndpoint(0x0A000000 + i, asn, DeviceFingerprint("android", variant))
    for i, (asn, variant) in enumerate(
        [
            (100, "aas-r"),
            (100, "aas-r"),
            (100, "aas-c"),
            (200, "aas-c"),
            (201, "aas-c"),
            (200, "aas-r"),
            (300, "aas-o"),
            (300, "stock"),
            (300, "stock"),
            (400, "stock"),
        ]
    )
]

_WINDOWS = [(0, None), (0, 40), (25, 90), (57, 58), (90, None), (60, 20)]

_TYPES = [ActionType.LIKE, ActionType.FOLLOW, ActionType.COMMENT]


def _rows(rng, count: int, tick: int) -> tuple[list[tuple], int]:
    """``count`` seeded ``log_action`` argument tuples from ``tick`` on."""
    rows = []
    for _ in range(count):
        tick += int(rng.integers(0, 2))
        action_type = _TYPES[int(rng.integers(0, len(_TYPES)))]
        rows.append(
            (
                action_type,
                int(rng.integers(1, 30)),
                tick,
                _ENDPOINTS[int(rng.integers(0, len(_ENDPOINTS)))],
                ApiSurface.PRIVATE_MOBILE,
                ActionStatus.BLOCKED if rng.random() < 0.2 else ActionStatus.DELIVERED,
                int(rng.integers(1, 30)),
                None,
                "nice pic" if action_type is ActionType.COMMENT else None,
            )
        )
    return rows, tick


def _fill(log: ActionLog, rng, count: int, tick: int) -> int:
    """Append ``count`` rows, mixing batches with scalar appends."""
    rows, tick = _rows(rng, count, tick)
    half = len(rows) // 2
    log.append_batch(rows[:half])
    for row in rows[half:]:
        log.log_action(*row)
    return tick


def _sweep_key(result) -> dict[str, list[tuple[int, ActionStatus]]]:
    return {
        service: [(r.action_id, r.status) for r in activity.records]
        for service, activity in result.items()
    }


def _benign_key(records) -> list[tuple[int, ActionStatus]]:
    return [(r.action_id, r.status) for r in records]


def _tier_count(obs: Observability, tier: str) -> int:
    return obs.metrics.get_counter_value("detection.classifier.sweeps", tier=tier) or 0


def _assert_tiers_agree(log: ActionLog, streamed: AASClassifier, streamed_obs) -> None:
    assert streamed.attached_log is log
    snapshot = list(log)
    for start, end in _WINDOWS:
        for include_blocked in (True, False):
            bucketed_obs, brute_obs = Observability(), Observability()
            bucketed = AASClassifier(_SIGNATURES, obs=bucketed_obs)
            brute = AASClassifier(_SIGNATURES, obs=brute_obs)
            before = _tier_count(streamed_obs, "streamed")
            got = _sweep_key(streamed.sweep(log, start, end, include_blocked))
            assert _tier_count(streamed_obs, "streamed") == before + 1
            assert got == _sweep_key(bucketed.sweep(log, start, end, include_blocked))
            assert _tier_count(bucketed_obs, "bucketed") == 1
            assert got == _sweep_key(brute.sweep(snapshot, start, end, include_blocked))
            assert _tier_count(brute_obs, "brute") == 1
        benign = _benign_key(streamed.benign_records(log, start, end))
        assert benign == _benign_key(AASClassifier(_SIGNATURES).benign_records(log, start, end))
        assert benign == _benign_key(
            AASClassifier(_SIGNATURES).benign_records(snapshot, start, end)
        )


@pytest.mark.parametrize("seed", [3, 17])
def test_streamed_bucketed_and_brute_tiers_agree(seed: int) -> None:
    rng = derive_rng(seed, "classifier-tiers")
    log = ActionLog()
    tick = _fill(log, rng, 150, 0)
    streamed_obs = Observability()
    streamed = AASClassifier(_SIGNATURES, obs=streamed_obs)
    streamed.attach(log)  # catches up on the rows already logged
    tick = _fill(log, rng, 150, tick)
    result = streamed.sweep(log)
    assert all(result[s.service].records for s in _SIGNATURES)  # every tier path is hit
    _assert_tiers_agree(log, streamed, streamed_obs)

    # a removal must be visible through every tier's records
    attributed = next(r for r in result["Coll"].records if r.status is ActionStatus.DELIVERED)
    benign = next(
        r for r in streamed.benign_records(log) if r.status is ActionStatus.DELIVERED
    )
    log.get(attributed.action_id).mark_removed(tick)
    log.get(benign.action_id).mark_removed(tick)
    assert log.get(attributed.action_id).status is ActionStatus.REMOVED
    _assert_tiers_agree(log, streamed, streamed_obs)

    _fill(log, rng, 120, tick)
    _assert_tiers_agree(log, streamed, streamed_obs)


@pytest.mark.parametrize("batched", [True, False], ids=["append_batch", "log_action"])
def test_attached_stream_adds_no_per_row_objects(batched: bool) -> None:
    rng = derive_rng(5, "classifier-heap")
    log = ActionLog()
    classifier = AASClassifier(_SIGNATURES)
    classifier.attach(log)
    # warm every actor, target and endpoint index entry and the match memo
    warm, tick = _rows(rng, 2_000, 0)
    log.append_batch(warm)
    del warm
    rows, _ = _rows(rng, 10_000, tick)  # alive across both counts
    gc.collect()
    before = len(gc.get_objects())
    if batched:
        log.append_batch(rows)
    else:
        for args in rows:
            log.log_action(*args)
        del args
    gc.collect()
    assert len(gc.get_objects()) - before < 100
    assert sum(len(a.records) for a in classifier.sweep(log).values()) > 0
