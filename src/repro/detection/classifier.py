"""Sweeping the action log: attribution and customer identification.

"Using our service characterizations we were then able to identify all
accounts used by customers of each service" (Section 1). The classifier
matches every logged action against the learned signatures; actors of
matched actions are service customers, and for collusion networks the
*recipients* of matched actions are customers as well (including the
inbound-only accounts that pay the no-outbound fee — Section 5.2 counts
them exactly this way).

Three execution tiers produce bit-identical results (the equivalence is
test-enforced):

1. **Brute force** — any iterable of records; every record is matched
   against the signature list. The reference semantics.
2. **Bucketed cold sweep** — an :class:`~repro.platform.actions.ActionLog`
   argument lets the sweep read the log's (ASN, action type, variant)
   buckets: only records whose bucket intersects some signature are
   touched, with first-matching-signature conflict resolution identical
   to brute force.
3. **Streaming attribution** — :meth:`AASClassifier.attach` registers the
   classifier as a log observer; records are attributed once, on append,
   into per-service (and benign) action-id/tick columns, so every later
   sweep over the attached log is a binary search plus one slice per
   service, with records built only for the ids in the window.

All tiers share a per-(ASN, variant) match memo: signatures only inspect
the endpoint, so distinct endpoints — not records — bound the matching
work.
"""

from __future__ import annotations

from array import array
from bisect import bisect_left
from collections import defaultdict
from dataclasses import dataclass, field
from typing import Iterable, Optional

from repro.aas.base import ServiceType
from repro.detection.signals import ServiceSignature
from repro.obs import NULL_OBS, Observability
from repro.platform.actions import ActionLog
from repro.platform.columns import ActionView
from repro.platform.models import AccountId, ActionRecord, ActionStatus


@dataclass
class AttributedActivity:
    """Everything attributed to one service in a sweep."""

    service: str
    service_type: ServiceType
    records: list[ActionRecord] = field(default_factory=list)

    @property
    def actors(self) -> set[AccountId]:
        """Accounts the service drove outbound actions from."""
        return {r.actor for r in self.records}

    @property
    def recipients(self) -> set[AccountId]:
        """Accounts that received service-delivered actions."""
        return {r.target_account for r in self.records if r.target_account is not None}

    @property
    def customers(self) -> set[AccountId]:
        """The service's customer accounts, per the paper's rules."""
        if self.service_type is ServiceType.COLLUSION_NETWORK:
            return self.actors | self.recipients
        return self.actors

    @property
    def inbound_only_accounts(self) -> set[AccountId]:
        """Collusion customers that never source actions (no-outbound fee)."""
        if self.service_type is not ServiceType.COLLUSION_NETWORK:
            return set()
        return self.recipients - self.actors

    @property
    def observed_asns(self) -> set[int]:
        return {r.endpoint.asn for r in self.records}


#: sentinel distinguishing "endpoint id never attributed" from a memoized
#: benign (None) attribution in the streaming observer's id memo
_UNSEEN = object()


def _cut_window(values: array, ticks: array, start_tick: int, end_tick: int | None) -> array:
    """Slice ``values`` (parallel to sorted ``ticks``) to a tick window."""
    lo = bisect_left(ticks, start_tick)
    hi = len(ticks) if end_tick is None else bisect_left(ticks, end_tick)
    return values[lo:max(hi, lo)]


class AASClassifier:
    """Attributes log records to services via learned signatures.

    The signature list must not be mutated after construction (the match
    memo and streaming caches key off it); re-learning builds a new
    classifier, as :meth:`repro.core.study.Study.learn_signatures` does.
    """

    def __init__(
        self, signatures: Iterable[ServiceSignature], obs: Optional[Observability] = None
    ):
        self.signatures = list(signatures)
        names = [s.service for s in self.signatures]
        if len(names) != len(set(names)):
            raise ValueError("duplicate service signatures")
        _obs = obs if obs is not None else NULL_OBS
        _obs.gauge("detection.classifier.signatures").set(len(self.signatures))
        self._obs_memo_hit = _obs.counter("detection.classifier.memo", result="hit")
        self._obs_memo_miss = _obs.counter("detection.classifier.memo", result="miss")
        #: signature.matches() probes — the classifier's work unit for
        #: the cost profiler; memo hits cost zero comparisons
        self._obs_comparisons = _obs.counter("detection.classifier.comparisons")
        self._obs_sweep_tier = {
            tier: _obs.counter("detection.classifier.sweeps", tier=tier)
            for tier in ("streamed", "bucketed", "brute")
        }
        #: (asn, variant) -> service-or-None; matching depends only on the
        #: endpoint, so distinct endpoints bound the matching work
        self._match_memo: dict[tuple[int, str], Optional[str]] = {}
        #: interned endpoint id -> service-or-None for the attached
        #: columnar log: the streaming observer's memo probe without
        #: decoding the endpoint or building a key tuple. Ids are
        #: per-log, so attach/detach resets it.
        self._eid_memo: dict[int, Optional[str]] = {}
        # streaming-attribution state (populated by attach()): action ids
        # and their ticks as flat int64 columns per service, so a window
        # sweep is a bisect plus one slice, and the cache holds no
        # per-row object for the cyclic collector to walk
        self._log: ActionLog | None = None
        self._stream_ids: dict[str, array] = {}
        self._stream_ticks: dict[str, array] = {}
        self._benign_ids = array("q")
        self._benign_ticks = array("q")
        self._stream_ordered = True

    def attribute(self, record: ActionRecord) -> Optional[str]:
        """Service name for one record, or None if it looks benign."""
        key = (record.endpoint.asn, record.endpoint.fingerprint.variant)
        try:
            service = self._match_memo[key]
        except KeyError:
            pass
        else:
            self._obs_memo_hit.inc()
            return service
        self._obs_memo_miss.inc()
        service = None
        comparisons = 0
        for signature in self.signatures:
            comparisons += 1
            if signature.matches(record):
                service = signature.service
                break
        self._obs_comparisons.inc(comparisons)
        self._match_memo[key] = service
        return service

    # ------------------------------------------------------------------
    # Streaming attribution (the incremental fast path)
    # ------------------------------------------------------------------

    @property
    def attached_log(self) -> ActionLog | None:
        """The log this classifier streams from, if any."""
        return self._log

    def attach(self, log: ActionLog) -> None:
        """Stream-attribute ``log``: existing records now, the rest on append.

        Once attached, :meth:`sweep` and :meth:`benign_records` calls that
        pass this log become index lookups over the cached attribution
        instead of full rescans.
        """
        if self._log is log:
            return
        if self._log is not None:
            self.detach()
        self._log = log
        self._eid_memo = {}
        self._stream_ids = {s.service: array("q") for s in self.signatures}
        self._stream_ticks = {s.service: array("q") for s in self.signatures}
        self._benign_ids = array("q")
        self._benign_ticks = array("q")
        self._stream_ordered = True
        for record in log:
            self._observe(record)
        log.add_observer(self._observe, batch=self._observe_batch)

    def detach(self) -> None:
        """Stop observing; subsequent sweeps fall back to cold paths."""
        if self._log is None:
            return
        self._log.remove_observer(self._observe)
        self._log = None
        self._eid_memo = {}
        self._stream_ids = {}
        self._stream_ticks = {}
        self._benign_ids = array("q")
        self._benign_ticks = array("q")

    def _observe(self, record: ActionRecord) -> None:
        # the per-append hot path: one memo lookup, two array appends.
        # Columnar views expose their row directly, so the memo probes on
        # the interned endpoint id and reads the tick straight out of the
        # column — no endpoint decode, no key tuple, no property calls.
        cols = getattr(record, "_cols", None)
        if cols is not None:
            row = record.action_id
            service = self._eid_memo.get(cols.endpoint_ids[row], _UNSEEN)
            if service is _UNSEEN:
                service = self._eid_memo[cols.endpoint_ids[row]] = self.attribute(record)
            else:
                self._obs_memo_hit.inc()
            tick = cols.ticks[row]
        else:
            endpoint = record.endpoint
            key = (endpoint.asn, endpoint.fingerprint.variant)
            memo = self._match_memo
            if key in memo:
                service = memo[key]
                self._obs_memo_hit.inc()
            else:
                service = self.attribute(record)
            tick = record.tick
        if service is None:
            ids, ticks = self._benign_ids, self._benign_ticks
        else:
            ids, ticks = self._stream_ids[service], self._stream_ticks[service]
        if ticks and tick < ticks[-1]:
            self._stream_ordered = False  # out-of-order append: bisect invalid
        ids.append(record.action_id)
        ticks.append(tick)

    def _observe_batch(self, cols, start: int, end: int) -> None:
        """Bulk ingestion for :meth:`ActionLog.append_batch` row ranges.

        Exactly ``end - start`` :meth:`_observe` calls' worth of state
        and telemetry (memo hits are accumulated and charged once), but
        with the memo dict, columns, and — since batches are dominated
        by single-service bursts — the per-service stream columns
        resolved outside the per-row loop. A view is built only to
        attribute an endpoint the memo has not seen.
        """
        eid_memo = self._eid_memo
        endpoint_ids = cols.endpoint_ids
        col_ticks = cols.ticks
        benign = (self._benign_ids, self._benign_ticks)
        stream_ids = self._stream_ids
        stream_ticks = self._stream_ticks
        last_service: object = _UNSEEN
        ids, ticks = benign
        last_tick = None
        memo_hits = 0
        for row in range(start, end):
            service = eid_memo.get(endpoint_ids[row], _UNSEEN)
            if service is _UNSEEN:
                service = eid_memo[endpoint_ids[row]] = self.attribute(ActionView(cols, row))
            else:
                memo_hits += 1
            if service is not last_service:
                last_service = service
                if service is None:
                    ids, ticks = benign
                else:
                    ids, ticks = stream_ids[service], stream_ticks[service]
                # re-read the stream's tail once per run of same-service
                # rows; within the run the previous row's tick is local
                last_tick = ticks[-1] if ticks else None
            tick = col_ticks[row]
            if last_tick is not None and tick < last_tick:
                self._stream_ordered = False
            last_tick = tick
            ids.append(row)
            ticks.append(tick)
        if memo_hits:
            self._obs_memo_hit.add(memo_hits)

    def _streaming_for(self, records: Iterable[ActionRecord]) -> bool:
        return self._log is not None and records is self._log and self._stream_ordered

    # ------------------------------------------------------------------
    # Sweeps
    # ------------------------------------------------------------------

    def sweep(
        self,
        records: Iterable[ActionRecord],
        start_tick: int = 0,
        end_tick: int | None = None,
        include_blocked: bool = True,
    ) -> dict[str, AttributedActivity]:
        """Attribute every record in the window to a service (or drop it).

        Blocked attempts are included by default — they are still abuse
        attempts and the intervention analyses need them.
        """
        if self._streaming_for(records):
            self._obs_sweep_tier["streamed"].inc()
            return self._sweep_streamed(start_tick, end_tick, include_blocked)
        if isinstance(records, ActionLog) and records.ticks_monotonic:
            self._obs_sweep_tier["bucketed"].inc()
            return self._sweep_bucketed(records, start_tick, end_tick, include_blocked)
        self._obs_sweep_tier["brute"].inc()
        out = {
            s.service: AttributedActivity(service=s.service, service_type=s.service_type)
            for s in self.signatures
        }
        for record in records:
            if record.tick < start_tick:
                continue
            if end_tick is not None and record.tick >= end_tick:
                continue
            if not include_blocked and record.status is ActionStatus.BLOCKED:
                continue
            service = self.attribute(record)
            if service is not None:
                out[service].records.append(record)
        return out

    def _materialize(
        self, log: ActionLog, ids: Iterable[int], include_blocked: bool
    ) -> list[ActionRecord]:
        get = log.get
        records = [get(i) for i in ids]
        if not include_blocked:
            records = [r for r in records if r.status is not ActionStatus.BLOCKED]
        return records

    def _sweep_streamed(
        self, start_tick: int, end_tick: int | None, include_blocked: bool
    ) -> dict[str, AttributedActivity]:
        log = self._log
        assert log is not None
        out = {}
        for signature in self.signatures:
            ids = _cut_window(
                self._stream_ids[signature.service],
                self._stream_ticks[signature.service],
                start_tick,
                end_tick,
            )
            out[signature.service] = AttributedActivity(
                service=signature.service,
                service_type=signature.service_type,
                records=self._materialize(log, ids, include_blocked),
            )
        return out

    def _sweep_bucketed(
        self,
        log: ActionLog,
        start_tick: int,
        end_tick: int | None,
        include_blocked: bool,
    ) -> dict[str, AttributedActivity]:
        """Cold sweep via the log's signature buckets.

        Signatures are tried in list order per record (first match wins)
        — reproduced here by letting earlier signatures claim bucket ids
        before later ones see them. A signature with an open feature set
        (no ASNs or no variants) cannot be enumerated from buckets and
        falls back to scanning the window once for that signature.
        """
        out = {
            s.service: AttributedActivity(service=s.service, service_type=s.service_type)
            for s in self.signatures
        }
        claimed: set[int] = set()
        for signature in self.signatures:
            if signature.asns and signature.client_variants:
                ids: list[int] = []
                for asn in sorted(signature.asns):
                    for variant in sorted(signature.client_variants):
                        ids.extend(
                            log.ids_by_signature(
                                asn, variant, start_tick=start_tick, end_tick=end_tick
                            )
                        )
                ids.sort()
            else:
                ids = [
                    r.action_id
                    for r in log.records_between(start_tick, end_tick)
                    if signature.matches(r)
                ]
            fresh = [i for i in ids if i not in claimed]
            claimed.update(fresh)
            out[signature.service].records = self._materialize(log, fresh, include_blocked)
        return out

    def benign_records(
        self,
        records: Iterable[ActionRecord],
        start_tick: int = 0,
        end_tick: int | None = None,
    ) -> list[ActionRecord]:
        """Records matching no signature — the legitimate-traffic pool the
        intervention thresholds are computed from (Section 6.2)."""
        if self._streaming_for(records):
            assert self._log is not None
            ids = _cut_window(self._benign_ids, self._benign_ticks, start_tick, end_tick)
            return self._materialize(self._log, ids, include_blocked=True)
        if isinstance(records, ActionLog):
            records = records.records_between(start_tick, end_tick)
            start_tick, end_tick = 0, None
        out = []
        for record in records:
            if record.tick < start_tick:
                continue
            if end_tick is not None and record.tick >= end_tick:
                continue
            if self.attribute(record) is None:
                out.append(record)
        return out

    def daily_counts_by_account(
        self,
        records: Iterable[ActionRecord],
        action_type=None,
    ) -> dict[AccountId, dict[int, int]]:
        """Per-account, per-day action counts (helper for thresholds)."""
        counts: dict[AccountId, dict[int, int]] = defaultdict(lambda: defaultdict(int))
        for record in records:
            if action_type is not None and record.action_type is not action_type:
                continue
            counts[record.actor][record.day] += 1
        return {a: dict(d) for a, d in counts.items()}
