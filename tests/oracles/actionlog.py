"""The list-backed action log: the oracle for the columnar store.

:class:`ListActionLog` has the public API of
:class:`repro.platform.actions.ActionLog` but keeps a plain
``list[ActionRecord]`` with list-backed tick, actor, target and
signature indices. Its :meth:`~ListActionLog.append_batch` is the
scalar loop ``for row in rows: log_action(*row)``, the semantics the
columnar bulk path must reproduce. The log property suites and the
study-level oracle run compare the production log against it.
"""

from __future__ import annotations

from collections import defaultdict
from typing import Callable, Iterable, Iterator, Optional

from repro.netsim.client import ClientEndpoint
from repro.obs import NULL_OBS, Observability
from repro.platform.actions import SignatureKey, _window
from repro.platform.models import (
    AccountId,
    ActionRecord,
    ActionStatus,
    ActionType,
    ApiSurface,
    MediaId,
)


class ListActionLog:
    """Append-only list of records with list-backed window indices."""

    def __init__(self, obs: Observability | None = None):
        _obs = obs if obs is not None else NULL_OBS
        self._obs_appends = _obs.counter("platform.actionlog.appends")
        self._obs_query_index = _obs.counter("platform.actionlog.window_query", path="index")
        self._obs_query_scan = _obs.counter("platform.actionlog.window_query", path="scan")
        self._observers: list[Callable[[ActionRecord], None]] = []
        self._monotonic = True
        self._records: list[ActionRecord] = []
        #: parallel array of record ticks; window queries bisect it
        self._ticks: list[int] = []
        self._by_actor: dict[AccountId, list[int]] = defaultdict(list)
        self._by_actor_ticks: dict[AccountId, list[int]] = defaultdict(list)
        self._by_target: dict[AccountId, list[int]] = defaultdict(list)
        self._by_target_ticks: dict[AccountId, list[int]] = defaultdict(list)
        self._by_signature: dict[SignatureKey, list[int]] = defaultdict(list)
        self._by_signature_ticks: dict[SignatureKey, list[int]] = defaultdict(list)
        #: one shared object per distinct endpoint
        self._interned_endpoints: dict[ClientEndpoint, ClientEndpoint] = {}

    # ------------------------------------------------------------------
    # Appends
    # ------------------------------------------------------------------

    def log_action(
        self,
        action_type: ActionType,
        actor: AccountId,
        tick: int,
        endpoint: ClientEndpoint,
        api: ApiSurface,
        status: ActionStatus,
        target_account: Optional[AccountId] = None,
        target_media: Optional[MediaId] = None,
        comment_text: Optional[str] = None,
    ) -> ActionRecord:
        record = ActionRecord(
            action_id=len(self._records),
            action_type=action_type,
            actor=actor,
            tick=tick,
            endpoint=endpoint,
            api=api,
            status=status,
            target_account=target_account,
            target_media=target_media,
            comment_text=comment_text,
        )
        self.append(record)
        return record

    def append(self, record: ActionRecord) -> None:
        if record.action_id != len(self):
            raise ValueError(
                f"action_id {record.action_id} out of order; expected {len(self)}"
            )
        record.endpoint = self._interned_endpoints.setdefault(record.endpoint, record.endpoint)
        if self._ticks and record.tick < self._ticks[-1]:
            self._monotonic = False
        self._records.append(record)
        self._ticks.append(record.tick)
        self._by_actor[record.actor].append(record.action_id)
        self._by_actor_ticks[record.actor].append(record.tick)
        if record.target_account is not None:
            self._by_target[record.target_account].append(record.action_id)
            self._by_target_ticks[record.target_account].append(record.tick)
        key = (record.endpoint.asn, record.action_type, record.endpoint.fingerprint.variant)
        self._by_signature[key].append(record.action_id)
        self._by_signature_ticks[key].append(record.tick)
        self._obs_appends.inc()
        for observer in self._observers:
            observer(record)

    def append_batch(self, rows: list) -> int:
        """The scalar loop the columnar bulk append must match."""
        start = len(self._records)
        for row in rows:
            self.log_action(*row)
        return start

    def next_id(self) -> int:
        return len(self)

    def __len__(self) -> int:
        return len(self._records)

    def __iter__(self) -> Iterator[ActionRecord]:
        return iter(self._records)

    def get(self, action_id: int) -> ActionRecord:
        return self._records[action_id]

    # ------------------------------------------------------------------
    # Observers
    # ------------------------------------------------------------------

    def add_observer(
        self, observer: Callable[[ActionRecord], None], batch: Optional[Callable] = None
    ) -> None:
        """Register a per-row observer; a bulk implementation is ignored."""
        if observer not in self._observers:
            self._observers.append(observer)

    def remove_observer(self, observer: Callable[[ActionRecord], None]) -> None:
        if observer in self._observers:
            self._observers.remove(observer)

    # ------------------------------------------------------------------
    # Window queries
    # ------------------------------------------------------------------

    @property
    def ticks_monotonic(self) -> bool:
        return self._monotonic

    def offsets_between(
        self, start_tick: Optional[int] = None, end_tick: Optional[int] = None
    ) -> tuple[int, int]:
        if not self._monotonic:
            raise ValueError("tick offsets undefined: log was appended out of tick order")
        self._obs_query_index.inc()
        return _window(self._ticks, start_tick, end_tick)

    def records_between(
        self, start_tick: Optional[int] = None, end_tick: Optional[int] = None
    ) -> list[ActionRecord]:
        if self._monotonic:
            self._obs_query_index.inc()
            lo, hi = _window(self._ticks, start_tick, end_tick)
            return self._records[lo:hi]
        return self.select(start_tick=start_tick, end_tick=end_tick)

    def _indexed_between(
        self,
        ids: dict,
        ticks: dict,
        key: AccountId,
        start_tick: Optional[int],
        end_tick: Optional[int],
    ) -> list[ActionRecord]:
        (self._obs_query_index if self._monotonic else self._obs_query_scan).inc()
        indices = ids.get(key)
        if not indices:
            return []
        if self._monotonic:
            lo, hi = _window(ticks[key], start_tick, end_tick)
            return [self._records[i] for i in indices[lo:hi]]
        out = []
        for i in indices:
            tick = self._ticks[i]
            if start_tick is not None and tick < start_tick:
                continue
            if end_tick is not None and tick >= end_tick:
                continue
            out.append(self._records[i])
        return out

    def by_actor(self, actor: AccountId) -> list[ActionRecord]:
        return [self._records[i] for i in self._by_actor.get(actor, ())]

    def by_actor_between(
        self,
        actor: AccountId,
        start_tick: Optional[int] = None,
        end_tick: Optional[int] = None,
    ) -> list[ActionRecord]:
        return self._indexed_between(
            self._by_actor, self._by_actor_ticks, actor, start_tick, end_tick
        )

    def by_target(self, target: AccountId) -> list[ActionRecord]:
        return [self._records[i] for i in self._by_target.get(target, ())]

    def by_target_between(
        self,
        target: AccountId,
        start_tick: Optional[int] = None,
        end_tick: Optional[int] = None,
    ) -> list[ActionRecord]:
        return self._indexed_between(
            self._by_target, self._by_target_ticks, target, start_tick, end_tick
        )

    def signature_keys(self) -> list[SignatureKey]:
        return sorted(self._by_signature, key=lambda k: (k[0], k[1].value, k[2]))

    def ids_by_signature(
        self,
        asn: int,
        variant: str,
        action_type: Optional[ActionType] = None,
        start_tick: Optional[int] = None,
        end_tick: Optional[int] = None,
    ) -> list[int]:
        (self._obs_query_index if self._monotonic else self._obs_query_scan).inc()
        if action_type is not None:
            keys = [(asn, action_type, variant)]
        else:
            keys = [(asn, t, variant) for t in ActionType]
        selected: list = []
        for key in keys:
            indices = self._by_signature.get(key)
            if not indices:
                continue
            if self._monotonic:
                lo, hi = _window(self._by_signature_ticks[key], start_tick, end_tick)
                selected.append(indices[lo:hi])
            else:
                selected.append(
                    [
                        i
                        for i in indices
                        if (start_tick is None or self._ticks[i] >= start_tick)
                        and (end_tick is None or self._ticks[i] < end_tick)
                    ]
                )
        merged: list[int] = []
        for ids in selected:
            merged.extend(ids)
        merged.sort()
        return merged

    def by_signature(
        self,
        asn: int,
        variant: str,
        action_type: Optional[ActionType] = None,
        start_tick: Optional[int] = None,
        end_tick: Optional[int] = None,
    ) -> list[ActionRecord]:
        return [
            self._records[i]
            for i in self.ids_by_signature(asn, variant, action_type, start_tick, end_tick)
        ]

    def inbound(self, target: AccountId, *, delivered_only: bool = True) -> list[ActionRecord]:
        records = self.by_target(target)
        if delivered_only:
            records = [r for r in records if r.status is not ActionStatus.BLOCKED]
        return records

    def outbound(self, actor: AccountId, *, delivered_only: bool = True) -> list[ActionRecord]:
        records = self.by_actor(actor)
        if delivered_only:
            records = [r for r in records if r.status is not ActionStatus.BLOCKED]
        return records

    def select(
        self,
        *,
        action_type: Optional[ActionType] = None,
        status: Optional[ActionStatus] = None,
        start_tick: Optional[int] = None,
        end_tick: Optional[int] = None,
        predicate: Optional[Callable[[ActionRecord], bool]] = None,
    ) -> list[ActionRecord]:
        records: Iterable[ActionRecord] = self._records
        if self._monotonic and (start_tick is not None or end_tick is not None):
            self._obs_query_index.inc()
            lo, hi = _window(self._ticks, start_tick, end_tick)
            records = self._records[lo:hi]
            start_tick = end_tick = None
        elif start_tick is not None or end_tick is not None:
            self._obs_query_scan.inc()
        out = []
        for record in records:
            if action_type is not None and record.action_type is not action_type:
                continue
            if status is not None and record.status is not status:
                continue
            if start_tick is not None and record.tick < start_tick:
                continue
            if end_tick is not None and record.tick >= end_tick:
                continue
            if predicate is not None and not predicate(record):
                continue
            out.append(record)
        return out

    def daily_count(
        self, actor: AccountId, day: int, action_type: Optional[ActionType] = None
    ) -> int:
        count = 0
        for record in self.by_actor_between(actor, day * 24, (day + 1) * 24):
            if record.status is ActionStatus.BLOCKED:
                continue
            if action_type is not None and record.action_type is not action_type:
                continue
            count += 1
        return count

    def actors(self) -> Iterable[AccountId]:
        return self._by_actor.keys()
