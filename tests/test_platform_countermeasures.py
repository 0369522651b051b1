"""Tests for the countermeasure engine."""

import pytest

from repro.netsim.client import ClientEndpoint, DeviceFingerprint
from repro.platform.clock import SimClock
from repro.platform.countermeasures import (
    ActionContext,
    CountermeasureDecision,
    CountermeasureEngine,
)
from repro.platform.models import ActionRecord, ActionStatus, ActionType, ApiSurface


def make_context(actor=1, action_type=ActionType.FOLLOW, tick=0):
    return ActionContext(
        actor=actor,
        action_type=action_type,
        endpoint=ClientEndpoint(0x0A000001, 64512, DeviceFingerprint("android")),
        tick=tick,
    )


class _FixedPolicy:
    def __init__(self, decision):
        self.decision = decision

    def decide(self, context):
        return self.decision


class TestCountermeasureEngine:
    def test_default_allows(self):
        engine = CountermeasureEngine(SimClock())
        assert engine.decide(make_context()) is CountermeasureDecision.ALLOW

    def test_no_policy_decide_is_allow_and_side_effect_free(self):
        """The platform skips decide() when no policy is installed; that
        shortcut is sound only because this call changes nothing."""
        clock = SimClock()
        engine = CountermeasureEngine(clock)

        def state():
            return (
                sorted(vars(engine)),
                engine.blocked_count,
                engine.delayed_removal_count,
                list(engine._policies),
                clock.now,
                list(clock._schedule),
            )

        before = state()
        for tick, action_type in enumerate(ActionType):
            context = make_context(actor=tick + 1, action_type=action_type, tick=tick)
            assert engine.decide(context) is CountermeasureDecision.ALLOW
        assert state() == before
        assert not engine.has_policies

    def test_strictest_policy_wins(self):
        engine = CountermeasureEngine(SimClock())
        engine.add_policy(_FixedPolicy(CountermeasureDecision.DELAY_REMOVE))
        engine.add_policy(_FixedPolicy(CountermeasureDecision.BLOCK))
        engine.add_policy(_FixedPolicy(CountermeasureDecision.ALLOW))
        assert engine.decide(make_context()) is CountermeasureDecision.BLOCK

    def test_remove_policy(self):
        engine = CountermeasureEngine(SimClock())
        policy = _FixedPolicy(CountermeasureDecision.BLOCK)
        engine.add_policy(policy)
        engine.remove_policy(policy)
        assert engine.decide(make_context()) is CountermeasureDecision.ALLOW

    def test_invalid_delay_rejected(self):
        with pytest.raises(ValueError):
            CountermeasureEngine(SimClock(), removal_delay_ticks=0)

    def test_scheduled_removal_fires_after_delay(self):
        clock = SimClock()
        engine = CountermeasureEngine(clock, removal_delay_ticks=24)
        record = ActionRecord(
            action_id=0,
            action_type=ActionType.FOLLOW,
            actor=1,
            tick=0,
            endpoint=ClientEndpoint(1, 1, DeviceFingerprint("android")),
            api=ApiSurface.PRIVATE_MOBILE,
            status=ActionStatus.DELIVERED,
            target_account=2,
        )
        undone = []
        resolved = []
        engine.schedule_removal(
            0, lambda i: resolved.append(i) or record, lambda r: undone.append(r) or True
        )
        clock.advance(23)
        assert record.status is ActionStatus.DELIVERED
        clock.advance(1)
        assert record.status is ActionStatus.REMOVED
        assert record.removed_at == 24
        assert undone == [record]
        assert resolved == [0]  # the row is looked up by id when the removal fires

    def test_removal_skipped_if_undo_reports_nothing(self):
        clock = SimClock()
        engine = CountermeasureEngine(clock, removal_delay_ticks=10)
        record = ActionRecord(
            action_id=0,
            action_type=ActionType.FOLLOW,
            actor=1,
            tick=0,
            endpoint=ClientEndpoint(1, 1, DeviceFingerprint("android")),
            api=ApiSurface.PRIVATE_MOBILE,
            status=ActionStatus.DELIVERED,
            target_account=2,
        )
        engine.schedule_removal(0, lambda i: record, lambda r: False)
        clock.advance(20)
        assert record.status is ActionStatus.DELIVERED  # actor undid it first

    def test_counters(self):
        clock = SimClock()
        engine = CountermeasureEngine(clock)
        engine.note_block()
        assert engine.blocked_count == 1
