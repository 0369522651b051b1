"""The action-batch scope is invisible: batched and unbatched runs agree.

One seeded script of likes, follows, unfollows, comments and posts
(invalid ones included: duplicate likes and follows, unfollows of
absent edges) runs on two fresh platforms, once inside
``platform.action_batch()`` and once outside. Both must leave the same
log rows, the same notifications (action ids included), the same graph
edges and the same likes — also with a countermeasure policy installed
that blocks some actions and delay-removes others. DESIGN.md §15
describes the contract.
"""

from __future__ import annotations

from contextlib import nullcontext

import pytest

from repro.platform import InstagramPlatform
from repro.platform.countermeasures import CountermeasureDecision
from repro.platform.errors import ActionBlockedError, InvalidActionError
from repro.platform.models import ActionStatus, ActionType
from repro.util.rng import derive_rng
from repro.util.timeutils import days

N_ACCOUNTS = 8
MEDIA_PER_ACCOUNT = 2


def _script(seed: int, steps: int = 200) -> list[tuple]:
    """Ops over account indices and media indices (resolved at run time)."""
    rng = derive_rng(seed, "batch-scope")
    ops: list[tuple] = []
    media = N_ACCOUNTS * MEDIA_PER_ACCOUNT
    for _ in range(steps):
        kind = rng.random()
        actor = int(rng.integers(0, N_ACCOUNTS))
        other = int(rng.integers(0, N_ACCOUNTS))
        if kind < 0.35:
            ops.append(("like", actor, int(rng.integers(0, media))))
        elif kind < 0.65:
            ops.append(("follow", actor, other))
        elif kind < 0.78:
            ops.append(("unfollow", actor, other))
        elif kind < 0.88:
            ops.append(("comment", actor, int(rng.integers(0, media))))
        elif kind < 0.95:
            ops.append(("post", actor))
            media += 1
        else:
            ops.append(("advance",))
    # a follow followed by its duplicate: the second always raises mid-scope
    ops += [("follow", 0, 1), ("follow", 0, 1)]
    return ops


def _world(endpoint, removal_delay_ticks: int = days(1)):
    platform = InstagramPlatform(removal_delay_ticks=removal_delay_ticks)
    accounts, sessions, media = [], [], []
    for i in range(N_ACCOUNTS):
        account = platform.create_account(f"user{i}", "pw")
        accounts.append(account.account_id)
        sessions.append(platform.login(f"user{i}", "pw", endpoint))
    for session in sessions:
        for _ in range(MEDIA_PER_ACCOUNT):
            media.append(platform.post(session, endpoint)[1].media_id)
    return platform, accounts, sessions, media


def _run(platform, accounts, sessions, media, script, endpoint, batched: bool) -> list[str]:
    outcomes = []
    with platform.action_batch() if batched else nullcontext():
        for op in script:
            kind = op[0]
            try:
                if kind == "like":
                    platform.like(sessions[op[1]], media[op[2]], endpoint)
                elif kind == "follow":
                    platform.follow(sessions[op[1]], accounts[op[2]], endpoint)
                elif kind == "unfollow":
                    platform.unfollow(sessions[op[1]], accounts[op[2]], endpoint)
                elif kind == "comment":
                    platform.comment(sessions[op[1]], media[op[2]], "nice", endpoint)
                elif kind == "post":
                    media.append(platform.post(sessions[op[1]], endpoint)[1].media_id)
                else:
                    platform.clock.advance(1)
                outcomes.append("ok")
            except InvalidActionError:
                outcomes.append("invalid")
            except ActionBlockedError:
                outcomes.append("blocked")
    return outcomes


def _state(platform, accounts, media) -> dict:
    return {
        "rows": [
            (
                r.action_id, r.tick, r.actor, r.action_type, r.target_account,
                r.target_media, r.status, r.removed_at, r.endpoint, r.api,
                r.comment_text,
            )
            for r in platform.log
        ],
        "notifications": {a: platform.notifications.drain(a) for a in accounts},
        "edges": {(a, b) for a in accounts for b in platform.graph.following(a)},
        "likes": {m: platform.media.likes(m) for m in media},
        "blocked": platform.countermeasures.blocked_count,
        "delayed": platform.countermeasures.delayed_removal_count,
    }


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_batched_and_unbatched_runs_agree(seed, endpoint):
    script = _script(seed)
    results = {}
    for batched in (True, False):
        platform, accounts, sessions, media = _world(endpoint)
        outcomes = _run(platform, accounts, sessions, media, script, endpoint, batched)
        results[batched] = (outcomes, _state(platform, accounts, media))
    assert results[True] == results[False]
    outcomes, state = results[True]
    assert outcomes[-1] == "invalid"  # the duplicate follow raised
    assert outcomes.count("ok") > len(outcomes) // 2
    assert any(n.action_id is not None for ns in state["notifications"].values() for n in ns)


def test_scope_defers_rows_until_exit(endpoint):
    platform, accounts, sessions, media = _world(endpoint)
    before = len(platform.log)
    with platform.action_batch():
        platform.follow(sessions[0], accounts[1], endpoint)
        platform.like(sessions[0], media[2], endpoint)
        assert len(platform.log) == before  # rows pending
        assert platform.graph.is_following(accounts[0], accounts[1])  # effects applied
    assert len(platform.log) == before + 2


def test_rows_land_when_an_error_escapes_the_scope(endpoint):
    platform, accounts, sessions, media = _world(endpoint)
    before = len(platform.log)
    with pytest.raises(InvalidActionError):
        with platform.action_batch():
            platform.follow(sessions[0], accounts[1], endpoint)
            platform.follow(sessions[0], accounts[1], endpoint)
    assert len(platform.log) == before + 1
    [note] = platform.notifications.drain(accounts[1])
    assert note.action_id == before


_TYPE_INDEX = {action_type: i for i, action_type in enumerate(ActionType)}


class _MixedPolicy:
    """Deterministic in the context alone: BLOCK some (actor, type)
    pairs, DELAY_REMOVE some follows and likes, ALLOW the rest. Posts
    always land: the script indexes the media they create."""

    def decide(self, context):
        action_type = context.action_type
        if (
            action_type is not ActionType.POST
            and (context.actor * 3 + _TYPE_INDEX[action_type]) % 7 == 0
        ):
            return CountermeasureDecision.BLOCK
        if (
            action_type in (ActionType.FOLLOW, ActionType.LIKE)
            and (context.actor + context.target_account) % 3 == 0
        ):
            return CountermeasureDecision.DELAY_REMOVE
        return CountermeasureDecision.ALLOW


def _removals(platform) -> list[tuple]:
    return [(r.action_id, r.status, r.removed_at) for r in platform.log]


@pytest.mark.parametrize("removal_delay_ticks", [2, days(1)])
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_policy_installed_batched_and_unbatched_runs_agree(seed, removal_delay_ticks, endpoint):
    """With a mixed policy installed the scope still defers, and stays
    invisible: BLOCKED rows, delayed removals (some firing mid-script,
    inside the open scope) and the removals still due at script end."""
    script = _script(seed)
    results = {}
    for batched in (True, False):
        platform, accounts, sessions, media = _world(endpoint, removal_delay_ticks)
        platform.countermeasures.add_policy(_MixedPolicy())
        outcomes = _run(platform, accounts, sessions, media, script, endpoint, batched)
        state = _state(platform, accounts, media)
        platform.clock.advance(removal_delay_ticks + 1)
        results[batched] = (outcomes, state, _state(platform, accounts, media))
    assert results[True] == results[False]
    outcomes, state, after = results[True]
    assert "blocked" in outcomes and state["blocked"] == outcomes.count("blocked")
    assert any(row[6] is ActionStatus.BLOCKED for row in state["rows"])
    assert state["delayed"] > 0
    assert any(row[6] is ActionStatus.REMOVED for row in after["rows"])


class _DelayFollows:
    def decide(self, context):
        if context.action_type is ActionType.FOLLOW:
            return CountermeasureDecision.DELAY_REMOVE
        return CountermeasureDecision.ALLOW


def test_removal_due_while_its_row_is_pending(endpoint):
    """A removal that fires inside the scope lands its pending row first."""
    results = {}
    for batched in (True, False):
        platform, accounts, sessions, media = _world(endpoint, removal_delay_ticks=1)
        platform.countermeasures.add_policy(_DelayFollows())
        before = len(platform.log)
        with platform.action_batch() if batched else nullcontext():
            platform.follow(sessions[0], accounts[1], endpoint)
            platform.like(sessions[0], media[2], endpoint)
            if batched:
                assert len(platform.log) == before  # both rows pending
            platform.clock.advance(1)
            assert len(platform.log) == before + 2
            assert not platform.graph.is_following(accounts[0], accounts[1])
            platform.follow(sessions[0], accounts[1], endpoint)  # a fresh follow
        results[batched] = (_removals(platform), _state(platform, accounts, media))
    assert results[True] == results[False]
    removals = results[True][0]
    assert removals[before:] == [
        (before, ActionStatus.REMOVED, 1),
        (before + 1, ActionStatus.DELIVERED, None),
        (before + 2, ActionStatus.DELIVERED, None),
    ]
