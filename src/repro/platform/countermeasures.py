"""The countermeasure engine (paper Section 6.1).

Two intervention responses are supported:

* **Synchronous block** — the action fails visibly; the caller receives
  :class:`~repro.platform.errors.ActionBlockedError`. This is the
  transparent countermeasure that acts as a detection oracle for AASs.
* **Delayed removal** — the action succeeds, then is silently undone a
  configurable delay later (one day in the paper). The actor is not
  notified; only an observer re-reading platform state can tell.

Policies are pluggable: the interventions package supplies the paper's
threshold-and-bin policy, while tests use simple lambdas. The engine
asks every registered policy and applies the *strictest* decision
(BLOCK > DELAY_REMOVE > ALLOW).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Callable, Optional, Protocol

from repro.netsim.client import ClientEndpoint
from repro.platform.clock import SimClock
from repro.platform.models import AccountId, ActionRecord, ActionStatus, ActionType, MediaId
from repro.util.timeutils import days


class CountermeasureDecision(enum.Enum):
    """Ordered by strictness; the engine applies the max over policies."""

    ALLOW = 0
    DELAY_REMOVE = 1
    BLOCK = 2


@dataclass(frozen=True)
class ActionContext:
    """What a policy may inspect when deciding on a prospective action."""

    actor: AccountId
    action_type: ActionType
    endpoint: ClientEndpoint
    tick: int
    target_account: Optional[AccountId] = None
    target_media: Optional[MediaId] = None


class CountermeasurePolicy(Protocol):
    """Anything with a ``decide`` method can act as a policy.

    A policy decides from its :class:`ActionContext` alone and never
    reads the action log: inside a batch scope, earlier rows of the same
    actor-tick may still be pending (DESIGN.md §15).
    """

    def decide(self, context: ActionContext) -> CountermeasureDecision: ...


class CountermeasureEngine:
    """Applies registered policies to actions and manages delayed removal."""

    def __init__(self, clock: SimClock, removal_delay_ticks: int = days(1)):
        if removal_delay_ticks <= 0:
            raise ValueError("removal delay must be positive")
        self._clock = clock
        self._policies: list[CountermeasurePolicy] = []
        self.removal_delay_ticks = removal_delay_ticks
        self.blocked_count = 0
        self.delayed_removal_count = 0

    def add_policy(self, policy: CountermeasurePolicy) -> None:
        self._policies.append(policy)

    def remove_policy(self, policy: CountermeasurePolicy) -> None:
        self._policies.remove(policy)

    def clear_policies(self) -> None:
        self._policies.clear()

    @property
    def has_policies(self) -> bool:
        """Whether any policy is registered.

        With none, :meth:`decide` is vacuously ALLOW for every context —
        the invariant the platform relies on to skip building an
        :class:`ActionContext` per action, on the scalar and the batched
        path alike (DESIGN.md §15).
        """
        return bool(self._policies)

    def decide(self, context: ActionContext) -> CountermeasureDecision:
        """Strictest decision across all policies (ALLOW if none)."""
        decision = CountermeasureDecision.ALLOW
        for policy in self._policies:
            verdict = policy.decide(context)
            if verdict.value > decision.value:
                decision = verdict
        return decision

    def schedule_removal(
        self,
        action_id: int,
        resolve: Callable[[int], ActionRecord],
        undo: Callable[[ActionRecord], bool],
    ) -> None:
        """Arrange for action ``action_id`` to be undone ``removal_delay_ticks`` later.

        The row is looked up by id only when the removal fires:
        ``resolve(action_id)`` returns it, landing it first if it is
        still pending in an open batch scope (DESIGN.md §15). ``undo``
        reverses the action's platform effect (drop the follow edge,
        withdraw the like) and returns True if there was anything left
        to undo — the actor may have reversed the action themselves in
        the meantime (e.g. an AAS-issued unfollow), in which case the
        record keeps its DELIVERED status.
        """
        self.delayed_removal_count += 1

        def _fire(tick: int) -> None:
            record = resolve(action_id)
            if record.status is not ActionStatus.DELIVERED:
                return
            if undo(record):
                record.mark_removed(tick)

        self._clock.call_after(self.removal_delay_ticks, _fire)

    def note_block(self) -> None:
        self.blocked_count += 1
