"""Naive collusion fulfilment: the oracle for the inlined production loops.

These replace :meth:`CollusionNetworkService._source_pool` and
:meth:`CollusionNetworkService._fulfil_order`. The pool is re-filtered
per order instead of sliced around an index, and every order type runs
the generic per-attempt loop over a ``deliver`` helper, FOLLOW and
single-media LIKE orders included.
"""

from __future__ import annotations

from repro.aas.base import CustomerRecord, IssueOutcome
from repro.aas.collusion_service import CollusionNetworkService, Order
from repro.platform.models import AccountId, ActionType, ApiSurface


def source_pool(service: CollusionNetworkService, exclude: AccountId) -> list[CustomerRecord]:
    now = service.platform.clock.now
    if getattr(service, "_pool_cache_tick", None) != now:
        service._pool_cache = [
            record
            for record in service.customers.values()
            if record.account_id not in service.no_outbound and record.service_active(now)
        ]
        service._pool_cache_tick = now
    return [record for record in service._pool_cache if record.account_id != exclude]


def deliver_follow(
    service: CollusionNetworkService, order: Order, source: CustomerRecord
) -> IssueOutcome:
    platform = service.platform
    if platform.graph.is_following(source.account_id, order.customer):
        return IssueOutcome.INVALID
    outcome = service._issue(
        source,
        lambda session, endpoint: platform.follow(
            session, order.customer, endpoint, ApiSurface.PRIVATE_MOBILE
        ),
    )
    service.detector.observe(
        ActionType.FOLLOW, outcome is IssueOutcome.BLOCKED, platform.clock.now
    )
    return outcome


def fulfil_order(service: CollusionNetworkService, order: Order) -> None:
    if not service.platform.account_exists(order.customer):
        order.delivered = order.quantity  # recipient gone; close out
        return
    pool = service._source_pool(exclude=order.customer)
    if not pool:
        return
    budget = max(1, order.per_hour)
    budget = min(budget, order.quantity - order.delivered)
    if order.action_type is ActionType.LIKE:
        deliver = service._deliver_like
    elif order.action_type is ActionType.FOLLOW:
        def deliver(order: Order, source: CustomerRecord) -> IssueOutcome:
            return deliver_follow(service, order, source)
    else:
        deliver = service._deliver_comment
    attempts = 0
    max_attempts = budget * 4
    while budget > 0 and attempts < max_attempts:
        attempts += 1
        outcome = deliver(order, service._next_source(pool))
        if outcome is IssueOutcome.DELIVERED:
            order.delivered += 1
            budget -= 1
        elif outcome is IssueOutcome.BLOCKED:
            budget -= 1
