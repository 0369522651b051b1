"""Naive organic-driver loops: the oracle for the memoized production ones.

These replace three methods of
:class:`repro.behavior.organic.OrganicActivityDriver`. They make the
same RNG draws in the same order as the production methods but keep
none of their shortcuts: no attractiveness or following-list memo, no
fused unliked-media pick, and both account-existence probes in the
background loop.
"""

from __future__ import annotations

from bisect import bisect_left

from repro.behavior.organic import OrganicActivityDriver
from repro.behavior.profiles import OrganicProfile, account_attractiveness
from repro.platform.models import AccountId, ActionType, ApiSurface


def _unliked(driver: OrganicActivityDriver, owner: AccountId, liker: AccountId) -> list:
    media = driver.platform.media
    return [m for m in media.media_of(owner) if not media.has_liked(m.media_id, liker)]


def process_inbox(driver: OrganicActivityDriver, account_id: AccountId) -> None:
    profile = driver.population.profiles[account_id]
    platform = driver.platform
    for notification in platform.notifications.drain(account_id):
        actor = notification.actor
        if actor == account_id or not platform.account_exists(actor):
            continue
        intents = driver.model.respond(
            notification.action_type,
            account_attractiveness(platform, actor),
            profile.propensity,
            profile.follow_on_like_affinity,
        )
        for intent in intents:
            driver._execute_response(account_id, actor, intent.response_type, profile)


def execute_response(
    driver: OrganicActivityDriver,
    responder: AccountId,
    actor: AccountId,
    response_type: ActionType,
    profile: OrganicProfile,
) -> None:
    platform = driver.platform
    session = driver._session_for(responder)
    if response_type is ActionType.FOLLOW:
        if platform.graph.is_following(responder, actor):
            return
        if driver._perform(
            platform.follow, session, actor, profile.endpoint, ApiSurface.PRIVATE_MOBILE
        ):
            driver.reciprocal_actions += 1
    elif response_type is ActionType.LIKE:
        media = _unliked(driver, actor, responder)
        if not media:
            return
        choice = media[int(driver._rng.integers(0, len(media)))]
        if driver._perform(
            platform.like, session, choice.media_id, profile.endpoint, ApiSurface.PRIVATE_MOBILE
        ):
            driver.reciprocal_actions += 1


def run_background(driver: OrganicActivityDriver) -> None:
    rng = driver._rng
    platform = driver.platform
    profiles = driver.population.profiles
    cumulative = driver._actor_cumulative_list
    actor_ids = driver._actor_ids
    last = len(actor_ids) - 1
    for _ in range(int(rng.poisson(driver._hourly_rate_total))):
        actor = actor_ids[min(bisect_left(cumulative, rng.random()), last)]
        if not platform.account_exists(actor):
            continue
        following = [a for a in platform.graph.following_view(actor) if a in profiles]
        target = None
        if following and rng.random() < 0.7:
            target = following[int(rng.integers(0, len(following)))]
        else:
            for _attempt in range(4):
                candidate = actor_ids[min(bisect_left(cumulative, rng.random()), last)]
                if candidate == actor:
                    continue
                if platform.follower_count(candidate) >= driver.params.discovery_min_followers:
                    target = candidate
                    break
        if target is None or not platform.account_exists(target):
            continue
        profile = profiles[actor]
        session = driver._session_for(actor)
        if rng.random() < driver.params.background_like_share:
            media = _unliked(driver, target, actor)
            if not media:
                continue
            choice = media[int(rng.integers(0, len(media)))]
            if driver._perform(
                platform.like, session, choice.media_id, profile.endpoint,
                ApiSurface.PRIVATE_MOBILE,
            ):
                driver.background_actions += 1
        else:
            if platform.graph.is_following(actor, target):
                continue
            if driver._perform(
                platform.follow, session, target, profile.endpoint, ApiSurface.PRIVATE_MOBILE
            ):
                driver.background_actions += 1
