"""Tests for repro.platform.mediastore."""

import hypothesis.strategies as st
import pytest
from hypothesis import HealthCheck, given, settings

from repro.platform.errors import InvalidActionError, UnknownMediaError
from repro.platform.mediastore import MediaStore


class TestMediaStore:
    def test_create_and_get(self):
        store = MediaStore()
        media = store.create(owner=1, tick=0, caption="hi", hashtags=("dogs",))
        assert store.get(media.media_id) is media
        assert store.media_of(1) == [media]

    def test_get_missing_raises(self):
        store = MediaStore()
        with pytest.raises(UnknownMediaError):
            store.get(0)

    def test_like_unlike_cycle(self):
        store = MediaStore()
        media = store.create(1, 0)
        store.like(media.media_id, 2)
        assert store.has_liked(media.media_id, 2)
        assert store.like_count(media.media_id) == 1
        store.unlike(media.media_id, 2)
        assert not store.has_liked(media.media_id, 2)

    def test_double_like_rejected(self):
        store = MediaStore()
        media = store.create(1, 0)
        store.like(media.media_id, 2)
        with pytest.raises(InvalidActionError):
            store.like(media.media_id, 2)

    def test_unlike_without_like_rejected(self):
        store = MediaStore()
        media = store.create(1, 0)
        with pytest.raises(InvalidActionError):
            store.unlike(media.media_id, 2)

    def test_comments_accumulate(self):
        store = MediaStore()
        media = store.create(1, 0)
        store.comment(media.media_id, 2, "nice")
        store.comment(media.media_id, 3, "wow")
        assert store.comments(media.media_id) == [(2, "nice"), (3, "wow")]

    def test_remove_account_media_tombstones(self):
        store = MediaStore()
        media = store.create(1, 0)
        assert store.remove_account_media(1) == 1
        assert store.media_of(1) == []
        with pytest.raises(UnknownMediaError):
            store.get(media.media_id)

    def test_drop_likes_by(self):
        store = MediaStore()
        a = store.create(1, 0)
        b = store.create(2, 0)
        store.like(a.media_id, 9)
        store.like(b.media_id, 9)
        assert store.drop_likes_by(9) == 2
        assert store.like_count(a.media_id) == 0

    def test_engagement_rate(self):
        store = MediaStore()
        media = store.create(1, 0)
        store.like(media.media_id, 2)
        store.like(media.media_id, 3)
        store.comment(media.media_id, 4, "!")
        assert store.engagement_rate(1, follower_count=10) == pytest.approx(0.3)

    def test_engagement_rate_no_followers_is_none(self):
        store = MediaStore()
        store.create(1, 0)
        assert store.engagement_rate(1, follower_count=0) is None


# ----------------------------------------------------------------------
# The owner-view, hashtag and likers-pair caches against a plain model
# ----------------------------------------------------------------------

_OWNERS = (1, 2, 3, 4)
_LIKERS = (1, 2, 3, 4, 5, 6)
_TAGS = ("Dogs", "dogs", "cats", "Food")

_ops = st.lists(
    st.one_of(
        st.tuples(st.just("create"), st.sampled_from(_OWNERS),
                  st.lists(st.sampled_from(_TAGS), max_size=3)),
        st.tuples(st.just("like"), st.integers(0, 30), st.sampled_from(_LIKERS)),
        st.tuples(st.just("unlike"), st.integers(0, 30), st.sampled_from(_LIKERS)),
        st.tuples(st.just("drop"), st.sampled_from(_LIKERS)),
        st.tuples(st.just("remove"), st.sampled_from(_OWNERS)),
    ),
    max_size=60,
)


class _Model:
    """What the store must answer, kept as plain dicts and sets."""

    def __init__(self):
        self.owner: dict[int, int] = {}
        self.tags: dict[int, set[str]] = {}
        self.removed: set[int] = set()
        self.likers: dict[int, set[int]] = {}

    def live_of(self, owner):
        return [m for m in sorted(self.owner) if self.owner[m] == owner and m not in self.removed]


def _expected_error(model, media_id, liker, liking):
    if media_id in model.removed:
        return UnknownMediaError
    if (liker in model.likers[media_id]) == liking:
        return InvalidActionError
    return None


def _apply(store, model, op):
    kind = op[0]
    if kind == "create":
        media = store.create(op[1], 0, hashtags=tuple(op[2]))
        model.owner[media.media_id] = op[1]
        model.tags[media.media_id] = {tag.lower() for tag in op[2]}
        model.likers[media.media_id] = set()
    elif kind in ("like", "unlike"):
        if not model.owner:
            return
        media_id = op[1] % len(model.owner)
        liking = kind == "like"
        error = _expected_error(model, media_id, op[2], liking)
        call = store.like if liking else store.unlike
        if error is not None:
            with pytest.raises(error):
                call(media_id, op[2])
            return
        call(media_id, op[2])
        (model.likers[media_id].add if liking else model.likers[media_id].discard)(op[2])
    elif kind == "drop":
        expected = sum(op[1] in likers for likers in model.likers.values())
        assert store.drop_likes_by(op[1]) == expected
        for likers in model.likers.values():
            likers.discard(op[1])
    else:
        live = model.live_of(op[1])
        assert store.remove_account_media(op[1]) == len(live)
        model.removed.update(live)


def _check(store, model):
    for owner in _OWNERS:
        live = model.live_of(owner)
        assert [m.media_id for m in store.media_of(owner)] == live
        for liker in _LIKERS:
            assert [m.media_id for m in store.unliked_of(owner, liker)] == [
                m for m in live if liker not in model.likers[m]
            ]
        likes = sum(len(model.likers[m]) for m in live)
        assert store.engagement_rate(owner, 4) == likes / 4
        assert store.engagement_rate(owner, 0) is None
    for tag in _TAGS:
        assert store.accounts_posting(tag) == {
            model.owner[m]
            for m in model.owner
            if m not in model.removed and tag.lower() in model.tags[m]
        }


class TestMediaStoreCaches:
    @given(_ops)
    @settings(max_examples=150, suppress_health_check=[HealthCheck.too_slow])
    def test_cached_queries_match_a_dict_model(self, ops):
        store, model = MediaStore(), _Model()
        _check(store, model)
        for op in ops:
            _apply(store, model, op)
            _check(store, model)
