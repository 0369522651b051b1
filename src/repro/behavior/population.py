"""Organic population synthesis.

Builds the platform's pre-existing world: organic accounts with country
homes, consumer endpoints, media, an initial heavy-tailed follower
graph, and per-user behaviour profiles. The initial graph is installed
directly into platform state (it predates the measurement window, so it
must not appear in the action log).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from numbers import Real

import numpy as np

from repro.behavior.calibration import propensity_multiplier
from repro.behavior.degree import DegreeDistribution
from repro.behavior.profiles import OrganicProfile
from repro.netsim.client import DeviceFingerprint
from repro.netsim.fabric import NetworkFabric
from repro.platform.instagram import InstagramPlatform
from repro.platform.models import AccountId
from repro.util.stats import median

#: A default country mix; weights roughly follow Instagram's 2017 usage
#: and include the countries the paper's Figure 2 calls out.
DEFAULT_COUNTRY_WEIGHTS: dict[str, float] = {
    "USA": 0.22,
    "BRA": 0.10,
    "IDN": 0.13,
    "IND": 0.10,
    "RUS": 0.09,
    "TUR": 0.06,
    "GBR": 0.05,
    "DEU": 0.04,
    "MEX": 0.04,
    "OTHER": 0.17,
}


def _check_range(name: str, value: object, upper: float | None = None) -> None:
    """Reject anything but a ``(lo, hi)`` pair with ``0 <= lo <= hi``
    (and ``hi <= upper`` when given), naming the field."""
    ok = (
        isinstance(value, (tuple, list))
        and len(value) == 2
        and all(isinstance(v, Real) for v in value)
        and 0 <= value[0] <= value[1]
        and (upper is None or value[1] <= upper)
    )
    if not ok:
        bound = "" if upper is None else f" <= {upper}"
        raise ValueError(
            f"{name} must be a (lo, hi) pair with 0 <= lo <= hi{bound}, got {value!r}"
        )


@dataclass(frozen=True)
class PopulationConfig:
    """Knobs for organic-population synthesis."""

    size: int = 2000
    out_degree: DegreeDistribution = field(default_factory=lambda: DegreeDistribution(median=40.0, sigma=1.0))
    #: log-space sigma of the popularity weights driving in-degree skew
    popularity_sigma: float = 1.3
    country_weights: dict[str, float] = field(default_factory=lambda: dict(DEFAULT_COUNTRY_WEIGHTS))
    media_per_account: tuple[int, int] = (5, 30)
    #: probability per hour that a user checks notifications
    check_rate: tuple[float, float] = (0.05, 0.25)
    #: organic background actions per day per user
    background_rate: tuple[float, float] = (0.5, 6.0)
    #: fraction of users with a strong follow-on-like affinity, and its size
    affinity_fraction: float = 0.08
    affinity_multiplier: float = 12.0
    #: the interest-hashtag vocabulary; each user posts under 1-3 of these
    hashtag_vocabulary: tuple[str, ...] = (
        "travel", "food", "fitness", "fashion", "art", "music",
        "photography", "nature", "pets", "gaming", "beauty", "sports",
    )

    def __post_init__(self):
        if self.size <= 1:
            raise ValueError("population needs at least two accounts")
        _check_range("media_per_account", self.media_per_account)
        _check_range("check_rate", self.check_rate, upper=1.0)
        _check_range("background_rate", self.background_rate)
        if not self.country_weights:
            raise ValueError("country_weights must be non-empty")
        if abs(sum(self.country_weights.values()) - 1.0) > 1e-6:
            raise ValueError("country weights must sum to 1")
        if not 0.0 <= self.affinity_fraction <= 1.0:
            raise ValueError("affinity_fraction must be a probability")


class OrganicPopulation:
    """The synthesized organic user base and its behaviour profiles."""

    def __init__(self, platform: InstagramPlatform, profiles: dict[AccountId, OrganicProfile]):
        self.platform = platform
        self.profiles = profiles
        self.account_ids = sorted(profiles)
        out_degrees = [platform.following_count(a) for a in self.account_ids]
        in_degrees = [platform.follower_count(a) for a in self.account_ids]
        self.median_out_degree = median(out_degrees) if out_degrees else 0.0
        self.median_in_degree = median(in_degrees) if in_degrees else 0.0

    def __len__(self) -> int:
        return len(self.account_ids)

    def __contains__(self, account_id: AccountId) -> bool:
        return account_id in self.profiles

    def profile(self, account_id: AccountId) -> OrganicProfile:
        return self.profiles[account_id]

    def sample_accounts(self, rng: np.random.Generator, n: int) -> list[AccountId]:
        """Uniform sample without replacement."""
        if n > len(self.account_ids):
            raise ValueError("sample larger than population")
        picks = rng.choice(len(self.account_ids), size=n, replace=False)
        return [self.account_ids[int(i)] for i in picks]

    @classmethod
    def generate(
        cls,
        platform: InstagramPlatform,
        fabric: NetworkFabric,
        rng: np.random.Generator,
        config: PopulationConfig,
    ) -> "OrganicPopulation":
        """Create accounts, media, the initial graph, and profiles."""
        countries = list(config.country_weights)
        weights = np.array([config.country_weights[c] for c in countries], dtype=float)
        weights = weights / weights.sum()
        for country in countries:
            fabric.ensure_country(country)

        account_ids: list[AccountId] = []
        profile_map: dict[AccountId, OrganicProfile] = {}
        country_picks = rng.choice(len(countries), size=config.size, p=weights)
        lo_media, hi_media = config.media_per_account
        for index in range(config.size):
            country = countries[int(country_picks[index])]
            username = f"user_{index:07d}"
            password = f"pw_{index:07d}"
            account = platform.create_account(username, password)
            account.profile.display_name = f"User {index}"
            account.profile.biography = "organic user"
            account.profile.has_profile_picture = True
            fingerprint = DeviceFingerprint("android" if rng.random() < 0.7 else "ios")
            endpoint = fabric.home_endpoint(country, fingerprint)
            platform.auth.login(account.account_id, password, endpoint, platform.clock.now)
            media_count = int(rng.integers(lo_media, hi_media + 1))
            vocabulary = config.hashtag_vocabulary
            interest_count = int(rng.integers(1, min(3, len(vocabulary)) + 1))
            picks = rng.choice(len(vocabulary), size=interest_count, replace=False)
            interests = tuple(vocabulary[int(i)] for i in picks)
            for _ in range(media_count):
                tag = interests[int(rng.integers(0, len(interests)))]
                platform.media.create(
                    account.account_id, platform.clock.now, hashtags=(tag,)
                )
            account_ids.append(account.account_id)
            profile_map[account.account_id] = OrganicProfile(
                account_id=account.account_id,
                country=country,
                endpoint=endpoint,
                password=password,
                check_rate=float(rng.uniform(*config.check_rate)),
                propensity=1.0,  # filled in after the graph is wired
                background_rate=float(rng.uniform(*config.background_rate)),
                follow_on_like_affinity=(
                    config.affinity_multiplier
                    if rng.random() < config.affinity_fraction
                    else 1.0
                ),
            )

        _wire_initial_graph(platform, account_ids, rng, config)

        out_degrees = [platform.following_count(a) for a in account_ids]
        in_degrees = [platform.follower_count(a) for a in account_ids]
        median_out = max(median(out_degrees), 1.0)
        median_in = max(median(in_degrees), 1.0)
        for account_id in account_ids:
            profile_map[account_id].propensity = propensity_multiplier(
                platform.following_count(account_id),
                platform.follower_count(account_id),
                median_out,
                median_in,
            )
        return cls(platform, profile_map)


def _wire_initial_graph(
    platform: InstagramPlatform,
    account_ids: list[AccountId],
    rng: np.random.Generator,
    config: PopulationConfig,
) -> None:
    """Install the pre-existing follower graph.

    Out-degrees are drawn from the configured log-normal; edge targets
    are sampled with probability proportional to a per-account popularity
    weight (log-normal), producing a heavy-tailed in-degree distribution.
    """
    n = len(account_ids)
    out_degrees = config.out_degree.sample(rng, n)
    out_degrees = np.minimum(out_degrees, n - 1)
    popularity = rng.lognormal(mean=0.0, sigma=config.popularity_sigma, size=n)
    cumulative = np.cumsum(popularity)
    cumulative /= cumulative[-1]
    # candidate ids materialize through numpy (one vectorized take +
    # tolist per source) and the dedup/self-skip edge loop runs inside
    # the graph's bulk append — no RNG below, so the edge set is
    # identical to the old per-pick `follow` loop on either graph
    ids_arr = np.asarray(account_ids, dtype=np.int64)
    graph = platform.graph
    for i, src in enumerate(account_ids):
        degree = int(out_degrees[i])
        if degree == 0:
            continue
        # Oversample to absorb duplicates/self-picks, then trim.
        draws = rng.random(min(int(degree * 1.6) + 4, 4 * n))
        picks = np.searchsorted(cumulative, draws)
        graph.bulk_follow_new(src, ids_arr[picks].tolist(), degree)
