"""Tests for study configuration presets."""

from dataclasses import replace

import pytest

from repro.core.config import ServicePlans, StudyConfig, resolve_workers


class TestPresets:
    @pytest.mark.parametrize("preset", ["tiny", "small", "paper_shaped"])
    def test_presets_construct(self, preset):
        config = getattr(StudyConfig, preset)()
        assert config.measurement_days >= 10
        assert config.population.size > 100

    def test_scaling_order(self):
        tiny = StudyConfig.tiny()
        small = StudyConfig.small()
        paper = StudyConfig.paper_shaped()
        assert tiny.population.size < small.population.size < paper.population.size
        assert tiny.measurement_days < small.measurement_days < paper.measurement_days
        assert paper.measurement_days == 90  # the paper's window

    def test_conversion_rates_match_paper(self):
        """Section 5.1: Boostgram 12%, Insta* 21%, Hublaagram 37%."""
        plans = StudyConfig.paper_shaped().plans
        assert plans.boostgram.conversion_rate == pytest.approx(0.12)
        assert plans.instalex.conversion_rate == pytest.approx(0.21)
        assert plans.hublaagram.conversion_rate == pytest.approx(0.37)

    def test_hublaagram_purchase_mix_matches_table9_shape(self):
        plans = StudyConfig.paper_shaped().plans
        hub = plans.hublaagram
        # no-outbound (2.4%) and monthly plans (3.2%) are small minorities;
        # one-time packages are rare (182 of a million users)
        assert hub.no_outbound_fraction == pytest.approx(0.024)
        assert hub.monthly_plan_fraction == pytest.approx(0.032)
        assert hub.one_time_package_fraction < 0.01
        # tier weights descend after the second tier (Table 9 counts)
        weights = hub.monthly_tier_weights
        assert weights[1] > weights[0] > weights[2] > weights[3]

    def test_validation(self):
        with pytest.raises(ValueError):
            StudyConfig(measurement_days=0)
        with pytest.raises(ValueError):
            StudyConfig(vpn_fraction=2.0)
        with pytest.raises(ValueError):
            StudyConfig(quantity_scale=0.0)

    def test_with_measurement_days(self):
        config = StudyConfig.tiny().with_measurement_days(5)
        assert config.measurement_days == 5

    def test_services_can_be_disabled(self):
        plans = ServicePlans(followersgratis=None)
        config = StudyConfig(plans=plans)
        assert config.plans.followersgratis is None


_BAD_FIELDS = [
    ("honeypot_days", 0),
    ("measurement_days", 0),
    ("honeypots_empty_per_batch", -3),
    ("honeypots_lived_in_per_batch", -1),
    ("inactive_honeypots", -2),
    ("migration_patience_days", -1),
    ("population.media_per_account", (6, 2)),
    ("population.check_rate", (0.1, 1.5)),
    ("population.background_rate", -1),
]


@pytest.mark.parametrize("name, value", _BAD_FIELDS, ids=[name for name, _ in _BAD_FIELDS])
def test_bad_field_rejected_at_construction(name, value):
    """Bad config fails in the constructor with a ValueError naming the
    field, never later inside the simulation."""
    config = StudyConfig.tiny()
    field = name.rpartition(".")[2]
    with pytest.raises(ValueError, match=field):
        if name.startswith("population."):
            replace(config, population=replace(config.population, **{field: value}))
        else:
            replace(config, **{field: value})


class TestResolveWorkers:
    def test_cli_value_wins(self, monkeypatch):
        monkeypatch.setenv("REPRO_WORKERS", "8")
        assert resolve_workers(3) == 3

    def test_env_beats_default(self, monkeypatch):
        monkeypatch.setenv("REPRO_WORKERS", "2")
        assert resolve_workers(None, default=4) == 2

    def test_default_when_nothing_set(self, monkeypatch):
        monkeypatch.delenv("REPRO_WORKERS", raising=False)
        assert resolve_workers(None) == 1
        assert resolve_workers(None, default=4) == 4

    def test_invalid_values_rejected(self, monkeypatch):
        monkeypatch.delenv("REPRO_WORKERS", raising=False)
        with pytest.raises(ValueError):
            resolve_workers(0)
        monkeypatch.setenv("REPRO_WORKERS", "zero")
        with pytest.raises(ValueError):
            resolve_workers(None)
        monkeypatch.setenv("REPRO_WORKERS", "-1")
        with pytest.raises(ValueError):
            resolve_workers(None)
