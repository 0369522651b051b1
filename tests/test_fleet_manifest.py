"""Manifest parsing, grid expansion, and the seed_sweep shim.

Expansion is a pure function of the manifest: these tests pin the
axis order, the replica naming scheme, the config surgery each axis
performs (population size, honeypot/measurement days, service-mix plan
disabling), and every validation error a malformed document should
raise. ``seed_sweep`` is asserted to be exactly a one-axis manifest
expansion — one sweep entry point, two spellings.
"""

from __future__ import annotations

import json
from dataclasses import replace

import pytest

from repro.core.config import StudyConfig
from repro.fleet import (
    PREFIX_BUILD_WORLD,
    PREFIX_SIGNATURES,
    SERVICE_MIXES,
    ArmSpec,
    ManifestError,
    SweepManifest,
    expand_manifest,
    load_manifest,
    parse_manifest,
    seed_sweep,
)


def _manifest(**overrides) -> dict:
    data = {"schema_version": 1, "name": "t", "seeds": [1, 2]}
    data.update(overrides)
    return data


class TestParseValidation:
    def test_minimal_document_fills_defaults(self) -> None:
        manifest = parse_manifest(_manifest())
        assert manifest.preset == "tiny"
        assert manifest.prefix == PREFIX_SIGNATURES
        assert manifest.seeds == (1, 2)
        assert manifest.arms == (ArmSpec(arm="standard"),)
        assert manifest.replica_count() == 2

    @pytest.mark.parametrize(
        "mutation,match",
        [
            ({"bogus": 1}, "unknown manifest keys"),
            ({"schema_version": 99}, "schema_version"),
            ({"name": ""}, "name"),
            ({"preset": "galactic"}, "unknown preset"),
            ({"prefix": "after-lunch"}, "unknown prefix"),
            ({"seeds": []}, "at least one seed"),
            ({"seeds": [1, 1]}, "repeat"),
            ({"seeds": ["one"]}, "integers"),
            ({"populations": [0]}, "integers >= 1"),
            ({"honeypot_days": [1, "two"]}, "integers"),
            ({"measurement_days": [0]}, "integers >= 1"),
            ({"service_mixes": ["all", "all"]}, "repeat"),
            ({"service_mixes": ["mystery"]}, "unknown service mix"),
            ({"arms": []}, "non-empty list"),
            ({"arms": [{"arm": "levitate"}]}, "unknown arm"),
            ({"arms": [{"arm": "standard", "extra": 1}]}, "unknown keys"),
            ({"arms": [{"arm": "standard", "options": {"d": [1]}}]}, "JSON scalar"),
            ({"arms": [{"arm": "standard", "grid": {"d": []}}]}, "non-empty"),
            ({"arms": [{"arm": "standard", "grid": {"d": [1, 1]}}]}, "repeats"),
            (
                {"arms": [{"arm": "standard"}, {"arm": "standard"}]},
                "labels must be unique",
            ),
        ],
    )
    def test_malformed_documents_rejected(self, mutation, match) -> None:
        with pytest.raises(ManifestError, match=match):
            parse_manifest(_manifest(**mutation))

    @pytest.mark.parametrize(
        "arm,match",
        [
            # a misspelt key used to expand to a replica on the 14-day default
            ({"arm": "narrow", "options": {"narow_days": 1}}, "'narrow' has no option 'narow_days'"),
            # a negative window used to fail only inside the worker
            ({"arm": "narrow", "options": {"narrow_days": -3}}, "'narrow_days' must be >= 1"),
            ({"arm": "standard", "options": {"narrow_days": 2}}, "'standard' has no option"),
            ({"arm": "report", "options": {"delay_days": 1}}, "'report' has no option"),
            ({"arm": "broad", "grid": {"delay": [1, 2]}}, "'broad' has no option 'delay'"),
            ({"arm": "narrow", "options": {"narrow_days": "7"}}, "must be an integer"),
            ({"arm": "narrow", "options": {"narrow_days": 2.5}}, "must be an integer"),
            ({"arm": "broad", "options": {"block_days": True}}, "must be an integer"),
            ({"arm": "narrow", "options": {"measurement_days": None}}, "must be an integer"),
            ({"arm": "narrow", "grid": {"narrow_days": [1, 0]}}, "'narrow_days' must be >= 1"),
            ({"arm": "narrow", "options": {"calibration_days": 0}}, "'calibration_days' must be >= 1"),
            ({"arm": "broad", "options": {"block_days": 0}}, "'block_days' must be >= 1"),
            ({"arm": "broad", "options": {"calibration_days": 0}}, "'calibration_days' must be >= 1"),
            ({"arm": "broad", "options": {"delay_days": -1}}, "'delay_days' must be >= 0"),
            ({"arm": "broad", "options": {"measurement_days": -1}}, "'measurement_days' must be >= 0"),
            ({"arm": "standard", "options": {"measurement_days": 0}}, "'measurement_days' must be >= 1"),
            ({"arm": "report", "grid": {"measurement_days": [2, 0]}}, "'measurement_days' must be >= 1"),
        ],
    )
    def test_bad_arm_options_rejected_with_arm_and_key(self, arm, match) -> None:
        with pytest.raises(ManifestError, match=match) as caught:
            parse_manifest(_manifest(seeds=[3], arms=[arm]))
        assert str(caught.value).startswith("arms[0]: arm ")

    def test_arm_option_bounds_are_inclusive(self) -> None:
        manifest = parse_manifest(
            _manifest(
                arms=[
                    {"arm": "standard", "options": {"measurement_days": 1}},
                    {"arm": "report", "options": {"measurement_days": 1}},
                    {
                        "arm": "narrow",
                        "options": {"measurement_days": 0, "narrow_days": 1, "calibration_days": 1},
                    },
                    {
                        "arm": "broad",
                        "options": {
                            "measurement_days": 0,
                            "delay_days": 0,
                            "block_days": 1,
                            "calibration_days": 1,
                        },
                    },
                ]
            )
        )
        assert [arm.arm for arm in manifest.arms] == ["standard", "report", "narrow", "broad"]

    def test_non_object_rejected(self) -> None:
        with pytest.raises(ManifestError, match="JSON object"):
            parse_manifest([1, 2, 3])

    def test_load_manifest_file_errors(self, tmp_path) -> None:
        with pytest.raises(ManifestError, match="cannot read"):
            load_manifest(str(tmp_path / "absent.json"))
        bad = tmp_path / "bad.json"
        bad.write_text("{nope")
        with pytest.raises(ManifestError, match="not valid JSON"):
            load_manifest(str(bad))
        good = tmp_path / "good.json"
        good.write_text(json.dumps(_manifest()))
        assert load_manifest(str(good)).name == "t"


class TestExpansion:
    def test_full_grid_counts_names_and_order(self) -> None:
        manifest = parse_manifest(
            _manifest(
                seeds=[1, 2],
                populations=[260, 300],
                honeypot_days=[2],
                measurement_days=[1, 2],
                service_mixes=["all", "paid-only"],
                arms=[{"arm": "standard"}],
            )
        )
        specs = expand_manifest(manifest)
        assert len(specs) == manifest.replica_count() == 16
        assert specs[0].name == "seed-1/pop260/hp2/md1/mix-all/standard"
        assert specs[-1].name == "seed-2/pop300/hp2/md2/mix-paid-only/standard"
        assert len({spec.name for spec in specs}) == len(specs)
        # seed is the slowest axis, arm the fastest
        assert [s.seed for s in specs] == [1] * 8 + [2] * 8

    def test_axes_apply_their_config_surgery(self) -> None:
        manifest = parse_manifest(
            _manifest(
                seeds=[9],
                populations=[300],
                honeypot_days=[3],
                measurement_days=[2],
                service_mixes=["paid-only"],
            )
        )
        (spec,) = expand_manifest(manifest)
        assert spec.config.seed == 9
        assert spec.config.population.size == 300
        assert spec.config.honeypot_days == 3
        assert spec.config.measurement_days == 2
        for field in SERVICE_MIXES["paid-only"]:
            assert getattr(spec.config.plans, field) is None

    def test_unswept_axes_leave_config_and_names_alone(self) -> None:
        specs = expand_manifest(parse_manifest(_manifest(seeds=[5])))
        (spec,) = specs
        assert spec.name == "seed-5/standard"
        base = StudyConfig.tiny()
        assert spec.config == replace(base, seed=5)

    def test_arm_grid_variants_expand_with_labels(self) -> None:
        manifest = parse_manifest(
            _manifest(
                seeds=[1],
                arms=[
                    {
                        "arm": "narrow",
                        "options": {"measurement_days": 0, "calibration_days": 1},
                        "grid": {"narrow_days": [1, 2]},
                    }
                ],
            )
        )
        specs = expand_manifest(manifest)
        assert [s.name for s in specs] == [
            "seed-1/narrow-narrow_days1",
            "seed-1/narrow-narrow_days2",
        ]
        assert dict(specs[0].arm_options)["narrow_days"] == 1
        assert dict(specs[1].arm_options)["narrow_days"] == 2
        assert dict(specs[0].arm_options)["calibration_days"] == 1

    def test_base_config_overrides_the_preset(self) -> None:
        base = replace(StudyConfig.tiny(), honeypot_days=9)
        specs = expand_manifest(parse_manifest(_manifest(seeds=[4])), base_config=base)
        assert specs[0].config.honeypot_days == 9
        assert specs[0].config.seed == 4

    def test_prefix_flows_to_every_spec(self) -> None:
        manifest = parse_manifest(_manifest(prefix=PREFIX_BUILD_WORLD))
        assert all(s.prefix == PREFIX_BUILD_WORLD for s in expand_manifest(manifest))


class TestSeedSweep:
    def test_names_arm_and_options(self) -> None:
        base = StudyConfig.tiny(seed=1)
        specs = seed_sweep(
            base, [7, 8], arm="narrow", arm_options=(("narrow_days", 3),)
        )
        assert [s.name for s in specs] == ["seed-7/narrow", "seed-8/narrow"]
        assert all(s.arm == "narrow" for s in specs)
        assert all(dict(s.arm_options) == {"narrow_days": 3} for s in specs)
        assert [s.seed for s in specs] == [7, 8]

    def test_prefix_passthrough(self) -> None:
        specs = seed_sweep(StudyConfig.tiny(), [1], prefix=PREFIX_BUILD_WORLD)
        assert specs[0].prefix == PREFIX_BUILD_WORLD

    def test_is_exactly_a_one_axis_manifest_expansion(self) -> None:
        base = StudyConfig.tiny(seed=1)
        via_shim = seed_sweep(base, [7, 8], arm="report")
        via_manifest = expand_manifest(
            SweepManifest(
                name="x", seeds=(7, 8), arms=(ArmSpec(arm="report"),)
            ),
            base_config=base,
        )
        assert via_shim == via_manifest

    def test_base_config_shape_is_preserved(self) -> None:
        base = replace(StudyConfig.tiny(seed=1), honeypot_days=7)
        specs = seed_sweep(base, [2, 3])
        assert all(s.config.honeypot_days == 7 for s in specs)
        assert all(s.config.population == base.population for s in specs)
