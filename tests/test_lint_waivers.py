"""Tests for module-scoped lint waivers (repro.lint.waivers).

The load-bearing property is containment: a waiver silences its one
rule in its one module subtree and nowhere else — not in sibling
packages, not in lookalike module names, not for other rules inside the
subtree itself. The standing waivers exercised here are DET003 on
``repro.obs.walltime`` and OBS002 on ``repro.lint``.
"""

from __future__ import annotations

from pathlib import Path

import pytest

from repro.lint.cli import main
from repro.lint.engine import lint_source, lint_whole_program
from repro.lint.waivers import WAIVERS, Waiver, find_waiver

WALL_CLOCK_SOURCE = "import time\n\n\ndef stamp():\n    return time.perf_counter()\n"
METRICS_READ_SOURCE = "def peek(obs):\n    return obs.metrics.snapshot()\n"


def _rules_found(source: str, path: str) -> list[str]:
    return [finding.rule for finding in lint_source(source, path)]


def _whole_program_paths(tmp_path, rule: str, paths: list[str]) -> set[str]:
    """Write METRICS_READ_SOURCE at each ``repro/...`` path under
    ``tmp_path`` and return the paths whole-program ``rule`` fires on."""
    for path in paths:
        target = tmp_path / path
        target.parent.mkdir(parents=True, exist_ok=True)
        target.write_text(METRICS_READ_SOURCE)
    fired = lint_whole_program([tmp_path / "repro"])
    return {
        str(Path(finding.path).relative_to(tmp_path))
        for finding in fired
        if finding.rule == rule
    }


class TestScoping:
    def test_lint_subtree_is_waived_for_metric_reads(self, tmp_path) -> None:
        waived = ["repro/lint/stats.py", "repro/lint/sub/deep.py"]
        control = "repro/core/peek.py"
        assert _whole_program_paths(tmp_path, "OBS002", [*waived, control]) == {control}

    def test_waiver_does_not_leak_to_other_packages(self) -> None:
        for path in (
            "src/repro/core/study.py",
            "src/repro/analysis/revenue.py",
            "src/repro/platform/actions.py",
            "src/repro/util/timeutils.py",
        ):
            assert "DET003" in _rules_found(WALL_CLOCK_SOURCE, path), path

    def test_waiver_does_not_cover_lookalike_modules(self) -> None:
        # "repro.obs.walltimes" shares the prefix string but not the subtree
        assert "DET003" in _rules_found(WALL_CLOCK_SOURCE, "src/repro/obs/walltimes.py")

    def test_waiver_is_rule_specific(self) -> None:
        # DET001 (stdlib random) is NOT waived for the walltime module
        source = "import random\n"
        assert "DET001" in _rules_found(source, "src/repro/obs/walltime.py")

    def test_files_outside_the_package_are_never_waived(self) -> None:
        assert "DET003" in _rules_found(WALL_CLOCK_SOURCE, "scripts/loose_script.py")

    def test_obs_walltime_is_waived_for_wall_clock(self) -> None:
        assert _rules_found(WALL_CLOCK_SOURCE, "src/repro/obs/walltime.py") == []

    def test_obs_walltime_waiver_stops_at_the_module(self) -> None:
        # the waiver names repro.obs.walltime, not the whole obs package
        for path in (
            "src/repro/obs/metrics.py",
            "src/repro/obs/spans.py",
            "src/repro/obs/trace.py",
        ):
            assert "DET003" in _rules_found(WALL_CLOCK_SOURCE, path), path


class TestWaiverTable:
    def test_standing_waivers_are_justified(self) -> None:
        for waiver in WAIVERS:
            assert waiver.rule
            assert waiver.module_prefix.startswith("repro.")
            assert len(waiver.reason) > 20  # a real sentence, not a stub

    def test_covers_semantics(self) -> None:
        waiver = Waiver(rule="DET003", module_prefix="repro.obs.walltime", reason="x" * 30)
        assert waiver.covers("DET003", "repro.obs.walltime")
        assert waiver.covers("DET003", "repro.obs.walltime.probe")
        assert not waiver.covers("DET003", "repro.obs.walltimes")
        assert not waiver.covers("DET003", "repro.core.study")
        assert not waiver.covers("DET001", "repro.obs.walltime")
        assert not waiver.covers("DET003", None)

    def test_find_waiver(self) -> None:
        assert find_waiver("DET003", "repro.obs.walltime") is not None
        assert find_waiver("OBS002", "repro.lint.project") is not None
        assert find_waiver("DET003", "repro.core.study") is None
        assert find_waiver("DET001", "repro.obs.walltime") is None
        assert find_waiver("OBS002", "repro.obs.walltime") is None
        assert find_waiver("DET003", None) is None


def test_cli_lists_waivers(capsys: pytest.CaptureFixture) -> None:
    assert main(["--list-waivers"]) == 0
    out = capsys.readouterr().out
    assert "DET003" in out
    assert "repro.obs.walltime" in out
    assert "OBS002" in out
    assert "repro.lint" in out
