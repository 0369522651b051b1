"""Tests of the benchmark itself.

Run from the repository root::

    python3 -m pytest perfbench/tests -q

They check that metric names are well formed and agree with
``BENCHMARK.json`` both ways, that every wrapped function still
resolves, that span self times are computed right, and that a short
version of each workload passes its output checks traced and untraced.
"""

from __future__ import annotations

import inspect
import json
import os
import re
import shutil
import signal
import subprocess
import sys
import time

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH_DIR = os.path.dirname(HERE)
ROOT = os.path.dirname(BENCH_DIR)
for path in (BENCH_DIR, os.path.join(ROOT, "src")):
    if path not in sys.path:
        sys.path.insert(0, path)

import hostspeed  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")


def _spec() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        return json.load(handle)


def _run(workload: str, trace: int, cwd: str = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "7",
         "--seconds", "1", "--trace", str(trace), "--size", "short"],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


def _result(proc: subprocess.CompletedProcess) -> dict:
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


# ----------------------------------------------------------------------
# Names
# ----------------------------------------------------------------------


def test_metric_names_and_units_are_well_formed():
    for table in (run.END_TO_END, tracing.LAYER_METRICS):
        for name, unit in table.items():
            assert NAME.fullmatch(name), name
            assert UNIT.fullmatch(unit), unit


def test_benchmark_json_names_match_the_code_both_ways():
    spec = _spec()
    assert {w["name"] for w in spec["workloads"]} == set(workloads.WORKLOADS)
    declared = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    assert declared == run.END_TO_END
    declared = {m["name"]: m["unit"] for m in spec["per_layer"]}
    assert declared == tracing.LAYER_METRICS
    names = [m["name"] for key in ("workloads", "end_to_end", "per_layer") for m in spec[key]]
    assert all(NAME.fullmatch(name) for name in names)
    assert len(names) == len(set(names))


def test_benchmark_json_bounds():
    spec = _spec()
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    assert all(0 < bound <= 0.25 for bound in bounds.values())
    assert bounds["setup_s"] == max(bounds.values())


# ----------------------------------------------------------------------
# Tracing
# ----------------------------------------------------------------------


def test_every_wrapped_function_still_resolves():
    expanded = tracing.expand_targets()
    spans = {target.span for target, _ in expanded}
    assert spans == {target.span for target in tracing.TARGETS}
    for target, path in expanded:
        owner, attr = tracing._resolve_owner(target.module, path)
        value = tracing._get(owner, attr)
        func = value.__func__ if isinstance(value, classmethod) else value
        assert callable(func), (target, path)
        # a generator's span would end before its body runs
        assert not inspect.isgeneratorfunction(func), (target, path)


def test_install_wraps_and_restores_every_target():
    from repro.fleet import runner, snapshot
    from repro.platform.instagram import InstagramPlatform

    original_like = InstagramPlatform.__dict__["like"]
    original_restore = runner.restore_study
    recorder = tracing.SpanRecorder()
    restore = tracing.install(recorder)
    try:
        assert InstagramPlatform.__dict__["like"] is not original_like
        assert runner.restore_study is snapshot.restore_study
        assert runner.restore_study is not original_restore
    finally:
        restore()
    assert InstagramPlatform.__dict__["like"] is original_like
    assert runner.restore_study is original_restore is snapshot.restore_study


def test_self_time_excludes_wrapped_children():
    recorder = tracing.SpanRecorder()

    def inner():
        time.sleep(0.02)

    wrapped_inner = recorder.wrap(inner, "layer.inner")

    def outer():
        time.sleep(0.01)
        wrapped_inner()
        wrapped_inner()

    wrapped_outer = recorder.wrap(outer, "layer.outer")
    recorder.active = True
    wrapped_outer()
    recorder.active = False
    wrapped_outer()  # inactive: not recorded
    totals = tracing.totals(recorder.names, recorder.arrays())
    assert totals.calls == {"layer.outer": 1, "layer.inner": 2}
    assert totals.self_s["layer.inner"] == pytest.approx(totals.incl_s["layer.inner"])
    assert totals.self_s["layer.outer"] == pytest.approx(
        totals.incl_s["layer.outer"] - totals.incl_s["layer.inner"]
    )
    assert 0.005 < totals.self_s["layer.outer"] < totals.self_s["layer.inner"]
    assert totals.root_s == pytest.approx(totals.incl_s["layer.outer"])


def test_action_log_rows_counter_matches_the_log():
    """The sweep reads action rows from the replicas' obs counter."""
    from repro.core import Study, StudyConfig

    study = Study(StudyConfig.tiny(seed=7))
    study.run_honeypot_phase()
    snapshot = study.obs.metrics.snapshot()
    appends = [m["value"] for m in snapshot["metrics"] if m["name"] == "platform.actionlog.appends"]
    assert appends == [len(study.platform.log)]


# ----------------------------------------------------------------------
# Short workloads, end to end
# ----------------------------------------------------------------------


@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_short_workload_passes_its_checks(workload):
    result = _result(_run(workload, trace=0))
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 2 + run.SETUP_PROBES
    declared = {m["name"]: m["unit"] for m in _spec()["end_to_end"]}
    assert {name: m["unit"] for name, m in result["metrics"].items()} == declared
    assert all(m["value"] > 0 for m in result["metrics"].values())


@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_short_traced_run_keeps_digests_and_separates_layers(workload):
    result = _result(_run(workload, trace=1))
    assert result["correct"] is True  # includes traced digest == untraced digest
    declared = {m["name"]: m["unit"] for m in _spec()["per_layer"]}
    assert {name: m["unit"] for name, m in result["metrics"].items()} == declared
    metrics = {name: m["value"] for name, m in result["metrics"].items()}
    fleet = [name for name in metrics if name.startswith("fleet.")]
    if workload == "sweep":
        assert all(metrics[name] > 0 for name in fleet)
    else:
        assert all(metrics[name] == 0 for name in fleet)
    if workload == "study":
        assert metrics["interventions.policy.calls"] == 0
        assert metrics["interventions.calibrate_s"] == 0
    if workload == "intervene":
        assert metrics["interventions.policy.calls"] > 0
        assert metrics["interventions.calibrate_s"] > 0
    assert metrics["platform.log.rows"] > 0
    assert metrics["behavior.organic.calls"] > 0


def test_every_run_needs_iterations_to_compare_digests():
    good, failed = {"digest": "d"}, None
    assert not run._enough([(False, good)], trace=False)
    assert not run._enough([(False, good), (False, failed)], trace=False)
    assert run._enough([(False, good), (False, good)], trace=False)
    assert not run._enough([(False, good), (False, good)], trace=True)
    assert run._enough([(False, good), (True, good)], trace=True)


def test_checkout_without_sources_fails_without_a_result(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path / "BENCHMARK.json")
    shutil.copytree(
        BENCH_DIR, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__")
    )
    proc = _run("study", trace=0, cwd=str(tmp_path))
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def test_calibration_samples_and_restores_the_alarm_handler():
    calibration = hostspeed.Calibration()
    calibration.start()
    try:
        deadline = time.perf_counter() + 4 * hostspeed.INTERVAL_S
        while time.perf_counter() < deadline:
            sum(range(1000))
    finally:
        calibration.stop()
    assert signal.getsignal(signal.SIGALRM) is signal.SIG_DFL
    assert len(calibration.samples) >= 2
    assert calibration.paused_s >= sum(calibration.samples) * 0.5
    assert calibration.factor() > 0
    assert len(calibration.samples) >= hostspeed.MIN_SAMPLES
