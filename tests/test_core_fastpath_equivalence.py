"""The production study must be bit-identical to the naive oracle study.

Two studies share a seed. One is the production pipeline: timing
wheel, columnar stores, batched appends, memoized organic and collusion
loops, streaming attribution. The other runs with every reference
implementation from ``tests/oracles`` patched in (the naive per-agent
tick loop, the set-backed graph, the list-backed log, the naive organic
and collusion loops, an unattached classifier). Every observable — the
raw action log, attribution, analytics tables, intervention outcomes —
must match exactly. This is the determinism contract of DESIGN.md's
"Performance architecture" section.
"""

from __future__ import annotations

from dataclasses import replace

import pytest

from repro.core import Study, StudyConfig
from repro.core import experiments as E
from repro.core import reporting as R
from repro.core.study import InterventionOutcome
from repro.interventions.experiment import BroadInterventionPlan, NarrowInterventionPlan
from repro.platform.actions import ActionLog
from repro.platform.graph import FollowerGraph
from repro.platform.models import ActionStatus

from tests.oracles.actionlog import ListActionLog
from tests.oracles.graph import SetFollowerGraph
from tests.oracles.study import install_oracles


def _config(observability: bool = True) -> StudyConfig:
    return replace(
        StudyConfig.tiny(seed=314),
        honeypot_days=3,
        measurement_days=3,
        observability=observability,
    )


def _run_pipeline(config: StudyConfig) -> tuple[Study, tuple]:
    study = Study(config)
    results = study.run_honeypot_phase()
    study.learn_signatures()
    stability = study.verify_signal_stability(probe_days=1)
    dataset = study.run_measurement()
    broad = study.run_broad_intervention(
        BroadInterventionPlan(delay_days=1, block_days=1), calibration_days=2
    )
    return study, (results, stability, dataset, broad)


@pytest.fixture(scope="module")
def pair():
    """Keyed ``True`` for the production run, ``False`` for the oracle run."""
    studies = {}
    outcomes = {}
    studies[True], outcomes[True] = _run_pipeline(_config())
    with pytest.MonkeyPatch.context() as mp:
        install_oracles(mp)
        studies[False], outcomes[False] = _run_pipeline(_config())
    return studies, outcomes


@pytest.fixture(scope="module")
def dark(pair):
    """The production pipeline rerun with ``observability=False``."""
    study = Study(_config(observability=False))
    study.run_honeypot_phase()
    study.learn_signatures()
    study.verify_signal_stability(probe_days=1)
    study.run_measurement()
    broad = study.run_broad_intervention(
        BroadInterventionPlan(delay_days=1, block_days=1), calibration_days=2
    )
    return study, broad


def _log_rows(study: Study) -> list[tuple]:
    return [
        (
            r.action_id,
            r.tick,
            r.actor,
            r.action_type.value,
            r.target_account,
            r.status.value,
            r.endpoint.asn,
            r.endpoint.fingerprint.variant,
        )
        for r in study.platform.log
    ]


def test_action_logs_identical(pair) -> None:
    studies, _ = pair
    assert _log_rows(studies[True]) == _log_rows(studies[False])


def test_reciprocation_tables_identical(pair) -> None:
    _, outcomes = pair
    fast_table = R.render_table5(E.table5_reciprocation(outcomes[True][0]))
    naive_table = R.render_table5(E.table5_reciprocation(outcomes[False][0]))
    assert fast_table == naive_table


def test_signal_stability_identical(pair) -> None:
    _, outcomes = pair
    assert outcomes[True][1] == outcomes[False][1]


def test_signatures_identical(pair) -> None:
    studies, _ = pair
    fast = studies[True].classifier
    naive = studies[False].classifier
    assert fast is not None and naive is not None
    assert [
        (s.service, s.service_type, s.asns, s.client_variants) for s in fast.signatures
    ] == [(s.service, s.service_type, s.asns, s.client_variants) for s in naive.signatures]


def test_measurement_attribution_identical(pair) -> None:
    _, outcomes = pair
    fast_ds, naive_ds = outcomes[True][2], outcomes[False][2]
    assert (fast_ds.start_tick, fast_ds.end_tick) == (naive_ds.start_tick, naive_ds.end_tick)
    fast_ids = {k: [r.action_id for r in v.records] for k, v in fast_ds.attributed.items()}
    naive_ids = {k: [r.action_id for r in v.records] for k, v in naive_ds.attributed.items()}
    assert fast_ids == naive_ids
    assert fast_ds.service_asns == naive_ds.service_asns


def test_measurement_tables_identical(pair) -> None:
    _, outcomes = pair
    fast_ds, naive_ds = outcomes[True][2], outcomes[False][2]
    assert R.render_table6(E.table6_customers(fast_ds)) == R.render_table6(
        E.table6_customers(naive_ds)
    )
    assert R.render_table11(E.table11_action_mix(fast_ds)) == R.render_table11(
        E.table11_action_mix(naive_ds)
    )


def test_intervention_outcomes_identical(pair) -> None:
    _, outcomes = pair
    fast, naive = outcomes[True][3], outcomes[False][3]
    assert (fast.start_day, fast.end_day, fast.switch_day) == (
        naive.start_day,
        naive.end_day,
        naive.switch_day,
    )
    fast_ids = {k: [r.action_id for r in v.records] for k, v in fast.attributed.items()}
    naive_ids = {k: [r.action_id for r in v.records] for k, v in naive.attributed.items()}
    assert fast_ids == naive_ids


def test_wheel_parks_collusion_driver_after_expiry(pair) -> None:
    """The only idle-skipping agent actually parks once enrollments lapse."""
    studies, _ = pair
    study = studies[True]
    assert study._wheel is not None
    # by the end of the run every collusion-honeypot enrollment (trial
    # honeypot_days + 1) is long past, so the driver must be parked
    assert study._wheel.scheduled_tick("collusion-honeypots") is None
    # always-due agents stay scheduled for the next tick
    assert study._wheel.scheduled_tick("organic") == study.clock.now


def test_oracle_study_runs_the_reference_stores(pair) -> None:
    """The patch reached the naive run, and only the naive run."""
    studies, _ = pair
    naive, fast = studies[False], studies[True]
    assert isinstance(naive.platform.log, ListActionLog)
    assert isinstance(naive.platform.graph, SetFollowerGraph)
    assert naive.classifier is not None and naive.classifier.attached_log is None
    assert isinstance(fast.platform.log, ActionLog)
    assert isinstance(fast.platform.graph, FollowerGraph)
    assert fast.classifier is not None and fast.classifier.attached_log is fast.platform.log


# ----------------------------------------------------------------------
# Observability must be write-only: obs-off runs bit-identical, and both
# execution modes emit the same phase-span stream (tick stamps included).
# ----------------------------------------------------------------------


def _span_rows(study: Study) -> list[tuple]:
    return [
        (s.name, s.parent_id, s.depth, s.start_tick, s.end_tick, sorted(s.attrs.items()))
        for s in study.obs.tracer.finished
    ]


def test_obs_off_action_log_identical(pair, dark) -> None:
    studies, _ = pair
    dark_study, _ = dark
    assert dark_study.obs.enabled is False
    assert _log_rows(dark_study) == _log_rows(studies[True])


def test_obs_off_intervention_identical(pair, dark) -> None:
    _, outcomes = pair
    _, dark_broad = dark
    fast_broad = outcomes[True][3]
    dark_ids = {k: [r.action_id for r in v.records] for k, v in dark_broad.attributed.items()}
    fast_ids = {k: [r.action_id for r in v.records] for k, v in fast_broad.attributed.items()}
    assert dark_ids == fast_ids


def test_obs_off_collects_nothing(dark) -> None:
    dark_study, _ = dark
    assert dark_study.obs.metrics.snapshot()["metrics"] == []
    assert dark_study.obs.tracer.finished == ()


def test_span_streams_identical_across_modes(pair) -> None:
    studies, _ = pair
    assert _span_rows(studies[True]) == _span_rows(studies[False])
    assert _span_rows(studies[True])  # and they are not trivially empty


# ----------------------------------------------------------------------
# The cost profiler must be write-only too: profiler-on runs produce
# bit-identical payloads, and the only trace delta is the cost attrs.
# ----------------------------------------------------------------------


@pytest.fixture(scope="module")
def profiled(pair):
    """The production pipeline rerun with the cost profiler attached."""
    study = Study(replace(_config(), profile=True))
    study.run_honeypot_phase()
    study.learn_signatures()
    study.verify_signal_stability(probe_days=1)
    study.run_measurement()
    broad = study.run_broad_intervention(
        BroadInterventionPlan(delay_days=1, block_days=1), calibration_days=2
    )
    return study, broad


def test_profiler_on_action_log_identical(pair, profiled) -> None:
    studies, _ = pair
    profiled_study, _ = profiled
    assert profiled_study.obs.profiler is not None
    assert _log_rows(profiled_study) == _log_rows(studies[True])


def test_profiler_on_intervention_identical(pair, profiled) -> None:
    _, outcomes = pair
    _, prof_broad = profiled
    fast_broad = outcomes[True][3]
    prof_ids = {k: [r.action_id for r in v.records] for k, v in prof_broad.attributed.items()}
    fast_ids = {k: [r.action_id for r in v.records] for k, v in fast_broad.attributed.items()}
    assert prof_ids == fast_ids


def test_profiled_trace_is_plain_trace_plus_cost_attrs(pair, profiled) -> None:
    from repro.obs import canonical_lines, strip_cost_attrs

    studies, _ = pair
    profiled_study, _ = profiled
    plain = canonical_lines(studies[True].obs.trace_lines())
    prof = canonical_lines(profiled_study.obs.trace_lines())
    prof_spans = [line for line in prof if line.get("kind") == "span"]
    assert prof_spans and all(
        "cost_total" in line["attrs"] and "cost_self" in line["attrs"]
        for line in prof_spans
    )
    assert strip_cost_attrs(prof) == plain


def test_profiled_cost_tree_is_seed_deterministic(profiled) -> None:
    """Same seed, independent run -> byte-identical cost attrs."""
    from repro.obs import canonical_lines

    profiled_study, _ = profiled
    rerun = Study(replace(_config(), profile=True))
    rerun.run_honeypot_phase()
    rerun.learn_signatures()
    rerun.verify_signal_stability(probe_days=1)
    rerun.run_measurement()
    rerun.run_broad_intervention(
        BroadInterventionPlan(delay_days=1, block_days=1), calibration_days=2
    )
    assert canonical_lines(rerun.obs.trace_lines()) == canonical_lines(
        profiled_study.obs.trace_lines()
    )


# ----------------------------------------------------------------------
# The narrow design puts block, delay and control bins in one period:
# BLOCKED rows and delayed removals inside the production run's batch
# scopes must match the oracle run, which never opens a scope.
# ----------------------------------------------------------------------


def _run_narrow(config: StudyConfig) -> tuple[Study, InterventionOutcome]:
    study = Study(config)
    study.run_honeypot_phase()
    study.learn_signatures()
    study.run_measurement()
    narrow = study.run_narrow_intervention(
        NarrowInterventionPlan(duration_days=2), calibration_days=2
    )
    return study, narrow


@pytest.fixture(scope="module")
def narrow_pair():
    """Keyed ``True`` for the production run, ``False`` for the oracle run."""
    runs = {True: _run_narrow(_config())}
    with pytest.MonkeyPatch.context() as mp:
        install_oracles(mp)
        runs[False] = _run_narrow(_config())
    return runs


def _raw_rows(study: Study) -> list[tuple]:
    return [
        (
            r.action_id, r.tick, r.actor, r.action_type, r.target_account, r.target_media,
            r.status, r.removed_at, r.endpoint, r.api, r.comment_text,
        )
        for r in study.platform.log
    ]


def test_narrow_intervention_logs_identical(narrow_pair) -> None:
    fast, naive = narrow_pair[True][0], narrow_pair[False][0]
    rows = _raw_rows(fast)
    assert rows == _raw_rows(naive)
    statuses = {row[6] for row in rows}
    assert {ActionStatus.BLOCKED, ActionStatus.REMOVED} <= statuses
    fast_cm, naive_cm = fast.platform.countermeasures, naive.platform.countermeasures
    assert (fast_cm.blocked_count, fast_cm.delayed_removal_count) == (
        naive_cm.blocked_count, naive_cm.delayed_removal_count,
    )


def test_narrow_intervention_outcomes_identical(narrow_pair) -> None:
    fast, naive = narrow_pair[True][1], narrow_pair[False][1]
    assert (fast.start_day, fast.end_day, fast.switch_day, fast.assignment) == (
        naive.start_day, naive.end_day, naive.switch_day, naive.assignment,
    )
    assert fast.thresholds == naive.thresholds
    fast_ids = {k: [r.action_id for r in v.records] for k, v in fast.attributed.items()}
    naive_ids = {k: [r.action_id for r in v.records] for k, v in naive.attributed.items()}
    assert fast_ids == naive_ids
