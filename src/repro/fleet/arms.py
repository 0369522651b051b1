"""Fleet arms: what one replica runs after its prefix is in place.

An *arm* is a named continuation — it receives a study already advanced
to the replica's prefix phase (world built, or signatures learned) and
drives the remaining pipeline, returning a JSON-able payload. Arms are
plain module-level functions so a spawn worker can resolve them by name
without pickling callables across the process boundary.

Payload rule: everything an arm returns must be JSON-serializable and a
pure function of the study's seeded state — no wall time, no process
identity — because the merged fleet payload is compared byte-for-byte
across worker counts.
"""

from __future__ import annotations

from typing import Callable, Dict

from repro.core import experiments as E
from repro.core import reporting as R
from repro.core.experiments import render_study_report
from repro.core.study import INSTA_STAR, MeasurementDataset, Study
from repro.interventions.experiment import BroadInterventionPlan, NarrowInterventionPlan
from repro.platform.models import ActionStatus

ArmFn = Callable[[Study, dict], dict]


def _int_option(options: dict, key: str, default: int) -> int:
    value = options.get(key, default)
    if not isinstance(value, int) or isinstance(value, bool):
        raise TypeError(f"arm option {key!r} must be an int, got {value!r}")
    return value


def _measure(study: Study, options: dict) -> MeasurementDataset:
    days = options.get("measurement_days")
    if days is not None and (not isinstance(days, int) or isinstance(days, bool)):
        raise TypeError(f"arm option 'measurement_days' must be an int, got {days!r}")
    return study.run_measurement(days_=days)


def _dataset_summary(dataset: MeasurementDataset) -> dict:
    services = {}
    for name in sorted(dataset.analytics):
        analytics = dataset.analytics[name]
        services[name] = {
            "total_customers": analytics.total_customers(),
            "long_term_customers": len(analytics.long_term_customers()),
            "attributed_actions": len(dataset.attributed[name].records),
        }
    return {
        "window_days": dataset.window_days,
        "start_day": dataset.start_day,
        "end_day": dataset.end_day,
        "services": services,
    }


def arm_standard(study: Study, options: dict) -> dict:
    """Measurement window only: per-service customer-base counts."""
    dataset = _measure(study, options)
    return _dataset_summary(dataset)


def arm_report(study: Study, options: dict) -> dict:
    """Measurement window + the full run-study report text.

    Uses the same section assembly as ``python -m repro run-study``, so
    a fleet replica's report is byte-identical to a serial run of the
    same config.
    """
    dataset = _measure(study, options)
    summary = _dataset_summary(dataset)
    summary["report"] = render_study_report(study, dataset)
    return summary


def _status_counts(attributed: dict) -> dict:
    blocked = 0
    removed = 0
    for activity in attributed.values():
        for record in activity.records:
            if record.status is ActionStatus.BLOCKED:
                blocked += 1
            elif record.status is ActionStatus.REMOVED:
                removed += 1
    return {"blocked_actions": blocked, "removed_actions": removed}


def _maybe_measure(study: Study, options: dict) -> MeasurementDataset | None:
    """Intervention arms treat ``measurement_days == 0`` as "skip":
    calibration draws on the honeypot-phase log, so a pre-intervention
    measurement window is optional context, not a prerequisite."""
    if options.get("measurement_days") == 0:
        return None
    return _measure(study, options)


def arm_narrow(study: Study, options: dict) -> dict:
    """Optional short measurement, then the Section 6.3 narrow intervention."""
    dataset = _maybe_measure(study, options)
    outcome = study.run_narrow_intervention(
        NarrowInterventionPlan(duration_days=_int_option(options, "narrow_days", 14)),
        calibration_days=_int_option(options, "calibration_days", 5),
    )
    payload = _dataset_summary(dataset) if dataset is not None else {}
    payload.update(_status_counts(outcome.attributed))
    payload["thresholds"] = len(outcome.thresholds)
    payload["fig5"] = R.render_fig5(E.fig5_median_follows(outcome, service=INSTA_STAR))
    return payload


def arm_broad(study: Study, options: dict) -> dict:
    """Optional short measurement, then the Section 6.4 broad intervention."""
    dataset = _maybe_measure(study, options)
    outcome = study.run_broad_intervention(
        BroadInterventionPlan(
            delay_days=_int_option(options, "delay_days", 6),
            block_days=_int_option(options, "block_days", 8),
        ),
        calibration_days=_int_option(options, "calibration_days", 5),
    )
    payload = _dataset_summary(dataset) if dataset is not None else {}
    payload.update(_status_counts(outcome.attributed))
    payload["fig7"] = R.render_fig7(E.fig7_broad_follows(outcome, service=INSTA_STAR))
    return payload


#: arm name → runner; workers resolve arms from this table by name
ARMS: Dict[str, ArmFn] = {
    "standard": arm_standard,
    "report": arm_report,
    "narrow": arm_narrow,
    "broad": arm_broad,
}


#: arm name → the options it reads, each with its smallest accepted
#: value; :func:`repro.fleet.manifest.parse_manifest` rejects any other
#: key, a non-int value or one below the bound. ``measurement_days`` may
#: be 0 only on the intervention arms, where 0 skips the window.
ARM_OPTIONS: Dict[str, Dict[str, int]] = {
    "standard": {"measurement_days": 1},
    "report": {"measurement_days": 1},
    "narrow": {"measurement_days": 0, "narrow_days": 1, "calibration_days": 1},
    "broad": {"measurement_days": 0, "delay_days": 0, "block_days": 1, "calibration_days": 1},
}


def resolve_arm(name: str) -> ArmFn:
    try:
        return ARMS[name]
    except KeyError:
        raise ValueError(f"unknown arm {name!r} (known: {sorted(ARMS)})") from None


__all__ = [
    "ARMS",
    "ARM_OPTIONS",
    "ArmFn",
    "arm_broad",
    "arm_narrow",
    "arm_report",
    "arm_standard",
    "resolve_arm",
]
