"""The benchmark's workloads: what one measured iteration does.

Each workload splits one iteration into three parts, which
``child.py`` runs in a fresh process:

* ``setup(seed, workdir)`` — everything before the timed region: building the
  ``Study`` (``study``, ``intervene``) or expanding the sweep manifest
  and opening its snapshot store under ``workdir`` (``sweep``).
* ``run()`` — the timed region, ending with the rendered output.
* ``outputs(with_f1)`` — after the timed region: the output text whose
  digest is compared across runs, the action-log rows and replicas the
  run produced, ``attribution_f1`` when asked for, and the names of
  any failed output checks.

Only production defaults and public APIs are used: presets, the
``Study`` phase methods, ``render_study_report`` and the figure
renderers, the manifest expander and ``FleetRunner``. No
``fast_path``/``columnar``/``batching`` switch, no ``repro.bench``
scenario and no reference store is touched.

``SIZES["full"]`` is what ``run.py`` measures; ``SIZES["short"]`` is a
few-second version of the same code path for the benchmark's tests.
"""

from __future__ import annotations

import hashlib
import os
import shutil
import tempfile
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

#: lowest attribution F1 a run may report and still pass its checks
MIN_ATTRIBUTION_F1 = 0.9

#: measurement window of the sweep's ``standard`` arm
STANDARD_MEASUREMENT_DAYS = 1

SIZES: Dict[str, Dict[str, dict]] = {
    "full": {
        "study": {"preset": "small", "measurement_days": 7},
        "intervene": {
            "preset": "small",
            "measurement_days": 2,
            "narrow_days": 3,
            "washout_days": 1,
            "delay_days": 1,
            "block_days": 2,
        },
        "sweep": {"preset": "tiny", "population": 4000, "honeypot_days": 2, "max_workers": 2},
    },
    "short": {
        "study": {"preset": "tiny", "measurement_days": 2},
        "intervene": {
            "preset": "tiny",
            "measurement_days": 1,
            "narrow_days": 2,
            "washout_days": 1,
            "delay_days": 1,
            "block_days": 1,
        },
        "sweep": {"preset": "tiny", "population": 300, "honeypot_days": 1, "max_workers": 2},
    },
}


@dataclass
class Outputs:
    """What one iteration produced, gathered after the timed region."""

    text: str
    rows: int
    replicas: int
    f1: Optional[float] = None
    failed_checks: List[str] = field(default_factory=list)
    #: processes that ran the workload side by side
    lanes: int = 1
    build_cost_avoided_frac: float = 0.0

    @property
    def digest(self) -> str:
        return hashlib.sha256(self.text.encode("utf-8")).hexdigest()


def available_cpus() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # not Linux
        return os.cpu_count() or 1


def _preset(name: str, seed: int):
    from repro.core import StudyConfig

    return {"tiny": StudyConfig.tiny, "small": StudyConfig.small}[name](seed=seed)


def attribution_f1(study, windows: Sequence[Tuple[int, int]]) -> float:
    """Action-weighted F1 of the study's classifier over tick windows.

    Ground truth is each record's automation-stack variant, labelled
    from ``study.services`` the way the classifier reports services:
    franchises sharing a stack are one ``Insta*`` label. Each service's
    F1 is weighted by its true action count.
    """
    from repro.core.study import INSTA_STAR
    from repro.detection.evaluation import evaluate_classifier

    variant_map = {
        service.fingerprint.variant: INSTA_STAR if service.descriptor.stack_variant else name
        for name, service in study.services.items()
    }
    log = study.platform.log
    records = [record for lo, hi in windows for record in log.records_between(lo, hi)]
    reports = evaluate_classifier(study.classifier, records, variant_map)
    support = {name: r.true_positives + r.false_negatives for name, r in reports.items()}
    total = sum(support.values())
    if not total:
        return 0.0
    return sum(reports[name].f1 * weight for name, weight in support.items()) / total


def _check_f1(f1: Optional[float], failed: List[str]) -> None:
    if f1 is not None and not f1 >= MIN_ATTRIBUTION_F1:
        failed.append(f"attribution_f1 {f1:.4f} < {MIN_ATTRIBUTION_F1}")


class StudyWorkload:
    """``run-study``: honeypots, signatures, measurement window, report."""

    name = "study"
    #: whether the timed region runs in this process, not in workers
    in_process = True

    def __init__(self, size: dict):
        self.size = size

    def setup(self, seed: int, workdir: str) -> None:
        from repro.core import Study

        config = _preset(self.size["preset"], seed).with_measurement_days(
            self.size["measurement_days"]
        )
        self.study = Study(config)
        self.rows_before = len(self.study.platform.log)

    def _run_prefix(self) -> str:
        from repro.core import experiments as E

        study = self.study
        study.run_honeypot_phase()
        study.learn_signatures()
        self.dataset = study.run_measurement()
        return E.render_study_report(study, self.dataset)

    def run(self) -> None:
        self.text = self._run_prefix()

    def windows(self) -> List[Tuple[int, int]]:
        return [(self.dataset.start_tick, self.dataset.end_tick)]

    def checks(self) -> List[str]:
        failed = []
        for heading in ("Table 5", "Table 6", "Table 11"):
            if heading not in self.text:
                failed.append(f"report lacks {heading!r}")
        if not self.dataset.attributed:
            failed.append("measurement window attributed no service activity")
        return failed

    def outputs(self, with_f1: bool) -> Outputs:
        f1 = attribution_f1(self.study, self.windows()) if with_f1 else None
        failed = self.checks()
        _check_f1(f1, failed)
        return Outputs(
            text=self.text,
            rows=len(self.study.platform.log) - self.rows_before,
            replicas=1,
            f1=f1,
            failed_checks=failed,
        )

    def close(self) -> None:
        pass


class InterveneWorkload(StudyWorkload):
    """``run-interventions``: the study prefix, narrow, washout, broad."""

    name = "intervene"

    def run(self) -> None:
        from repro.core import experiments as E
        from repro.core import reporting as R
        from repro.core.study import INSTA_STAR
        from repro.interventions.experiment import (
            BroadInterventionPlan,
            NarrowInterventionPlan,
        )

        size = self.size
        report = self._run_prefix()
        study = self.study
        self.narrow = study.run_narrow_intervention(
            NarrowInterventionPlan(duration_days=size["narrow_days"]), calibration_days=5
        )
        study.run_days(size["washout_days"])
        self.broad = study.run_broad_intervention(
            BroadInterventionPlan(delay_days=size["delay_days"], block_days=size["block_days"]),
            calibration_days=5,
        )
        self.figures = [
            R.render_fig5(E.fig5_median_follows(self.narrow, service=INSTA_STAR)),
            R.render_fig6(E.fig6_hublaagram_likes(self.narrow)),
            R.render_fig7(E.fig7_broad_follows(self.broad, service=INSTA_STAR)),
        ]
        self.text = "\n\n".join([report, *self.figures])

    def windows(self) -> List[Tuple[int, int]]:
        return super().windows() + [
            (outcome.start_day * 24, outcome.end_day * 24) for outcome in (self.narrow, self.broad)
        ]

    def checks(self) -> List[str]:
        from repro.platform.models import ActionStatus

        failed = super().checks()
        for figure, label in zip(self.figures, ("Figure 5", "Figure 6", "Figure 7")):
            if not figure.startswith(label):
                failed.append(f"missing {label}")
        blocked = sum(
            record.status is ActionStatus.BLOCKED
            for activity in self.narrow.attributed.values()
            for record in activity.records
        )
        if not blocked:
            failed.append("narrow intervention blocked no attributed action")
        return failed


class SweepWorkload:
    """``sweep``: a two-seed manifest through ``FleetRunner`` (tree, cold store)."""

    name = "sweep"
    in_process = False

    def __init__(self, size: dict):
        self.size = size

    def manifest(self, seed: int) -> dict:
        size = self.size
        return {
            "name": "perfbench-sweep",
            "preset": size["preset"],
            "seeds": [seed, seed + 1],
            "populations": [size["population"]],
            "honeypot_days": [size["honeypot_days"]],
            "arms": [
                {"arm": "standard", "options": {"measurement_days": STANDARD_MEASUREMENT_DAYS}},
                {"arm": "narrow", "options": {"narrow_days": 1, "measurement_days": 0}},
            ],
        }

    def setup(self, seed: int, workdir: str) -> None:
        from repro.fleet import SnapshotStore, expand_manifest, parse_manifest

        self.specs = expand_manifest(parse_manifest(self.manifest(seed)))
        self.store_dir = tempfile.mkdtemp(prefix="sweep-store-", dir=workdir)
        self.store = SnapshotStore(self.store_dir)
        self.workers = min(self.size["max_workers"], available_cpus())

    def run(self) -> None:
        from repro.fleet import FleetRunner

        self.result = FleetRunner(workers=self.workers, store=self.store).run(self.specs)
        self.text = self.result.merged_payload_text()

    def _rows(self) -> int:
        """Action-log rows the replicas' studies hold, from their traces."""
        rows = 0
        for line in self.result.merged_trace_lines():
            if line.get("kind") != "snapshot":
                continue
            for metric in line["snapshot"]["metrics"]:
                if metric["name"] == "platform.actionlog.appends":
                    rows += metric["value"]
        return rows

    def _f1(self) -> float:
        """Attribution F1 over a measurement window of each seed.

        After the timed region, each signatures node the sweep stored is
        restored and runs the ``standard`` arm's window, which the
        classifier did not learn from; the lower of the seeds' F1 counts.
        """
        from repro.fleet import plan_tree, restore_study

        scores = []
        for key in dict.fromkeys(plan_tree(self.specs).leaf_keys):
            blob = self.store.get(key)
            if blob is None:
                return 0.0
            study = restore_study(blob)
            dataset = study.run_measurement(days_=STANDARD_MEASUREMENT_DAYS)
            scores.append(attribution_f1(study, [(dataset.start_tick, dataset.end_tick)]))
        return min(scores)

    def outputs(self, with_f1: bool) -> Outputs:
        from repro.fleet import plan_tree

        result = self.result
        failed = []
        if [r.name for r in result.replicas] != [s.name for s in self.specs]:
            failed.append("replica names differ from the manifest's specs")
        expected_builds = len(plan_tree(self.specs).nodes)
        if result.phase_builds != expected_builds:
            failed.append(f"cold store built {result.phase_builds} nodes, not {expected_builds}")
        if any(not r.payload for r in result.replicas):
            failed.append("a replica returned an empty payload")
        rows = self._rows()
        if rows <= 0:
            failed.append("replica traces report no action-log rows")
        f1 = self._f1() if with_f1 else None
        _check_f1(f1, failed)
        return Outputs(
            text=self.text,
            rows=rows,
            replicas=len(result.replicas),
            f1=f1,
            failed_checks=failed,
            lanes=self.workers,
            build_cost_avoided_frac=result.build_cost_avoided_frac,
        )

    def close(self) -> None:
        if hasattr(self, "store_dir"):
            shutil.rmtree(self.store_dir, ignore_errors=True)


WORKLOADS = {
    "study": StudyWorkload,
    "intervene": InterveneWorkload,
    "sweep": SweepWorkload,
}


def make(name: str, size: str = "full"):
    return WORKLOADS[name](SIZES[size][name])
