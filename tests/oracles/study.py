"""The naive study: every oracle installed into one ``Study`` run.

:func:`install_oracles` patches, through a ``pytest.MonkeyPatch``:

* the platform's stores — the set-backed follower graph and the
  list-backed action log replace the columnar ones;
* ``Study.tick`` / ``Study.run_hours`` — the plain per-agent loop in
  the timing wheel's registration order, instead of the wheel (the
  wheel is still built, but never run);
* ``Study._set_classifier`` — the classifier is installed but never
  attached to the log, so every sweep is cold;
* the organic driver's inbox, response and background loops;
* the collusion services' source pool and order fulfilment.

Undo the patch before building a production study in the same process.
"""

from __future__ import annotations

import pytest

import repro.platform.instagram as instagram
from repro.aas.collusion_service import CollusionNetworkService
from repro.behavior.organic import OrganicActivityDriver
from repro.core.study import Study
from repro.detection.classifier import AASClassifier

from tests.oracles import collusion, organic
from tests.oracles.actionlog import ListActionLog
from tests.oracles.graph import SetFollowerGraph


def tick(study: Study) -> None:
    """One simulated hour: every agent, every tick, in wheel order."""
    for driver in study.clientele.values():
        driver.tick()
    study._drive_collusion_honeypots()
    for service in study.services.values():
        service.tick()
    study.organic.tick()
    study.clock.advance(1)


def run_hours(study: Study, hours: int) -> None:
    for _ in range(hours):
        study.tick()


def set_classifier(study: Study, classifier: AASClassifier) -> None:
    study.classifier = classifier


def install_oracles(mp: pytest.MonkeyPatch) -> None:
    mp.setattr(instagram, "FollowerGraph", SetFollowerGraph)
    mp.setattr(instagram, "ActionLog", ListActionLog)
    mp.setattr(Study, "tick", tick)
    mp.setattr(Study, "run_hours", run_hours)
    mp.setattr(Study, "_set_classifier", set_classifier)
    mp.setattr(OrganicActivityDriver, "_process_inbox", organic.process_inbox)
    mp.setattr(OrganicActivityDriver, "_execute_response", organic.execute_response)
    mp.setattr(OrganicActivityDriver, "_run_background", organic.run_background)
    mp.setattr(CollusionNetworkService, "_source_pool", collusion.source_pool)
    mp.setattr(CollusionNetworkService, "_fulfil_order", collusion.fulfil_order)
