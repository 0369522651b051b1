"""Per-layer tracing for the benchmark's traced runs.

The traced run wraps the public entry points of every layer with a
recorder that keeps one span per call in memory: the span's name, its
start and end (``time.perf_counter``), the span open when it started
(its parent), and one integer payload (rows appended, bytes written, or
a refused-action flag). Nothing is written while the workload runs:
each process dumps its spans to an ``.npz`` file when it is done, and
``child.py`` aggregates those files after the timed region.

A span's *self* time is its duration minus the durations of its direct
children, so ``organic.tick`` excludes the ``platform.like`` calls it
makes, and the layer self times of one process sum to the time spent
inside any wrapped call.

Wrappers are installed on class and module attributes before the
``Study`` is built: the timing wheel and the batch scopes capture bound
methods at construction, and a bound method resolves through the class
attribute at bind time. Each function is patched in every module that
looks it up by name (``restore_study`` is called through
``repro.fleet.runner`` as well as ``repro.fleet.snapshot``). Wrappers
change no behaviour: the traced run's output digests must equal the
untraced ones, which ``run.py`` checks.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import os
from array import array
from dataclasses import dataclass
from time import perf_counter
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

#: env var naming the directory fleet worker processes dump spans into
SPAN_DIR_ENV = "PERFBENCH_SPAN_DIR"

#: flag(args, kwargs, result, exc) -> int payload stored on the span
FlagFn = Callable[[tuple, dict, object, Optional[BaseException]], int]


@dataclass(frozen=True)
class Target:
    """One wrapped callable: ``module:Class.attr`` or ``module:function``.

    ``span`` is the span name. ``also`` lists further modules whose
    namespace holds the same function under the same name (imported
    with ``from ... import``), patched with the same wrapper.
    ``public_methods`` expands a bare class path to every public
    function defined on that class.
    """

    span: str
    module: str
    path: str
    also: Tuple[str, ...] = ()
    flag: Optional[str] = None
    public_methods: bool = False


def _rows_flag(args: tuple, kwargs: dict, result: object, exc: object) -> int:
    """Rows one log-append call wrote (``append_batch`` takes a row list)."""
    if exc is not None:
        return 0
    rows = kwargs.get("rows", args[1] if len(args) > 1 else None)
    return len(rows) if isinstance(rows, list) else 1


def _bytes_flag(args: tuple, kwargs: dict, result: object, exc: object) -> int:
    return len(result) if isinstance(result, (bytes, bytearray)) else 0


def _flags() -> Dict[str, FlagFn]:
    """Span payload functions by name (imports ``repro``, so built late)."""
    from repro.platform.errors import PlatformError
    from repro.platform.models import ActionStatus

    def refused(args: tuple, kwargs: dict, result: object, exc: object) -> int:
        """1 when a platform action raised a platform error or was BLOCKED."""
        if exc is not None:
            return 1 if isinstance(exc, PlatformError) else 0
        return 1 if getattr(result, "status", None) is ActionStatus.BLOCKED else 0

    return {"rows": _rows_flag, "refused": refused, "bytes": _bytes_flag}


_ACTIONS = ("like", "follow", "unfollow", "comment", "post")
_LOG_QUERIES = (
    "records_between",
    "by_actor_between",
    "by_target_between",
    "by_signature",
    "select",
    "daily_count",
)

#: every wrapped public entry point, grouped by layer (span prefix)
TARGETS: Tuple[Target, ...] = (
    Target("core.scheduler", "repro.core.scheduling", "TimingWheel.run_window"),
    Target("core.scheduler", "repro.core.scheduling", "TimingWheel.run_due"),
    Target("core.build", "repro.core.study", "Study.__init__"),
    Target(
        "core.report",
        "repro.core.experiments",
        "render_study_report",
        also=("repro.fleet.arms",),
    ),
    Target("behavior.population", "repro.behavior.population", "OrganicPopulation.generate"),
    Target("behavior.organic", "repro.behavior.organic", "OrganicActivityDriver.tick"),
    Target("aas.reciprocity", "repro.aas.reciprocity_service", "ReciprocityAbuseService.tick"),
    Target("aas.collusion", "repro.aas.collusion_service", "CollusionNetworkService.tick"),
    Target("aas.clientele", "repro.aas.clientele", "ClienteleDriver.tick"),
    Target("aas.clientele_seed", "repro.aas.clientele", "ClienteleDriver.seed_initial"),
    Target("aas.targeting", "repro.aas.targeting", "ReciprocityTargeting.select"),
    *(
        Target("platform.actions", "repro.platform.instagram", f"InstagramPlatform.{name}",
               flag="refused")
        for name in _ACTIONS
    ),
    Target("platform.accounts", "repro.platform.instagram", "InstagramPlatform.create_account"),
    Target("platform.log_append", "repro.platform.actions", "ActionLog.append", flag="rows"),
    Target("platform.log_append", "repro.platform.actions", "ActionLog.log_action", flag="rows"),
    Target("platform.log_append", "repro.platform.actions", "ActionLog.append_batch",
           flag="rows"),
    *(
        Target("platform.log_query", "repro.platform.actions", f"ActionLog.{name}")
        for name in _LOG_QUERIES
    ),
    Target("platform.graph", "repro.platform.graph", "FollowerGraph", public_methods=True),
    Target("platform.notifications", "repro.platform.notifications", "NotificationCenter.push"),
    Target(
        "platform.notifications", "repro.platform.notifications", "NotificationCenter.push_batch"
    ),
    Target("platform.notifications", "repro.platform.notifications", "NotificationCenter.drain"),
    Target(
        "platform.countermeasures", "repro.platform.countermeasures", "CountermeasureEngine.decide"
    ),
    Target("netsim.fabric", "repro.netsim.fabric", "NetworkFabric", public_methods=True),
    Target("honeypot.queries", "repro.honeypot.framework", "HoneypotFramework.inbound_actions"),
    Target("honeypot.queries", "repro.honeypot.framework", "HoneypotFramework.outbound_actions"),
    Target("honeypot.queries", "repro.honeypot.experiments", "ReciprocationExperiment.results"),
    Target("detection.sweep", "repro.detection.classifier", "AASClassifier.sweep"),
    Target("detection.attribute", "repro.detection.classifier", "AASClassifier.attribute"),
    Target(
        "interventions.calibrate", "repro.interventions.experiment",
        "InterventionController.calibrate",
    ),
    Target("interventions.policy", "repro.interventions.policy", "ThresholdBinPolicy.decide"),
    Target(
        "fleet.snapshot", "repro.fleet.snapshot", "snapshot_study",
        also=("repro.fleet.runner",), flag="bytes",
    ),
    Target("fleet.restore", "repro.fleet.snapshot", "restore_study", also=("repro.fleet.runner",)),
    Target("fleet.build", "repro.fleet.snapshot", "build_prefix", also=("repro.fleet.runner",)),
    Target("fleet.build", "repro.fleet.snapshot", "advance_prefix", also=("repro.fleet.runner",)),
    Target("fleet.store_get", "repro.fleet.store", "SnapshotStore.get"),
    Target("fleet.store_put", "repro.fleet.store", "SnapshotStore.put"),
    # replica continuations: resolved by name from the ARMS table
    *(
        Target("fleet.arm", "repro.fleet.arms", f"ARMS.{name}")
        for name in ("standard", "report", "narrow", "broad")
    ),
)


# ----------------------------------------------------------------------
# Recording
# ----------------------------------------------------------------------


class SpanRecorder:
    """In-memory span store: parallel typed arrays, one slot per call."""

    def __init__(self) -> None:
        self.names: List[str] = []
        self._ids: Dict[str, int] = {}
        self.name = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.flag = array("q")
        self._stack: List[int] = []
        self.active = False

    def name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def wrap(self, fn: Callable, span: str, flag: Optional[FlagFn] = None) -> Callable:
        nid = self.name_id(span)
        name_a, parent_a, start_a, end_a, flag_a = (
            self.name, self.parent, self.start, self.end, self.flag
        )
        stack = self._stack
        recorder = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not recorder.active:
                return fn(*args, **kwargs)
            idx = len(name_a)
            name_a.append(nid)
            parent_a.append(stack[-1] if stack else -1)
            end_a.append(0.0)
            flag_a.append(0)
            stack.append(idx)
            start_a.append(perf_counter())
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                end_a[idx] = perf_counter()
                stack.pop()
                if flag is not None:
                    flag_a[idx] = flag(args, kwargs, None, exc)
                raise
            end_a[idx] = perf_counter()
            stack.pop()
            if flag is not None:
                flag_a[idx] = flag(args, kwargs, result, None)
            return result

        return wrapper

    def arrays(self) -> dict:
        return {
            "name": np.frombuffer(self.name, dtype=np.int32).copy(),
            "parent": np.frombuffer(self.parent, dtype=np.int32).copy(),
            "start": np.frombuffer(self.start, dtype=np.float64).copy(),
            "end": np.frombuffer(self.end, dtype=np.float64).copy(),
            "flag": np.frombuffer(self.flag, dtype=np.int64).copy(),
        }

    def dump(self, path: str) -> None:
        """Write every span to ``path`` (``.npz``; names as JSON)."""
        np.savez(path, names=np.array(json.dumps(self.names)), **self.arrays())


def load_spans(path: str) -> Tuple[List[str], dict]:
    with np.load(path) as data:
        names = json.loads(str(data["names"]))
        arrays = {key: data[key] for key in ("name", "parent", "start", "end", "flag")}
    return names, arrays


# ----------------------------------------------------------------------
# Installing wrappers
# ----------------------------------------------------------------------


def _resolve_owner(module: str, path: str) -> Tuple[object, str]:
    """``(object holding the attribute, attribute name)`` for a path."""
    owner: object = importlib.import_module(module)
    parts = path.split(".")
    for part in parts[:-1]:
        owner = owner[part] if isinstance(owner, dict) else getattr(owner, part)
    return owner, parts[-1]


def _get(owner: object, attr: str) -> object:
    if isinstance(owner, dict):
        return owner[attr]
    if inspect.isclass(owner):
        return owner.__dict__[attr]
    return getattr(owner, attr)


def _set(owner: object, attr: str, value: object) -> None:
    if isinstance(owner, dict):
        owner[attr] = value
    else:
        setattr(owner, attr, value)


def expand_targets(targets: Sequence[Target] = TARGETS) -> List[Tuple[Target, str]]:
    """Every concrete ``(target, path)``, public-method classes expanded.

    Raises ``KeyError``/``AttributeError``/``ImportError`` when a target
    no longer resolves, so a rename fails loudly instead of reading 0.
    """
    out: List[Tuple[Target, str]] = []
    for target in targets:
        if not target.public_methods:
            value = _get(*_resolve_owner(target.module, target.path))
            if not (callable(value) or isinstance(value, classmethod)):
                raise TypeError(f"{target.module}:{target.path} is not callable")
            out.append((target, target.path))
            continue
        cls = getattr(importlib.import_module(target.module), target.path)
        methods = [
            name
            for name, value in vars(cls).items()
            if not name.startswith("_") and inspect.isfunction(value)
        ]
        if not methods:
            raise AttributeError(f"{target.module}:{target.path} has no public methods")
        out.extend((target, f"{target.path}.{name}") for name in sorted(methods))
    return out


def install(recorder: SpanRecorder, targets: Sequence[Target] = TARGETS) -> Callable[[], None]:
    """Wrap every target; returns a function that restores the originals."""
    undo: List[Tuple[object, str, object]] = []
    flags = _flags()
    for target, path in expand_targets(targets):
        owner, attr = _resolve_owner(target.module, path)
        original = _get(owner, attr)
        flag = flags[target.flag] if target.flag else None
        if isinstance(original, classmethod):
            wrapped: object = classmethod(recorder.wrap(original.__func__, target.span, flag))
        else:
            wrapped = recorder.wrap(original, target.span, flag)  # type: ignore[arg-type]
        _set(owner, attr, wrapped)
        undo.append((owner, attr, original))
        for module in target.also:
            namespace = importlib.import_module(module)
            if getattr(namespace, attr) is not original:
                raise AttributeError(f"{module}.{attr} is not {target.module}.{path}")
            _set(namespace, attr, wrapped)
            undo.append((namespace, attr, original))

    def restore() -> None:
        for owner, attr, original in reversed(undo):
            _set(owner, attr, original)

    return restore


def install_worker_recorder(span_dir: str) -> None:
    """Trace a fleet worker process; its spans are dumped at exit.

    Called from the spawn worker's import of the child script, before
    the worker unpickles its first task. ``multiprocessing`` runs the
    finalizer when the pool shuts the worker down, and the pool's
    shutdown joins the worker before ``FleetRunner.run`` returns.
    """
    from multiprocessing import util

    recorder = SpanRecorder()
    install(recorder)
    recorder.active = True
    path = os.path.join(span_dir, f"worker-{os.getpid()}.npz")
    util.Finalize(None, recorder.dump, args=(path,), exitpriority=10)


# ----------------------------------------------------------------------
# Aggregation
# ----------------------------------------------------------------------


@dataclass
class SpanTotals:
    """Per-span-name sums over one or more processes."""

    calls: Dict[str, int]
    self_s: Dict[str, float]
    incl_s: Dict[str, float]
    flag: Dict[str, int]
    #: Σ duration of root spans (no wrapped caller) inside the window
    root_s: float
    #: Σ duration of root ``fleet.*`` spans (replica/node work)
    fleet_root_s: float

    @classmethod
    def empty(cls) -> "SpanTotals":
        return cls({}, {}, {}, {}, 0.0, 0.0)

    def add(self, other: "SpanTotals") -> None:
        for mine, theirs in (
            (self.calls, other.calls),
            (self.self_s, other.self_s),
            (self.incl_s, other.incl_s),
            (self.flag, other.flag),
        ):
            for key, value in theirs.items():
                mine[key] = mine.get(key, 0) + value
        self.root_s += other.root_s
        self.fleet_root_s += other.fleet_root_s


def totals(
    names: List[str],
    arrays: dict,
    window: Optional[Tuple[float, float]] = None,
) -> SpanTotals:
    """Sum one process's spans by name.

    ``window`` bounds which root spans count toward ``root_s`` (the
    timed region); per-name sums cover every recorded span.
    """
    name, parent = arrays["name"], arrays["parent"]
    start, end, flag = arrays["start"], arrays["end"], arrays["flag"]
    duration = end - start
    has_parent = parent >= 0
    child_sum = np.bincount(
        parent[has_parent], weights=duration[has_parent], minlength=len(name)
    )
    self_time = duration - child_sum
    k = len(names)
    calls = np.bincount(name, minlength=k)
    self_by = np.bincount(name, weights=self_time, minlength=k)
    incl_by = np.bincount(name, weights=duration, minlength=k)
    flag_by = np.bincount(name, weights=flag, minlength=k)
    root = ~has_parent
    if window is not None:
        root &= (start >= window[0]) & (end <= window[1])
    fleet_ids = [i for i, n in enumerate(names) if n.startswith("fleet.")]
    fleet_root = root & np.isin(name, fleet_ids)
    result = SpanTotals.empty()
    for i, span in enumerate(names):
        if calls[i]:
            result.calls[span] = int(calls[i])
            result.self_s[span] = float(self_by[i])
            result.incl_s[span] = float(incl_by[i])
            result.flag[span] = int(flag_by[i])
    result.root_s = float(duration[root].sum())
    result.fleet_root_s = float(duration[fleet_root].sum())
    return result


#: per-layer metric → (unit, span total it reads, span name), in report
#: order. ``self_s`` excludes wrapped callees, ``incl_s`` does not;
#: entries without a span total are ratios ``layer_metrics`` derives.
_LAYER_SPECS: Dict[str, Tuple[str, str, str]] = {
    "core.scheduler.self_s": ("s", "self_s", "core.scheduler"),
    "core.build.self_s": ("s", "self_s", "core.build"),
    "core.report_s": ("s", "incl_s", "core.report"),
    "behavior.population.generate_s": ("s", "incl_s", "behavior.population"),
    "behavior.organic.calls": ("count", "calls", "behavior.organic"),
    "behavior.organic.self_s": ("s", "self_s", "behavior.organic"),
    "aas.reciprocity.self_s": ("s", "self_s", "aas.reciprocity"),
    "aas.collusion.self_s": ("s", "self_s", "aas.collusion"),
    "aas.clientele.self_s": ("s", "self_s", "aas.clientele"),
    "aas.targeting.calls": ("count", "calls", "aas.targeting"),
    "aas.targeting.self_s": ("s", "self_s", "aas.targeting"),
    "aas.clientele.seed_s": ("s", "incl_s", "aas.clientele_seed"),
    "platform.actions.calls": ("count", "calls", "platform.actions"),
    "platform.actions.self_s": ("s", "self_s", "platform.actions"),
    "platform.actions.refused_frac": ("ratio", "", ""),
    "platform.log.rows": ("rows", "flag", "platform.log_append"),
    "platform.log.append_s": ("s", "incl_s", "platform.log_append"),
    "platform.log.query_calls": ("count", "calls", "platform.log_query"),
    "platform.log.query_s": ("s", "incl_s", "platform.log_query"),
    "platform.graph.self_s": ("s", "self_s", "platform.graph"),
    "platform.notifications.self_s": ("s", "self_s", "platform.notifications"),
    "platform.countermeasures.calls": ("count", "calls", "platform.countermeasures"),
    "platform.countermeasures.self_s": ("s", "self_s", "platform.countermeasures"),
    "platform.accounts.create_s": ("s", "incl_s", "platform.accounts"),
    "netsim.fabric.self_s": ("s", "self_s", "netsim.fabric"),
    "honeypot.queries.self_s": ("s", "self_s", "honeypot.queries"),
    "detection.sweep.calls": ("count", "calls", "detection.sweep"),
    "detection.sweep.self_s": ("s", "self_s", "detection.sweep"),
    "detection.attribute.calls": ("count", "calls", "detection.attribute"),
    "interventions.calibrate_s": ("s", "incl_s", "interventions.calibrate"),
    "interventions.policy.calls": ("count", "calls", "interventions.policy"),
    "interventions.policy.self_s": ("s", "self_s", "interventions.policy"),
    "fleet.snapshot.bytes": ("bytes", "flag", "fleet.snapshot"),
    "fleet.snapshot_s": ("s", "incl_s", "fleet.snapshot"),
    "fleet.restores": ("count", "calls", "fleet.restore"),
    "fleet.restore_s": ("s", "incl_s", "fleet.restore"),
    "fleet.store.get_s": ("s", "incl_s", "fleet.store_get"),
    "fleet.store.put_s": ("s", "incl_s", "fleet.store_put"),
    "fleet.build_cost_avoided_frac": ("ratio", "", ""),
    "fleet.worker_busy_frac": ("ratio", "", ""),
    "trace.unattributed_frac": ("ratio", "", ""),
    "trace.overhead_frac": ("ratio", "", ""),
}

#: per-layer metric name → unit, in report order
LAYER_METRICS: Dict[str, str] = {name: spec[0] for name, spec in _LAYER_SPECS.items()}


def layer_metrics(
    t: SpanTotals,
    wall_s: float,
    lanes: int,
    build_cost_avoided_frac: float = 0.0,
) -> Dict[str, float]:
    """The per-layer metrics of one traced run (all but the overhead).

    ``lanes`` is how many processes ran the workload side by side (the
    fleet's worker count), so the unattributed and busy shares are of
    ``lanes × wall_s``.
    """
    sums = {"calls": t.calls, "self_s": t.self_s, "incl_s": t.incl_s, "flag": t.flag}
    out: Dict[str, float] = {
        name: sums[total].get(span, 0)
        for name, (_, total, span) in _LAYER_SPECS.items()
        if total
    }
    actions = t.calls.get("platform.actions", 0)
    capacity = lanes * wall_s
    out["platform.actions.refused_frac"] = (
        t.flag.get("platform.actions", 0) / actions if actions else 0.0
    )
    out["fleet.build_cost_avoided_frac"] = build_cost_avoided_frac
    out["fleet.worker_busy_frac"] = t.fleet_root_s / capacity
    out["trace.unattributed_frac"] = 1.0 - t.root_s / capacity
    return out
