"""Run one benchmark workload and print its metrics.

Usage, from the repository root::

    python3 perfbench/run.py --workload study --seed 42 --seconds 20 --trace 0

Each iteration runs in a fresh process (``child.py``), started again
and again until ``--seconds`` have passed, and at least twice, so that
every run compares digests. Every iteration checks its own output;
iterations at one seed must also agree on their output digest.

* ``--trace 0`` prints the end-to-end metrics: medians over the
  iterations, with ``setup_s`` also sampled by a few processes that
  stop at the timed region.
* ``--trace 1`` alternates untraced and traced iterations and prints
  the per-layer metrics of the traced ones, plus the tracing overhead.
  Traced and untraced digests must be equal.

Every time is scaled to a reference host speed that each iteration's
process measures while it runs (``hostspeed.py``); the median host
factor and raw ``wall_s`` are printed too. Each metric is printed on
its own line with its unit and sample count, after every iteration's
digest. The last line of standard output is one JSON object with the
keys ``correct``, ``attempted``, ``failed`` and ``metrics``. A run that
produced no usable iteration, or a checkout without the ``repro``
sources, exits non-zero without that line.
"""

from __future__ import annotations

import argparse
import collections
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from typing import Dict, List, Optional

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
CHILD = os.path.join(HERE, "child.py")
TMP_ROOT = os.path.join(ROOT, ".perfbench_tmp")

sys.path.insert(0, HERE)
import tracing  # noqa: E402
import workloads  # noqa: E402

#: end-to-end metric name → unit, in report order
END_TO_END: Dict[str, str] = {
    "setup_s": "s",
    "wall_s": "s",
    "actions_per_s": "rows/s",
    "replicas_per_min": "1/min",
    "peak_rss_mb": "MiB",
    "attribution_f1": "ratio",
}

#: extra processes per untraced run that stop at the timed region
SETUP_PROBES = 4
CHILD_TIMEOUT_S = 170
#: iterations after which a run stops even without enough good ones
MAX_TRIES = 4


def run_child(
    workload: str, seed: int, workdir: str, size: str, extra: List[str]
) -> Optional[dict]:
    """One fresh-process iteration; ``None`` when it fails.

    Its times are scaled to the reference host speed the process
    measured while it ran (``hostspeed.py``).
    """
    env = dict(os.environ)
    src = os.path.join(ROOT, "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    env.pop(tracing.SPAN_DIR_ENV, None)
    command = [
        sys.executable, CHILD, "--workload", workload, "--seed", str(seed),
        "--workdir", workdir, "--size", size, *extra,
    ]
    spawned = time.monotonic()
    try:
        proc = subprocess.run(
            command, cwd=ROOT, env=env, capture_output=True, text=True,
            timeout=CHILD_TIMEOUT_S,
        )
    except subprocess.TimeoutExpired:
        print(f"iteration timed out after {CHILD_TIMEOUT_S} s", file=sys.stderr)
        return None
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        print(f"iteration failed (exit {proc.returncode}):", file=sys.stderr)
        print(proc.stderr[-4000:], file=sys.stderr)
        return None
    try:
        record = json.loads(lines[-1])
    except json.JSONDecodeError:
        print(f"iteration printed no result: {lines[-1][:200]}", file=sys.stderr)
        return None
    scale = record["host_factor"]
    record["setup_s"] = (record["timed_start"] - spawned - record["setup_paused_s"]) * scale
    if "wall_s" in record:
        record["raw_wall_s"] = record["wall_s"]
        record["wall_s"] *= scale
    if "layers" in record:
        for name, value in record["layers"].items():
            if tracing.LAYER_METRICS[name] == "s":
                record["layers"][name] = value * scale
    return record


def _range(values: List[float]) -> str:
    if len(values) < 2:
        return ""
    return f", min={min(values):.6g}, max={max(values):.6g}"


def _enough(iterations: List[tuple], trace: bool) -> bool:
    """Whether the good iterations so far can be compared by digest.

    An untraced run needs two, a traced run one of each kind.
    """
    kinds = [traced for traced, rec in iterations if rec is not None]
    if trace:
        return set(kinds) == {False, True}
    return len(kinds) >= 2


def measure(args: argparse.Namespace, workdir: str) -> Optional[dict]:
    trace = bool(args.trace)
    iterations: List[tuple] = []  # (traced, record or None)
    started = time.monotonic()
    while True:
        traced = trace and len(iterations) % 2 == 1
        extra = []
        if traced:
            spans = tempfile.mkdtemp(prefix="spans-", dir=workdir)
            extra += ["--spans", spans]
        have_f1 = any(rec and rec.get("f1") is not None for _, rec in iterations)
        if not trace and not have_f1:
            extra.append("--f1")
        iterations.append(
            (traced, run_child(args.workload, args.seed, workdir, args.size, extra))
        )
        if not _enough(iterations, trace) and len(iterations) < MAX_TRIES:
            continue
        if time.monotonic() - started >= args.seconds:
            break

    probes: List[Optional[dict]] = []
    if not trace:
        for _ in range(SETUP_PROBES):
            probes.append(
                run_child(args.workload, args.seed, workdir, args.size, ["--setup-only"])
            )

    records = [rec for _, rec in iterations if rec is not None]
    digests = collections.Counter(rec["digest"] for rec in records)
    reference = digests.most_common(1)[0][0] if digests else None
    good = [
        (traced, rec)
        for traced, rec in iterations
        if rec is not None and rec["digest"] == reference and not rec["failed_checks"]
    ]
    attempted = len(iterations) + len(probes)
    failed = attempted - len(good) - sum(p is not None for p in probes)
    for index, (traced, rec) in enumerate(iterations):
        if rec is None:
            print(f"digest iter={index} traced={int(traced)} FAILED")
            continue
        mark = "" if rec["digest"] == reference else "  MISMATCH"
        print(f"digest iter={index} traced={int(traced)} sha256={rec['digest']}{mark}")
        for check in rec["failed_checks"]:
            print(f"check iter={index} FAILED: {check}")

    plain = [rec for traced, rec in good if not traced]
    if not plain:
        return None
    samples: Dict[str, List[float]] = {}
    if trace:
        layered = [rec["layers"] for traced, rec in good if traced]
        if not layered:
            return None
        for name in tracing.LAYER_METRICS:
            if name != "trace.overhead_frac":
                samples[name] = [layers[name] for layers in layered]
        traced_wall = statistics.median(rec["wall_s"] for t, rec in good if t)
        plain_wall = statistics.median(rec["wall_s"] for rec in plain)
        samples["trace.overhead_frac"] = [traced_wall / plain_wall - 1.0]
        units = tracing.LAYER_METRICS
    else:
        setups = [rec["setup_s"] for rec in plain] + [p["setup_s"] for p in probes if p]
        samples = {
            "setup_s": setups,
            "wall_s": [rec["wall_s"] for rec in plain],
            "actions_per_s": [rec["rows"] / rec["wall_s"] for rec in plain],
            "replicas_per_min": [60.0 * rec["replicas"] / rec["wall_s"] for rec in plain],
            "peak_rss_mb": [rec["peak_rss_mb"] for rec in plain],
            "attribution_f1": [rec["f1"] for rec in plain if rec["f1"] is not None],
        }
        if not samples["attribution_f1"]:
            return None
        units = END_TO_END

    factors = [rec["host_factor"] for rec in plain]
    print(
        f"host factor = {statistics.median(factors):.6g} (median, n={len(factors)}{_range(factors)}); "
        f"raw wall_s = {statistics.median(rec['raw_wall_s'] for rec in plain):.6g} s"
    )
    metrics = {}
    for name, unit in units.items():
        values = samples[name]
        value = statistics.median(values)
        metrics[name] = {"value": value, "unit": unit}
        print(f"metric {name} = {value:.6g} {unit} (median, n={len(values)}{_range(values)})")
    print(f"failed_frac = {failed / attempted:.6g} ({failed}/{attempted} runs)")
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--size", default="full", choices=sorted(workloads.SIZES),
        help="workload size (short: the few-second test version)",
    )
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(ROOT, "src", "repro", "__init__.py")):
        print(f"perfbench: no repro sources under {ROOT}/src", file=sys.stderr)
        return 2
    os.makedirs(TMP_ROOT, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix="run-", dir=TMP_ROOT)
    try:
        result = measure(args, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            os.rmdir(TMP_ROOT)
        except OSError:
            pass  # another run's directory is still there
    if result is None:
        print("perfbench: no iteration produced a checked result", file=sys.stderr)
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
