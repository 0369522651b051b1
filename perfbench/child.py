"""One measured iteration of one workload, in a fresh process.

``run.py`` starts this script once per iteration, so every iteration
pays its own imports and reports its own peak RSS. The last line of
standard output is one JSON object:

* ``timed_start`` — ``time.monotonic()`` at the start of the timed
  region; ``run.py`` subtracts the moment it started the process and
  ``setup_paused_s``, the time calibration samples took until then.
* ``host_factor`` — the multiplier from the host speed during this
  process to the reference speed (``hostspeed.py``); ``run.py`` scales
  every time of the iteration by it.
* ``wall_s``, ``rows``, ``replicas``, ``digest``, ``f1``,
  ``failed_checks`` — the timed region's length, calibration samples
  excluded when they paused it, and its outputs.
* ``peak_rss_mb`` — at the end of the timed region, the larger of this
  process's peak RSS and that of its largest waited-for child (the
  sweep's fleet workers).
* ``layers`` — with ``--spans DIR``: the per-layer metrics of this run,
  aggregated from the spans this process and its fleet workers wrote
  to ``DIR``.

With ``--setup-only`` the process stops at the timed region and
reports only the setup fields (extra ``setup_s`` samples).

Usage (from the repository root, ``PYTHONPATH=src``)::

    python perfbench/child.py --workload study --seed 42 --workdir DIR
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import sys
import time

import hostspeed
import tracing
import workloads

if __name__ == "__mp_main__":
    # a spawn-started fleet worker re-imports this script as
    # ``__mp_main__`` before it receives any task
    if os.environ.get(tracing.SPAN_DIR_ENV):
        tracing.install_worker_recorder(os.environ[tracing.SPAN_DIR_ENV])


def _peak_rss_mb() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0  # ru_maxrss is KiB on Linux


def _layer_metrics(span_dir, window, outputs):
    """Aggregate the spans every process of this iteration wrote."""
    total = tracing.SpanTotals.empty()
    for entry in sorted(os.listdir(span_dir)):
        names, arrays = tracing.load_spans(os.path.join(span_dir, entry))
        # only this process's root spans are bounded by the timed region;
        # fleet workers live inside it
        total.add(tracing.totals(names, arrays, window if entry.startswith("main-") else None))
    return tracing.layer_metrics(
        total,
        wall_s=window[1] - window[0],
        lanes=outputs.lanes,
        build_cost_avoided_frac=outputs.build_cost_avoided_frac,
    )


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--workdir", required=True, help="directory for temporary files")
    parser.add_argument("--size", default="full", choices=sorted(workloads.SIZES))
    parser.add_argument(
        "--spans", default="", help="record per-layer spans and write them to this directory"
    )
    parser.add_argument("--f1", action="store_true", help="compute attribution_f1")
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    workload = workloads.make(args.workload, args.size)
    recorder = None
    if args.spans:
        recorder = tracing.SpanRecorder()
        tracing.install(recorder)
        recorder.active = True
        os.makedirs(args.spans, exist_ok=True)
        os.environ[tracing.SPAN_DIR_ENV] = args.spans
    calibration = hostspeed.Calibration()
    calibration.start()
    try:
        workload.setup(args.seed, args.workdir)
        timed_start = time.monotonic()
        setup_paused_s = calibration.paused_s
        if args.setup_only:
            calibration.stop()
            print(json.dumps({
                "timed_start": timed_start,
                "setup_paused_s": setup_paused_s,
                "host_factor": calibration.factor(),
            }))
            return 0
        paused_s = calibration.paused_s
        start = time.perf_counter()
        workload.run()
        end = time.perf_counter()
        calibration.stop()
        # samples pause an in-process run; a fleet parent takes them
        # while it waits for its workers
        run_paused_s = calibration.paused_s - paused_s if workload.in_process else 0.0
        peak_rss_mb = _peak_rss_mb()  # before the output checks allocate
        if recorder is not None:
            recorder.active = False
        outputs = workload.outputs(with_f1=args.f1)
    finally:
        calibration.stop()
        workload.close()
    record = {
        "timed_start": timed_start,
        "setup_paused_s": setup_paused_s,
        "host_factor": calibration.factor(),
        "wall_s": end - start - run_paused_s,
        "rows": outputs.rows,
        "replicas": outputs.replicas,
        "digest": outputs.digest,
        "f1": outputs.f1,
        "failed_checks": outputs.failed_checks,
        "peak_rss_mb": peak_rss_mb,
    }
    if recorder is not None:
        recorder.dump(os.path.join(args.spans, f"main-{os.getpid()}.npz"))
        record["layers"] = _layer_metrics(args.spans, (start, end), outputs)
    print(json.dumps(record))
    return 0


if __name__ == "__main__":
    sys.exit(main())
