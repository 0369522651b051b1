"""``python -m repro.bench`` — run scenarios, write/validate BENCH JSON.

Exit codes: 0 success, 1 validation failure, 2 usage error.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import Sequence

from repro.bench.scenarios import SCENARIOS, bench_file_name
from repro.bench.schema import validate_payload
from repro.core.config import resolve_workers
from repro.obs.history import HISTORY_FILE_NAME, append_history, history_record


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.bench",
        description=(
            "perf harness: times attribution sweeps and fleet/sweep reuse; "
            "writes one schema-versioned BENCH_<NAME>.json per scenario"
        ),
    )
    parser.add_argument(
        "--smoke",
        action="store_true",
        help="CI-friendly mode: shrunk scales and repetitions, same code paths",
    )
    parser.add_argument(
        "--only",
        metavar="NAMES",
        help=f"comma-separated scenario subset (of: {', '.join(SCENARIOS)})",
    )
    parser.add_argument(
        "--workers",
        type=int,
        default=None,
        metavar="N",
        help=(
            "worker processes for the fleet scenario's pooled case "
            "(default: REPRO_WORKERS or 4); merged fleet output is "
            "byte-identical for any value"
        ),
    )
    parser.add_argument(
        "--out-dir",
        default=".",
        help="directory for BENCH_*.json files (default: current directory)",
    )
    parser.add_argument(
        "--no-history",
        action="store_true",
        help=(
            f"do not append this run to {HISTORY_FILE_NAME} in the output "
            "directory (appending is the default so the perf trajectory "
            "survives across PRs; `python -m repro.obs regress` consumes it)"
        ),
    )
    parser.add_argument(
        "--validate",
        nargs="+",
        metavar="FILE",
        help="validate existing BENCH JSON files against the schema and exit",
    )
    parser.add_argument(
        "--list",
        action="store_true",
        dest="list_scenarios",
        help="print scenario names and exit",
    )
    return parser


def _validate_files(paths: Sequence[str]) -> int:
    failures = 0
    for raw in paths:
        path = Path(raw)
        try:
            payload = json.loads(path.read_text(encoding="utf-8"))
        except (OSError, json.JSONDecodeError) as exc:
            print(f"{path}: unreadable ({exc})", file=sys.stderr)
            failures += 1
            continue
        errors = validate_payload(payload)
        if errors:
            failures += 1
            for error in errors:
                print(f"{path}: {error}", file=sys.stderr)
        else:
            print(f"{path}: ok")
    return 1 if failures else 0


def main(argv: Sequence[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)

    if args.list_scenarios:
        for name in SCENARIOS:
            print(name)
        return 0

    if args.validate:
        return _validate_files(args.validate)

    selected = list(SCENARIOS)
    if args.only:
        selected = [part.strip() for part in args.only.split(",") if part.strip()]
        unknown = [name for name in selected if name not in SCENARIOS]
        if unknown:
            parser.error(
                f"unknown scenario(s): {', '.join(unknown)} (known: {', '.join(SCENARIOS)})"
            )

    try:
        # the fleet scenario's pooled case defaults to a real pool
        workers = resolve_workers(args.workers, default=4)
    except ValueError as exc:
        parser.error(str(exc))

    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    for name in selected:
        payload = SCENARIOS[name](args.smoke, workers=workers)
        errors = validate_payload(payload)
        if errors:  # a scenario bug, not a user error — fail loudly
            for error in errors:
                print(f"{name}: schema violation: {error}", file=sys.stderr)
            return 1
        path = out_dir / bench_file_name(payload["benchmark"])
        path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n", encoding="utf-8")
        print(f"wrote {path}")
        if not args.no_history:
            record = history_record(payload, source_dir=out_dir)
            history_path = append_history(out_dir / HISTORY_FILE_NAME, record)
            print(f"appended {history_path}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
