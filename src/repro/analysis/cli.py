"""``python -m repro.analysis`` — the self-hosted CI gate.

Exit codes: 0 = no unsuppressed findings, 1 = unsuppressed findings,
2 = usage error (argparse), including a path that is neither a ``.py``
file nor a directory.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import List, Optional

from repro.analysis.cache import DEFAULT_CACHE_NAME, ResultCache
from repro.analysis.engine import AnalysisReport, analyze_paths
from repro.analysis.rules import default_rules

_STATUS_TAGS = {"open": "", "suppressed": " [suppressed]"}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.analysis",
        description=(
            "Determinism / privacy-budget / numeric-safety static analyzer "
            "for this repository (see src/repro/analysis/README.md)."
        ),
    )
    parser.add_argument(
        "paths", nargs="*", type=Path, help="files or directories to analyze"
    )
    parser.add_argument(
        "--format",
        choices=("human", "json"),
        default="human",
        help="report format (default: human)",
    )
    parser.add_argument(
        "--cache",
        type=Path,
        default=None,
        help=f"result-cache file (default: ./{DEFAULT_CACHE_NAME})",
    )
    parser.add_argument(
        "--no-cache", action="store_true", help="disable the result cache"
    )
    parser.add_argument(
        "--jobs",
        type=int,
        default=1,
        metavar="N",
        help=(
            "run pass 2 (per-file rules) across N worker processes; "
            "findings are identical to a serial run (default: 1)"
        ),
    )
    parser.add_argument(
        "--list-rules", action="store_true", help="describe the rule set and exit"
    )
    return parser


def _print_human(report: AnalysisReport, stream) -> None:
    for finding in report.findings:
        tag = _STATUS_TAGS[finding.status]
        print(
            f"{finding.path}:{finding.line}:{finding.col}: "
            f"{finding.rule} {finding.message}{tag}",
            file=stream,
        )
        if finding.status == "suppressed" and finding.justification:
            print(f"    allowed: {finding.justification}", file=stream)
    counts = report.to_json_dict()["counts"]
    print(
        f"{report.files_scanned} files scanned: {counts['open']} open, "
        f"{counts['suppressed']} suppressed "
        f"(cache: {report.cache_hits} hits / {report.cache_misses} misses)",
        file=stream,
    )


def main(argv: Optional[List[str]] = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)

    if args.list_rules:
        for rule in default_rules():
            print(f"{rule.id}  [{rule.tier}] {rule.title}")
            print(f"       {rule.rationale}")
        return 0
    if not args.paths:
        parser.error("no paths given (try: python -m repro.analysis src tests)")

    if args.jobs < 1:
        parser.error("--jobs must be >= 1")

    cache = None
    if not args.no_cache:
        cache = ResultCache(args.cache or Path(DEFAULT_CACHE_NAME))

    try:
        report = analyze_paths(args.paths, cache=cache, jobs=args.jobs)
    except FileNotFoundError as error:
        parser.error(str(error))
    if cache is not None:
        cache.save()

    if args.format == "json":
        json.dump(report.to_json_dict(), sys.stdout, indent=2)
        print()
    else:
        _print_human(report, sys.stdout)
    return report.exit_code


if __name__ == "__main__":  # pragma: no cover - exercised via __main__
    raise SystemExit(main())
