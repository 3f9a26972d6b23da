#!/usr/bin/env python3
"""Maintain and query the append-only perf ledger (PERF_LEDGER.jsonl).

Thin CLI over :mod:`repro.analysis.perf` — the same operations the
``repro perf {record,show,check}`` subcommands expose, usable without
an installed package (CI invokes this file directly).

Subcommands:

* ``record BENCH [--profile P]`` — validate one bench output
  (schema 2 envelope) and append its per-case metrics as one
  ledger entry.  With no BENCH arguments, ingests every committed
  ``BENCH_*.json`` whose profile is known (the seeding path).
* ``show`` — the per-profile history with geometric-mean headlines.
* ``check --candidate PROFILE=PATH ...`` — the unified regression
  gate: each candidate is compared case-by-case against the latest
  ledger entry of its profile (default tolerance 30%, same semantics
  as the retired per-file baseline checks).

Usage:
    python scripts/perf_ledger.py record BENCH_engine.json
    python scripts/perf_ledger.py show
    python scripts/perf_ledger.py check --candidate engine=/tmp/b.json
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "src"))

from repro.analysis.perf import (  # noqa: E402
    DEFAULT_LEDGER,
    PROFILES,
    PerfError,
    check,
    record,
    show,
)


def _parse_candidates(pairs) -> dict:
    candidates = {}
    for pair in pairs:
        profile, sep, path = pair.partition("=")
        if not sep or not path:
            raise SystemExit(
                f"--candidate wants PROFILE=PATH, got {pair!r}"
            )
        candidates[profile] = Path(path)
    return candidates


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--ledger", type=Path, default=REPO_ROOT / DEFAULT_LEDGER,
        help="ledger path (default: %(default)s)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_rec = sub.add_parser("record", help="append bench runs to the ledger")
    p_rec.add_argument(
        "benches", nargs="*", type=Path,
        help="bench JSON files (default: every committed BENCH_*.json)",
    )
    p_rec.add_argument(
        "--profile", choices=sorted(PROFILES), default=None,
        help="expected profile; a file declaring another is an error",
    )

    sub.add_parser("show", help="print the per-profile history")

    p_chk = sub.add_parser("check", help="unified regression gate")
    p_chk.add_argument(
        "--candidate", action="append", default=[], metavar="PROFILE=PATH",
        help="fresh bench output to gate (repeatable)",
    )
    p_chk.add_argument(
        "--max-regression", type=float, default=0.30,
        help="tolerated fractional metric drop (default 0.30)",
    )

    args = parser.parse_args(argv)

    if args.command == "record":
        benches = args.benches
        if not benches:
            benches = [
                REPO_ROOT / prof["baseline"]
                for prof in PROFILES.values()
                if (REPO_ROOT / prof["baseline"]).exists()
            ]
            if not benches:
                print("error: no BENCH_*.json files found",
                      file=sys.stderr)
                return 1
        for bench in benches:
            try:
                entry = record(bench, args.ledger, profile=args.profile)
            except PerfError as exc:
                print(f"error: {exc}", file=sys.stderr)
                return 1
            print(
                f"recorded [{entry['profile']}] {bench} "
                f"({len(entry['cases'])} cases) -> {args.ledger}"
            )
        return 0

    if args.command == "show":
        try:
            show(args.ledger)
        except PerfError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 1
        return 0

    # check
    candidates = _parse_candidates(args.candidate)
    if not candidates:
        print("error: check wants at least one --candidate PROFILE=PATH",
              file=sys.stderr)
        return 1
    errors = check(
        candidates, args.ledger, max_regression=args.max_regression
    )
    if errors:
        for e in errors:
            print(f"error: {e}", file=sys.stderr)
        return 1
    print(
        f"{len(candidates)} profile(s) within tolerance of the ledger"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
