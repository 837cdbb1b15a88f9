#!/usr/bin/env python
"""Gate a run ledger on the paper's anchor values: CI's drift check.

Usage::

    python -m repro.cli run e2 e3 e4 ... --ledger runs/ledger.jsonl
    python tools/check_anchors.py runs/ledger.jsonl

Merges the ledger's run entries (latest recording of each metric wins;
perf entries sharing the file are ignored; format-1 and format-2 lines
both load) and judges every anchor in :data:`repro.telemetry.PAPER_ANCHORS` against
them.  Exit status 0 while every anchor passes or warns, 1 as soon as
one lands outside its fail band — or, with ``--require-all``, when any
anchor was never measured.  ``repro check-anchors`` is the interactive
twin that measures the anchor experiments fresh.

Needs the package importable (run with ``PYTHONPATH=src`` from the repo
root, or after ``pip install -e .``).
"""

from __future__ import annotations

import argparse
import pathlib
import sys


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="judge a run ledger against the paper's anchor values"
    )
    parser.add_argument(
        "ledger", type=pathlib.Path, help="JSONL run ledger to check"
    )
    parser.add_argument(
        "--require-all",
        action="store_true",
        help="treat anchors with no recorded metric as failures",
    )
    args = parser.parse_args(argv)

    from repro.telemetry import (
        Ledger,
        check_anchors,
        latest_scalars,
        render_verdicts,
        worst_status,
    )

    if not args.ledger.exists():
        print(f"error: no such ledger: {args.ledger}", file=sys.stderr)
        return 2
    entries = Ledger(args.ledger).entries(kind="run")
    if not entries:
        print(f"error: {args.ledger} holds no ledger entries", file=sys.stderr)
        return 2

    verdicts = check_anchors(latest_scalars(entries))
    print(f"anchors vs ledger {args.ledger} ({len(entries)} entries)")
    print(render_verdicts(verdicts))
    worst = worst_status(verdicts, missing_is_fail=args.require_all)
    print(f"worst status: {worst}")
    return 1 if worst == "fail" else 0


if __name__ == "__main__":
    sys.exit(main())
