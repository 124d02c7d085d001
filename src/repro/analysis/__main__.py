"""``python -m repro.analysis [PATH ...]``: the static analyzer's CLI.

Without paths it analyzes the repository in the working directory
(:func:`~repro.analysis.report.repo_roots`); with paths it rule-checks
exactly those files and directories and nothing else.  Exit status is
the number of findings neither waived nor baselined (capped at 125).
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import Optional, Sequence

from .protocol import render_method_table
from .report import DEFAULT_BASELINE, analyze, repo_roots, write_baseline


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.analysis",
        description="Determinism rules and interprocedural protocol "
                    "passes over one index (docs/protocols.md §13).")
    parser.add_argument("paths", nargs="*",
                        help="files or directories to rule-check "
                             "(default: the repository in the cwd)")
    parser.add_argument("--json", action="store_true",
                        help="emit findings as a JSON list")
    parser.add_argument("--baseline", default=DEFAULT_BASELINE,
                        metavar="FILE",
                        help="accepted findings, read when present "
                             "(default: %(default)s)")
    parser.add_argument("--write-baseline", action="store_true",
                        help="rewrite the baseline from current findings")
    parser.add_argument("--table", action="store_true",
                        help="print the generated wire-protocol table "
                             "and exit")
    parser.add_argument("--show-waived", action="store_true",
                        help="list waived and baselined findings too")
    args = parser.parse_args(argv)
    checked, call_sites = (args.paths, []) if args.paths \
        else repo_roots(Path("."))
    report = analyze(checked, call_sites, baseline=args.baseline)

    if args.table:
        print(render_method_table(report.protocol.method_table()))
        return 0
    if args.write_baseline:
        active = [v for v in report.violations if not v.waived]
        write_baseline(args.baseline, active)
        print(f"wrote {len(active)} finding(s) to {args.baseline}")
        return 0

    shown = report.violations if args.show_waived else report.new
    if args.json:
        print(json.dumps([v.__dict__ for v in shown], indent=2))
    else:
        for violation in shown:
            print(violation.render())
        print(report.summary())
    return min(len(report.new), 125)


if __name__ == "__main__":
    sys.exit(main())
