"""One analysis run: index once, run every pass, report every finding.

:func:`analyze` is the entry point the CLI (``python -m
repro.analysis``) and the pytest plugin share.  It parses each file
once into a :class:`~repro.analysis.index.ProjectIndex` and runs the
determinism rules (:mod:`repro.analysis.lint`) and the protocol passes
(:mod:`repro.analysis.protocol`) over it.  A finding fails the run
unless it is waived inline (``# repro: allow[rule-id]``) or listed in
the checked-in baseline, whose entries are keyed ``(rule, path,
message)`` -- deliberately line-number-free so pure code motion does
not churn it.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import List, Optional, Sequence, Set, Tuple, Union

from . import lint
from .index import ProjectIndex, Violation
from .protocol import ProtocolAnalyzer

__all__ = ["DEFAULT_BASELINE", "Report", "analyze", "repo_roots",
           "baseline_key", "load_baseline", "write_baseline"]

PathLike = Union[str, Path]
Key = Tuple[str, str, str]

DEFAULT_BASELINE = "tests/analysis/protocol_baseline.json"


def repo_roots(root: Path) -> Tuple[List[Path], List[Path]]:
    """``(rule-checked, call-site-only)`` roots of the repository at
    ``root``: the package source is checked; tests, benchmarks and
    examples count only for their call sites (a handler exercised only
    from a test is not dead)."""
    checked = [p for p in (root / "src" / "repro", root / "src")
               if p.is_dir()][:1] or [root]
    call_sites = [p for p in (root / "tests", root / "benchmarks",
                              root / "examples") if p.is_dir()]
    return checked, call_sites


@dataclass
class Report:
    """Every finding of one run, waived and baselined ones included."""

    violations: List[Violation]
    protocol: ProtocolAnalyzer     # its index, method table and wrappers
    baseline: Set[Key] = field(default_factory=set)

    @property
    def new(self) -> List[Violation]:
        """Findings neither waived inline nor baselined: these fail."""
        return [v for v in self.violations
                if not v.waived and baseline_key(v) not in self.baseline]

    def summary(self) -> str:
        waived = sum(v.waived for v in self.violations)
        new = len(self.new)
        return (f"{len(self.protocol.index.files)} file(s) indexed, "
                f"{new} new finding(s), "
                f"{len(self.violations) - waived - new} baselined, "
                f"{waived} waived")


def analyze(checked: Sequence[PathLike],
            call_sites: Sequence[PathLike] = (),
            baseline: Optional[PathLike] = None) -> Report:
    """Run every pass over ``checked`` (plus the call sites in
    ``call_sites``), reading ``baseline`` when that file exists."""
    index = ProjectIndex.build(checked, call_sites)
    protocol = ProtocolAnalyzer(index)
    violations = [*index.parse_errors, *lint.check(index), *protocol.run()]
    violations.sort(key=lambda v: (v.path, v.line, v.col, v.rule))
    known = load_baseline(baseline) \
        if baseline is not None and Path(baseline).is_file() else set()
    return Report(violations, protocol, known)


def baseline_key(violation: Violation) -> Key:
    """Line-number-free identity used for baseline matching."""
    return (violation.rule, _norm_path(violation.path), violation.message)


def _norm_path(path: str) -> str:
    p = Path(path)
    try:
        p = p.resolve().relative_to(Path.cwd().resolve())
    except ValueError:
        pass
    return p.as_posix()


def load_baseline(path: PathLike) -> Set[Key]:
    data = json.loads(Path(path).read_text(encoding="utf-8"))
    return {(f["rule"], f["path"], f["message"])
            for f in data.get("findings", [])}


def write_baseline(path: PathLike, violations: Sequence[Violation]) -> None:
    findings = [
        {"rule": rule, "path": norm, "message": message}
        for rule, norm, message in sorted(
            {baseline_key(v) for v in violations})
    ]
    Path(path).write_text(
        json.dumps({"version": 1, "findings": findings}, indent=2)
        + "\n", encoding="utf-8")
