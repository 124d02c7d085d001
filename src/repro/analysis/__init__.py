"""Determinism tooling for the simulation kernel.

Every result in this reproduction — the quorum safety argument
(R+W>N, W>N/2), the chaos invariants, the batch-throughput numbers —
rests on the simulation being *deterministic*: same seed, same
schedule, same history.  This package enforces that instead of hoping
for it:

* ``python -m repro.analysis`` — one static analyzer (stdlib ``ast``,
  no dependencies).  :mod:`~repro.analysis.index` parses the tree once;
  over it run eight per-file determinism rules
  (:mod:`~repro.analysis.lint`: no wall-clock reads, no unseeded
  randomness, no builtin-``hash`` ordering, no bare-``set`` iteration
  on fan-out paths, timeouts on every RPC, generator discipline for
  processes and callbacks, no swallow-everything excepts) and eight
  interprocedural protocol rules (:mod:`~repro.analysis.protocol`:
  RPC conformance, yield discipline, digest-purity taint).
  :func:`~repro.analysis.report.analyze` is the entry point.

* :mod:`repro.analysis.pytest_plugin` — runs that analysis at the
  start of every pytest session (tier-1 included), so a stray
  ``time.time()`` fails the build before it flakes a replay.

Which order same-instant events run in is not analysed here but run:
``RunSpec.tie_seed`` (``python -m repro.chaos --ties K``) replays a
seed under other tie orders (docs/protocols.md §13.2).

See docs/protocols.md §13 for the rule catalogue and the waiver
syntax (``# repro: allow[rule-id]``).
"""

from .index import Violation
from .report import Report, analyze

__all__ = ["Report", "Violation", "analyze"]
