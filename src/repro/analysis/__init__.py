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

* :mod:`repro.analysis.hazards` — an opt-in dynamic detector that
  instruments the :class:`~repro.net.simulator.Simulator`, builds a
  happens-before graph over event-trigger and process-resume edges,
  logs same-timestep shared-state accesses, and flags *tie hazards*:
  two events at identical ``(time, priority)`` whose relative order
  changes observable state.  Enabled with ``ChaosRunner(...,
  hazards=True)`` or ``python -m repro.chaos --hazards``.

See docs/protocols.md §13 for the rule catalogue and the waiver
syntax (``# repro: allow[rule-id]``).
"""

__all__ = ["Report", "Violation", "analyze", "HazardDetector", "TieHazard"]

_EXPORTS = {
    "Report": "report", "Violation": "index", "analyze": "report",
    "HazardDetector": "hazards", "TieHazard": "hazards",
}


def __getattr__(name: str):
    # Lazy so the chaos runner's hazard detector does not load the
    # static analyzer, nor the analyzer the simulator.
    module_name = _EXPORTS.get(name)
    if module_name is None:
        raise AttributeError(name)
    import importlib
    module = importlib.import_module(f".{module_name}", __name__)
    return getattr(module, name)
