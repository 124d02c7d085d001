"""Replay the seeded regression corpus (tier-1).

Every ``tests/chaos/regressions/*.json`` entry is one
:class:`~repro.chaos.spec.RunSpec` somebody once flagged — an explorer
cell with an invariant violation or a fitness regression, a pin on a
fixed bug, or a plain default-mix seed.  Each replay must hold every
invariant AND reproduce the recorded end-state digest byte-for-byte: a
digest drift here means the deterministic interleaving changed,
exactly the regression class the corpus exists to catch.

An entry with a ``"known_red"`` field is a recorded-but-unfixed
finding: its replay is a *strict* xfail, so it turns into a failure
the day a fix makes it pass (drop the field and re-record the digest
then).

Entries are auto-discovered; landing a new regression is just dropping
the explorer's JSON into the corpus directory (``python -m
repro.explore`` does it on promotion).
"""

from pathlib import Path

import pytest

from repro.chaos.spec import RunSpec
from repro.tools.explorer import (CORPUS_SCHEMA, load_corpus,
                                  replay_corpus_entry)

CORPUS_DIR = Path(__file__).resolve().parent / "regressions"

CORPUS = load_corpus(CORPUS_DIR)


def test_corpus_is_stocked():
    """The PR that lands the corpus ships at least three entries."""
    assert len(CORPUS) >= 3


def test_entries_well_formed():
    for path, entry in CORPUS:
        assert entry["schema"] == CORPUS_SCHEMA, path.name
        for field in ("name", "reason", "spec", "digest", "fitness"):
            assert field in entry, f"{path.name} missing {field!r}"
        spec = RunSpec.from_dict(entry["spec"])
        assert spec.to_dict() == entry["spec"], path.name


def _replay_param(path, entry):
    marks = [pytest.mark.xfail(strict=True, reason=entry["known_red"])] \
        if "known_red" in entry else []
    return pytest.param(path, entry, id=path.stem, marks=marks)


@pytest.mark.parametrize(
    "path,entry", [_replay_param(p, e) for p, e in CORPUS])
def test_replay_holds_invariants_and_digest(path, entry):
    report = replay_corpus_entry(entry)
    hard = [a for a in report.anomalies if not a.expected]
    assert report.ok, (
        f"{path.name}: replay violated invariants: "
        + "; ".join(str(a) for a in hard))
    if "known_red" in entry:
        # Its digest is the failing run's and any fix moves it; stop
        # here so the strict xfail flips on the invariants alone.
        return
    assert report.digest == entry["digest"], (
        f"{path.name}: end-state digest drifted — the recorded "
        f"interleaving no longer reproduces (recorded "
        f"{entry['digest'][:12]}…, got {report.digest[:12]}…)")
