"""The read merge is exact: the tuple merge answers what the store merge did.

``_LwwMerge`` merges replica replies on their own wire tuples.  The
merge it replaced unwired every reply into a scratch ``VersionedStore``
and is kept verbatim as the oracle (``reference_merge.ReferenceMerge``).
Hypothesis feeds both the same replies — LWW, value-list and
unknown-mode rows, timestamp ties (``1``, ``1.0`` and ``True`` compare
equal but size differently), a source twice in one row, missing rows,
duplicate keys, and a late, stale laggard — and every output must match
down to its ``repr``: what a caller sends on the wire is sized from it.
"""

from hypothesis import given, settings, strategies as st

from repro.core.coordinator import _LwwMerge
from repro.net.transport import estimate_size
from tests.core.reference_merge import ReferenceMerge

KEYS = ("k0", "k1", "k2")
NAMES = ("r0", "r1", "r2", "r3")

_element = st.tuples(st.sampled_from(("a", "b", "c")),
                     st.sampled_from((1, 1.0, 2.0, True)),
                     st.sampled_from(("x", "y", 1, 1.0, True, None)))
_row = st.lists(_element, max_size=4)
_flag = st.sampled_from((None, True, False))


@st.composite
def _reply(draw, keys, single):
    """One replica's answer, in ``replica.read`` / ``replica.mread`` shape."""
    if single:
        reply = {"elements": draw(_row)}
        if draw(st.booleans()):
            reply["lww"] = draw(_flag)
        return reply
    present = draw(st.lists(st.sampled_from(keys), unique=True))
    reply = {"rows": {k: draw(_row) for k in present}}
    if draw(st.booleans()):
        reply["lww"] = {k: draw(_flag) for k in
                        draw(st.lists(st.sampled_from(keys), unique=True))}
    return reply


def _same(got, want):
    assert repr(got) == repr(want), f"\n got  {got!r}\n want {want!r}"
    assert estimate_size(got) == estimate_size(want)


@settings(max_examples=400, deadline=None)
@given(data=st.data())
def test_tuple_merge_equals_store_merge(data):
    single = data.draw(st.booleans(), label="single")
    keys = (["k0"] if single else
            data.draw(st.lists(st.sampled_from(KEYS), min_size=1,
                               max_size=4), label="keys"))
    names = data.draw(st.permutations(NAMES), label="arrival")
    names = names[:data.draw(st.integers(1, len(NAMES)))]
    replies = [(name, data.draw(_reply(keys, single), label=name))
               for name in names]
    late = data.draw(_reply(keys, single), label="late")

    merge, reference = _LwwMerge(keys, single), ReferenceMerge(keys, single)
    for name, reply in replies:
        merge.absorb(name, reply)
        reference.absorb(name, reply)
        assert merge.missing() == reference.missing()
    responders = merge.settle()
    assert responders == reference.settle()

    assert merge.latest == reference.latest   # tuples vs ValueElements
    for k, latest in merge.latest.items():
        if latest is not None:
            _same(tuple(latest), tuple(reference.latest[k]))
    _same(merge.wire, reference.wire)
    assert merge.agree == reference.agree
    _same(merge.repairs, reference.repairs)
    for name, rows in merge.repairs.items():
        _same(merge.repair_args(5, rows),
              reference.repair_args(5, reference.repairs[name]))
    _same(merge.lacking(late), reference.lacking(late))
    for k in keys:
        for mode in ("latest", "all"):
            _same(merge.result(k, mode, responders),
                  reference.result(k, mode, responders))


def test_replies_are_not_mutated():
    """Merged rows are the merge's own lists: a reply's rows, which a
    replica may still hold, come out as they went in."""
    row_a = [("a", 1.0, "x"), ("b", 2.0, "y")]
    row_b = [("a", 3.0, "z")]
    replies = [("r0", {"rows": {"k": row_a}, "lww": {"k": True}}),
               ("r1", {"rows": {"k": row_b}})]
    merge = _LwwMerge(["k"], single=False)
    for name, reply in replies:
        merge.absorb(name, reply)
    merge.settle()
    assert merge.wire == {"k": [("a", 3.0, "z")]}
    assert row_a == [("a", 1.0, "x"), ("b", 2.0, "y")]
    assert row_b == [("a", 3.0, "z")]
