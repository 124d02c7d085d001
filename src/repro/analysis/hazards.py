"""Dynamic tie-hazard detection for the simulation kernel.

The kernel's total order is ``(time, priority, sequence)``.  The
``sequence`` tiebreaker makes every run reproducible, but it is an
*accident of scheduling order*, not a designed ordering: two events at
identical ``(time, priority)`` run in whichever order they were
scheduled.  When both touch the same state and at least one writes,
the observable outcome depends on that accident — refactor the
scheduling (add a cache, reorder a fan-out, batch a loop) and history
silently changes.  That class of bug forced PR 2's recovery
re-duplication fix; this module detects it instead.

How it works (opt-in; the plain kernel pays one ``is None`` check):

1. :class:`HazardDetector` attaches to a
   :class:`~repro.net.simulator.Simulator` as its ``tracer``.  The
   kernel reports every schedule (with the event whose callback window
   scheduled it) and every step.
2. The detector builds a **happens-before graph**: event ``A``
   happens-before ``B`` when ``B`` was scheduled during ``A``'s
   callback window (event-trigger edges), transitively.  Process
   resumes run *inside* the callback window of the event the process
   waited on, so process-resume edges are covered by the same parent
   relation — each event carries a vector-clock-style ancestor chain
   and concurrency is "neither is on the other's chain".
3. Components report **shared-state accesses** through
   :meth:`HazardDetector.on_access` (or the :meth:`track_store` /
   :meth:`tracked_dict` wrappers); each access is attributed to the
   event whose callback window is executing.
4. At the end of every same-``(time, priority)`` step group the
   detector cross-checks: two *concurrent* events of the group that
   touched the same state key, at least one writing, is a
   :class:`TieHazard` — reported with both event sites (where each
   event was scheduled from); accesses are attributed to their event's
   site unless ``capture_access_sites=True`` buys exact per-access
   ``file:line`` at extra per-access cost.

Determinism of the detector itself: given the same seed the kernel
pops the same events in the same order, so the hazard list is
byte-stable across runs — asserted by
``tests/analysis/test_hazard_detector.py``.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass
from typing import Any, Callable, Iterable, Optional

from ..net.simulator import Event, Process, Simulator

__all__ = ["TieHazard", "HazardDetector", "TrackedDict"]

#: Frames from these files are skipped when attributing a site.
_INTERNAL_FILES = ("simulator.py", "hazards.py")

#: code object -> (short path, is kernel/detector internal).  Site
#: capture runs on every schedule and access; a raw frame walk plus
#: this cache keeps it ~30x cheaper than ``traceback.extract_stack``
#: (which reads source lines for the whole stack).
_CODE_CACHE: dict[Any, tuple[str, bool]] = {}


def _shorten(code: Any) -> tuple[str, bool]:
    cached = _CODE_CACHE.get(code)
    if cached is None:
        normalized = code.co_filename.replace("\\", "/")
        base = normalized.rsplit("/", 1)[-1]
        cached = ("/".join(normalized.split("/")[-3:]),
                  base in _INTERNAL_FILES)
        _CODE_CACHE[code] = cached
    return cached


#: A site is captured raw as ``(code_object, f_lasti)`` and only
#: rendered to ``"path:line"`` when a hazard is actually reported.
#: Even reading ``frame.f_lineno`` is too expensive for the hot path
#: (CPython decodes the code object's line table on every access);
#: ``f_lasti`` is a plain struct field, and the bytecode offset maps
#: back to a line number lazily via ``code.co_lines()``.
_Site = Any  # tuple[code, int] raw, or str once formatted / from callers


def _raw_site(skip: int = 0) -> _Site:
    """``(code, f_lasti)`` of the innermost non-internal frame.

    ``skip`` hops over frames the caller knows are internal (a start
    hint only; the walk still verifies every frame it lands on).
    """
    frame = sys._getframe(1 + skip)
    get = _CODE_CACHE.get
    while frame is not None:
        code = frame.f_code
        cached = get(code)
        if cached is None:
            cached = _shorten(code)
        if not cached[1]:
            return (code, frame.f_lasti)
        frame = frame.f_back
    return "<unknown>"


def _fmt_site(site: _Site) -> str:
    if type(site) is tuple:
        code, lasti = site
        line = 0
        for start, end, lineno in code.co_lines():
            if lineno is not None and start <= lasti < end:
                line = lineno
                break
        return f"{_shorten(code)[0]}:{line}"
    return str(site)


@dataclass(frozen=True)
class TieHazard:
    """Two same-instant, causally-unordered events racing on state."""

    time: float
    priority: int
    state_key: str
    first_label: str
    first_site: str
    first_access: str
    second_label: str
    second_site: str
    second_access: str

    def render(self) -> str:
        return (f"tie hazard at t={self.time:g} (priority "
                f"{self.priority}) on {self.state_key!r}:\n"
                f"    {self.first_label} scheduled at "
                f"{self.first_site}, access {self.first_access}\n"
                f"    {self.second_label} scheduled at "
                f"{self.second_site}, access {self.second_access}")

    def key(self) -> tuple:
        """Dedup identity: the racing pair, independent of when."""
        return (self.state_key,
                self.first_site, self.first_access,
                self.second_site, self.second_access)


class _EventInfo:
    """Per-event tracer bookkeeping."""

    __slots__ = ("eid", "parent", "site", "label", "prio")

    def __init__(self, eid: int, parent: Optional["_EventInfo"],
                 site: _Site, label: str):
        self.eid = eid
        self.parent = parent
        self.site = site
        self.label = label
        self.prio: Optional[int] = None


#: One shared-state access: ``(event_info, state_key, write, site)``.
#: A plain tuple, not a class — accesses are the hot-path allocation.
_Access = tuple

#: Event class -> display label, for non-Process events (Process labels
#: carry the instance name and are formatted per event).
_TYPE_LABELS: dict[type, str] = {}


class HazardDetector:
    """Happens-before tie-hazard detector; attach with :meth:`attach`.

    Parameters
    ----------
    capture_sites:
        When True (default) every schedule records the scheduling
        frame (a cached raw-frame walk) — the useful-report mode.
        Turn off to measure raw graph overhead.
    capture_access_sites:
        When True every *access* records its own frame too.  Off by
        default: it doubles the hot-path frame walks, and an access
        without its own site is attributed to the scheduling site of
        the event it ran under, which is where the fix goes anyway.
    max_hazards:
        Stop recording new unique hazards past this count (the run
        continues; the counter keeps increasing).
    """

    def __init__(self, capture_sites: bool = True,
                 capture_access_sites: bool = False,
                 max_hazards: int = 200):
        self.capture_sites = capture_sites
        self.capture_access_sites = capture_access_sites
        self.max_hazards = max_hazards
        self.hazards: list[TieHazard] = []
        self.total_race_pairs = 0
        self.events_seen = 0
        self.accesses_seen = 0
        self._sim: Optional[Simulator] = None
        self._next_id = 0
        self._info: dict[int, _EventInfo] = {}  # id(event) -> info
        self._current: Optional[_EventInfo] = None
        # One group = every pop at the same simulated instant (ties of
        # different priority are deterministically ordered; the pair
        # check below requires equal priority).
        self._group_time: Optional[float] = None
        self._group: list[_Access] = []
        self._group_stepped: list[_EventInfo] = []
        self._seen_keys: set[tuple] = set()

    # -- attachment --------------------------------------------------------
    def attach(self, sim: Simulator) -> "HazardDetector":
        """Install on ``sim``; returns self for chaining."""
        if sim.tracer is not None:
            raise ValueError("simulator already has a tracer")
        sim.tracer = self
        self._sim = sim
        return self

    def detach(self) -> None:
        """Remove from the simulator and flush the last step group."""
        self.finish()
        if self._sim is not None and self._sim.tracer is self:
            self._sim.tracer = None
        self._sim = None

    # -- kernel hooks (called by Simulator) --------------------------------
    def on_schedule(self, event: Event, priority: int,
                    when: float) -> None:
        """One event entered the queue; runs inside ``_schedule``."""
        self._next_id += 1
        site: _Site = "?"
        if self.capture_sites:
            # Inlined _raw_site(1): start at _schedule's caller, then
            # verify each frame against the internal-file cache.
            frame = sys._getframe(2)
            get = _CODE_CACHE.get
            while frame is not None:
                code = frame.f_code
                cached = get(code)
                if cached is None:
                    cached = _shorten(code)
                if not cached[1]:
                    site = (code, frame.f_lasti)
                    break
                frame = frame.f_back
            else:
                site = "<unknown>"
        cls = event.__class__
        label = _TYPE_LABELS.get(cls)
        if label is None:
            if isinstance(event, Process):
                label = f"process {event.name!r}"
            else:
                label = cls.__name__
                _TYPE_LABELS[cls] = label
        self._info[id(event)] = _EventInfo(
            self._next_id, self._current, site, label)

    def on_step(self, event: Event, when: float, priority: int) -> None:
        """One event popped; runs at the top of ``step``."""
        self.events_seen += 1
        if when != self._group_time:
            if self._group:
                self._analyze_group()
            elif self._group_stepped:
                # Nothing tracked this instant: just sever the closed
                # group's ancestor chains (what _analyze_group's
                # cleanup would do) without the full-call detour.
                for info in self._group_stepped:
                    info.parent = None
                self._group_stepped.clear()
            self._group_time = when
        info = self._info.pop(id(event), None)
        if info is None:  # scheduled before attach
            self._next_id += 1
            info = _EventInfo(self._next_id, None, "<pre-attach>",
                              type(event).__name__)
        info.prio = priority
        self._current = info
        self._group_stepped.append(info)

    def on_step_done(self, event: Event) -> None:
        """Callback window of the stepped event closed."""
        self._current = None

    # -- state-access reporting --------------------------------------------
    def on_access(self, state_key: str, write: bool,
                  site: Optional[_Site] = None) -> None:
        """Record one shared-state access under the current event.

        With no explicit ``site`` (and ``capture_access_sites`` off)
        the access is attributed to the scheduling site of the event
        it ran under when a hazard is reported.
        """
        if self._current is None:
            return  # outside any callback window: cannot be a tie
        self.accesses_seen += 1
        if site is None and self.capture_access_sites:
            site = _raw_site()
        self._group.append((self._current, state_key, write, site))

    def finish(self) -> None:
        """Flush the trailing step group (call when the run ends)."""
        self._analyze_group()
        self._group_time = None

    # -- happens-before ----------------------------------------------------
    @staticmethod
    def _ordered(a: _EventInfo, b: _EventInfo) -> bool:
        """True when one event is on the other's ancestor chain."""
        for lo, hi in ((a, b), (b, a)):
            node: Optional[_EventInfo] = hi
            while node is not None and node.eid >= lo.eid:
                if node is lo:
                    return True
                node = node.parent
        return False

    def _analyze_group(self) -> None:
        group, self._group = self._group, []
        stepped, self._group_stepped = self._group_stepped, []
        when = self._group_time if self._group_time is not None else 0.0
        try:
            if len(group) < 2:
                return
            by_key: dict[str, list[_Access]] = {}
            for access in group:
                by_key.setdefault(access[1], []).append(access)
            for state_key, accesses in by_key.items():
                if not any(write for _, _, write, _ in accesses):
                    continue
                # One representative access per event (prefer writes).
                per_event: dict[int, _Access] = {}
                for access in accesses:
                    kept = per_event.get(access[0].eid)
                    if kept is None or (access[2] and not kept[2]):
                        per_event[access[0].eid] = access
                if len(per_event) < 2:
                    continue
                reps = [per_event[eid] for eid in sorted(per_event)]
                for i, first in enumerate(reps):
                    a_info, _, a_write, a_site = first
                    for second in reps[i + 1:]:
                        b_info, _, b_write, b_site = second
                        if not (a_write or b_write):
                            continue
                        if a_info.prio != b_info.prio:
                            continue  # priority orders them by design
                        if self._ordered(a_info, b_info):
                            continue
                        self.total_race_pairs += 1
                        # An access without its own site is attributed
                        # to its event's scheduling site.
                        a_at = a_site if a_site is not None else a_info.site
                        b_at = b_site if b_site is not None else b_info.site
                        hazard = TieHazard(
                            time=when,
                            priority=a_info.prio or 0,
                            state_key=state_key,
                            first_label=a_info.label,
                            first_site=_fmt_site(a_info.site),
                            first_access=("write" if a_write else "read")
                                         + f" at {_fmt_site(a_at)}",
                            second_label=b_info.label,
                            second_site=_fmt_site(b_info.site),
                            second_access=("write" if b_write else "read")
                                          + f" at {_fmt_site(b_at)}")
                        if (hazard.key() not in self._seen_keys
                                and len(self.hazards) < self.max_hazards):
                            self._seen_keys.add(hazard.key())
                            self.hazards.append(hazard)
        finally:
            # Sever the closed group's ancestor chains: a tie can only
            # relate events of one instant, and any ordering path
            # between them lies entirely inside that instant — without
            # this, a periodic process grows an unbounded chain.
            for info in stepped:
                info.parent = None

    # -- reporting ---------------------------------------------------------
    @property
    def ok(self) -> bool:
        return not self.hazards

    def report(self) -> str:
        """Human-readable hazard report."""
        lines = [f"hazard detector: {self.events_seen} events, "
                 f"{self.accesses_seen} tracked accesses, "
                 f"{self.total_race_pairs} race pair(s), "
                 f"{len(self.hazards)} unique hazard(s)"]
        lines.extend(h.render() for h in self.hazards)
        return "\n".join(lines)

    # -- instrumentation helpers -------------------------------------------
    def track_store(self, owner: str, store: Any) -> Any:
        """Wrap a :class:`VersionedStore`-shaped object's accessors.

        Reads (``read_all``/``read_latest``/``read_multi``) and writes
        (``write_latest``/``write_all``/``write_multi``/
        ``merge_elements``/``delete``) are reported per key under the
        state key ``"{owner}/{key}"``.  Wrapping is per *instance*, so
        a restarted node's fresh store must be re-tracked.
        """
        detector = self

        def wrap_keyed(method: Callable, write: bool) -> Callable:
            # State-key strings are cached per key and the group append
            # is inlined: keyed accessors are the hot path.
            key_cache: dict[str, str] = {}

            def wrapped(key: str, *args: Any, **kwargs: Any) -> Any:
                current = detector._current
                if current is not None:
                    detector.accesses_seen += 1
                    state_key = key_cache.get(key)
                    if state_key is None:
                        state_key = f"{owner}/{key}"
                        key_cache[key] = state_key
                    site = (_raw_site()
                            if detector.capture_access_sites else None)
                    detector._group.append((current, state_key, write,
                                            site))
                return method(key, *args, **kwargs)
            return wrapped

        def wrap_multi(method: Callable, write: bool,
                       key_of: Callable[[Any], str]) -> Callable:
            def wrapped(items: Iterable, *args: Any, **kwargs: Any) -> Any:
                items = list(items)
                site = (_raw_site()
                        if detector.capture_access_sites else None)
                for item in items:
                    detector.on_access(f"{owner}/{key_of(item)}", write,
                                       site=site)
                return method(items, *args, **kwargs)
            return wrapped

        for name in ("read_all", "read_latest"):
            if hasattr(store, name):
                setattr(store, name,
                        wrap_keyed(getattr(store, name), write=False))
        for name in ("write_latest", "write_all", "merge_elements",
                     "delete"):
            if hasattr(store, name):
                setattr(store, name,
                        wrap_keyed(getattr(store, name), write=True))
        if hasattr(store, "read_multi"):
            store.read_multi = wrap_multi(store.read_multi, False,
                                          lambda key: key)
        if hasattr(store, "write_multi"):
            store.write_multi = wrap_multi(store.write_multi, True,
                                           lambda entry: entry[0])
        return store

    def tracked_dict(self, name: str,
                     initial: Optional[dict] = None) -> "TrackedDict":
        """A dict whose item reads/writes report to this detector."""
        return TrackedDict(self, name, initial or {})


class TrackedDict(dict):
    """Shared-state dict reporting per-key accesses to a detector."""

    def __init__(self, detector: HazardDetector, name: str,
                 initial: dict):
        super().__init__(initial)
        self._detector = detector
        self._name = name
        self._key_cache: dict[Any, str] = {}

    def _report(self, key: Any, write: bool) -> None:
        # Inlined fast path of HazardDetector.on_access with a per-key
        # state-key cache: every dict touch lands here.
        detector = self._detector
        current = detector._current
        if current is None:
            return
        detector.accesses_seen += 1
        state_key = self._key_cache.get(key)
        if state_key is None:
            state_key = f"{self._name}[{key!r}]"
            self._key_cache[key] = state_key
        site = _raw_site() if detector.capture_access_sites else None
        detector._group.append((current, state_key, write, site))

    def __getitem__(self, key: Any) -> Any:
        self._report(key, write=False)
        return super().__getitem__(key)

    def get(self, key: Any, default: Any = None) -> Any:
        self._report(key, write=False)
        return super().get(key, default)

    def __setitem__(self, key: Any, value: Any) -> None:
        self._report(key, write=True)
        super().__setitem__(key, value)

    def __delitem__(self, key: Any) -> None:
        self._report(key, write=True)
        super().__delitem__(key)

    def pop(self, key: Any, *default: Any) -> Any:
        self._report(key, write=True)
        return super().pop(key, *default)

    def setdefault(self, key: Any, default: Any = None) -> Any:
        self._report(key, write=True)
        return super().setdefault(key, default)
