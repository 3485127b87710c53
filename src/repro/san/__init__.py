"""repro.san — XPCSan, the runtime ownership/race sanitizer.

The static analyses in :mod:`repro.verify.flow` prove flow properties
over the *source*; XPCSan watches the same properties at *runtime*: the
§3.3 single-owner discipline says every touch of shared XPC state — a
relay segment's bytes, an :class:`~repro.aio.ring.XPCRing`'s SQ/CQ
indices, a thread's link-stack entries — happens while exactly one
simulated core owns the resource, with ownership moving only at the
sanctioned handoff points (``xcall``/``xret``/``swapseg``, the kernel's
``install/deactivate_relay_seg`` control plane, and ``run_thread``
dispatch).

The model is an epoch-based access log:

* every **handoff** on a resource opens a new *epoch* (and forgets the
  accesses of the old one — they were synchronized by the handoff);
* every instrumented **access** records ``(core, site, kind, cycle)``
  in the resource's current epoch;
* two accesses in the *same epoch* from *different cores*, at least one
  of them a write, are a conflict — unsynchronized sharing the handoff
  protocol cannot explain — reported as a :class:`SanIssue` carrying
  both access sites (file:line precise).

Like :mod:`repro.obs`, the sanitizer is a pure observer: installing a
session subscribes it to the ``handoff`` and ``access`` sites of
:mod:`repro.probe`, so disarmed sites cost one global truth test, and
even armed it never calls ``tick`` or mutates simulator state, so
XPCSan-on runs are cycle-identical to XPCSan-off (enforced in CI
exactly like obs).  Arm it per scope::

    import repro.san as san
    with san.active(san.SanSession()) as session:
        run_workload()
    assert not session.issues, san.format_issues(session.issues)

or environment-wide with ``REPRO_XPCSAN=1`` (the chaos suite, the
benchmark fixtures, and the proptest harness all honour it).
"""

from __future__ import annotations

import os
import sys
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

import repro.probe as probe

__all__ = [
    "ACTIVE", "SanAccess", "SanIssue", "SanSession", "active",
    "format_issues", "from_env", "install",
]

#: The installed session, or None.  Instrumented hot paths check this
#: before doing anything, so the disarmed cost is one global load.
ACTIVE: Optional["SanSession"] = None


@dataclass(frozen=True)
class SanAccess:
    """One instrumented touch of a tracked resource."""

    core_id: int
    site: str           # logical site, e.g. "aio.ring.push_sqe"
    kind: str           # "read" | "write"
    cycle: int
    location: str       # source file:line of the instrumented caller
    epoch: int

    def __str__(self) -> str:
        return (f"core{self.core_id} {self.kind} @ {self.site} "
                f"({self.location}, cycle {self.cycle}, "
                f"epoch {self.epoch})")


@dataclass(frozen=True)
class SanIssue:
    """Two conflicting unsynchronized accesses to one resource."""

    resource: str
    first: SanAccess
    second: SanAccess

    def describe(self) -> str:
        return (f"XPCSan: conflicting unsynchronized access to "
                f"{self.resource}: {self.first} vs {self.second} — no "
                f"ownership handoff (xcall/xret/swapseg/install/"
                f"run_thread) between them")


def _caller_location() -> str:
    """file:line of the instrumented site: the caller of
    :meth:`SanSession.access`, or of :func:`repro.probe.access`."""
    frame = sys._getframe(2)
    if frame.f_globals.get("__name__") == probe.__name__:
        frame = frame.f_back
    return f"{frame.f_code.co_filename}:{frame.f_lineno}"


@dataclass
class _Epoch:
    """The access log of one resource since its last handoff."""

    number: int = 0
    #: core_id -> (has_write, representative access).  One entry per
    #: core keeps the log O(cores), not O(accesses).
    by_core: Dict[int, Tuple[bool, SanAccess]] = field(default_factory=dict)
    last_handoff: str = "created"


def _identity(obj: object):
    """Physical identity of a tracked resource.

    Resources that expose ``pa_base`` (relay segments, and every
    :class:`~repro.aio.ring.XPCRing` *view* of one) are identified by
    their physical base address: an ``XPCRing.attach`` on a worker core
    is a new Python object but the *same* ring memory, and §3.3
    ownership is a property of the segment, not of any particular view
    of it.  Everything else (link stacks, cap tables) is identified by
    object id."""
    pa = getattr(obj, "pa_base", None)
    if pa is not None:
        return ("pa", pa)
    return ("id", id(obj))


class SanSession:
    """One run's worth of XPCSan state: access logs and found issues."""

    __snap_state__ = ("issues", "max_issues", "accesses", "handoffs",
                     "_epochs", "_labels", "_identity_keys", "_reported")

    def __init__(self, max_issues: int = 256) -> None:
        self.issues: List[SanIssue] = []
        self.max_issues = max_issues
        self.accesses = 0
        self.handoffs = 0
        self._epochs: Dict[tuple, _Epoch] = {}
        self._labels: Dict[tuple, str] = {}
        #: identity -> every (label, identity) key seen at that identity,
        #: so a segment handoff reaches the ring labels inside it.
        self._identity_keys: Dict[tuple, List[tuple]] = {}
        self._reported: set = set()

    def __deepcopy__(self, memo: dict) -> "SanSession":
        """Snapshot copy: keep the findings and counters, drop the
        per-resource logs.  Resource keys embed ``id(obj)`` of live
        simulator objects, which a deepcopy invalidates; forgetting an
        epoch is always sound (it only forgets *potential* conflicts,
        exactly like a handoff does) so a restored run re-learns its
        resources from scratch."""
        dup = SanSession(self.max_issues)
        memo[id(self)] = dup
        dup.issues = list(self.issues)      # SanAccess/SanIssue: frozen
        dup.accesses = self.accesses
        dup.handoffs = self.handoffs
        return dup

    def __snap_fingerprint__(self):
        """Only the deterministic totals: the epoch logs are id-keyed
        bookkeeping a restore legitimately resets."""
        return ("SanSession", self.accesses, self.handoffs,
                len(self.issues))

    # -- resource identity --------------------------------------------
    def _key(self, obj: object, label: str) -> tuple:
        ident = _identity(obj)
        key = (label, ident)
        if key not in self._labels:
            self._labels[key] = f"{label}#{len(self._labels)}"
            self._identity_keys.setdefault(ident, []).append(key)
        return key

    # -- the two instrumentation entry points --------------------------
    def handoff(self, obj: object, label: str, via: str) -> None:
        """An ownership transfer on *obj*: open a fresh epoch.

        Called at the protocol's sanctioned synchronization points; the
        old epoch's accesses are forgotten (they happened-before).  The
        new epoch opens for *every* label tracked at the resource's
        identity: handing a relay segment over synchronizes the ring
        indices laid out inside it too."""
        key = self._key(obj, label)
        for sibling in self._identity_keys[key[1]]:
            epoch = self._epochs.get(sibling)
            if epoch is None:
                epoch = self._epochs[sibling] = _Epoch()
            epoch.number += 1
            epoch.by_core.clear()
            epoch.last_handoff = via
        self.handoffs += 1

    def access(self, core, obj: object, label: str, site: str,
               kind: str = "write") -> None:
        """Record one touch of *obj* by *core* and check for conflicts."""
        key = self._key(obj, label)
        epoch = self._epochs.get(key)
        if epoch is None:
            epoch = self._epochs[key] = _Epoch()
        core_id = getattr(core, "core_id", -1)
        cycle = getattr(core, "cycles", 0)
        acc = SanAccess(core_id, site, kind, cycle,
                        _caller_location(), epoch.number)
        self.accesses += 1
        is_write = kind == "write"
        for other_id, (other_write, other_acc) in epoch.by_core.items():
            if other_id == core_id or not (is_write or other_write):
                continue
            tag = (key, epoch.number, frozenset((core_id, other_id)))
            if tag in self._reported:
                continue
            self._reported.add(tag)
            if len(self.issues) < self.max_issues:
                self.issues.append(
                    SanIssue(self._labels[key], other_acc, acc))
        prev = epoch.by_core.get(core_id)
        if prev is None or is_write or not prev[0]:
            epoch.by_core[core_id] = (is_write or
                                      (prev is not None and prev[0]), acc)

    # -- reporting ------------------------------------------------------
    def report(self) -> dict:
        """JSON-serializable summary (mirrors ``ObsSession.report``)."""
        return {
            "accesses": self.accesses,
            "handoffs": self.handoffs,
            "resources": len(self._epochs),
            "issues": [issue.describe() for issue in self.issues],
        }


def format_issues(issues: List[SanIssue]) -> str:
    if not issues:
        return "repro.san: no conflicting accesses observed"
    lines = [issue.describe() for issue in issues]
    lines.append(f"repro.san: {len(issues)} issue(s)")
    return "\n".join(lines)


def install(session: Optional[SanSession]) -> None:
    """Make *session* the installed one (None uninstalls): it becomes
    ``ACTIVE`` and the probe subscriber under the ``"san"`` key."""
    global ACTIVE
    ACTIVE = session
    if session is None:
        probe.unsubscribe("san")
    else:
        probe.subscribe("san", {"handoff": session.handoff,
                                "access": session.access})


@contextmanager
def active(session: SanSession):
    """Install *session* for the duration of the block (restoring the
    previous session, so nested scopes compose)."""
    prev = ACTIVE
    install(session)
    try:
        yield session
    finally:
        install(prev)


def from_env() -> Optional[SanSession]:
    """A fresh session when ``REPRO_XPCSAN=1`` is set, else None."""
    if os.environ.get("REPRO_XPCSAN") == "1":
        return SanSession()
    return None
