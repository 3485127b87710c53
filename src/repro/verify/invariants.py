"""The XPC protocol invariants: one catalogue, checked everywhere.

Each invariant is a pure function over the live world (machine, kernel,
threads, segments).  :func:`check_protocol` is the **catalogue** of
every kernel-world property — single-owner relay-segs (§3.3/§6.1),
revoked segments unmapped (§4.4), dead processes' x-entries invalid
(§4.2), link stacks within their SRAM bound (§4.1) — each written once
and run by every caller: the model checker after every event, the
fuzz harness after every op, the chaos suite and time travel (as
:func:`repro.verify.live.check_recovery_invariants`), and the ring
check (through :func:`single_owner`).

The model checker adds what only its *shadow model* (state re-derived
from the event sequence alone) can decide: **link-stack LIFO** (§3.2,
:func:`check_lifo`), **seg-mask monotonic shrink** (§3.3/§4.4,
:func:`check_shrink`) and **xcall-cap gating** (§3.2,
:func:`check_cap_gate`); the last two are transition predicates.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple


@dataclass(frozen=True)
class InvariantViolation:
    """One broken invariant, found after one event."""

    invariant: str
    message: str

    def __str__(self) -> str:
        return f"[{self.invariant}] {self.message}"


def window_tuple(seg_reg) -> Optional[Tuple[int, int, int]]:
    """Canonical (seg_id, offset, length) of a seg-reg window."""
    if seg_reg is None or not seg_reg.valid:
        return None
    seg = seg_reg.segment
    return (seg.seg_id, seg_reg.va_base - seg.va_base, seg_reg.length)


def window_within(inner, outer) -> bool:
    """Is window *inner* contained in window *outer* (same segment)?"""
    if inner is None:
        return True
    if outer is None:
        return False
    iseg, ioff, ilen = inner
    oseg, ooff, olen = outer
    return (iseg == oseg and ioff >= ooff
            and ioff + ilen <= ooff + olen)


# ----------------------------------------------------------------------
# The protocol catalogue (global state predicates)
# ----------------------------------------------------------------------
def single_owner(seg, holders) -> List[InvariantViolation]:
    """§3.3/§6.1, strict: a windowed segment has exactly one holder
    and ``active_owner`` is that holder — ``None`` too is a violation,
    since ``free_relay_seg`` frees any segment whose owner is ``None``.
    """
    if len(holders) > 1:
        names = ", ".join(t.name for t in holders)
        return [InvariantViolation(
            "single-owner",
            f"relay segment {seg.seg_id} is the active seg-reg window "
            f"of {len(holders)} threads at once ({names}) — TOCTTOU "
            f"ownership violated")]
    if seg.active_owner is not holders[0]:
        return [InvariantViolation(
            "single-owner",
            f"relay segment {seg.seg_id} is windowed by "
            f"{holders[0].name} but active_owner records "
            f"{getattr(seg.active_owner, 'name', seg.active_owner)!r}")]
    return []


def check_protocol(kernel) -> List[InvariantViolation]:
    """The catalogue: one pass over the threads, one over the
    processes.  Reads Python state only — never ticks or announces."""
    violations: List[InvariantViolation] = []
    holders: Dict[object, list] = {}
    for thread in kernel.threads:
        xpc = thread.xpc
        window = xpc.seg_reg
        if window.length > 0:
            holders.setdefault(window.segment, []).append(thread)
        stack = xpc.link_stack
        if stack.live_depth > stack.capacity:
            violations.append(InvariantViolation(
                "link-stack-bound",
                f"{thread} link stack holds {stack.live_depth} SRAM "
                f"records over capacity {stack.capacity}"))
    for seg, threads in holders.items():
        violations += single_owner(seg, threads)
        if seg.revoked:
            violations.append(InvariantViolation(
                "revoked-unmapped",
                f"revoked segment {seg.seg_id} still windowed by "
                f"{threads[0]}"))
    table = kernel.machine.xentry_table
    for process in kernel.processes:
        for slot, window in process.seg_list.segments():
            if window.segment.revoked:
                violations.append(InvariantViolation(
                    "revoked-unmapped",
                    f"revoked segment {window.segment.seg_id} still "
                    f"parked in {process} seg-list slot {slot}"))
        if process.alive or table is None:
            continue
        for entry_id in process.xentries:
            entry = table.peek(entry_id)
            if entry is not None and entry.valid:
                violations.append(InvariantViolation(
                    "dead-entries-invalid",
                    f"x-entry {entry_id} of dead {process} is still "
                    f"valid"))
    return violations


def check_lifo(world, shadow) -> List[InvariantViolation]:
    """Engine link stacks match the shadow call chains exactly (§3.2)."""
    out: List[InvariantViolation] = []
    for tid, thread in enumerate(world.threads):
        actual = [r.callee_entry_id for r in thread.xpc.link_stack.records]
        expected = [world.entry_ids[frame.logical_entry]
                    for frame in shadow.stacks[tid]]
        if actual != expected:
            out.append(InvariantViolation(
                "link-stack-lifo",
                f"{thread.name}: link stack records {actual} do not "
                f"match the LIFO call chain {expected}"))
            continue
        # The thread must be running under the bitmap the chain implies.
        expected_key = shadow.current_key(tid)
        if thread.xpc.cap_bitmap is not shadow.bitmap_objects[expected_key]:
            out.append(InvariantViolation(
                "link-stack-lifo",
                f"{thread.name}: xcall-cap-reg does not hold the bitmap "
                f"the call chain implies ({expected_key}) — xret "
                f"restored the wrong runtime state"))
    return out


# ----------------------------------------------------------------------
# Transition invariants
# ----------------------------------------------------------------------
def check_shrink(thread_name: str, before, after) -> List[InvariantViolation]:
    """An xcall handover may only shrink the window (§3.3/§4.4)."""
    if window_within(after, before):
        return []
    return [InvariantViolation(
        "seg-mask-shrink",
        f"{thread_name}: xcall handed the callee window {after} which "
        f"escapes the caller's window {before} — seg-mask must "
        f"monotonically shrink access")]


def check_cap_gate(thread_name: str, entry_id: int, shadow_has_cap: bool,
                   succeeded: bool, denied: bool) -> List[InvariantViolation]:
    """xcall outcome must agree with the shadow capability state (§3.2)."""
    if succeeded and not shadow_has_cap:
        return [InvariantViolation(
            "xcall-cap",
            f"{thread_name}: xcall #{entry_id} succeeded although no "
            f"xcall-cap bit was ever granted for it — the hardware "
            f"capability check is broken")]
    if denied and shadow_has_cap:
        return [InvariantViolation(
            "xcall-cap",
            f"{thread_name}: xcall #{entry_id} was denied although the "
            f"xcall-cap bit is granted — spurious capability fault")]
    return []


def check_state(world, shadow) -> List[InvariantViolation]:
    """The catalogue plus the shadow's LIFO check, after every event."""
    return check_protocol(world.kernel) + check_lifo(world, shadow)
