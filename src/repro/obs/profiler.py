"""Exact cycle-attribution profiling: every charged cycle gets a stack.

The simulator has exactly one charging primitive —
:meth:`repro.hw.cpu.Core.tick` (the single-charger discipline the
``flow-charge`` analysis enforces) — so a profiler that observes
every ``tick`` attributes **100% of charged cycles by construction**:
the flame tree's total always equals the clock delta of the profiled
window (:meth:`CycleProfiler.complete` asserts exactly that).

Attribution context comes from three sources, all free when disarmed:

* **frames** — instrumented layers open a frame around a causal unit of
  work (``xpclib:call#3``, ``kernel:link_spill``); frames nest per core,
  forming the call path;
* **the span bridge** — every :class:`~repro.obs.span.SpanTracer` span
  begin/end also pushes/pops a profiler frame, so the existing span
  instrumentation (engine xcall windows, service handlers, fs/net ops)
  shapes the flame tree with no extra hooks;
* **phase splits** — a charge site that knows a finer decomposition of
  its next ``tick`` (the engine's Figure 5 ladder: captest + xentry +
  linkpush) registers it just before charging, and the cycles land in
  per-phase leaf children instead of the frame's self bucket.

Cycles charged with no frame open fall into the per-core root node, so
nothing is ever lost — the collapsed-stack export (`flamegraph.pl` /
speedscope "folded" format) always sums to the clock.

Like the rest of :mod:`repro.obs`, the profiler never ticks and never
mutates simulator state: profiler-on and profiler-off runs are
cycle-identical (CI byte-compares fig5/fig7 results both ways).
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Dict, Iterable, List, Optional, Sequence, Tuple


class ProfileNode:
    """One node of the weighted call tree."""

    __slots__ = ("label", "self_cycles", "children")

    def __init__(self, label: str) -> None:
        self.label = label
        self.self_cycles = 0
        self.children: Dict[str, "ProfileNode"] = {}

    def child(self, label: str) -> "ProfileNode":
        node = self.children.get(label)
        if node is None:
            node = ProfileNode(label)
            self.children[label] = node
        return node

    @property
    def total_cycles(self) -> int:
        return self.self_cycles + sum(c.total_cycles
                                      for c in self.children.values())

    def as_dict(self) -> dict:
        return {
            "name": self.label,
            "self": self.self_cycles,
            "total": self.total_cycles,
            "children": [c.as_dict()
                         for c in sorted(self.children.values(),
                                         key=lambda n: n.label)],
        }


class CycleProfiler:
    """Per-core attribution stacks over the single charging primitive.

    ``on_tick`` is called by :meth:`repro.hw.cpu.Core.tick` whenever a
    session with a profiler is installed; everything else is free
    bookkeeping around it.  Stacks are keyed by ``core_id`` (stable
    across snapshot/restore, unlike ``id(core)``), so a deepcopied
    profiler keeps attributing against the copied machine.
    """

    def __init__(self) -> None:
        self._roots: Dict[int, ProfileNode] = {}     # core_id -> tree root
        self._stacks: Dict[int, List[ProfileNode]] = {}
        self._splits: Dict[int, Sequence[Tuple[str, int]]] = {}
        self._span_depth: Dict[int, int] = {}        # span_id -> depth
        self._cores: Dict[int, object] = {}          # core_id -> core
        self._baseline: Dict[int, int] = {}          # core.cycles at arm
        self.attributed = 0
        #: pops that found no matching frame (mid-run arming, repairs
        #: racing the bridge) — nonzero means paths may be coarse, never
        #: that cycles were lost.
        self.mismatched_pops = 0
        #: phase splits whose parts did not sum to the charged cycles
        #: (the remainder lands in the frame's self bucket).
        self.bad_splits = 0

    # -- registration ---------------------------------------------------
    def _ensure(self, core, already_charged: int = 0) -> List[ProfileNode]:
        cid = core.core_id
        stack = self._stacks.get(cid)
        if stack is None:
            root = ProfileNode(f"core{cid}")
            self._roots[cid] = root
            stack = [root]
            self._stacks[cid] = stack
            self._cores[cid] = core
            self._baseline[cid] = core.cycles - already_charged
        return stack

    # -- frames ---------------------------------------------------------
    def push(self, core, label: str,
             span_id: Optional[int] = None) -> None:
        """Open frame *label* on *core*'s attribution stack."""
        stack = self._ensure(core)
        if span_id is not None:
            self._span_depth[span_id] = len(stack)
        stack.append(stack[-1].child(label))

    def pop(self, core_id: int, span_id: Optional[int] = None) -> None:
        """Close the innermost frame (or the one *span_id* opened,
        truncating anything still nested inside it)."""
        stack = self._stacks.get(core_id)
        if not stack:
            return
        if span_id is not None:
            depth = self._span_depth.pop(span_id, None)
            if depth is None:
                self.mismatched_pops += 1
                return
            del stack[depth:]
            return
        if len(stack) > 1:
            stack.pop()
        else:
            self.mismatched_pops += 1

    @contextmanager
    def frame(self, core, label: str):
        """``with profiler.frame(core, "kernel:spill"): ...``"""
        stack = self._ensure(core)
        depth = len(stack)
        self.push(core, label)
        try:
            yield
        finally:
            inner = self._stacks.get(core.core_id)
            if inner is not None and len(inner) > depth:
                del inner[depth:]

    # -- phase refinement ----------------------------------------------
    def phase_split(self, core,
                    parts: Sequence[Tuple[str, int]]) -> None:
        """Declare how the *next* tick on *core* decomposes into named
        phases.  Consumed by exactly one tick; parts that do not cover
        the whole charge leave the remainder in the frame itself."""
        self._ensure(core)
        self._splits[core.core_id] = parts

    # -- the hook Core.tick calls ---------------------------------------
    def on_tick(self, core, cycles: int) -> None:
        """Attribute *cycles* (already added to ``core.cycles``)."""
        if not cycles:
            self._splits.pop(core.core_id, None)
            return
        stack = self._ensure(core, already_charged=cycles)
        top = stack[-1]
        split = self._splits.pop(core.core_id, None)
        if split:
            remainder = cycles
            for phase, n in split:
                if n <= 0 or n > remainder:
                    continue
                top.child(phase).self_cycles += n
                remainder -= n
            if remainder:
                if remainder != cycles:
                    self.bad_splits += 1
                top.self_cycles += remainder
        else:
            top.self_cycles += cycles
        self.attributed += cycles

    # -- completeness ---------------------------------------------------
    def clock_cycles(self) -> int:
        """Cycles the profiled cores' clocks advanced while armed."""
        return sum(self._cores[cid].cycles - self._baseline[cid]
                   for cid in self._cores)

    def complete(self) -> bool:
        """The attribution invariant: flame total == clock total."""
        return self.attributed == self.clock_cycles()

    def open_depth(self, core_id: int) -> int:
        stack = self._stacks.get(core_id)
        return len(stack) - 1 if stack else 0

    # -- exports --------------------------------------------------------
    def roots(self) -> List[ProfileNode]:
        return [self._roots[cid] for cid in sorted(self._roots)]

    def collapsed(self) -> Dict[str, int]:
        """Weighted stacks in flamegraph.pl "folded" form:
        ``{"core0;xpclib:call#1;phase:captest": 12, ...}``."""
        out: Dict[str, int] = {}

        def walk(node: ProfileNode, path: str) -> None:
            if node.self_cycles:
                out[path] = out.get(path, 0) + node.self_cycles
            for child in node.children.values():
                walk(child, f"{path};{child.label}")

        for root in self.roots():
            walk(root, root.label)
        return out

    def collapsed_text(self) -> str:
        """The exact file format flamegraph.pl / speedscope load."""
        return "\n".join(f"{path} {cycles}"
                         for path, cycles in sorted(self.collapsed().items()))

    def flame_tree(self) -> List[dict]:
        return [root.as_dict() for root in self.roots()]

    def as_dict(self) -> dict:
        return {
            "attributed_cycles": self.attributed,
            "clock_cycles": self.clock_cycles(),
            "complete": self.complete(),
            "mismatched_pops": self.mismatched_pops,
            "bad_splits": self.bad_splits,
            "collapsed": self.collapsed(),
        }


def diff_collapsed(base: Dict[str, int], fresh: Dict[str, int],
                   min_delta: int = 0) -> List[dict]:
    """Per-stack cycle deltas between two collapsed profiles, biggest
    absolute regression first — the flame-tree diff the perf sentry
    prints when it pins a regression."""
    rows = []
    for path in sorted(set(base) | set(fresh)):
        b, f = base.get(path, 0), fresh.get(path, 0)
        if abs(f - b) > min_delta:
            rows.append({"path": path, "base": b, "fresh": f,
                         "delta": f - b})
    rows.sort(key=lambda r: (-abs(r["delta"]), r["path"]))
    return rows
