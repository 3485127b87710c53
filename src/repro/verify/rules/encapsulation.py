"""Encapsulation rule: owned state is touched only through its owner's API.

Three packages own state that must never be poked from outside, because
each mutation there has to be priced or stamped by the owner:

* **aio** — the submission/completion ring's header indices and
  records are memory-resident protocol state shared across an
  address-space boundary.  Every mutation must be cycle-charged and
  ordering-checked by :class:`repro.aio.ring.XPCRing`; poking a ring's
  internals silently breaks both the cycle model and the invariants
  ``repro.verify.check_ring_invariants`` later asserts.
* **obs** — measurements flow through ``Counter.inc`` / ``Gauge.set`` /
  ``Histogram.observe`` / ``PMU.add``, which stamp the cycle clock and
  keep snapshot/delta/reset semantics coherent.  A direct write to
  counter state corrupts deltas and percentiles without failing any
  functional test.
* **cluster** — a :class:`~repro.cluster.node.Node`'s ``kernel`` and
  ``machine`` are that node's private world.  Fabric code reaching
  through a node reference into them crosses a machine boundary for
  free: no serialization charge, no wire delay, no partition check.
  Only ``node`` (the owner), ``rpc`` (the priced hop) and ``serving``
  (shard handlers building their *own* node's stack) may open a node.

:data:`BOUNDARIES` holds one row per owning package.  A *surface* is a name that
marks a reference to owned state anywhere in an access chain
(``worker.batcher.ring...``); local aliases are reads and stay legal.
Each row forbids some of these accesses:

* ``private-call`` — calling an underscore-prefixed method through a
  surface (``ring._store(...)``);
* ``write-through`` — writing any attribute reached through a surface
  (``self.ring.header.entries = 0``);
* ``write-protected`` — writing a protected attribute on any object
  (``worker.sq_head = 0``);
* ``access-through`` — any access to a protected attribute through a
  surface (``home.kernel.create_process(...)``).

"Write" covers every storing form :func:`repro.verify.lint.written_attributes`
knows.  ``# verify-ok: encapsulation`` suppresses a sanctioned site.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass
from typing import Dict, FrozenSet, Iterator, Optional, Tuple

from repro.verify.lint import (LintViolation, ModuleInfo, Rule,
                               names_in_chain, written_attributes)


@dataclass(frozen=True)
class Boundary:
    """One owner's encapsulation policy (see the module docstring)."""

    surfaces: FrozenSet[str]
    surface_kind: str               # what a surface refers to
    protected: FrozenSet[str]
    protected_kind: str             # what a protected attribute is
    forbid: FrozenSet[str]
    #: Modules (with their submodules) exempt from the row.
    sanctioned: Tuple[str, ...]
    #: Units the row applies in; None means every ``repro.*`` module.
    units: Optional[FrozenSet[str]]
    advice: str


BOUNDARIES: Dict[str, Boundary] = {
    "aio": Boundary(
        surfaces=frozenset({"ring", "rings", "_ring", "sq", "cq"}),
        surface_kind="a ring reference",
        # Geometry like ``entries`` is covered by write-through — the
        # bare name is too generic to claim on every object.
        protected=frozenset({"sq_head", "sq_tail", "cq_head", "cq_tail",
                             "next_seq", "arena_cursor"}),
        protected_kind="ring state attribute",
        forbid=frozenset({"private-call", "write-through",
                          "write-protected"}),
        sanctioned=("repro.aio",),
        units=None,
        advice="go through the XPCRing push/pop/reset API so the "
               "mutation is cycle-charged and invariant-checked"),
    "obs": Boundary(
        surfaces=frozenset({"registry", "pmu", "spans"}),
        surface_kind="an obs surface",
        protected=frozenset({"counters", "gauges", "histograms", "banks",
                             "_metrics", "_core_banks", "_kernel_banks"}),
        protected_kind="obs metric container",
        forbid=frozenset({"write-through", "write-protected"}),
        sanctioned=("repro.obs",),
        units=None,
        advice="report through the registry API (counter().inc / "
               "gauge().set / histogram().observe / pmu.add) instead"),
    "cluster": Boundary(
        surfaces=frozenset({"node", "nodes", "home", "frontend", "victim",
                            "peer", "src", "dst", "live", "survivor"}),
        surface_kind="a node reference",
        protected=frozenset({"kernel", "machine"}),
        protected_kind="node internal",
        forbid=frozenset({"access-through"}),
        sanctioned=("repro.cluster.node", "repro.cluster.rpc",
                    "repro.cluster.serving"),
        units=frozenset({"cluster"}),
        advice="a node's machine state is private; use the serving "
               "surface or repro.cluster.rpc so the crossing is priced"),
}


def _in_scope(row: Boundary, module: ModuleInfo) -> bool:
    name = module.modname
    if not name.startswith("repro."):
        return False
    if row.units is not None and module.unit not in row.units:
        return False
    return not any(name == s or name.startswith(s + ".")
                   for s in row.sanctioned)


def _breaches(row: Boundary, node: ast.AST) -> Iterator[Tuple[int, str]]:
    """Yield ``(line, what)`` for each access *node* makes that *row*
    forbids."""
    line = getattr(node, "lineno", None)
    if ("private-call" in row.forbid and isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and node.func.attr.startswith("_")
            and names_in_chain(node.func.value) & row.surfaces):
        yield line, (f"calls private method {node.func.attr!r} "
                     f"through {row.surface_kind}")
    for attr in written_attributes(node):
        if "write-protected" in row.forbid and attr.attr in row.protected:
            yield (line or attr.lineno,
                   f"writes {row.protected_kind} {attr.attr!r}")
        elif ("write-through" in row.forbid
              and names_in_chain(attr.value) & row.surfaces):
            yield (line or attr.lineno,
                   f"writes attribute {attr.attr!r} through "
                   f"{row.surface_kind}")
    if ("access-through" in row.forbid and isinstance(node, ast.Attribute)
            and node.attr in row.protected
            and names_in_chain(node.value) & row.surfaces):
        yield line, (f"reaches {row.protected_kind} {node.attr!r} "
                     f"through {row.surface_kind}")


class EncapsulationRule(Rule):
    name = "encapsulation"
    description = ("ring memory, obs metric state and a cluster node's "
                   "kernel/machine are touched only through their "
                   "owner's API")

    def check(self, module: ModuleInfo) -> Iterator[LintViolation]:
        rows = [row for row in BOUNDARIES.values()
                if _in_scope(row, module)]
        if not rows:
            return
        for node in ast.walk(module.tree):
            for row in rows:
                for line, what in _breaches(row, node):
                    v = self.violation(module, line,
                                       f"{what} — {row.advice}")
                    if v:
                        yield v
