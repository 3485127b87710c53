"""Layering rule: the package dependency order the paper's design implies.

The reproduction is layered like the system it models:

    params → hw → xpc → kernel → runtime → ipc → {sel4, zircon, binder}
                                                → services → apps

* ``repro.hw`` models silicon: it may not import ``repro.kernel`` or
  ``repro.xpc`` (the engine plugs *into* the core through the
  ``Core.xpc_engine`` port, not the other way round).  ``TYPE_CHECKING``
  imports are exempt; the single sanctioned runtime inversion (engine
  attach in ``Machine``) carries a ``# verify-ok: layering`` pragma.
* OS personalities (``sel4``/``zircon``/``binder``) may not reach into
  ``repro.hw`` internals: only the architectural surface (``cpu``,
  ``machine``, ``memory``, ``paging`` and the package facade) is fair
  game — the TLB and cache timing models are micro-architecture that
  belongs to the core.
* Personalities may not import each other, and nobody outside a package
  may import an underscore-prefixed (private) name from it.

New top-level packages must be added to :data:`ALLOWED_IMPORTS`
explicitly — an unknown unit is a violation, which forces each new
subsystem to take a conscious position in the layering.
"""

from __future__ import annotations

import ast
from typing import Iterator, Optional

from repro.verify.lint import LintViolation, ModuleInfo, Rule

#: unit -> units it may import (its own unit is always allowed).
#: ``faults`` sits beside ``params`` at the bottom: it is pure policy
#: (seeded decisions + trace recording) with no simulator dependencies,
#: so every layer may consult it at its instrumented fault points.
ALLOWED_IMPORTS = {
    "params": set(),
    "faults": set(),
    # The table-driven fast core sits beside ``params`` at the bottom:
    # it precomputes cycle tables from CycleParams and must never see
    # the reference stack it re-implements (see also the dedicated
    # ``fastcore-discipline`` rule, which forbids the reverse edge and
    # pins this set).
    "fastcore": {"params"},
    "hw": {"params", "faults", "obs", "san"},
    "xpc": {"hw", "params", "faults", "obs", "san"},
    "kernel": {"xpc", "hw", "params", "faults", "obs", "san"},
    "runtime": {"kernel", "xpc", "hw", "params", "faults", "obs", "san"},
    "ipc": {"runtime", "kernel", "xpc", "hw", "params", "faults", "obs",
            "san"},
    "sel4": {"ipc", "runtime", "kernel", "xpc", "hw", "params", "faults",
             "obs", "san"},
    "zircon": {"ipc", "runtime", "kernel", "xpc", "hw", "params", "faults",
               "obs", "san"},
    "binder": {"ipc", "runtime", "kernel", "xpc", "hw", "params", "faults",
               "obs", "san"},
    "services": {"aio", "ipc", "runtime", "kernel", "xpc", "hw", "params",
                 "faults", "analysis", "obs", "san"},
    # Async/batched XPC sits between ipc and services: it builds on the
    # transport's payload surface and the runtime library, and the
    # service servers adopt it for their batched front-ends.
    "aio": {"ipc", "runtime", "kernel", "xpc", "hw", "params", "faults",
            "obs", "san"},
    "apps": {"services", "ipc", "runtime", "kernel", "xpc", "hw", "params",
             "faults", "obs", "san"},
    # Side packages: measurement and analysis tooling.
    # ``obs`` sits beside ``faults`` at the bottom: a pure observer
    # (counters, spans, PMU sampling) that never charges cycles, so
    # every layer may report into it at its instrumentation sites.
    "obs": {"params", "faults", "analysis"},
    # ``san`` (XPCSan) is another bottom-layer pure observer: the
    # instrumented layers report ownership handoffs and per-core
    # accesses into it, and it depends on nothing.
    "san": set(),
    "analysis": {"params"},
    "gem5": {"params", "hw"},
    "hwcost": {"params"},
    "compare": {"params"},
    "tools": {"analysis", "params", "obs"},
    "verify": {"runtime", "kernel", "xpc", "hw", "params", "faults",
               "analysis", "obs"},
    # Differential fuzzing drives every mechanism (and the analytic
    # model) from above, so it sits at the top of the stack alongside
    # apps; nothing may import *it*.
    "proptest": {"compare", "aio", "ipc", "sel4", "zircon", "runtime",
                 "kernel", "xpc", "hw", "params", "faults", "obs", "san",
                 "fastcore"},
    # Snapshot/record-replay/time-travel sits at the very top: it
    # deepcopies whole worlds built from any layer (including proptest
    # executors and verify's live invariants), so everything below is
    # fair game and nothing below may import *it*.  The two proptest
    # integration points (snapshot-accelerated shrink, replay --at-op)
    # late-import repro.snap behind a pragma rather than inverting the
    # layer.
    "snap": {"proptest", "verify", "compare", "aio", "ipc", "sel4",
             "zircon", "services", "runtime", "kernel", "xpc", "hw",
             "params", "faults", "obs", "san", "analysis"},
    # Profiling/SLO/sentry tooling sits above snap: the sentry drives
    # recorders and time travel, host profiling drives the proptest
    # fleet, and the flame CLI runs snap scenarios.  The in-simulation
    # CycleProfiler itself lives in repro.obs (the hw layer must reach
    # it from Core.tick); aio consumes the SLO engine duck-typed, so
    # nothing below imports repro.prof.
    "prof": {"snap", "proptest", "verify", "compare", "aio", "ipc",
             "sel4", "zircon", "services", "runtime", "kernel", "xpc",
             "hw", "params", "faults", "obs", "san", "analysis"},
    # The multi-node serving fabric sits at the very top: a Node wraps a
    # whole machine + kernel + pools, the fabric consumes the SLO engine
    # for autoscaling, and the shard services reuse the real apps.
    # Nothing below imports repro.cluster.
    "cluster": {"prof", "aio", "ipc", "sel4", "services", "apps",
                "runtime", "kernel", "xpc", "hw", "params", "faults",
                "obs", "san", "analysis"},
}

#: Modules of repro.hw that form its public, architectural surface.
HW_PUBLIC_MODULES = {"", "cpu", "machine", "memory", "paging"}

#: The three OS-personality glue layers.
GLUE_UNITS = {"sel4", "zircon", "binder"}


class LayeringRule(Rule):
    name = "layering"
    description = ("package imports must respect the hw → xpc → kernel → "
                   "glue layering; no private names or hw internals "
                   "across package boundaries")

    def check(self, module: ModuleInfo) -> Iterator[LintViolation]:
        unit = module.unit
        if unit == "":       # the repro package facade re-exports freely
            return
        for node in ast.walk(module.tree):
            if isinstance(node, ast.ImportFrom):
                if node.level:          # relative import: same package
                    continue
                target = node.module or ""
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.Import):
                for alias in node.names:
                    v = self._check_target(module, node, alias.name, [])
                    if v:
                        yield v
                continue
            else:
                continue
            v = self._check_target(module, node, target, names)
            if v:
                yield v

    def _check_target(self, module: ModuleInfo, node: ast.AST,
                      target: str, names: list) -> Optional[LintViolation]:
        parts = target.split(".")
        if parts[0] != "repro":
            return None
        if module.in_type_checking(node):
            return None
        unit = module.unit
        target_unit = parts[1] if len(parts) > 1 else ""
        line = node.lineno
        # Private names never cross a package boundary.
        if target_unit != unit:
            for name in names:
                if name.startswith("_") and name != "*":
                    return self.violation(
                        module, line,
                        f"imports private name {name!r} from "
                        f"repro.{target_unit} — private names do not "
                        f"cross package boundaries")
        if target_unit == unit or target_unit == "":
            return None
        allowed = ALLOWED_IMPORTS.get(unit)
        if allowed is None:
            return self.violation(
                module, line,
                f"unit {unit!r} is not in the layer map "
                f"(repro.verify.rules.layering.ALLOWED_IMPORTS) — new "
                f"packages must declare their layer explicitly")
        if target_unit not in allowed:
            return self.violation(
                module, line,
                f"repro.{unit} may not import repro.{target_unit} "
                f"(layering: allowed are "
                f"{', '.join(sorted(allowed)) or 'none'})")
        # Glue layers stay on repro.hw's architectural surface.
        if unit in GLUE_UNITS and target_unit == "hw":
            hw_module = ".".join(parts[2:])
            if hw_module not in HW_PUBLIC_MODULES:
                return self.violation(
                    module, line,
                    f"repro.{unit} reaches into repro.hw internals "
                    f"(repro.hw.{hw_module}); only "
                    f"{sorted(m for m in HW_PUBLIC_MODULES if m)} are "
                    f"public to OS glue layers")
        return None
