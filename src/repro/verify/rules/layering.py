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
* Some edges must never exist, whatever the layer map grows to allow:
  :data:`FORBIDDEN_IMPORTS` lists them and is checked first.  They keep
  the two sides of each differential gate independent — the reference
  engine stack and the table-driven fast core, and the proptest
  executors and the oracle they are diffed against — and keep
  :mod:`repro.probe` the one surface observers watch the machine
  through: no machine layer (hw up to services and apps) may import
  :mod:`repro.obs` or :mod:`repro.san`, so the machine knows only site
  names and never an observer's object graph.

Relative imports are resolved to absolute names and checked like any
other import.

New top-level packages must be added to :data:`ALLOWED_IMPORTS`
explicitly — an unknown unit is a violation, which forces each new
subsystem to take a conscious position in the layering.
"""

from __future__ import annotations

import ast
from typing import Iterator, List, Optional, Tuple

from repro.verify.lint import LintViolation, ModuleInfo, Rule

#: unit -> units it may import (its own unit is always allowed).
#: ``probe`` sits beside ``params`` at the bottom: the machine's sites
#: report into it, its fault points ask its ``inject`` site, and
#: observers subscribe to it.  ``faults`` is a driver: its plans arm
#: the probe's ``inject`` site, so no simulator layer imports it.
ALLOWED_IMPORTS = {
    "params": set(),
    "probe": set(),
    "faults": {"probe"},
    # The table-driven fast core sits beside ``params`` at the bottom:
    # it precomputes cycle tables from CycleParams and must never see
    # the reference stack it re-implements (FORBIDDEN_IMPORTS pins this
    # set and forbids the reverse edge).
    "fastcore": {"params"},
    "hw": {"params", "probe"},
    "xpc": {"hw", "params", "probe"},
    "kernel": {"xpc", "hw", "params", "probe"},
    "runtime": {"kernel", "xpc", "hw", "params", "probe"},
    "ipc": {"runtime", "kernel", "xpc", "hw", "params", "probe"},
    "sel4": {"ipc", "runtime", "kernel", "xpc", "hw", "params"},
    "zircon": {"ipc", "runtime", "kernel", "xpc", "hw", "params"},
    "binder": {"ipc", "runtime", "kernel", "xpc", "hw", "params"},
    "services": {"aio", "ipc", "runtime", "kernel", "xpc", "hw", "params",
                 "analysis", "probe"},
    # Async/batched XPC sits between ipc and services: it builds on the
    # transport's payload surface and the runtime library, and the
    # service servers adopt it for their batched front-ends.
    "aio": {"ipc", "runtime", "kernel", "xpc", "hw", "params", "probe"},
    "apps": {"services", "ipc", "runtime", "kernel", "xpc", "hw",
             "params"},
    # Side packages: measurement and analysis tooling.
    # ``obs`` sits beside ``probe`` at the bottom: a pure observer
    # (counters, spans, PMU sampling, profiler frames) that never
    # charges cycles, fed everything it records by the probe.
    "obs": {"params", "probe", "analysis"},
    # ``san`` (XPCSan) is another bottom-layer pure observer: it
    # subscribes to the probe's ownership-handoff and access sites.
    "san": {"probe"},
    "analysis": {"params"},
    "gem5": {"params", "hw"},
    "hwcost": {"params"},
    "compare": {"params"},
    "tools": {"analysis", "params"},
    "verify": {"runtime", "kernel", "xpc", "hw", "params", "faults",
               "analysis", "probe"},
    # Differential fuzzing drives every mechanism (and the analytic
    # model) from above, so it sits at the top of the stack alongside
    # apps; nothing may import *it*.  It runs verify's protocol
    # catalogue after every op.
    "proptest": {"compare", "aio", "ipc", "sel4", "zircon", "runtime",
                 "kernel", "xpc", "hw", "params", "faults", "obs", "san",
                 "fastcore", "verify"},
    # Snapshot/record-replay/time-travel sits at the very top: it
    # deepcopies whole worlds built from any layer (including proptest
    # executors and verify's live invariants), so everything below is
    # fair game and nothing below may import *it*.  The two proptest
    # integration points (snapshot-accelerated shrink, replay --at-op)
    # late-import repro.snap behind a pragma rather than inverting the
    # layer.
    "snap": {"proptest", "verify", "compare", "aio", "ipc", "sel4",
             "zircon", "services", "runtime", "kernel", "xpc", "hw",
             "params", "faults", "obs", "analysis", "probe"},
    # Profiling/SLO/sentry tooling sits above snap: the sentry drives
    # recorders and time travel, and the flame CLI runs snap
    # scenarios.  The in-simulation
    # CycleProfiler itself lives in repro.obs (a subscriber to the
    # probe's tick site); aio consumes the SLO engine duck-typed, so
    # nothing below imports repro.prof.
    "prof": {"snap", "proptest", "verify", "compare", "aio", "ipc",
             "sel4", "zircon", "services", "runtime", "kernel", "xpc",
             "hw", "params", "faults", "obs", "analysis"},
    # The multi-node serving fabric sits at the very top: a Node wraps a
    # whole machine + kernel + pools, the fabric consumes the SLO engine
    # for autoscaling, and the shard services reuse the real apps.
    # Nothing below imports repro.cluster.
    "cluster": {"prof", "aio", "ipc", "sel4", "services", "apps",
                "runtime", "kernel", "xpc", "hw", "params", "obs",
                "analysis", "probe"},
}

#: Reference-side units that may never import repro.fastcore.
REFERENCE_UNITS = ("hw", "xpc", "kernel", "runtime", "ipc", "sel4",
                   "zircon", "binder")

#: The machine: every unit that announces probe sites or builds on
#: one that does.  None of them may import an observer.
MACHINE_UNITS = REFERENCE_UNITS + ("aio", "services", "apps")

#: Import edges that must not exist, checked before ALLOWED_IMPORTS so
#: widening the layer map can never re-open them.  Each row is
#: ``(importers, targets, exempt, why)``: a module under any *importers*
#: prefix may not import anything under a *targets* prefix unless it is
#: also under an *exempt* prefix.  A prefix covers the module itself and
#: every module below it.
FORBIDDEN_IMPORTS: Tuple[Tuple[Tuple[str, ...], Tuple[str, ...],
                               Tuple[str, ...], str], ...] = (
    (("repro.fastcore",), ("repro",),
     ("repro.params", "repro.fastcore"),
     "the fast core may depend on repro.params only, or the "
     "reference/fast diff stops being evidence"),
    (tuple(f"repro.{unit}" for unit in REFERENCE_UNITS),
     ("repro.fastcore",), (),
     "the reference stack may never depend on the fast core it is "
     "diffed against"),
    (("repro.proptest.executors", "repro.proptest.gen",
      "repro.proptest.fastexec"),
     ("repro.proptest.oracle",), (),
     "executors and the generator must earn outcomes through the real "
     "mechanisms, not read them off the reference model"),
    (tuple(f"repro.{unit}" for unit in MACHINE_UNITS),
     ("repro.obs", "repro.san"), (),
     "the machine announces its sites through repro.probe only; "
     "observers subscribe there"),
    (("repro.hw", "repro.xpc"), ("repro.analysis",), (),
     "the silicon and the engine model hardware; analysis tooling "
     "reads them from above"),
)

#: Modules of repro.hw that form its public, architectural surface.
HW_PUBLIC_MODULES = {"", "cpu", "machine", "memory", "paging"}

#: The three OS-personality glue layers.
GLUE_UNITS = {"sel4", "zircon", "binder"}


def _under(name: str, prefixes: Tuple[str, ...]) -> bool:
    return any(name == p or name.startswith(p + ".") for p in prefixes)


def _forbidden_edge(importer: str, imported: str) -> Optional[str]:
    """The reason *importer* may not import *imported*, if any."""
    for importers, targets, exempt, why in FORBIDDEN_IMPORTS:
        if (_under(importer, importers) and _under(imported, targets)
                and not _under(imported, exempt)):
            return why
    return None


def _resolve_relative(module: ModuleInfo, node: ast.ImportFrom
                      ) -> Optional[str]:
    """``from .x import y`` inside *module* → ``<package>.x``."""
    parts = module.modname.split(".")
    if not module.path.endswith("__init__.py"):
        parts = parts[:-1]              # a plain module's package
    if node.level - 1 > len(parts) - 1:
        return None                     # climbs above the top package
    parts = parts[:len(parts) - (node.level - 1)]
    if node.module:
        parts.append(node.module)
    return ".".join(parts)


class LayeringRule(Rule):
    name = "layering"
    description = ("package imports must respect the hw → xpc → kernel → "
                   "glue layering and never form a forbidden edge; no "
                   "private names or hw internals across package "
                   "boundaries")

    def check(self, module: ModuleInfo) -> Iterator[LintViolation]:
        unit = module.unit
        if unit == "":       # the repro package facade re-exports freely
            return
        for node in ast.walk(module.tree):
            if isinstance(node, ast.ImportFrom):
                target = (_resolve_relative(module, node) if node.level
                          else node.module or "")
                if target is None:
                    continue
                names = [alias.name for alias in node.names]
                v = self._check_target(module, node, target, names)
            elif isinstance(node, ast.Import):
                for alias in node.names:
                    v = self._check_target(module, node, alias.name, [])
                    if v:
                        yield v
                continue
            else:
                continue
            if v:
                yield v

    def _check_target(self, module: ModuleInfo, node: ast.AST,
                      target: str, names: List[str]
                      ) -> Optional[LintViolation]:
        parts = target.split(".")
        if parts[0] != "repro":
            return None
        if module.in_type_checking(node):
            return None
        unit = module.unit
        target_unit = parts[1] if len(parts) > 1 else ""
        line = node.lineno
        # ``from pkg import name`` may import a submodule, so each
        # imported name is checked as ``pkg.name``.
        for imported in [f"{target}.{name}" for name in names] or [target]:
            why = _forbidden_edge(module.modname, imported)
            if why:
                return self.violation(
                    module, line,
                    f"{module.modname} may not import {imported} — "
                    f"{why}")
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
