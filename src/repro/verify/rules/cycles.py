"""Cycle-accounting rule: architectural operations must charge cycles.

The simulator's credibility rests on every architectural operation
charging calibrated cycles (paper Table 1/Table 3).  There is exactly one
charging discipline:

* **charging classes** (``XPCEngine``, ``Core``) model operations that
  consume time: every public method must either call ``tick(...)``
  somewhere in its body, return a ``*_cycles(...)`` cost, or be declared
  *free* (kernel bookkeeping whose cost is charged elsewhere) in
  :data:`CHARGE_FREE` or with a ``# verify-ok: cycle-accounting`` pragma
  on its ``def`` line;
* **passive classes** (``TLB``, ``CacheModel``, the tag arrays) are
  timing *providers*: they must never call ``tick`` themselves, keeping
  all charging centralized in the core (one clock, one charger).

A refactor that adds a public engine/core method and forgets the charge —
the exact bug class the paper's Figure 5 ladder makes tempting — fails
this rule.
"""

from __future__ import annotations

import ast
from typing import Dict, FrozenSet, Iterator

from repro.verify.lint import LintViolation, ModuleInfo, Rule

#: modname -> {class name -> methods that legitimately charge nothing}.
CHARGE_FREE: Dict[str, Dict[str, FrozenSet[str]]] = {
    "repro.xpc.engine": {
        # bind/unbind are context-switch bookkeeping (the kernel charges
        # the switch); seg_translate's latency is charged by
        # Core.translate.
        "XPCEngine": frozenset({"bind", "unbind", "seg_translate"}),
    },
    "repro.hw.cpu": {
        # tick *is* the charging primitive.
        "Core": frozenset({"tick"}),
    },
}

#: modname -> passive class names (must never tick).
PASSIVE: Dict[str, FrozenSet[str]] = {
    "repro.hw.tlb": frozenset({"TLB"}),
    "repro.hw.cache": frozenset({"CacheModel", "_TagArray"}),
}


def _calls_tick(node: ast.AST) -> bool:
    for sub in ast.walk(node):
        if isinstance(sub, ast.Call):
            func = sub.func
            if isinstance(func, ast.Attribute) and func.attr == "tick":
                return True
            if isinstance(func, ast.Name) and func.id == "tick":
                return True
    return False


def _returns_cost(node: ast.FunctionDef) -> bool:
    """True if the method returns the result of a ``*_cycles`` call
    (the cost-provider convention) or is itself named ``*_cycles``."""
    if node.name.endswith("_cycles"):
        return True
    for sub in ast.walk(node):
        if isinstance(sub, ast.Return) and isinstance(sub.value, ast.Call):
            func = sub.value.func
            name = func.attr if isinstance(func, ast.Attribute) else \
                func.id if isinstance(func, ast.Name) else ""
            if name.endswith("_cycles"):
                return True
    return False


def _is_property(node: ast.FunctionDef) -> bool:
    for dec in node.decorator_list:
        name = dec.attr if isinstance(dec, ast.Attribute) else \
            dec.id if isinstance(dec, ast.Name) else ""
        if name in ("property", "cached_property", "staticmethod",
                    "classmethod"):
            return True
    return False


class CycleAccountingRule(Rule):
    name = "cycle-accounting"
    description = ("public methods of charging classes must tick or "
                   "return a cost; passive timing models never tick")

    def check(self, module: ModuleInfo) -> Iterator[LintViolation]:
        charge_map = CHARGE_FREE.get(module.modname, {})
        passive = PASSIVE.get(module.modname, frozenset())
        for node in module.tree.body:
            if not isinstance(node, ast.ClassDef):
                continue
            if node.name in charge_map:
                yield from self._check_charging(
                    module, node, charge_map[node.name])
            if node.name in passive:
                yield from self._check_passive(module, node)

    def _check_charging(self, module: ModuleInfo, cls: ast.ClassDef,
                        free: FrozenSet[str]) -> Iterator[LintViolation]:
        for item in cls.body:
            if not isinstance(item, ast.FunctionDef):
                continue
            if item.name.startswith("_") or item.name in free:
                continue
            if _is_property(item):
                continue
            if _calls_tick(item) or _returns_cost(item):
                continue
            v = self.violation(
                module, item.lineno,
                f"{cls.name}.{item.name} models an architectural "
                f"operation but never charges cycles (no tick() call and "
                f"no *_cycles cost returned); charge it, or declare it "
                f"free in repro.verify.rules.cycles.CHARGE_FREE")
            if v:
                yield v

    def _check_passive(self, module: ModuleInfo,
                       cls: ast.ClassDef) -> Iterator[LintViolation]:
        for item in cls.body:
            if not isinstance(item, ast.FunctionDef):
                continue
            if _calls_tick(item):
                v = self.violation(
                    module, item.lineno,
                    f"{cls.name}.{item.name} calls tick() but "
                    f"{cls.name} is a passive timing model — all "
                    f"charging goes through the core (single-charger "
                    f"discipline)")
                if v:
                    yield v
