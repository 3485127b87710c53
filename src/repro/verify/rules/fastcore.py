"""Fastcore-discipline rule: the reference and fast cores stay apart.

The fast core (``repro.fastcore``) is only evidence-grade because it is
*independent* of the engine it re-implements: the proptest equivalence
gate diffs two implementations that share nothing but ``repro.params``.
Two import edges would silently collapse that independence:

* **reference → fastcore**: if the engine, kernel, runtime, transport
  or hw layers imported fastcore (say, to "reuse" a precomputed sum),
  the reference would start charging the very tables under test, and
  the op-by-op cycle diff would become a tautology.
* **fastcore → reference**: if fastcore imported the engine/kernel
  stack, its "flat re-implementation" could delegate to the reference
  and the 10× speedup claim (and the independence) would quietly rot.
  Only ``repro.params`` (the shared calibration constants) is allowed —
  the same set the layering map declares; this rule restates it so a
  layering-map edit cannot widen fastcore's diet unnoticed.

``# verify-ok: fastcore-discipline`` suppresses a sanctioned site.
"""

from __future__ import annotations

import ast
from typing import Iterator

from repro.verify.lint import LintViolation, ModuleInfo, Rule

#: Reference-side units that may never import repro.fastcore.  The
#: consumers that *may* (proptest's fastexec executor, benchmarks via
#: tests) are simply not listed.
REFERENCE_UNITS = frozenset({
    "hw", "xpc", "kernel", "runtime", "ipc", "sel4", "zircon", "binder",
})

#: The only unit repro.fastcore itself may import.
FASTCORE_ALLOWED = frozenset({"params", "fastcore"})


class FastcoreDisciplineRule(Rule):
    name = "fastcore-discipline"
    description = ("the reference engine stack may not import "
                   "repro.fastcore, and repro.fastcore may import "
                   "nothing but repro.params — the equivalence gate "
                   "diffs independent implementations")

    def check(self, module: ModuleInfo) -> Iterator[LintViolation]:
        unit = module.unit
        if unit == "fastcore":
            yield from self._check_fastcore(module)
            return
        if unit not in REFERENCE_UNITS:
            return
        for node, target_unit in _repro_imports(module):
            if target_unit == "fastcore":
                v = self.violation(
                    module, node.lineno,
                    f"repro.{unit} imports repro.fastcore — the "
                    f"reference stack may never depend on the fast "
                    f"core it is diffed against")
                if v:
                    yield v

    def _check_fastcore(self, module: ModuleInfo
                        ) -> Iterator[LintViolation]:
        for node, target_unit in _repro_imports(module):
            if target_unit not in FASTCORE_ALLOWED:
                v = self.violation(
                    module, node.lineno,
                    f"repro.fastcore imports repro.{target_unit} — the "
                    f"fast core may depend on repro.params only, or the "
                    f"reference/fast diff stops being evidence")
                if v:
                    yield v


def _repro_imports(module: ModuleInfo):
    """Yield ``(node, target_unit)`` for every absolute repro import."""
    for node in ast.walk(module.tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                parts = alias.name.split(".")
                if parts[0] == "repro" and len(parts) > 1 \
                        and not module.in_type_checking(node):
                    yield node, parts[1]
        elif isinstance(node, ast.ImportFrom) and not node.level:
            parts = (node.module or "").split(".")
            if parts[0] == "repro" and len(parts) > 1 \
                    and not module.in_type_checking(node):
                yield node, parts[1]
