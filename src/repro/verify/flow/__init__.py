"""repro.verify.flow — interprocedural dataflow verification.

The third leg of the verification stool: :mod:`repro.verify.lint` sees
one file at a time, :mod:`repro.verify.model` sees one small concrete
state space; this package sees *paths* — per-function CFGs with
exception edges (:mod:`~repro.verify.flow.cfg`), a whole-``repro`` call
graph (:mod:`~repro.verify.flow.callgraph`), and a small fixpoint
engine (:mod:`~repro.verify.flow.engine`) — and proves three flow
properties of the paper's design:

* **flow-charge** (:mod:`~repro.verify.flow.charge`) — every path
  through a public ``XPCEngine``/``Core``/``XPCRing`` method charges
  cycles or exits free (catches early-return-skips-the-charge and the
  forgotten charge), and passive timing models never tick;
* **flow-escape** (:mod:`~repro.verify.flow.escape`) — relay-seg and
  capability handles never escape the trusted layers into
  ``services``/``apps`` except via the sanctioned install/grant surface;
* **flow-except** (:mod:`~repro.verify.flow.exc`) — typed XPC errors
  are never swallowed by a broad ``except`` on a path that then mutates
  protocol state.

Findings are ordinary :class:`~repro.verify.lint.LintViolation` records
(pragma-suppressible, SARIF-exportable); ``run_flow(modules)`` is wired
into ``python -m repro.verify`` via ``run_verify``.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Sequence

from repro.verify.lint import (
    LintViolation, ModuleInfo, Rule, collect_modules,
)

from repro.verify.flow.cfg import CFG, build_cfg
from repro.verify.flow.callgraph import CallGraph, FuncDef


class ProgramModel:
    """The analyzed program: modules + call graph + cached CFGs."""

    def __init__(self, modules: Iterable[ModuleInfo]) -> None:
        self.modules = list(modules)
        self._callgraph: Optional[CallGraph] = None
        self._cfgs: Dict[int, CFG] = {}

    @property
    def callgraph(self) -> CallGraph:
        if self._callgraph is None:
            self._callgraph = CallGraph(self.modules)
        return self._callgraph

    def cfg_of(self, func: FuncDef) -> CFG:
        key = id(func.node)
        if key not in self._cfgs:
            self._cfgs[key] = build_cfg(func.node)
        return self._cfgs[key]


class FlowRule(Rule):
    """A whole-program analysis with the Rule reporting surface.

    Unlike a lint rule it cannot check one module in isolation;
    ``analyze(program)`` replaces ``check(module)``.  The inherited
    :meth:`Rule.violation` helper keeps pragma suppression (and stale
    tracking) identical to the syntactic rules.
    """

    analysis_cls = None

    def check(self, module):        # pragma: no cover - wrong entry point
        raise TypeError(f"{self.name} is a whole-program analysis; "
                        f"use analyze(ProgramModel)")

    def analyze(self, program: ProgramModel) -> List[LintViolation]:
        return list(self.analysis_cls(program).check(self))


class FlowChargeRule(FlowRule):
    name = "flow-charge"
    description = ("every path through a public XPCEngine/Core/XPCRing "
                   "method must charge cycles or exit free; passive "
                   "timing models never tick")

    @property
    def analysis_cls(self):
        from repro.verify.flow.charge import ChargeAnalysis
        return ChargeAnalysis


class FlowEscapeRule(FlowRule):
    name = "flow-escape"
    description = ("relay-seg/capability handles must not escape the "
                   "trusted layers into services/apps")

    @property
    def analysis_cls(self):
        from repro.verify.flow.escape import EscapeAnalysis
        return EscapeAnalysis


class FlowExceptRule(FlowRule):
    name = "flow-except"
    description = ("typed XPC errors must not be swallowed by a broad "
                   "except on a path that mutates protocol state")

    @property
    def analysis_cls(self):
        from repro.verify.flow.exc import ExceptAnalysis
        return ExceptAnalysis


def default_flow_rules() -> List[FlowRule]:
    """One fresh instance of every flow analysis."""
    return [FlowChargeRule(), FlowEscapeRule(), FlowExceptRule()]


#: The flow-rule classes, for introspection / selective runs.
FLOW_RULES = (FlowChargeRule, FlowEscapeRule, FlowExceptRule)


def run_flow(modules: Optional[Iterable[ModuleInfo]] = None,
             rules: Optional[Sequence[FlowRule]] = None
             ) -> List[LintViolation]:
    """Run the dataflow analyses over *modules* (default: the tree)."""
    if modules is None:
        modules = collect_modules()
    program = ProgramModel(modules)
    if rules is None:
        rules = default_flow_rules()
    violations: List[LintViolation] = []
    for rule in rules:
        violations.extend(rule.analyze(program))
    violations.sort(key=lambda v: (v.path, v.line, v.rule))
    return violations


def flow_source(source: str, modname: str = "repro.fixture",
                rules: Optional[Sequence[FlowRule]] = None,
                path: str = "<string>",
                extra_modules: Optional[Iterable[ModuleInfo]] = None
                ) -> List[LintViolation]:
    """Analyze a source string as module *modname* (test hook).

    *extra_modules* joins the program model, so interprocedural facts
    (summaries across files) are testable from strings alone.
    """
    from repro.verify.lint import parse_module
    modules = [parse_module(source, path, modname)]
    if extra_modules:
        modules.extend(extra_modules)
    return run_flow(modules, rules)


__all__ = [
    "CFG", "CallGraph", "FLOW_RULES", "FlowChargeRule", "FlowEscapeRule",
    "FlowExceptRule", "FlowRule", "FuncDef", "ProgramModel", "build_cfg",
    "default_flow_rules", "flow_source", "run_flow",
]
