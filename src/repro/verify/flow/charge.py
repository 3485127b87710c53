"""flow-charge: path-sensitive cycle-charge analysis.

Every architectural operation charges calibrated cycles (paper
Tables 1/3).  One table, :data:`CHARGE_TABLE`, names the classes:

* a **charging class** (``XPCEngine``, ``Core``, ``XPCRing``): every
  path through a public method that reaches a *valued* return must
  charge — the early-return-skips-the-charge bug a "``tick`` appears
  somewhere" check cannot see — flagged at each offending return; a
  method with no such return that charges on *no* path is flagged at
  its ``def`` line — the forgotten charge;
* a **passive class** (``TLB``, ``CacheModel``, ``_TagArray``) is a
  timing provider: a method that calls ``tick`` is flagged at its
  ``def`` line (one clock, one charger).

A node charges if its effect calls ``tick`` directly, or calls a
function whose every resolution (by the humble name-resolver of
:mod:`repro.verify.flow.callgraph`) *always charges* — a summary
computed as an interprocedural greatest fixpoint, so charging via a
helper (``self._charge_entry()``) counts.

Declared-free exits, which do **not** need a charge on their path:

* a bare ``return`` / ``return None`` — the guard-exit convention: a
  rejected precondition costs nothing architectural;
* ``return <something>_cycles(...)`` — the cost-provider convention
  (the caller charges);
* the exceptional exit (``RAISE``) — a raised typed error aborts the
  operation; its cost, if any, is the trap path's to model.

Methods declared free in :data:`CHARGE_TABLE`, named ``*_cycles``,
underscore-private, or decorated as property/static/classmethod are
out of scope.  Suppress a sanctioned site with
``# verify-ok: flow-charge`` on the reported line.
"""

from __future__ import annotations

import ast
from typing import Dict, FrozenSet, Iterator, Optional

from repro.verify.lint import LintViolation

from repro.verify.flow.cfg import CFG, ENTRY, EXIT, call_name, effect_calls
from repro.verify.flow.engine import fixpoint, solve_forward

#: modname -> {class -> public methods that legitimately charge
#: nothing}; a class mapped to :data:`PASSIVE` must never tick.
PASSIVE = None
CHARGE_TABLE: Dict[str, Dict[str, Optional[FrozenSet[str]]]] = {
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
    "repro.aio.ring": {
        # The read-side surface: pure observers, free by design.
        "XPCRing": frozenset({
            "peek_indices", "peek_cqes", "read_meta", "read_reply_meta",
            "read_bytes", "payload_window", "space", "outstanding",
            "next_seq", "attach",
        }),
    },
    "repro.hw.tlb": {"TLB": PASSIVE},
    "repro.hw.cache": {"CacheModel": PASSIVE, "_TagArray": PASSIVE},
}


def _is_property(node: ast.FunctionDef) -> bool:
    for dec in node.decorator_list:
        name = dec.attr if isinstance(dec, ast.Attribute) else \
            dec.id if isinstance(dec, ast.Name) else ""
        if name in ("property", "cached_property", "staticmethod",
                    "classmethod"):
            return True
    return False


def _is_none_return(stmt: ast.Return) -> bool:
    return stmt.value is None or (
        isinstance(stmt.value, ast.Constant) and stmt.value.value is None)


def _is_cost_return(stmt: ast.Return) -> bool:
    if not isinstance(stmt.value, ast.Call):
        return False
    return call_name(stmt.value).endswith("_cycles")


class ChargeAnalysis:
    """The interprocedural pass; exposed via flow.FlowCharge rule."""

    def __init__(self, program) -> None:
        self.program = program
        self.always_charges = self._summaries()

    # -- interprocedural summaries -------------------------------------
    def _summaries(self) -> Dict[str, bool]:
        """qualname -> "every ENTRY→EXIT path charges".

        Greatest fixpoint: start optimistic (everything charges) and
        iterate downward, so mutual recursion converges soundly.
        """
        funcs = self.program.callgraph.functions
        values = {f.qualname: True for f in funcs}

        def step(cur: Dict[str, bool]) -> Dict[str, bool]:
            nxt = {}
            for func in funcs:
                nxt[func.qualname] = self._always_charges(func, cur)
            return nxt

        return fixpoint(values, step)

    def _node_charges(self, node, summaries: Dict[str, bool]) -> bool:
        for call in effect_calls(node):
            name = call_name(call)
            if name == "tick":
                return True
            cands = self.program.callgraph.candidates_named(name)
            if cands and all(summaries.get(c.qualname, False)
                             for c in cands):
                return True
        return False

    def _charged_in_facts(self, cfg: CFG,
                          summaries: Dict[str, bool]) -> Dict[int, bool]:
        def transfer(node: int, fact: bool) -> bool:
            return fact or self._node_charges(cfg.nodes[node], summaries)

        return solve_forward(cfg, entry_fact=False, bottom=True,
                             join=lambda a, b: a and b, transfer=transfer)

    def _always_charges(self, func, summaries: Dict[str, bool]) -> bool:
        cfg = self.program.cfg_of(func)
        facts = self._charged_in_facts(cfg, summaries)
        if EXIT not in cfg.pred or not cfg.pred[EXIT]:
            return False
        return all(facts[p] or self._node_charges(cfg.nodes[p], summaries)
                   for p in cfg.pred[EXIT])

    # -- the reported check --------------------------------------------
    def check(self, rule) -> Iterator[LintViolation]:
        for func in self.program.callgraph.functions:
            classes = CHARGE_TABLE.get(func.module.modname, {})
            if func.cls not in classes:
                continue
            free = classes[func.cls]
            if free is PASSIVE:
                yield from self._check_passive(rule, func)
            elif not (func.name.startswith("_")
                      or func.name.endswith("_cycles")
                      or func.name in free or _is_property(func.node)):
                yield from self._check_charging(rule, func)

    def _check_passive(self, rule, func) -> Iterator[LintViolation]:
        if any(isinstance(sub, ast.Call) and call_name(sub) == "tick"
               for sub in ast.walk(func.node)):
            v = rule.violation(
                func.module, func.node.lineno,
                f"{func.cls}.{func.name} calls tick() but {func.cls} is "
                f"a passive timing model — all charging goes through "
                f"the core (single-charger discipline)")
            if v:
                yield v

    def _check_charging(self, rule, func) -> Iterator[LintViolation]:
        cfg = self.program.cfg_of(func)
        reach = cfg.reachable_from(ENTRY)
        stmts = [n for n in cfg.statements() if n.id in reach]
        summaries = self.always_charges
        facts = self._charged_in_facts(cfg, summaries)
        uncharged = [
            n.stmt for n in stmts
            if isinstance(n.stmt, ast.Return)
            and not (_is_none_return(n.stmt) or _is_cost_return(n.stmt))
            and not (facts[n.id] or self._node_charges(n, summaries))]
        for stmt in uncharged:
            v = rule.violation(
                func.module, stmt.lineno,
                f"{func.cls}.{func.name} has a path that reaches this "
                f"return without charging cycles (no tick() and no "
                f"always-charging callee on the path) — the "
                f"early-return-skips-the-charge bug class; charge "
                f"before returning or declare the exit free")
            if v:
                yield v
        if uncharged or any(
                self._node_charges(n, summaries)
                or (isinstance(n.stmt, ast.Return)
                    and _is_cost_return(n.stmt)) for n in stmts):
            return
        v = rule.violation(
            func.module, func.node.lineno,
            f"{func.cls}.{func.name} models an architectural operation "
            f"but charges cycles on no path (no tick(), no "
            f"always-charging callee, no *_cycles cost returned); "
            f"charge it, or declare it free in "
            f"repro.verify.flow.charge.CHARGE_TABLE")
        if v:
            yield v
