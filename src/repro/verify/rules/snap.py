"""Snap-discipline rule: ``__snap_state__`` declarations stay complete.

Snapshot identity (:mod:`repro.snap.fingerprint`) hinges on
``__snap_state__`` tuples naming every instance attribute a class
carries: the runtime walker raises :class:`SnapshotError` when an
instance holds an undeclared attribute, but only on graphs a test
actually snapshots.  This rule catches the same drift statically, at
the moment someone adds ``self.new_field = ...`` to a declared class
without extending the tuple — before any snapshot test runs.

Mechanics: for every class that assigns ``__snap_state__`` at class
level, collect the literal strings appearing anywhere in the assigned
expression (this handles both plain tuples and the
``Base.__snap_state__ + ("extra",)`` extension idiom).  Then every
``self.X = ...`` target in the class's methods must name a declared
attribute.  Two sound exemptions:

* augmented assignments (``self.count += 1``) mutate an attribute that
  must already exist, so the original assignment is the declared one;
* classes whose declaration references a base tuple the rule cannot
  see (``Base.__snap_state__ + ...`` where ``Base`` is imported) are
  checked only against the *local* literals plus any in-module base
  declarations — attributes assigned by the base itself are the base
  module's responsibility.

A deliberate undeclared attribute (one excluded via
``__snap_fingerprint__``) is suppressed per-site with the usual
``# verify-ok: snap-discipline`` pragma.
"""

from __future__ import annotations

import ast
from typing import Dict, Iterator, List, Optional, Set, Tuple

from repro.verify.lint import (LintViolation, ModuleInfo, Rule,
                               written_attributes)


def _snap_decl(cls: ast.ClassDef) -> Optional[ast.AST]:
    """The expression assigned to ``__snap_state__``, or None."""
    for stmt in cls.body:
        if isinstance(stmt, ast.Assign):
            for target in stmt.targets:
                if (isinstance(target, ast.Name)
                        and target.id == "__snap_state__"):
                    return stmt.value
        elif isinstance(stmt, ast.AnnAssign):
            if (isinstance(stmt.target, ast.Name)
                    and stmt.target.id == "__snap_state__"
                    and stmt.value is not None):
                return stmt.value
    return None


def _literal_names(expr: ast.AST) -> Set[str]:
    """Every string literal anywhere in *expr*."""
    return {sub.value for sub in ast.walk(expr)
            if isinstance(sub, ast.Constant)
            and isinstance(sub.value, str)}


def _base_refs(expr: ast.AST) -> List[str]:
    """Names of classes whose ``__snap_state__`` the expression reads
    (``Base.__snap_state__`` -> "Base")."""
    out = []
    for sub in ast.walk(expr):
        if (isinstance(sub, ast.Attribute)
                and sub.attr == "__snap_state__"
                and isinstance(sub.value, ast.Name)):
            out.append(sub.value.id)
    return out


def _self_writes(cls: ast.ClassDef) -> Iterator[Tuple[str, int]]:
    """Yield (attribute, line) for every target that binds ``self.X``
    in the class's (possibly nested/async) methods."""
    for func in cls.body:
        if not isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        if not func.args.args:
            continue
        self_name = func.args.args[0].arg
        for node in ast.walk(func):
            for t in written_attributes(node, bindings_only=True):
                if isinstance(t.value, ast.Name) and t.value.id == self_name:
                    yield t.attr, getattr(node, "lineno", t.lineno)


class SnapDisciplineRule(Rule):
    name = "snap-discipline"
    description = ("classes declaring __snap_state__ must declare every "
                   "attribute their methods assign to self — snapshot "
                   "fingerprints fail loudly on undeclared state")

    def check(self, module: ModuleInfo) -> Iterator[LintViolation]:
        if not module.modname.startswith("repro."):
            return
        classes: Dict[str, ast.ClassDef] = {
            node.name: node for node in ast.walk(module.tree)
            if isinstance(node, ast.ClassDef)
        }
        decls: Dict[str, Optional[Set[str]]] = {}

        def declared(name: str, trail: Set[str]) -> Optional[Set[str]]:
            """Transitive literal declaration set for an in-module
            class, or None when it declares nothing."""
            if name in decls:
                return decls[name]
            cls = classes.get(name)
            if cls is None or name in trail:
                return None
            expr = _snap_decl(cls)
            if expr is None:
                decls[name] = None
                return None
            names = _literal_names(expr)
            for base in _base_refs(expr):
                inherited = declared(base, trail | {name})
                if inherited:
                    names |= inherited
            decls[name] = names
            return names

        for name, cls in classes.items():
            expr = _snap_decl(cls)
            if expr is None:
                continue
            names = declared(name, set()) or set()
            for attr, line in _self_writes(cls):
                if attr in names or attr == "__snap_state__":
                    continue
                v = self.violation(
                    module, line,
                    f"{name}.{attr} is assigned but missing from "
                    f"__snap_state__ — declare it (or exclude it via "
                    f"__snap_fingerprint__ and a pragma) so snapshots "
                    f"keep fingerprinting the complete state")
                if v:
                    yield v
