"""The custom AST lint pass: framework, module loading, and the driver.

Rules are small classes (:class:`Rule`) that walk a parsed module
(:class:`ModuleInfo`) and yield :class:`LintViolation` records.  The
framework handles file discovery, module-name resolution, pragma
suppressions, and formatting; the repo-specific rules live in
:mod:`repro.verify.rules`.

Suppression pragma: a ``# verify-ok: <rule>[, <rule>...]`` comment on the
offending line (the line of the statement's first token) suppresses the
named rules at that site only.
"""

from __future__ import annotations

import ast
import io
import re
import tokenize
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Set

_PRAGMA_RE = re.compile(r"#\s*verify-ok:\s*([a-z0-9_,\s-]+)")


@dataclass(frozen=True)
class LintViolation:
    """One rule violation at one source location."""

    rule: str
    path: str           # repo-relative or synthetic ("<string>") path
    line: int
    message: str

    def __str__(self) -> str:
        return f"{self.path}:{self.line}: [{self.rule}] {self.message}"


@dataclass
class ModuleInfo:
    """A parsed module plus everything a rule needs to inspect it."""

    path: str
    modname: str                    # dotted name, e.g. "repro.hw.machine"
    source: str
    tree: ast.Module
    suppressions: Dict[int, Set[str]] = field(default_factory=dict)
    #: (line, rule) pairs whose pragma actually suppressed a violation;
    #: filled in by Rule.violation, read by the stale-pragma pass.
    used_suppressions: Set = field(default_factory=set)
    _type_checking_lines: Optional[Set[int]] = field(
        default=None, repr=False, compare=False)

    @property
    def unit(self) -> str:
        """The top-level unit under ``repro`` ("hw", "xpc", ...).

        Top-level modules (``repro/__init__.py``, ``repro/params.py``)
        map to their own stem; the bare package maps to "".
        """
        parts = self.modname.split(".")
        if len(parts) < 2:
            return ""
        return parts[1]

    def suppressed(self, line: int, rule: str) -> bool:
        return rule in self.suppressions.get(line, set())

    @property
    def type_checking_lines(self) -> Set[int]:
        """Line numbers guarded by ``if TYPE_CHECKING:`` (cached).

        Computed in one walk of the tree, so per-node queries via
        :meth:`in_type_checking` are O(1) instead of re-walking the
        whole module per query.
        """
        if self._type_checking_lines is None:
            self._type_checking_lines = _collect_type_checking_lines(
                self.tree)
        return self._type_checking_lines

    def in_type_checking(self, node: ast.AST) -> bool:
        """True if *node* sits under an ``if TYPE_CHECKING:`` guard."""
        lineno = getattr(node, "lineno", None)
        return lineno is not None and lineno in self.type_checking_lines


class Rule:
    """Base class for lint rules."""

    name: str = "rule"
    description: str = ""

    def check(self, module: ModuleInfo) -> Iterator[LintViolation]:
        raise NotImplementedError

    # Helper for subclasses: emit unless pragma-suppressed.
    def violation(self, module: ModuleInfo, line: int,
                  message: str) -> Optional[LintViolation]:
        if module.suppressed(line, self.name):
            module.used_suppressions.add((line, self.name))
            return None
        return LintViolation(self.name, module.path, line, message)


def _scan_pragmas(source: str) -> Dict[int, Set[str]]:
    """Map line number -> rule names named in a ``verify-ok`` pragma.

    Scans COMMENT tokens only (via :mod:`tokenize`), so a pragma quoted
    inside a docstring or string literal neither suppresses anything nor
    shows up as stale.  Falls back to a line-regex scan if the source
    does not tokenize (the AST parse will surface the real error).
    """
    out: Dict[int, Set[str]] = {}

    def record(lineno: int, text: str) -> None:
        match = _PRAGMA_RE.search(text)
        if match:
            names = {n.strip() for n in match.group(1).split(",")}
            out[lineno] = {n for n in names if n}

    try:
        tokens = list(tokenize.generate_tokens(
            io.StringIO(source).readline))
    except (tokenize.TokenError, IndentationError, SyntaxError):
        for lineno, line in enumerate(source.splitlines(), start=1):
            record(lineno, line)
        return out
    for tok in tokens:
        if tok.type == tokenize.COMMENT:
            record(tok.start[0], tok.string)
    return out


def parse_module(source: str, path: str, modname: str) -> ModuleInfo:
    tree = ast.parse(source, filename=path)
    return ModuleInfo(path=path, modname=modname, source=source, tree=tree,
                      suppressions=_scan_pragmas(source))


def module_name_for(path: Path, src_root: Path) -> str:
    """``src/repro/hw/machine.py`` → ``repro.hw.machine``.

    Files outside the source root (scratch fixtures handed to the CLI)
    get a synthetic top-level name so package-scoped rules stay quiet
    and path-agnostic rules still run.
    """
    try:
        rel = path.resolve().relative_to(src_root.resolve())
    except ValueError:
        return path.stem
    parts = list(rel.with_suffix("").parts)
    if parts and parts[-1] == "__init__":
        parts = parts[:-1]
    return ".".join(parts)


def find_src_root(start: Optional[Path] = None) -> Path:
    """Locate the ``src`` directory that holds the ``repro`` package."""
    candidates = []
    if start is not None:
        candidates.append(Path(start))
    here = Path(__file__).resolve()
    candidates.append(here.parents[2])          # .../src
    for cand in candidates:
        if (cand / "repro" / "__init__.py").exists():
            return cand
    raise FileNotFoundError("cannot locate the src/ root of the repo")


def collect_modules(src_root: Optional[Path] = None,
                    package: str = "repro") -> List[ModuleInfo]:
    """Parse every ``.py`` file of *package* under *src_root*."""
    root = find_src_root(src_root)
    out: List[ModuleInfo] = []
    for path in sorted((root / package).rglob("*.py")):
        source = path.read_text()
        modname = module_name_for(path, root)
        try:
            rel = str(path.relative_to(root.parent))
        except ValueError:
            rel = str(path)
        out.append(parse_module(source, rel, modname))
    return out


def lint_modules(modules: Iterable[ModuleInfo],
                 rules: Optional[Sequence[Rule]] = None
                 ) -> List[LintViolation]:
    if rules is None:
        from repro.verify.rules import default_rules
        rules = default_rules()
    violations: List[LintViolation] = []
    for module in modules:
        for rule in rules:
            violations.extend(rule.check(module))
    violations.sort(key=lambda v: (v.path, v.line, v.rule))
    return violations


def run_lint(src_root: Optional[Path] = None,
             rules: Optional[Sequence[Rule]] = None,
             package: str = "repro") -> List[LintViolation]:
    """Lint the whole source tree; the entry point pytest and CI use."""
    return lint_modules(collect_modules(src_root, package), rules)


def lint_paths(paths: Sequence[Path],
               rules: Optional[Sequence[Rule]] = None) -> List[LintViolation]:
    """Lint an explicit list of files (CLI convenience)."""
    root = find_src_root()
    modules = []
    for path in paths:
        path = Path(path)
        modules.append(parse_module(path.read_text(), str(path),
                                    module_name_for(path, root)))
    return lint_modules(modules, rules)


def lint_source(source: str, modname: str = "repro.fixture",
                rules: Optional[Sequence[Rule]] = None,
                path: str = "<string>") -> List[LintViolation]:
    """Lint a source string as if it were module *modname* (test hook)."""
    return lint_modules([parse_module(source, path, modname)], rules)


def format_violations(violations: Sequence[LintViolation]) -> str:
    if not violations:
        return "repro.verify: all lint rules pass"
    lines = [str(v) for v in violations]
    lines.append(f"repro.verify: {len(violations)} violation(s)")
    return "\n".join(lines)


def _collect_type_checking_lines(tree: ast.Module) -> Set[int]:
    """Every line covered by the body of an ``if TYPE_CHECKING:`` guard.

    One walk over the module; handles both the plain ``TYPE_CHECKING``
    name and attribute guards like ``typing.TYPE_CHECKING``, including
    nested guards.
    """
    lines: Set[int] = set()
    for guard in ast.walk(tree):
        if not isinstance(guard, ast.If):
            continue
        test = guard.test
        is_tc = (isinstance(test, ast.Name) and test.id == "TYPE_CHECKING") \
            or (isinstance(test, ast.Attribute)
                and test.attr == "TYPE_CHECKING")
        if not is_tc or not guard.body:
            continue
        start = guard.body[0].lineno
        end = max(getattr(stmt, "end_lineno", stmt.lineno) or stmt.lineno
                  for stmt in guard.body)
        lines.update(range(start, end + 1))
    return lines


def written_attributes(node: ast.AST,
                       bindings_only: bool = False
                       ) -> Iterator[ast.Attribute]:
    """Yield every attribute that the statement *node* writes.

    Covers every form that stores or deletes: plain, augmented and
    annotated assignment, ``for`` and comprehension targets,
    ``with ... as`` and ``del``, unpacked through tuples, lists and
    starred targets.  A subscripted target (``a.b[i][j] = v``) writes
    the attribute it indexes (``a.b``).

    With *bindings_only*, only targets that bind the attribute itself
    are yielded: augmented assignment, ``del`` and subscripted targets
    mutate an attribute that must already exist, so they are skipped.
    """
    if isinstance(node, ast.Assign):
        targets = node.targets
    elif isinstance(node, (ast.AnnAssign, ast.For, ast.AsyncFor,
                           ast.comprehension)):
        targets = [node.target]
    elif isinstance(node, (ast.With, ast.AsyncWith)):
        targets = [item.optional_vars for item in node.items
                   if item.optional_vars is not None]
    elif isinstance(node, (ast.AugAssign, ast.Delete)):
        if bindings_only:
            return
        targets = ([node.target] if isinstance(node, ast.AugAssign)
                   else node.targets)
    else:
        return
    stack = list(targets)
    while stack:
        target = stack.pop()
        if isinstance(target, (ast.Tuple, ast.List)):
            stack.extend(target.elts)
        elif isinstance(target, ast.Starred):
            stack.append(target.value)
        elif isinstance(target, ast.Subscript):
            if not bindings_only:
                stack.append(target.value)
        elif isinstance(target, ast.Attribute):
            yield target


def names_in_chain(expr: ast.AST) -> Set[str]:
    """Every ``Name`` id and ``Attribute`` attr anywhere in *expr*."""
    out: Set[str] = set()
    for sub in ast.walk(expr):
        if isinstance(sub, ast.Attribute):
            out.add(sub.attr)
        elif isinstance(sub, ast.Name):
            out.add(sub.id)
    return out


def run_verify(src_root: Optional[Path] = None,
               package: str = "repro",
               with_flow: bool = True) -> List[LintViolation]:
    """The full static pass CI runs: lint + dataflow + stale pragmas.

    Runs the per-module lint rules, then the interprocedural analyses of
    :mod:`repro.verify.flow`, and finally :mod:`repro.verify.stale` over
    the same modules so any pragma that suppressed nothing in either
    pass (or names an unknown rule) is itself reported.
    """
    # Imported here: flow and stale build on this module.
    from repro.verify.flow import run_flow
    from repro.verify.rules import default_rules
    from repro.verify.stale import check_stale_pragmas, known_rule_names

    modules = collect_modules(src_root, package)
    violations = lint_modules(modules, default_rules())
    if with_flow:
        violations.extend(run_flow(modules))
    violations.extend(
        check_stale_pragmas(modules, known_rule_names(with_flow=with_flow)))
    violations.sort(key=lambda v: (v.path, v.line, v.rule))
    return violations
