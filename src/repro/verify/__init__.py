"""repro.verify — static invariant checker + lint suite for the XPC protocol.

The paper's central claims are *invariants*, not cycle counts: xcall-cap
is checked by hardware on every ``xcall`` (§3.2), linkage records push
and pop in strict LIFO order (§3.2), and a relay segment has exactly one
active owner at any point in the call chain (the TOCTTOU defence of
§3.3/§6.1).  This package holds the repo to that bar with two
complementary static-analysis passes:

* :mod:`repro.verify.lint` — a custom AST lint pass over ``src/repro``
  enforcing six repo-specific rules the design implies: layering plus
  a table of forbidden import edges
  (:mod:`repro.verify.rules.layering`), cycle-accounting completeness
  (:mod:`repro.verify.rules.cycles`), error discipline
  (:mod:`repro.verify.rules.errors`), the hardware-data-plane /
  kernel-control-plane state-mutation split
  (:mod:`repro.verify.rules.state`), a table of owner-only surfaces
  for ring, metric and cluster-node state
  (:mod:`repro.verify.rules.encapsulation`), and complete
  ``__snap_state__`` declarations (:mod:`repro.verify.rules.snap`).

* :mod:`repro.verify.model` — an exhaustive bounded model checker that
  enumerates XPC state spaces (N threads × M x-entries ×
  call/ret/swapseg/grant/revoke interleavings) against the *real*
  :class:`repro.xpc.engine.XPCEngine`, asserting the protocol invariants
  in :mod:`repro.verify.invariants` and reporting any violation with the
  minimal event sequence that produced it (replayed under a
  :class:`repro.probe.EventLog`).

Run standalone with ``python -m repro.verify`` (or the ``repro-lint``
console script); both passes are also wired into pytest under
``tests/verify``.

A violation site can be suppressed with a trailing pragma comment::

    from repro.xpc.engine import XPCEngine  # verify-ok: layering

Suppressions are deliberate and visible in review — the lint exists to
stop *silent* breakage of the paper's structure, not to forbid
consciously chosen inversions.
"""

from repro.verify.lint import (
    LintViolation, Rule, collect_modules, format_violations, lint_paths,
    lint_source, run_lint, run_verify,
)
from repro.verify.rules import DEFAULT_RULES, default_rules
from repro.verify.flow import (
    FLOW_RULES, ProgramModel, default_flow_rules, flow_source, run_flow,
)
from repro.verify.sarif import to_sarif, write_sarif
from repro.verify.stale import check_stale_pragmas, known_rule_names
from repro.verify.invariants import InvariantViolation
from repro.verify.live import (check_cluster_invariants, check_quiescent,
                               check_recovery_invariants,
                               check_ring_invariants)
from repro.verify.model import (
    CounterExample, ModelChecker, ModelConfig, ExploreResult,
)

__all__ = [
    "LintViolation", "Rule", "collect_modules", "format_violations",
    "lint_paths", "lint_source", "run_lint", "run_verify",
    "DEFAULT_RULES", "default_rules",
    "FLOW_RULES", "ProgramModel", "default_flow_rules", "flow_source",
    "run_flow", "to_sarif", "write_sarif", "check_stale_pragmas",
    "known_rule_names",
    "InvariantViolation", "CounterExample", "ModelChecker", "ModelConfig",
    "ExploreResult", "check_cluster_invariants", "check_quiescent",
    "check_recovery_invariants",
    "check_ring_invariants",
]
