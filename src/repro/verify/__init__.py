"""repro.verify — static invariant checker + lint suite for the XPC protocol.

The paper's central claims are *invariants*, not cycle counts: xcall-cap
is checked by hardware on every ``xcall`` (§3.2), linkage records push
and pop in strict LIFO order (§3.2), and a relay segment has exactly one
active owner at any point in the call chain (the TOCTTOU defence of
§3.3/§6.1).  This package holds the repo to that bar with
complementary passes:

* :mod:`repro.verify.lint` — a custom AST lint pass over ``src/repro``
  enforcing five repo-specific rules the design implies: layering plus
  a table of forbidden import edges
  (:mod:`repro.verify.rules.layering`), error discipline
  (:mod:`repro.verify.rules.errors`), the hardware-data-plane /
  kernel-control-plane state-mutation split
  (:mod:`repro.verify.rules.state`), a table of owner-only surfaces
  for ring, metric and cluster-node state
  (:mod:`repro.verify.rules.encapsulation`), and complete
  ``__snap_state__`` declarations (:mod:`repro.verify.rules.snap`).

* :mod:`repro.verify.flow` — interprocedural dataflow analyses,
  cycle accounting (flow-charge) among them.

* :mod:`repro.verify.model` — an exhaustive bounded model checker that
  enumerates XPC state spaces (N threads × M x-entries ×
  call/ret/swapseg/grant/revoke interleavings) against the *real*
  :class:`repro.xpc.engine.XPCEngine`, asserting the protocol invariants
  in :mod:`repro.verify.invariants` and reporting any violation with the
  minimal event sequence that produced it (replayed under a
  :class:`repro.probe.EventLog`).

* :mod:`repro.verify.invariants` — the one protocol catalogue, run by
  the model checker, the fuzz harness, the chaos suite and time travel.

Run standalone with ``python -m repro.verify`` (or the ``repro-lint``
console script); both passes are also wired into pytest under
``tests/verify``.

A violation site can be suppressed with a trailing pragma comment::

    from repro.xpc.engine import XPCEngine  # verify-ok: layering

Suppressions are deliberate and visible in review — the lint exists to
stop *silent* breakage of the paper's structure, not to forbid
consciously chosen inversions.
"""

import importlib

#: Public name -> the submodule defining it, imported on first use: the
#: fuzz harness, which runs only the invariant catalogue, then never
#: loads the lint, flow and model passes.
_EXPORTS = {
    **dict.fromkeys(("LintViolation", "Rule", "collect_modules",
                     "format_violations", "lint_paths", "lint_source",
                     "run_lint", "run_verify"), "lint"),
    **dict.fromkeys(("DEFAULT_RULES", "default_rules"), "rules"),
    **dict.fromkeys(("FLOW_RULES", "ProgramModel", "default_flow_rules",
                     "flow_source", "run_flow"), "flow"),
    **dict.fromkeys(("to_sarif", "write_sarif"), "sarif"),
    **dict.fromkeys(("check_stale_pragmas", "known_rule_names"), "stale"),
    **dict.fromkeys(("InvariantViolation", "check_protocol"),
                    "invariants"),
    **dict.fromkeys(("check_cluster_invariants", "check_quiescent",
                     "check_recovery_invariants", "check_ring_invariants"),
                    "live"),
    **dict.fromkeys(("CounterExample", "ModelChecker", "ModelConfig",
                     "ExploreResult"), "model"),
}

__all__ = list(_EXPORTS)


def __getattr__(name: str):
    module = _EXPORTS.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute "
                             f"{name!r}")
    return getattr(importlib.import_module(f"{__name__}.{module}"), name)
