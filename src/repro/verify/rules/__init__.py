"""The repo-specific lint rules enforced over ``src/repro``.

Each module holds one rule; :func:`default_rules` builds the suite the
CLI, pytest, and CI all run.
"""

from repro.verify.rules.cycles import CycleAccountingRule
from repro.verify.rules.encapsulation import EncapsulationRule
from repro.verify.rules.errors import ErrorDisciplineRule
from repro.verify.rules.layering import LayeringRule
from repro.verify.rules.snap import SnapDisciplineRule
from repro.verify.rules.state import StateMutationRule

#: The rule classes, for introspection / selective runs.
DEFAULT_RULES = (LayeringRule, CycleAccountingRule, ErrorDisciplineRule,
                 StateMutationRule, EncapsulationRule, SnapDisciplineRule)


def default_rules():
    """One fresh instance of every rule in the suite."""
    return [rule() for rule in DEFAULT_RULES]


__all__ = ["CycleAccountingRule", "EncapsulationRule",
           "ErrorDisciplineRule", "LayeringRule", "SnapDisciplineRule",
           "StateMutationRule", "default_rules", "DEFAULT_RULES"]
