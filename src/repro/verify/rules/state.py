"""State-mutation rule: the hardware/kernel split of the XPC registers.

The paper splits XPC state handling into a hardware data plane (the
engine executes ``xcall``/``xret``/``swapseg`` over the per-thread
registers) and a kernel control plane (the kernel installs and repairs
that state on context switch, termination, and segment management —
§4.1/§4.2/§4.4).  Nobody else gets to touch the architectural registers:
a transport or OS-glue layer that pokes ``seg_reg`` or ``active_owner``
directly is forging hardware state, which is exactly how TOCTTOU-style
ownership bugs slip in.

Concretely: writes (every storing form
:func:`repro.verify.lint.written_attributes` knows) to the attributes
in :data:`PROTECTED_ATTRS` on any object other than ``self``
are allowed only in ``repro/xpc/engine.py`` and under ``repro/kernel/``.
Everything else must go through the kernel's control-plane API
(e.g. :meth:`BaseKernel.install_relay_seg`,
:meth:`BaseKernel.deactivate_relay_seg`).
"""

from __future__ import annotations

import ast
from typing import Iterator

from repro.verify.lint import (LintViolation, ModuleInfo, Rule,
                               written_attributes)

#: Architectural register / hardware-ownership attributes.
PROTECTED_ATTRS = frozenset({
    "seg_reg",          # the relay-seg register (§3.3)
    "seg_mask",         # the seg-mask register (§3.3)
    "cap_bitmap",       # xcall-cap-reg target (§3.2)
    "link_stack",       # linkage record stack (§3.2)
    "seg_list",         # seg-list-reg target (§3.3)
    "active_owner",     # the kernel's single-owner invariant (§3.3/§6.1)
})

#: Modules allowed to mutate: the engine (data plane) + kernel package.
ALLOWED_MODULES_EXACT = frozenset({"repro.xpc.engine"})
ALLOWED_MODULE_PREFIXES = ("repro.kernel.",)


def _is_allowed(modname: str) -> bool:
    return (modname in ALLOWED_MODULES_EXACT
            or modname == "repro.kernel"
            or modname.startswith(ALLOWED_MODULE_PREFIXES))


class StateMutationRule(Rule):
    name = "state-mutation"
    description = ("XPC architectural state (seg_reg/link_stack/"
                   "cap_bitmap/active_owner/...) is mutated only by the "
                   "engine data plane and the kernel control plane")

    def check(self, module: ModuleInfo) -> Iterator[LintViolation]:
        if not module.modname.startswith("repro."):
            return
        if _is_allowed(module.modname):
            return
        for node in ast.walk(module.tree):
            for target in written_attributes(node):
                attr = target.attr
                # Writes to self.<attr> are the object managing its own
                # construction — always fine.
                if attr not in PROTECTED_ATTRS or (
                        isinstance(target.value, ast.Name)
                        and target.value.id == "self"):
                    continue
                v = self.violation(
                    module, getattr(node, "lineno", target.lineno),
                    f"assigns architectural XPC state {attr!r} outside "
                    f"the engine/kernel — use the kernel control-plane "
                    f"API (BaseKernel.install_relay_seg / "
                    f"deactivate_relay_seg / run_thread) instead")
                if v:
                    yield v
