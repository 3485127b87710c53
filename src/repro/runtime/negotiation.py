"""Message size negotiation along a calling chain (paper §4.4).

A caller that hands a relay segment down a chain must reserve space for
every byte any downstream server may *append* (e.g. a network stack
prepending headers).  The paper defines, for a node B with possible
callees C and D::

    S_all(B) = S_self(B) + max(S_all(C), S_all(D))

computed recursively the first time A calls B.  :func:`negotiate_size`
implements exactly that over a static call graph of :class:`SizeNode`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List


@dataclass
class SizeNode:
    """One server in the call graph with its own append requirement."""

    name: str
    s_self: int = 0
    callees: List["SizeNode"] = field(default_factory=list)

    def calls(self, *nodes: "SizeNode") -> "SizeNode":
        """Declare possible callees; returns self for chaining."""
        self.callees.extend(nodes)
        return self


def negotiate_size(root: SizeNode) -> int:
    """Return ``S_all(root)``: bytes the client must reserve.

    Raises ``ValueError`` on a cyclic call graph (the recursion of §4.4
    assumes a DAG; a cycle would make the reservation unbounded).
    """
    cache: Dict[int, int] = {}
    in_progress: set = set()

    def s_all(node: SizeNode) -> int:
        key = id(node)
        if key in cache:
            return cache[key]
        if key in in_progress:
            raise ValueError(
                f"cyclic call graph at {node.name!r}: "
                "size negotiation needs a DAG"
            )
        if node.s_self < 0:
            raise ValueError(f"{node.name!r} has negative S_self")
        in_progress.add(key)
        worst_callee = max((s_all(c) for c in node.callees), default=0)
        in_progress.discard(key)
        cache[key] = node.s_self + worst_callee
        return cache[key]

    return s_all(root)
