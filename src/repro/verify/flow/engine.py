"""A small fixpoint dataflow engine over :mod:`repro.verify.flow.cfg`.

One generic forward worklist solver parameterized by the lattice
(``join``) and the per-node ``transfer`` function.  Facts must be
hashable-comparable values (booleans, frozensets); the solver iterates
to a fixpoint, which terminates because every analysis here uses a
finite lattice and monotone transfer functions.
"""

from __future__ import annotations

from typing import Callable, Dict, TypeVar

from repro.verify.flow.cfg import CFG, ENTRY

T = TypeVar("T")


def solve_forward(cfg: CFG, entry_fact: T, bottom: T,
                  join: Callable[[T, T], T],
                  transfer: Callable[[int, T], T]) -> Dict[int, T]:
    """Forward dataflow: returns the *input* fact of every node.

    ``in[ENTRY] = entry_fact``; for every other node ``n``,
    ``in[n] = join over predecessors p of transfer(p, in[p])``.
    Unreachable nodes keep ``bottom``.
    """
    facts: Dict[int, T] = {n: bottom for n in cfg.nodes}
    facts[ENTRY] = entry_fact
    work = list(cfg.nodes)
    on_work = set(work)
    while work:
        node = work.pop()
        on_work.discard(node)
        preds = cfg.pred[node]
        if not preds and node != ENTRY:
            continue
        if node == ENTRY:
            new = entry_fact
        else:
            acc = None
            for p in preds:
                out_p = transfer(p, facts[p])
                acc = out_p if acc is None else join(acc, out_p)
            new = acc
        if new != facts[node]:
            facts[node] = new
            for s in cfg.succ[node]:
                if s not in on_work:
                    on_work.add(s)
                    work.append(s)
    return facts


def fixpoint(values: Dict[str, T],
             step: Callable[[Dict[str, T]], Dict[str, T]],
             max_rounds: int = 64) -> Dict[str, T]:
    """Iterate *step* on a summary map until it stops changing."""
    for _ in range(max_rounds):
        nxt = step(values)
        if nxt == values:
            return nxt
        values = nxt
    return values
