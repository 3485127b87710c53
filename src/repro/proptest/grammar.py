"""The fuzzer's operation grammar: typed ops, programs, outcomes.

A *program* is a finite sequence of operations over a small vocabulary
of named services.  The grammar is deliberately closed under op
*removal*: any subsequence of a generated program is itself a valid
program (unknown names resolve to a typed ``no-service`` outcome, kills
and grants are idempotent), which is what lets the shrinker delete ops
freely without manufacturing undefined behaviour.

Observable outcomes form a tiny algebra shared by the oracle and every
executor:

* ``("ok", reply_meta, reply_bytes)`` — a completed request/response;
* ``("error", kind)`` with ``kind`` one of ``no-service`` / ``denied``
  / ``peer-died`` / ``handler-error``;
* ``("queued",)`` — a submit was accepted into the async window;
* ``("batch", (outcome, ...))`` — a wait op, carrying the submitted
  requests' outcomes in submission order;
* ``("ok",)`` — a control-plane op (register/grant/revoke/kill/preempt)
  that took effect.

Cycle counts are deliberately *not* part of an outcome — mechanisms
differ there by design; the harness checks only clock monotonicity and
the Fig. 5 phase identity.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import List, Tuple

#: Service behaviours the generator can instantiate.
SERVICE_KINDS = ("echo", "xform", "counter", "kv", "chain", "thief")

#: Typed error kinds an op can surface.
ERROR_KINDS = ("no-service", "denied", "peer-died", "handler-error")

#: Artifact schema tag (bump on incompatible changes).
SCHEMA = "repro.proptest/1"


def xform_bytes(data: bytes) -> bytes:
    """The ``xform`` service's transform: xor-whiten, then reverse.

    Lives in the grammar (not the oracle) because it is part of the
    *specification* of the service vocabulary: the oracle predicts it
    and every executor's handler must implement exactly this.
    """
    return bytes(b ^ 0x5A for b in data)[::-1]


def counter_bytes(total: int) -> bytes:
    """The ``counter`` service's reply payload for a running total."""
    return total.to_bytes(8, "little")


# ---------------------------------------------------------------------------
# Operations
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class RegisterOp:
    """Create a fresh process+thread serving *name* with behaviour
    *kind*.  Re-registering a name starts a new *generation*; the old
    one stays alive (async submits bound to it still complete)."""
    name: str
    kind: str
    op = "register"


@dataclass(frozen=True)
class GrantOp:
    """Grant the client the right to sync-call *name*."""
    name: str
    op = "grant"


@dataclass(frozen=True)
class RevokeOp:
    """Revoke the client's sync-call right for *name*.  The async ring
    entry is a separate capability and is unaffected (by design: the
    batcher's drain entry belongs to the ring client thread)."""
    name: str
    op = "revoke"


@dataclass(frozen=True)
class KillOp:
    """Kill *name*'s current generation (§4.2 teardown); idempotent."""
    name: str
    lazy: bool = True
    op = "kill"


@dataclass(frozen=True)
class PreemptOp:
    """A timer preemption lands on the client core mid-program."""
    op = "preempt"


@dataclass(frozen=True)
class CallOp:
    """Synchronous request/response through the mechanism under test."""
    name: str
    meta: tuple
    payload: bytes = b""
    reply_capacity: int = 0
    op = "call"


@dataclass(frozen=True)
class SubmitOp:
    """Queue one async request to *name*; completes at the next wait.

    Submission *binds* the request to the target's current generation —
    a later re-register does not redirect it."""
    name: str
    meta: tuple
    payload: bytes = b""
    reply_capacity: int = 0
    op = "submit"


@dataclass(frozen=True)
class WaitOp:
    """Flush and complete every pending submit, in submission order."""
    op = "wait"


OP_TYPES = {cls.op: cls for cls in
            (RegisterOp, GrantOp, RevokeOp, KillOp, PreemptOp,
             CallOp, SubmitOp, WaitOp)}


@dataclass(frozen=True)
class Program:
    """An immutable op sequence plus the seed that produced it."""

    ops: Tuple = ()
    seed: int = 0

    def __len__(self) -> int:
        return len(self.ops)

    def without(self, indices) -> "Program":
        """A copy with the ops at *indices* removed (shrinker step)."""
        drop = set(indices)
        return Program(tuple(op for i, op in enumerate(self.ops)
                             if i not in drop), self.seed)

    # -- JSON round-trip ----------------------------------------------
    def to_dict(self) -> dict:
        return {"seed": self.seed,
                "ops": [_op_to_dict(op) for op in self.ops]}

    @classmethod
    def from_dict(cls, data: dict) -> "Program":
        return cls(tuple(_op_from_dict(d) for d in data["ops"]),
                   data.get("seed", 0))

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2, sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "Program":
        return cls.from_dict(json.loads(text))


# ---------------------------------------------------------------------------
# Op / meta / outcome (de)serialisation
# ---------------------------------------------------------------------------

def meta_to_jsonable(meta):
    """Tuples (possibly nested, possibly holding bytes) → JSON lists."""
    if isinstance(meta, tuple):
        return {"t": [meta_to_jsonable(m) for m in meta]}
    if isinstance(meta, bytes):
        return {"b": meta.hex()}
    return meta


def meta_from_jsonable(data):
    if isinstance(data, dict) and "t" in data:
        return tuple(meta_from_jsonable(m) for m in data["t"])
    if isinstance(data, dict) and "b" in data:
        return bytes.fromhex(data["b"])
    return data


def _op_to_dict(op) -> dict:
    out = {"op": op.op}
    for fname in getattr(op, "__dataclass_fields__", {}):
        value = getattr(op, fname)
        if isinstance(value, bytes):
            value = {"b": value.hex()}
        elif isinstance(value, tuple):
            value = meta_to_jsonable(value)
        out[fname] = value
    return out


def _op_from_dict(data: dict):
    cls = OP_TYPES[data["op"]]
    kwargs = {}
    for fname, fdef in cls.__dataclass_fields__.items():
        if fname not in data:
            continue
        value = data[fname]
        if isinstance(value, dict):
            value = meta_from_jsonable(value)
        if fdef.type in ("bytes",) and isinstance(value, str):
            value = bytes.fromhex(value)
        kwargs[fname] = value
    return cls(**kwargs)


def outcome_to_jsonable(outcome):
    """Outcomes nest tuples and bytes; reuse the meta encoding."""
    return meta_to_jsonable(outcome)


def outcome_from_jsonable(data):
    return meta_from_jsonable(data)


# ---------------------------------------------------------------------------
# Validity (the generator's invariants, re-checkable on any program)
# ---------------------------------------------------------------------------

#: Ceiling on simultaneously pending submits (well below every ring's
#: entry count, so an async window can never overflow a ring).
MAX_PENDING = 8

#: Ceiling on theft attempts (sync calls to a ``thief`` service,
#: including chain hops into one) per program: each theft parks one
#: stolen window in the thief's seg-list, and the seg-list is finite.
MAX_THEFTS = 4


def validate(program: Program) -> List[str]:
    """Structural invariants every generated program satisfies — and,
    because they are monotone under op removal, every shrunk program
    satisfies too.  Returns a list of human-readable violations."""
    problems = []
    pending = 0
    thefts = 0
    kinds = {}
    for i, op in enumerate(program.ops):
        if isinstance(op, RegisterOp):
            if op.kind not in SERVICE_KINDS:
                problems.append(f"op {i}: unknown service kind {op.kind!r}")
            kinds[op.name] = op.kind
        elif isinstance(op, SubmitOp):
            pending += 1
            if pending > MAX_PENDING:
                problems.append(f"op {i}: more than {MAX_PENDING} "
                                f"pending submits")
            if kinds.get(op.name) == "thief":
                problems.append(f"op {i}: submit to a thief service")
        elif isinstance(op, WaitOp):
            pending = 0
        elif isinstance(op, CallOp):
            target = op.meta[1] if (kinds.get(op.name) == "chain"
                                    and len(op.meta) > 1) else op.name
            if kinds.get(op.name) == "thief" or kinds.get(target) == "thief":
                thefts += 1
    if thefts > MAX_THEFTS:
        problems.append(f"{thefts} theft attempts (max {MAX_THEFTS})")
    return problems
