"""Canonical content fingerprints for simulation state graphs.

:func:`fingerprint` walks an arbitrary object graph — the whole
simulated machine, or any sub-structure — and folds it into one sha256
digest.  Two graphs get the same digest iff they are structurally
identical, independent of ``PYTHONHASHSEED``, object identity, and
memory layout:

* dicts hash in **insertion order** (the simulation's own deterministic
  order — never hash-salt order);
* sets hash by the **sorted sub-fingerprints** of their elements, each
  computed standalone, so salted iteration order cannot leak in;
* objects hash by class qualname plus their ``vars()`` sorted by
  attribute name; cycles become back-references to the first visit.

Snapshot discipline is enforced on the way through: any class in an
object's MRO may declare ``__snap_state__`` — a plain tuple naming the
instance attributes that constitute its complete state (subclasses
extend with ``Base.__snap_state__ + (...,)``).  When a declaration
exists, every attribute actually present on the instance must be
declared somewhere in the MRO; an undeclared stray means someone added
state without thinking about snapshots, and the walk fails loudly with
:class:`SnapshotError` instead of silently fingerprinting it.  The
``snap-discipline`` lint rule (:mod:`repro.verify.rules.snap`) catches
the same drift statically.

A class whose raw attribute dict is the wrong identity basis (id-keyed
caches, derived bookkeeping) can define ``__snap_fingerprint__(self)``
returning any walkable value; the walker hashes that instead of
``vars()`` — e.g. :class:`~repro.hw.memory.PhysicalMemory` exposes its
page table as sorted ``(frame, sha256)`` pairs so live and dormant
snapshots of the same bytes fingerprint identically.
"""

from __future__ import annotations

import dataclasses
import enum
import functools
import hashlib
import itertools
import random
import types
from collections import deque
from typing import List, Optional, Set


class SnapshotError(Exception):
    """A graph is not snapshot-clean (stray state, unwalkable type)."""


#: Attributes that exist on instances for CPython bookkeeping and are
#: never simulation state.
_IGNORED_ATTRS = ("__weakref__", "__dict__")

_ATOM_TYPES = (type(None), bool, int, float, complex, str)


def declared_state(cls: type) -> Optional[Set[str]]:
    """Union of ``__snap_state__`` declarations over *cls*'s MRO, or
    None when no class in the MRO declares one."""
    names: Optional[Set[str]] = None
    for klass in cls.__mro__:
        decl = klass.__dict__.get("__snap_state__")
        if decl is not None:
            names = set(decl) if names is None else names | set(decl)
    return names


def check_state_discipline(obj: object) -> None:
    """Raise :class:`SnapshotError` if *obj* carries instance
    attributes outside its MRO's ``__snap_state__`` union."""
    names = declared_state(type(obj))
    if names is None:
        return
    attrs = getattr(obj, "__dict__", None)
    if attrs is None:
        return
    stray = [a for a in attrs
             if a not in names and a not in _IGNORED_ATTRS]
    if stray:
        raise SnapshotError(
            f"{type(obj).__module__}.{type(obj).__qualname__} carries "
            f"undeclared snapshot state {sorted(stray)!r} — add it to "
            f"__snap_state__ (or exclude it via __snap_fingerprint__)")


class _Walker:
    """One fingerprint computation: a sha256 fold over a canonical,
    type-tagged, length-prefixed token stream."""

    def __init__(self) -> None:
        self._h = hashlib.sha256()
        self._memo = {}            # id(obj) -> first-visit ordinal
        self._keepalive: List[object] = []

    # -- token stream --------------------------------------------------

    def _emit(self, tag: str, payload: bytes = b"") -> None:
        self._h.update(tag.encode("ascii"))
        self._h.update(len(payload).to_bytes(8, "big"))
        self._h.update(payload)

    def digest(self) -> str:
        return self._h.hexdigest()

    # -- dispatch ------------------------------------------------------

    def walk(self, obj: object) -> None:
        if obj is None or isinstance(obj, (bool, int, float, complex,
                                           str)):
            self._emit(type(obj).__name__, repr(obj).encode("utf-8"))
            return
        if isinstance(obj, (bytes, bytearray, memoryview)):
            self._emit("bytes", bytes(obj))
            return
        if isinstance(obj, enum.Enum):
            self._emit("enum", f"{type(obj).__qualname__}:"
                               f"{obj.value!r}".encode("utf-8"))
            return

        # Immutable values hash by *value*, never by identity: whether
        # two structures share one frozen instance or hold equal
        # copies is not simulation state (module-level singletons like
        # SEG_INVALID/NO_MASK alias freely in a live run but come back
        # from a restore as per-graph copies).  Cycles cannot close
        # through immutables alone, and any mutable object reached
        # below is still id-memoized, so recursion stays bounded.
        if isinstance(obj, tuple):
            fields = getattr(type(obj), "_fields", None)
            if fields is not None:
                # A NamedTuple value type hashes like a frozen
                # dataclass: its class name and named fields.
                self._emit("frozen", type(obj).__qualname__.encode("utf-8"))
                for name, value in zip(fields, obj):
                    self._emit("attr", name.encode("utf-8"))
                    self.walk(value)
                self._emit("frozen-close")
                return
            self._emit("tuple-open")
            for item in obj:
                self.walk(item)
            self._emit("tuple-close")
            return
        if (dataclasses.is_dataclass(obj) and not isinstance(obj, type)
                and type(obj).__dataclass_params__.frozen):
            self._emit("frozen", type(obj).__qualname__.encode("utf-8"))
            for field in dataclasses.fields(obj):
                self._emit("attr", field.name.encode("utf-8"))
                self.walk(getattr(obj, field.name))
            self._emit("frozen-close")
            return

        # Containers and objects participate in cycles: memoize by id.
        ordinal = self._memo.get(id(obj))
        if ordinal is not None:
            self._emit("backref", str(ordinal).encode("ascii"))
            return
        self._memo[id(obj)] = len(self._memo)
        self._keepalive.append(obj)

        if isinstance(obj, (list, deque)):
            self._emit("seq-open", type(obj).__name__.encode("ascii"))
            for item in obj:
                self.walk(item)
            self._emit("seq-close")
            return
        if isinstance(obj, dict):
            self._emit("dict-open")
            for key, value in obj.items():
                self.walk(key)
                self.walk(value)
            self._emit("dict-close")
            return
        if isinstance(obj, (set, frozenset)):
            # Standalone sub-fingerprints, sorted: salt-proof.
            subs = sorted(fingerprint(item) for item in obj)
            self._emit("set", ",".join(subs).encode("ascii"))
            return
        if isinstance(obj, random.Random):
            self._emit("random", repr(obj.getstate()).encode("utf-8"))
            return
        if isinstance(obj, itertools.count):
            self._emit("count", repr(obj).encode("ascii"))
            return
        if isinstance(obj, functools.partial):
            self._emit("partial")
            self.walk(obj.func)
            self.walk(obj.args)
            self.walk(obj.keywords)
            return
        if isinstance(obj, types.MethodType):
            self._emit("method",
                       obj.__func__.__qualname__.encode("utf-8"))
            self.walk(obj.__self__)
            return
        if isinstance(obj, (types.FunctionType, types.BuiltinFunctionType)):
            self._emit("function",
                       f"{getattr(obj, '__module__', '?')}:"
                       f"{obj.__qualname__}".encode("utf-8"))
            return
        if isinstance(obj, type):
            self._emit("class", f"{obj.__module__}:"
                                f"{obj.__qualname__}".encode("utf-8"))
            return
        if isinstance(obj, BaseException):
            self._emit("exception",
                       type(obj).__qualname__.encode("utf-8"))
            self.walk(obj.args)
            self.walk(dict(sorted(vars(obj).items())))
            return
        if isinstance(obj, range):
            self._emit("range", repr(obj).encode("ascii"))
            return

        self._walk_instance(obj)

    def _walk_instance(self, obj: object) -> None:
        hook = getattr(type(obj), "__snap_fingerprint__", None)
        if hook is not None:
            self._emit("hooked", type(obj).__qualname__.encode("utf-8"))
            self.walk(hook(obj))
            return
        check_state_discipline(obj)
        attrs = getattr(obj, "__dict__", None)
        if attrs is None:
            slots = getattr(type(obj), "__slots__", None)
            if slots is None:
                raise SnapshotError(
                    f"cannot fingerprint {type(obj).__module__}."
                    f"{type(obj).__qualname__} instance: no __dict__, "
                    f"no __slots__, no __snap_fingerprint__ hook")
            attrs = {name: getattr(obj, name) for name in slots
                     if hasattr(obj, name)}
        self._emit("object", type(obj).__qualname__.encode("utf-8"))
        for name in sorted(a for a in attrs if a not in _IGNORED_ATTRS):
            self._emit("attr", name.encode("utf-8"))
            self.walk(attrs[name])
        self._emit("object-close")


def fingerprint(obj: object) -> str:
    """Canonical sha256 hex digest of *obj*'s entire reachable state."""
    walker = _Walker()
    walker.walk(obj)
    return walker.digest()
