"""Per-layer host time: wrap the public entry points of each ``repro.<unit>``.

:data:`LAYERS` is the wrapper table.  Each row names a module, a class
in it (``None`` for a module-level function) and the methods to wrap.
A :class:`Tracer` replaces every listed function with a timing wrapper
for the length of a traced run and puts the originals back afterwards:
the spans are recorded from the benchmark's side of each layer
boundary, and nothing under ``src/`` knows it is being traced.

Self time is a span's duration minus the time of the wrapped spans it
encloses, so a layer's ``self_s`` is host time spent in that layer's
own code (plus whatever unwrapped code it calls).
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from contextlib import contextmanager
from typing import Callable, Dict, List, Optional, Tuple

#: layer -> [(module, class or None, (function names...))]
LAYERS: Dict[str, List[Tuple[str, Optional[str], Tuple[str, ...]]]] = {
    "hw": [
        ("repro.hw.memory", "PhysicalMemory", ("read", "write", "copy")),
        ("repro.hw.cpu", "Core",
         ("tick", "translate", "mem_read", "mem_write")),
        ("repro.hw.tlb", "TLB", ("lookup",)),
    ],
    "xpc": [
        ("repro.xpc.engine", "XPCEngine",
         ("xcall", "xret", "swapseg", "seg_translate")),
    ],
    "kernel": [
        ("repro.kernel.kernel", "BaseKernel",
         ("create_relay_seg", "activate_relay_seg", "install_relay_seg",
          "deactivate_relay_seg", "free_relay_seg", "revoke_relay_seg",
          "handle_link_overflow", "handle_link_underflow", "preempt",
          "kill_process", "repair_return")),
    ],
    "ipc": [
        ("repro.ipc.xpc_transport", "XPCTransport", ("call",)),
        ("repro.ipc.transport", "RelayPayload", ("read", "write")),
    ],
    "runtime": [
        ("repro.runtime.xpclib", None, ("xpc_call",)),
    ],
    "services": [
        ("repro.services.fs.server", "FSClient", ("read", "write")),
        ("repro.services.net.server", "NetClient", ("send", "recv")),
        ("repro.cluster.serving", "ShardHandler", ("__call__",)),
    ],
    "aio": [
        ("repro.aio.pool", "WorkerPool", ("submit", "drain")),
        ("repro.aio.batch", "Batcher", ("submit", "flush")),
        ("repro.aio.ring", "XPCRing",
         ("push_sqe", "pop_sqe", "push_cqe", "pop_cqe", "read_meta",
          "read_reply_meta")),
    ],
    "cluster": [
        ("repro.cluster.fabric", "Cluster", ("dispatch", "control_step")),
        ("repro.cluster.rpc", "RpcLink", ("send",)),
        ("repro.cluster.naming", "ShardedNameServer", ("resolve",)),
    ],
    "obs": [
        ("repro.obs.registry", "MetricsRegistry", ("counter", "histogram")),
        ("repro.obs.registry", "Histogram", ("observe",)),
    ],
    "prof": [
        ("repro.prof.slo", "SLOEngine", ("signal",)),
    ],
    "sel4": [
        ("repro.sel4.xpcglue", "Sel4Transport", ("call",)),
    ],
    "zircon": [
        ("repro.zircon.xpcglue", "ZirconTransport", ("call",)),
    ],
    "proptest": [
        ("repro.proptest.executors", "_ExecutorBase", ("step",)),
        ("repro.proptest.executors", "FaultingExecutor", ("step",)),
        ("repro.proptest.executors", "SanExecutor", ("step",)),
        ("repro.proptest.oracle", "Oracle", ("expected",)),
    ],
    "fastcore": [
        ("repro.proptest.fastexec", "FastCoreExecutor", ("step",)),
    ],
}

#: Spans kept for the Chrome trace; later spans only feed the totals.
SPANS_KEPT = 2_000


def _subclasses(cls: type) -> List[type]:
    out, todo = [], list(cls.__subclasses__())
    while todo:
        sub = todo.pop()
        if sub not in out:
            out.append(sub)
            todo.extend(sub.__subclasses__())
    return out


def resolve(module: str, owner: Optional[str], name: str) -> Callable:
    """The function a table row names: ``owner.name`` defined on the
    class itself (not inherited), or a module-level function defined in
    *module*.  Raises :class:`LookupError` when the row went stale."""
    mod = importlib.import_module(module)
    if owner is None:
        fn = getattr(mod, name, None)
        if getattr(fn, "__module__", None) != module:
            raise LookupError(f"{module}.{name} is not a function of "
                              f"that module")
        return fn
    cls = getattr(mod, owner, None)
    fn = vars(cls).get(name) if isinstance(cls, type) else None
    if not callable(fn) or not hasattr(fn, "__code__"):
        raise LookupError(f"{module}.{owner}.{name} is not a function "
                          f"defined on that class")
    return fn


class Tracer:
    """Layer-boundary spans for one process, kept in memory.

    ``install()`` patches every table entry (and every override of a
    listed method in an already-imported subclass); ``recording()``
    arms the wrappers around one timed pass.  Outside ``recording()``
    a wrapper only forwards the call.
    """

    def __init__(self) -> None:
        self.calls: Dict[str, int] = {layer: 0 for layer in LAYERS}
        self.self_ns: Dict[str, int] = {layer: 0 for layer in LAYERS}
        #: First :data:`SPANS_KEPT` spans: (label, layer, start_ns,
        #: dur_ns, op id, span index, parent span index or -1).
        self.spans: List[tuple] = []
        self.recorded_ns = 0
        self.op_id = 0
        self._active = False
        self._started = 0
        self._stack: List[list] = []
        self._patches: List[Tuple[object, str, object]] = []

    # -- wrapping ------------------------------------------------------
    def _wrap(self, layer: str, label: str, fn: Callable) -> Callable:
        tracer = self
        clock = time.perf_counter_ns
        stack = self._stack
        calls, self_ns, spans = self.calls, self.self_ns, self.spans

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not tracer._active:
                return fn(*args, **kwargs)
            index = tracer._started
            tracer._started = index + 1
            parent = stack[-1][1] if stack else -1
            frame = [0, index]
            stack.append(frame)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                dur = clock() - start
                stack.pop()
                calls[layer] += 1
                self_ns[layer] += dur - frame[0]
                if stack:
                    stack[-1][0] += dur
                if index < SPANS_KEPT:
                    spans.append((label, layer, start, dur, tracer.op_id,
                                  index, parent))
        return traced

    def _patch(self, owner, name: str, wrapped) -> None:
        self._patches.append((owner, name, vars(owner)[name]))
        setattr(owner, name, wrapped)

    def install(self) -> None:
        """Patch every table entry (idempotent per target)."""
        done = set()
        for layer, rows in LAYERS.items():
            for module, owner, names in rows:
                for name in names:
                    fn = resolve(module, owner, name)
                    if owner is None:
                        wrapped = self._wrap(layer, name, fn)
                        # Patched where it is imported: every repro
                        # module holding the original under this name.
                        for mod in list(sys.modules.values()):
                            modname = getattr(mod, "__name__", "")
                            if ((modname == "repro"
                                 or modname.startswith("repro."))
                                    and vars(mod).get(name) is fn):
                                self._patch(mod, name, wrapped)
                        continue
                    cls = getattr(sys.modules[module], owner)
                    for klass in [cls] + _subclasses(cls):
                        if name in vars(klass) and (klass, name) not in done:
                            done.add((klass, name))
                            self._patch(klass, name, self._wrap(
                                layer, f"{klass.__name__}.{name}",
                                vars(klass)[name]))

    def uninstall(self) -> None:
        """Put every original back, newest patch first."""
        while self._patches:
            owner, name, original = self._patches.pop()
            setattr(owner, name, original)

    def patched(self) -> List[Tuple[object, str, object]]:
        """(owner, attribute, original) for every live patch."""
        return list(self._patches)

    @contextmanager
    def installed(self):
        self.install()
        try:
            yield self
        finally:
            self.uninstall()

    @contextmanager
    def recording(self):
        """Arm the wrappers for one timed pass."""
        start = time.perf_counter_ns()
        self._active = True
        try:
            yield self
        finally:
            self._active = False
            self.recorded_ns += time.perf_counter_ns() - start

    def set_op(self, op_id: int) -> None:
        """Stamp the spans that follow with *op_id*: the current op or
        fuzz program, or for the cluster workloads the request admitted
        last (pools serve batches later, so that id marks an admission
        window, not the request served)."""
        self.op_id = op_id

    # -- export --------------------------------------------------------
    def chrome_trace(self) -> dict:
        """The kept spans as Chrome ``trace_event`` JSON (Perfetto)."""
        t0 = min((span[2] for span in self.spans), default=0)
        return {
            "displayTimeUnit": "ns",
            "traceEvents": [
                {"name": label, "cat": layer, "ph": "X", "pid": 1,
                 "tid": 1, "ts": (start - t0) / 1000.0,
                 "dur": dur / 1000.0,
                 "args": {"id": op_id, "span": index, "parent": parent}}
                for label, layer, start, dur, op_id, index, parent
                in self.spans],
        }
