"""Service supervision and caller-side retry for the XPC runtime.

The paper's recovery story (§4.2) ends at the kernel: dead-callee
returns are repaired and the caller gets an error.  A production stack
needs the next layer up — something that notices the server is gone,
starts a replacement, re-registers its x-entries, and re-grants the
capabilities its clients held; and callers that retry transient
failures (:class:`XPCBusyError`, :class:`XPCTimeoutError`,
:class:`XPCPeerDiedError`) with exponential backoff instead of
hammering a recovering service.

:class:`ServiceSupervisor` hooks ``kernel.death_hooks``: when a
supervised service's process dies — killed, crashed by fault injection,
whatever — the supervisor backs off (simulated cycles), creates a fresh
process + thread pair, re-runs the service factory (which registers the
new x-entry via the normal syscall path, so all control-plane costs are
charged), re-applies the capability grants, and notifies listeners
(e.g. a nameserver ``republish``).

Everything is deterministic: backoff burns ``core.tick`` cycles, no
wall-clock anywhere.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple

import repro.probe as probe
from repro.hw.cpu import Core
from repro.kernel.kernel import BaseKernel
from repro.runtime.xpclib import (XPCBusyError, XPCService,
                                  XPCTimeoutError)
from repro.xpc.errors import XPCPeerDiedError


class SupervisorError(Exception):
    """The supervisor gave up (restart budget exhausted, bad config)."""


@dataclass
class RestartPolicy:
    """How eagerly a dead service is resurrected."""

    max_restarts: int = 5
    backoff_base: int = 2_000       # cycles before the first restart
    backoff_factor: int = 2
    backoff_max: int = 1_000_000

    def backoff(self, attempt: int) -> int:
        """Cycles to wait before restart *attempt* (1-based)."""
        delay = self.backoff_base * (self.backoff_factor ** (attempt - 1))
        return min(delay, self.backoff_max)


@dataclass
class SupervisedService:
    """Book-keeping for one supervised service."""

    name: str
    factory: Callable              # (kernel, core, server_thread) -> XPCService
    grants: Tuple[Callable, ...]   # thread suppliers to re-grant caps to
    policy: RestartPolicy
    service: Optional[XPCService] = None
    process: object = None
    thread: object = None
    generation: int = 0
    restarts: int = 0
    failed: bool = False
    events: List[str] = field(default_factory=list)


class ServiceSupervisor:
    """Restart supervisor over ``kernel.death_hooks``.

    Usage::

        sup = ServiceSupervisor(kernel, core)
        svc = sup.supervise(
            "echo",
            factory=lambda k, c, t: XPCService(k, c, t, handler),
            grants=[lambda: client_thread])
        ...
        # after the echo process dies, transparently:
        #   backoff → new process/thread → factory() re-registers the
        #   x-entry → grants re-applied → on_restart listeners called
        sup.entry_id("echo")    # the *current* entry id

    ``grants`` are callables returning the threads that should hold the
    xcall-cap — callables, not threads, so a grantee that was itself
    restarted re-resolves to its current incarnation.
    """

    def __init__(self, kernel: BaseKernel, core: Core,
                 policy: Optional[RestartPolicy] = None) -> None:
        self.kernel = kernel
        self.core = core
        self.policy = policy or RestartPolicy()
        self._services: Dict[str, SupervisedService] = {}
        #: Listeners called as ``fn(name, service)`` after a successful
        #: restart — nameserver republish glue hangs off this.
        self.on_restart: List[Callable] = []
        #: Listeners called as ``fn(name, service)`` after a retire —
        #: nameserver unpublish glue hangs off this.
        self.on_retire: List[Callable] = []
        kernel.death_hooks.append(self._process_died)

    # -- registration --------------------------------------------------

    def supervise(self, name: str, factory: Callable,
                  grants=(), policy: Optional[RestartPolicy] = None
                  ) -> XPCService:
        """Start *name* under supervision and return its XPCService."""
        if name in self._services:
            raise SupervisorError(f"service {name!r} already supervised")
        sup = SupervisedService(name=name, factory=factory,
                                grants=tuple(grants),
                                policy=policy or self.policy)
        self._services[name] = sup
        self._start(sup)
        return sup.service

    def _start(self, sup: SupervisedService) -> None:
        sup.generation += 1
        process = self.kernel.create_process(
            f"{sup.name}#{sup.generation}")
        thread = self.kernel.create_thread(process)
        sup.process, sup.thread = process, thread
        sup.service = sup.factory(self.kernel, self.core, thread)
        for supplier in sup.grants:
            grantee = supplier()
            if grantee is not None and grantee.alive:
                self.kernel.grant_xcall_cap(
                    self.core, process, grantee, sup.service.entry_id)
        sup.events.append(f"started gen={sup.generation} "
                          f"entry={sup.service.entry_id}")

    def retire(self, name: str) -> None:
        """Take *name* out of supervision for good — planned teardown.

        The service is deregistered *before* its process is killed, so
        the death hook sees an unknown process and no restart fires
        (the inverse ordering would resurrect what we just retired).
        ``on_retire`` listeners run last, with the final incarnation —
        the hook point for directory cleanup
        (:class:`~repro.services.nameserver.UnpublishOnRetire`).
        """
        sup = self._services.pop(name)
        service = sup.service
        if sup.process is not None and sup.process.alive:
            self.kernel.kill_process(sup.process, core=self.core)
        sup.failed = True
        sup.events.append(f"retired at gen={sup.generation}")
        if probe.METRIC:
            probe.metric("counter", f"supervisor.retired.{name}", 1,
                         self.core.cycles)
        for listener in self.on_retire:
            listener(name, service)

    # -- death handling ------------------------------------------------

    def _process_died(self, process) -> None:
        for sup in self._services.values():
            if sup.process is not process or sup.failed:
                continue
            if sup.restarts >= sup.policy.max_restarts:
                sup.failed = True
                sup.events.append("gave up: restart budget exhausted")
                if probe.METRIC:
                    probe.metric("counter", f"supervisor.gave_up.{sup.name}",
                                 1, self.core.cycles)
                continue
            sup.restarts += 1
            delay = sup.policy.backoff(sup.restarts)
            self.core.tick(delay)
            sup.events.append(f"restart #{sup.restarts} after "
                              f"{delay} cycles")
            if probe.METRIC:
                now = self.core.cycles
                probe.metric("counter", f"supervisor.restarts.{sup.name}",
                             1, now)
                probe.metric("histogram", "supervisor.backoff_cycles",
                             delay, now)
            self._start(sup)
            for listener in self.on_restart:
                listener(sup.name, sup.service)

    # -- introspection -------------------------------------------------

    def entry_id(self, name: str) -> int:
        sup = self._require(name)
        if sup.failed or sup.service is None:
            raise SupervisorError(f"service {name!r} is down for good")
        return sup.service.entry_id

    def service(self, name: str) -> XPCService:
        return self._require(name).service

    def thread(self, name: str):
        return self._require(name).thread

    def status(self, name: str) -> SupervisedService:
        return self._require(name)

    def _require(self, name: str) -> SupervisedService:
        sup = self._services.get(name)
        if sup is None:
            raise SupervisorError(f"service {name!r} is not supervised")
        return sup


class ConstRef:
    """Callable returning a fixed object — the degenerate grant
    supplier for grantees that are never restarted (plain clients).

    These reference classes exist so supervisor wiring survives a
    snapshot: :mod:`repro.snap` deepcopies the object graph, and an
    instance attribute follows the copy where a lambda's default-arg or
    closure cell would keep aliasing the pre-snapshot object.
    """

    def __init__(self, value) -> None:
        self.value = value

    def __call__(self):
        return self.value


class EntryRef:
    """Callable resolving a supervised service's *current* entry id —
    the batcher-side half of drain-and-restart recovery."""

    def __init__(self, supervisor: "ServiceSupervisor", name: str) -> None:
        self.supervisor = supervisor
        self.name = name

    def __call__(self) -> int:
        return self.supervisor.entry_id(self.name)


class GrantOnRestart:
    """``on_restart`` listener re-granting an onward xcall-cap to every
    restarted generation of a supervised worker (FS workers need the
    block device's cap, net workers the loopback device's)."""

    def __init__(self, transport, sid: int,
                 supervisor: "ServiceSupervisor") -> None:
        self.transport = transport
        self.sid = sid
        self.supervisor = supervisor

    def __call__(self, name: str, service) -> None:
        self.transport.grant_to_thread(self.sid,
                                       self.supervisor.thread(name))


#: Transient failures a caller may reasonably retry.
RETRYABLE = (XPCBusyError, XPCTimeoutError, XPCPeerDiedError)


def retry_call(fn: Callable, core: Core, retries: int = 3,
               backoff_base: int = 500, backoff_factor: int = 2,
               retry_on: tuple = RETRYABLE):
    """Run ``fn()``, retrying transient XPC failures with exponential
    backoff (simulated cycles burned on *core*).

    Non-retryable exceptions propagate immediately; the last transient
    failure propagates once *retries* is exhausted.
    """
    attempt = 0
    while True:
        try:
            return fn()
        except retry_on:
            attempt += 1
            if attempt > retries:
                raise
            core.tick(backoff_base * (backoff_factor ** (attempt - 1)))
