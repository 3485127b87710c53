"""A user-level name server (the paper's Listing 1 pattern: "get
server's entry ID and capability from parent process or a name
server").

Maps service names to transport service ids and, on XPC transports,
performs the capability grant for the requesting thread — the
grant-cap flow of §4.2.

Robustness: each published name carries a :class:`CircuitBreaker`.
Clients report call failures back (:meth:`NameServer.report_failure`);
after ``threshold`` consecutive failures the breaker *opens* and
``resolve`` degrades to :class:`ServiceUnavailableError` instead of
handing out capabilities to a service that is plainly down.  After a
cooldown (measured in simulated cycles) the breaker goes *half-open*:
one probe call is allowed through, and its outcome closes or re-opens
the circuit.  A supervisor restarting a service republishes it
(:meth:`republish`), which resets the breaker.
"""

from __future__ import annotations

import enum
from typing import Callable, Dict, Optional

import repro.probe as probe
from repro.ipc.transport import Transport


class ServiceUnavailableError(Exception):
    """The name is published but its circuit breaker is open."""

    def __init__(self, name: str, failures: int):
        self.name = name
        self.failures = failures
        super().__init__(
            f"service {name!r} unavailable (circuit open after "
            f"{failures} consecutive failures)")


def _zero_clock() -> int:
    """Default breaker clock (module-level so snapshots can pickle a
    breaker that never got a real cycle source)."""
    return 0


class BreakerState(enum.Enum):
    CLOSED = "closed"          # healthy: calls flow
    OPEN = "open"              # tripped: fail fast
    HALF_OPEN = "half-open"    # cooldown elapsed: one probe allowed


class CircuitBreaker:
    """Consecutive-failure circuit breaker over a cycle clock."""

    def __init__(self, threshold: int = 3, cooldown: int = 100_000,
                 clock: Optional[Callable[[], int]] = None) -> None:
        if threshold < 1:
            raise ValueError("breaker threshold must be >= 1")
        self.threshold = threshold
        self.cooldown = cooldown
        self.clock = clock or _zero_clock
        self.state = BreakerState.CLOSED
        self.failures = 0
        self.opened_at = 0
        self.trips = 0

    def allow(self) -> bool:
        """May a call proceed right now?"""
        if self.state is BreakerState.CLOSED:
            return True
        if self.state is BreakerState.OPEN:
            if self.clock() - self.opened_at >= self.cooldown:
                self.state = BreakerState.HALF_OPEN
                return True
            return False
        return True  # HALF_OPEN: the probe is in flight

    def record_failure(self) -> None:
        self.failures += 1
        if (self.state is BreakerState.HALF_OPEN
                or self.failures >= self.threshold):
            if self.state is not BreakerState.OPEN:
                self.trips += 1
            self.state = BreakerState.OPEN
            self.opened_at = self.clock()

    def record_success(self) -> None:
        self.failures = 0
        self.state = BreakerState.CLOSED

    def reset(self) -> None:
        self.record_success()


class NameServer:
    """Name → service-id registry with capability handout."""

    def __init__(self, transport: Transport,
                 breaker_threshold: int = 3,
                 breaker_cooldown: int = 100_000) -> None:
        self.transport = transport
        self._names: Dict[str, int] = {}
        self._breakers: Dict[str, CircuitBreaker] = {}
        self._breaker_threshold = breaker_threshold
        self._breaker_cooldown = breaker_cooldown

    def _clock(self) -> int:
        core = getattr(self.transport, "core", None)
        return core.cycles if core is not None else 0

    def _make_breaker(self) -> CircuitBreaker:
        return CircuitBreaker(self._breaker_threshold,
                              self._breaker_cooldown, self._clock)

    def publish(self, name: str, sid: int) -> None:
        if name in self._names:
            raise KeyError(f"name {name!r} already published")
        self._names[name] = sid
        self._breakers[name] = self._make_breaker()

    def republish(self, name: str, sid: int) -> None:
        """Rebind *name* (supervisor restart path): the restarted
        service gets a fresh, closed breaker."""
        self._names[name] = sid
        self._breakers[name] = self._make_breaker()

    def unpublish(self, name: str) -> int:
        """Withdraw *name* from the directory (service teardown).

        Returns the sid the name was bound to; subsequent resolves get
        a plain ``KeyError`` (name unknown) rather than a breaker-open
        degradation — the service is gone on purpose, not unhealthy.
        The breaker is dropped with the binding so a later re-publish
        of the same name starts from a clean CLOSED circuit.
        """
        if name not in self._names:
            raise KeyError(f"no service published as {name!r}")
        sid = self._names.pop(name)
        self._breakers.pop(name, None)
        if probe.METRIC:
            probe.metric("counter", f"nameserver.unpublished.{name}", 1,
                         self._clock())
        return sid

    def resolve(self, name: str, requester_thread=None) -> int:
        """Look a service up; grant the xcall-cap when asked for.

        Raises :class:`ServiceUnavailableError` while the name's
        circuit breaker is open (degraded mode).
        """
        sid = self._names.get(name)
        if sid is None:
            raise KeyError(f"no service published as {name!r}")
        breaker = self._breakers[name]
        if not breaker.allow():
            if probe.METRIC:
                probe.metric("counter", f"nameserver.rejected.{name}", 1,
                             self._clock())
            raise ServiceUnavailableError(name, breaker.failures)
        if requester_thread is not None:
            self.transport.grant_to_thread(sid, requester_thread)
        return sid

    # -- health reporting (drives the breakers) -----------------------

    def report_failure(self, name: str) -> None:
        breaker = self._breakers.get(name)
        if breaker is not None:
            trips_before = breaker.trips
            breaker.record_failure()
            if probe.METRIC:
                probe.metric("counter", f"nameserver.failures.{name}", 1,
                             self._clock())
                if breaker.trips > trips_before:
                    probe.metric("counter", f"nameserver.trips.{name}", 1,
                                 self._clock())
                self._export_state(name, breaker)

    def report_success(self, name: str) -> None:
        breaker = self._breakers.get(name)
        if breaker is not None:
            breaker.record_success()
            if probe.METRIC:
                self._export_state(name, breaker)

    def _export_state(self, name: str, breaker: CircuitBreaker) -> None:
        probe.metric("gauge", f"nameserver.breaker_state.{name}",
                     breaker.state.value, self._clock())

    def breaker(self, name: str) -> Optional[CircuitBreaker]:
        return self._breakers.get(name)

    def names(self):
        return sorted(self._names)


class UnpublishOnRetire:
    """``ServiceSupervisor.on_retire`` listener withdrawing the retired
    service's name — the teardown mirror of the republish-on-restart
    glue.  Tolerates a name that was never published (or already
    unpublished by an explicit teardown path): retire must be
    idempotent from the directory's point of view.
    """

    def __init__(self, nameserver: "NameServer",
                 name: Optional[str] = None) -> None:
        self.nameserver = nameserver
        self.name = name

    def __call__(self, service_name: str, service) -> None:
        name = self.name or service_name
        if name in self.nameserver._names:
            self.nameserver.unpublish(name)
