"""Synchronous IPC endpoints.

An endpoint is the rendezvous object of seL4's ``seL4_Call``.  In this
reproduction the server side is modeled by a bound handler function that
runs when a call arrives (the server thread is parked in ``recv`` on the
endpoint), which matches the paper's client/server measurement setup.
"""

from __future__ import annotations

from typing import Callable, Optional, Tuple

from repro.kernel.objects import KernelObject
from repro.kernel.process import Thread


class Endpoint(KernelObject):
    """A synchronous endpoint with one bound receiver."""

    def __init__(self, koid: int, name: str = "") -> None:
        super().__init__(koid, name)
        self.server_thread: Optional[Thread] = None
        self.handler: Optional[Callable] = None
        self.calls = 0

    def bind(self, server_thread: Thread, handler: Callable) -> None:
        """Park *server_thread* receiving on this endpoint."""
        self.server_thread = server_thread
        self.handler = handler
        server_thread.sched.runnable = False  # blocked in recv

    @property
    def bound(self) -> bool:
        return self.handler is not None

    def deliver(self, meta: tuple, payload) -> Tuple[tuple, Optional[bytes]]:
        """Run the server handler (the callee side of the rendezvous)."""
        if not self.bound:
            raise RuntimeError(f"{self} has no receiver")
        self.calls += 1
        return self.handler(meta, payload)
