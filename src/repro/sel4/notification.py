"""seL4 notification objects: binary-semaphore style signalling.

Notifications are seL4's asynchronous primitive (used for interrupts
and cross-thread wakeups): ``signal`` bitwise-ORs the invoked
capability's badge into the notification word; ``wait`` consumes the
word, blocking if it is empty.  They complement the synchronous
endpoints the IPC evaluation measures.
"""

from __future__ import annotations

from typing import Optional

from repro.hw.cpu import Core, TrapCause
from repro.kernel.objects import KernelObject, Right
from repro.kernel.process import Thread

#: Kernel logic beyond the trap for a signal/wait.
SIGNAL_LOGIC = 90
WAIT_LOGIC = 110


class WouldBlock(Exception):
    """A wait on an empty notification (the caller must block)."""


class Notification(KernelObject):
    """The notification word plus (at most) one blocked waiter."""

    def __init__(self, koid: int, name: str = "") -> None:
        super().__init__(koid, name)
        self.word = 0
        self.waiter: Optional[Thread] = None
        self.signals = 0

    def do_signal(self, badge: int) -> Optional[Thread]:
        """OR the badge in; return a waiter to wake, if any."""
        self.word |= badge
        self.signals += 1
        waiter, self.waiter = self.waiter, None
        return waiter

    def do_wait(self, thread: Thread) -> int:
        """Consume the word, or register *thread* and block."""
        if self.word:
            word, self.word = self.word, 0
            return word
        self.waiter = thread
        raise WouldBlock(f"{self} is empty")

    def do_poll(self) -> int:
        """Non-blocking wait: returns 0 instead of blocking."""
        word, self.word = self.word, 0
        return word
