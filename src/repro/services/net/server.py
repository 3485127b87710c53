"""The IPC-facing network-stack server and its client library.

Applications call the **net server** (socket API over IPC); the net
server drives :class:`~repro.services.net.stack.NetStack`, which calls
the **loopback device server** per segment — the two-server chain of
the paper's network evaluation (§5.3).
"""

from __future__ import annotations

from typing import Optional, Sequence, Tuple

import repro.probe as probe
from repro.aio.pool import WorkerPool
from repro.ipc.transport import (Payload, RelayPayload, Transport,
                                 watched_op)
from repro.runtime.supervisor import GrantOnRestart
from repro.services.net.loopback import LoopbackServer
from repro.services.net.stack import NetStack
from repro.services.net.tcp import TCPError

OP_SOCKET = "socket"
OP_LISTEN = "listen"
OP_CONNECT = "connect"
OP_ACCEPT = "accept"
OP_SEND = "send"
OP_RECV = "recv"
OP_CLOSE = "close"
OP_POLL = "poll"
OP_SOCKNAME = "sockname"


class NetServer:
    """The socket API behind an IPC boundary."""

    def __init__(self, transport: Transport, netdev_sid: int,
                 server_process, server_thread,
                 name: str = "net", delayed_acks: bool = False) -> None:
        self.transport = transport
        self.stack = NetStack(transport, netdev_sid,
                              delayed_acks=delayed_acks)
        self.sid = transport.register(
            name, self._handle, server_process, server_thread)

    def serve_async(self, cores: Sequence, name: str = "net-aio",
                    **pool_kwargs) -> WorkerPool:
        """Batched front-end over the same socket handler (XPC only);
        worker threads get the loopback device's onward xcall-cap on
        every supervisor generation."""
        pool = WorkerPool(self.transport.kernel, self._handle, cores,
                          name=name, **pool_kwargs)
        dev_sid = self.stack.netdev_sid
        for worker in pool.workers:
            self.transport.grant_to_thread(
                dev_sid, worker.supervisor.thread(worker.service_name))
            worker.supervisor.on_restart.append(
                GrantOnRestart(self.transport, dev_sid,
                               worker.supervisor))
        return pool

    def _handle(self, meta: tuple, payload: Payload):
        if probe.SPAN or probe.METRIC:
            return watched_op(self.transport.current_core, "net",
                              self._dispatch, meta, payload)
        return self._dispatch(meta[0], meta, payload)

    def _dispatch(self, op, meta: tuple, payload: Payload):
        stack = self.stack
        try:
            if op == OP_SOCKET:
                return (0, stack.socket()), None
            if op == OP_LISTEN:
                stack.listen(meta[1], meta[2])
                return (0,), None
            if op == OP_CONNECT:
                stack.connect(meta[1], meta[2])
                return (0,), None
            if op == OP_ACCEPT:
                child = stack.accept(meta[1])
                return ((0, child) if child is not None
                        else (-1, "no pending connection")), None
            if op == OP_SEND:
                n = stack.send(meta[1], payload.read(meta[2]))
                return (0, n), None
            if op == OP_RECV:
                data = stack.recv(meta[1], meta[2])
                if isinstance(payload, RelayPayload) and data:
                    payload.write(data, 0)
                    return (0, len(data)), len(data)
                return (0, len(data)), data
            if op == OP_CLOSE:
                stack.close(meta[1])
                return (0,), None
            if op == OP_POLL:
                return (0, stack.poll()), None
            if op == OP_SOCKNAME:
                return (0,) + stack.sockname(meta[1]), None
            return (-1, f"unknown net op {op!r}"), None
        except TCPError as exc:
            return (-1, str(exc)), None


class NetClient:
    """Application-side socket stub."""

    def __init__(self, transport: Transport,
                 sid: Optional[int] = None, name: str = "net") -> None:
        self.transport = transport
        self.sid = sid if sid is not None else transport.lookup(name)

    def _call(self, meta, payload: bytes = b"",
              reply_capacity: int = 0) -> Tuple[tuple, bytes]:
        reply_meta, data = self.transport.call(
            self.sid, meta, payload, reply_capacity=reply_capacity)
        if reply_meta[0] != 0:
            raise TCPError(reply_meta[1] if len(reply_meta) > 1
                           else "net error")
        return reply_meta, data

    def socket(self) -> int:
        return self._call((OP_SOCKET,))[0][1]

    def listen(self, sock: int, port: int) -> None:
        self._call((OP_LISTEN, sock, port))

    def connect(self, sock: int, port: int) -> None:
        self._call((OP_CONNECT, sock, port))

    def accept(self, sock: int) -> int:
        return self._call((OP_ACCEPT, sock))[0][1]

    def send(self, sock: int, data: bytes) -> int:
        return self._call((OP_SEND, sock, len(data)), data)[0][1]

    def recv(self, sock: int, n: int) -> bytes:
        meta, data = self._call((OP_RECV, sock, n), reply_capacity=n)
        return data[:meta[1]]

    def close(self, sock: int) -> None:
        self._call((OP_CLOSE, sock))

    def poll(self) -> int:
        return self._call((OP_POLL,))[0][1]

    def sockname(self, sock: int) -> Tuple[int, int]:
        meta = self._call((OP_SOCKNAME, sock))[0]
        return meta[1], meta[2]


def build_net_stack(transport: Transport, kernel,
                    delayed_acks: bool = False
                    ) -> Tuple[NetServer, NetClient, LoopbackServer]:
    """Wire the two-server network stack on *transport*."""
    dev_proc = kernel.create_process("netdev")
    dev_thread = kernel.create_thread(dev_proc)
    net_proc = kernel.create_process("netstack")
    net_thread = kernel.create_thread(net_proc)
    dev = LoopbackServer(transport, dev_proc, dev_thread)
    transport.grant_to_thread(dev.sid, net_thread)
    server = NetServer(transport, dev.sid, net_proc, net_thread,
                       delayed_acks=delayed_acks)
    return server, NetClient(transport, server.sid), dev
