"""The AES encryption server (paper §5.4's web-server evaluation)."""

from __future__ import annotations

from typing import Optional, Tuple

import repro.probe as probe
from repro.ipc.transport import (Payload, RelayPayload, Transport,
                                 watched_op)
from repro.services.crypto.aes import AES128

OP_ENCRYPT = "encrypt"
OP_DECRYPT = "decrypt"

#: Cycle cost of the cipher itself (software AES on the in-order core),
#: charged per byte on whichever core runs the server.
AES_CYCLES_PER_BYTE = 5.0


class CryptoServer:
    """Encrypts/decrypts traffic with a 128-bit key, over IPC."""

    def __init__(self, transport: Transport, key: bytes,
                 server_process, server_thread,
                 name: str = "crypto") -> None:
        self.transport = transport
        self.aes = AES128(key)
        self.bytes_processed = 0
        self.sid = transport.register(
            name, self._handle, server_process, server_thread)

    def _handle(self, meta: tuple, payload: Payload):
        if probe.SPAN or probe.METRIC:
            return watched_op(self.transport.current_core, "crypto",
                              self._dispatch, meta, payload)
        return self._dispatch(meta[0], meta, payload)

    def _dispatch(self, op, meta: tuple, payload: Payload):
        n, nonce = meta[1], meta[2]
        if op not in (OP_ENCRYPT, OP_DECRYPT):
            return (-1, f"unknown crypto op {op!r}"), None
        data = payload.read(n)
        self.transport.current_core.tick(int(len(data) * AES_CYCLES_PER_BYTE))
        out = self.aes.ctr_crypt(data, nonce)
        self.bytes_processed += len(out)
        if isinstance(payload, RelayPayload):
            payload.write(out, 0)   # in place: zero-copy reply
            return (0, len(out)), len(out)
        return (0, len(out)), out


class CryptoClient:
    """Stub for the crypto server."""

    def __init__(self, transport: Transport,
                 sid: Optional[int] = None, name: str = "crypto") -> None:
        self.transport = transport
        self.sid = sid if sid is not None else transport.lookup(name)

    def _call(self, op: str, data: bytes, nonce: bytes) -> bytes:
        meta, out = self.transport.call(
            self.sid, (op, len(data), nonce), data,
            reply_capacity=len(data))
        if meta[0] != 0:
            raise RuntimeError(f"crypto failed: {meta}")
        return out[:meta[1]]

    def encrypt(self, data: bytes, nonce: bytes) -> bytes:
        return self._call(OP_ENCRYPT, data, nonce)

    def decrypt(self, data: bytes, nonce: bytes) -> bytes:
        return self._call(OP_DECRYPT, data, nonce)
