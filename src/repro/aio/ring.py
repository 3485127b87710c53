"""Submission/completion rings laid out inside a relay segment.

The paper's ``xcall``/``xret`` is strictly synchronous: one blocked
caller per call chain, one boundary crossing per request.  This module
adds the io_uring/AnyCall-style aggregation layer on top — *without*
changing the ISA semantics.  A single relay segment carries:

``+--------+----------------+----------------+--------------------+``
``| header | SQE ring       | CQE ring       | payload arena      |``
``+--------+----------------+----------------+--------------------+``

* The **header** holds the geometry and the four ring indices
  (``sq_head``/``sq_tail``/``cq_head``/``cq_tail``) as real bytes in
  simulated physical memory.  Indices are *monotonic* (never wrap); a
  record's slot is ``index % entries``.  ``head <= tail`` is therefore a
  memory-checkable invariant (see :func:`repro.verify.check_ring_invariants`).
* **SQEs** are fixed 32-byte records pointing at arena-resident meta and
  payload bytes; **CQEs** mirror them with a status and reply locations.
  Replies land *in place* in the request's arena slot — the same
  zero-copy convention as the synchronous transport.
* The **arena** is a bump allocator, reset by the client between batch
  rounds once every completion has been harvested.

TOCTTOU safety comes for free from relay-seg ownership (§3.3/§6.1):
the client fills SQEs while it owns the segment, the single ``xcall``
hands ownership to the worker, which drains while *it* owns the
segment; there is never a moment with two writers.

Every enqueue/dequeue is cycle-accounted through the operating core
(``aio_*`` fields of :class:`repro.params.CycleParams`); arena fills
charge the same ``relay_fill_per_byte`` as the synchronous transport's
message production.
"""

from __future__ import annotations

import ast
import struct
from collections import OrderedDict
from typing import List, NamedTuple, Optional

import repro.faults as faults
import repro.obs as obs
import repro.probe as probe
from repro.hw.cpu import Core
from repro.xpc.errors import XPCError
from repro.xpc.relayseg import RelaySegment, SegReg

#: Header field layout (all little-endian u32):
#:   magic, entries, sqe_off, cqe_off, arena_off, arena_len,
#:   sq_head, sq_tail, cq_head, cq_tail, arena_cur, next_seq
_HDR = struct.Struct("<12I")
HDR_BYTES = 64
MAGIC = 0x58504352  # "XPCR"

#: The six index words (``sq_head`` .. ``next_seq``) sit at header
#: offset 24; every ring op reads them with one access and writes them
#: back with at most one.
_IDX = struct.Struct("<6I")
_IDX_OFF = 24
_IDX_NAMES = ("sq_head", "sq_tail", "cq_head", "cq_tail", "arena_cursor",
              "next_seq")
_SQ_HEAD, _SQ_TAIL, _CQ_HEAD, _CQ_TAIL, _ARENA_CUR, _NEXT_SEQ = range(6)

_SQE = struct.Struct("<6I")   # seq, meta_off, meta_len, data_off, slot_len, data_len
_CQE = struct.Struct("<Ii4I")  # seq, status, rmeta_off, rmeta_len, rdata_off, rdata_len
SQE_BYTES = 32
CQE_BYTES = 32

#: CQE status values.
SQE_OK = 0
SQE_ERR = -1


class XPCRingFullError(XPCError):
    """Bounded-queue backpressure: the submission ring (or its payload
    arena) cannot admit another request right now."""

    def __init__(self, name: str, reason: str) -> None:
        self.ring_name = name
        self.reason = reason
        super().__init__(f"{name}: {reason}")


class SQE(NamedTuple):
    """A submission-queue entry as read back from ring memory."""

    seq: int
    meta_off: int
    meta_len: int
    data_off: int
    slot_len: int      # bytes reserved in the arena (>= data and reply)
    data_len: int      # bytes of request payload actually filled


class CQE(NamedTuple):
    """A completion-queue entry as read back from ring memory."""

    seq: int
    status: int
    rmeta_off: int
    rmeta_len: int
    rdata_off: int
    rdata_len: int


#: Encoded meta -> the tuple it came from, for tuples of exact ``str``
#: and ``int`` elements only.  ``repr`` round-trips those types, so a
#: hit equals ``literal_eval`` of the same bytes; anything else (other
#: element types, bytes altered in ring memory) misses and is parsed.
#: Oldest entries are evicted first.
_META_MEMO: "OrderedDict[bytes, tuple]" = OrderedDict()
META_MEMO_MAX = 1024


def encode_meta(meta: tuple) -> bytes:
    """Deterministically serialize a transport ``meta`` tuple."""
    meta = tuple(meta)
    data = repr(meta).encode("utf-8")
    if (data not in _META_MEMO
            and all(type(x) is str or type(x) is int for x in meta)):
        if len(_META_MEMO) >= META_MEMO_MAX:
            _META_MEMO.popitem(last=False)
        _META_MEMO[data] = meta
    return data


def decode_meta(data: bytes) -> tuple:
    hit = _META_MEMO.get(data)
    if hit is not None:
        return hit
    return tuple(ast.literal_eval(data.decode("utf-8")))


def _align8(n: int) -> int:
    return (n + 7) & ~7


class XPCRing:
    """One submission/completion ring over one relay segment.

    Create it client-side with :meth:`format` (writes the header) and
    view it worker-side with :meth:`attach` (reads the header from the
    handed-over window).  All mutation of ring memory anywhere in the
    tree must go through this API — enforced by the aio row of the
    ``encapsulation`` lint rule.
    """

    def __init__(self, mem, pa_base: int, va_base: int, length: int,
                 segment: Optional[RelaySegment], name: str) -> None:
        self._mem = mem
        self.pa_base = pa_base
        self.va_base = va_base
        self.length = length
        self.segment = segment
        self.name = name
        self.entries = 0
        self._sqe_off = 0
        self._cqe_off = 0
        self._arena_off = 0
        self._arena_len = 0

    # -- construction --------------------------------------------------
    @classmethod
    def format(cls, core: Core, mem, seg: RelaySegment,
               entries: int = 64, name: str = "aio") -> "XPCRing":
        """Client-side: lay a fresh ring out inside *seg*."""
        if entries <= 0:
            raise ValueError("ring needs at least one entry")
        sqe_off = HDR_BYTES
        cqe_off = sqe_off + entries * SQE_BYTES
        arena_off = _align8(cqe_off + entries * CQE_BYTES)
        if arena_off + 64 > seg.length:
            raise ValueError(
                f"segment of {seg.length} bytes too small for "
                f"{entries}-entry ring")
        ring = cls(mem, seg.pa_base, seg.va_base, seg.length, seg, name)
        ring.entries = entries
        ring._sqe_off = sqe_off
        ring._cqe_off = cqe_off
        ring._arena_off = arena_off
        ring._arena_len = seg.length - arena_off
        mem.write(seg.pa_base, _HDR.pack(
            MAGIC, entries, sqe_off, cqe_off, arena_off, ring._arena_len,
            0, 0, 0, 0, arena_off, 0))
        core.tick(core.params.aio_index_reload
                  + int(HDR_BYTES * core.params.relay_fill_per_byte))
        return ring

    @classmethod
    def attach(cls, core: Core, mem, window: SegReg,
               name: str = "aio") -> "XPCRing":
        """Worker-side: view the ring inside a handed-over window."""
        if not window.valid:
            raise XPCError("cannot attach a ring to an invalid window")
        ring = cls(mem, window.pa_base, window.va_base, window.length,
                   window.segment, name)
        hdr = _HDR.unpack(mem.read(window.pa_base, _HDR.size))
        core.tick(core.params.aio_index_reload)
        if hdr[0] != MAGIC:
            raise XPCError(f"{name}: window holds no ring (bad magic)")
        ring.entries = hdr[1]
        ring._sqe_off, ring._cqe_off = hdr[2], hdr[3]
        ring._arena_off, ring._arena_len = hdr[4], hdr[5]
        return ring

    # -- raw index access (memory-resident) ----------------------------
    def _indices(self) -> List[int]:
        """The six index words, read with one access to ring memory."""
        return list(_IDX.unpack(self._mem.read(self.pa_base + _IDX_OFF,
                                               _IDX.size)))

    def _publish(self, idx: List[int]) -> None:
        """Write the six index words back with one access."""
        self._mem.write(self.pa_base + _IDX_OFF, _IDX.pack(*idx))

    @property
    def sq_head(self) -> int:
        return self._indices()[_SQ_HEAD]

    @property
    def sq_tail(self) -> int:
        return self._indices()[_SQ_TAIL]

    @property
    def cq_head(self) -> int:
        return self._indices()[_CQ_HEAD]

    @property
    def cq_tail(self) -> int:
        return self._indices()[_CQ_TAIL]

    @property
    def arena_cursor(self) -> int:
        return self._indices()[_ARENA_CUR]

    @property
    def next_seq(self) -> int:
        return self._indices()[_NEXT_SEQ]

    def peek_indices(self) -> dict:
        """Uncharged snapshot of the memory-resident indices (for
        observers and invariant checkers — never moves the clock)."""
        return dict(zip(_IDX_NAMES, self._indices()))

    # -- capacity ------------------------------------------------------
    @property
    def outstanding(self) -> int:
        """Requests admitted but not yet harvested (SQ fill + CQ fill)."""
        idx = self._indices()
        return idx[_SQ_TAIL] - idx[_CQ_HEAD]

    def space(self) -> int:
        """SQEs that can still be pushed before the ring refuses.

        Bounded by ``cq_head`` (not ``sq_head``) so the completion ring
        can never overflow: a slot is only reusable once its completion
        has been harvested."""
        return self.entries - self.outstanding

    # -- arena ---------------------------------------------------------
    def _reserve(self, idx: List[int], nbytes: int) -> int:
        """Bump the arena cursor in *idx* (not yet published)."""
        cur = idx[_ARENA_CUR]
        need = _align8(nbytes)
        end = self._arena_off + self._arena_len
        if cur + need > end:
            raise XPCRingFullError(
                self.name,
                f"payload arena exhausted ({need} bytes wanted, "
                f"{end - cur} free)")
        idx[_ARENA_CUR] = cur + need
        return cur

    # -- submission side (client owns the segment) ---------------------
    def push_sqe(self, core: Core, meta: tuple, payload: bytes = b"",
                 reply_capacity: int = 0) -> int:
        """Append one request; returns its sequence number.

        Raises :class:`XPCRingFullError` when the ring or the arena is
        full — the ``aio.ring_full`` fault point injects that refusal
        even with space remaining (a racing producer got there first).
        """
        if faults.ACTIVE is not None:
            if faults.fire("aio.ring_full") is not None:
                raise XPCRingFullError(
                    self.name, "submission ring full (injected)")
        idx = self._indices()
        tail = idx[_SQ_TAIL]
        if tail - idx[_CQ_HEAD] >= self.entries:
            raise XPCRingFullError(
                self.name,
                f"submission ring full ({self.entries} outstanding)")
        meta_bytes = encode_meta(meta)
        slot_len = _align8(max(len(payload), reply_capacity, 1))
        meta_off = self._reserve(idx, len(meta_bytes))
        try:
            data_off = self._reserve(idx, slot_len)
        except XPCRingFullError:
            # The meta reservation stands even though the request does
            # not: the arena is a bump allocator, rewound only by reset.
            self._publish(idx)
            raise
        self._mem.write(self.pa_base + meta_off, meta_bytes)
        if payload:
            self._mem.write(self.pa_base + data_off, payload)
        fill = len(meta_bytes) + len(payload)
        seq = idx[_NEXT_SEQ]
        self._mem.write(
            self.pa_base + self._sqe_off + (tail % self.entries) * SQE_BYTES,
            _SQE.pack(seq, meta_off, len(meta_bytes), data_off,
                      slot_len, len(payload)))
        idx[_SQ_TAIL] = tail + 1
        idx[_NEXT_SEQ] = seq + 1
        self._publish(idx)
        if probe.ACCESS:
            probe.access(core, self, "ring-sq", "aio.ring.push_sqe",
                         "write")
        core.tick(core.params.aio_sqe_op
                  + int(fill * core.params.relay_fill_per_byte))
        return seq

    def pop_cqe(self, core: Core) -> Optional[CQE]:
        """Harvest one completion (client side); None when drained."""
        idx = self._indices()
        head = idx[_CQ_HEAD]
        if head >= idx[_CQ_TAIL]:
            return None
        raw = self._mem.read(
            self.pa_base + self._cqe_off + (head % self.entries) * CQE_BYTES,
            _CQE.size)
        idx[_CQ_HEAD] = head + 1
        self._publish(idx)
        if probe.ACCESS:
            probe.access(core, self, "ring-cq", "aio.ring.pop_cqe",
                         "write")
        core.tick(core.params.aio_cqe_op)
        return CQE(*_CQE.unpack(raw))

    def reset(self, core: Core) -> None:
        """Rewind the arena once every completion has been harvested."""
        idx = self._indices()
        sq_head, sq_tail, cq_head, cq_tail = idx[:4]
        if sq_head != sq_tail or cq_head != cq_tail:
            raise XPCError(
                f"{self.name}: reset with requests in flight "
                f"(sq {sq_head}/{sq_tail}, cq {cq_head}/{cq_tail})")
        idx[_ARENA_CUR] = self._arena_off
        self._publish(idx)
        if probe.ACCESS:
            probe.access(core, self, "ring-sq", "aio.ring.reset",
                         "write")
            probe.access(core, self, "ring-cq", "aio.ring.reset",
                         "write")
        core.tick(core.params.aio_index_reload)

    # -- drain side (worker owns the segment after the xcall) ----------
    def pop_sqe(self, core: Core) -> Optional[SQE]:
        """Consume one submission (worker side); None when empty.

        The ``aio.stale_head`` fault point models a stale cached index:
        recovery is a charged re-read of the header line.
        """
        if faults.ACTIVE is not None:
            if faults.fire("aio.stale_head") is not None:
                core.tick(core.params.aio_index_reload)
                if obs.ACTIVE is not None:
                    obs.ACTIVE.registry.counter(
                        f"aio.stale_head_recovered.{self.name}").inc(
                            cycle=core.cycles)
        idx = self._indices()
        head = idx[_SQ_HEAD]
        if head >= idx[_SQ_TAIL]:
            return None
        raw = self._mem.read(
            self.pa_base + self._sqe_off + (head % self.entries) * SQE_BYTES,
            _SQE.size)
        idx[_SQ_HEAD] = head + 1
        self._publish(idx)
        if probe.ACCESS:
            probe.access(core, self, "ring-sq", "aio.ring.pop_sqe",
                         "write")
        core.tick(core.params.aio_sqe_op)
        return SQE(*_SQE.unpack(raw))

    def push_cqe(self, core: Core, seq: int, status: int,
                 reply_meta: tuple, rdata_off: int, rdata_len: int) -> None:
        """Publish one completion (worker side).

        Reply payload bytes are already in place in the request's arena
        slot; only the reply meta is serialized here."""
        rmeta_bytes = encode_meta(reply_meta)
        idx = self._indices()
        rmeta_off = self._reserve(idx, len(rmeta_bytes))
        self._mem.write(self.pa_base + rmeta_off, rmeta_bytes)
        tail = idx[_CQ_TAIL]
        self._mem.write(
            self.pa_base + self._cqe_off + (tail % self.entries) * CQE_BYTES,
            _CQE.pack(seq, status, rmeta_off, len(rmeta_bytes),
                      rdata_off, rdata_len))
        idx[_CQ_TAIL] = tail + 1
        self._publish(idx)
        if probe.ACCESS:
            probe.access(core, self, "ring-cq", "aio.ring.push_cqe",
                         "write")
        core.tick(core.params.aio_cqe_op
                  + int(len(rmeta_bytes) * core.params.relay_fill_per_byte))

    # -- record payloads (uncharged reads, like sync reply reads) ------
    def read_meta(self, sqe: SQE) -> tuple:
        return decode_meta(self._mem.read(self.pa_base + sqe.meta_off,
                                          sqe.meta_len))

    def read_reply_meta(self, cqe: CQE) -> tuple:
        return decode_meta(self._mem.read(self.pa_base + cqe.rmeta_off,
                                          cqe.rmeta_len))

    def read_bytes(self, offset: int, n: int) -> bytes:
        if n <= 0:
            return b""
        return self._mem.read(self.pa_base + offset, n)

    def payload_window(self, sqe: SQE) -> SegReg:
        """A SegReg view of one request's arena slot — the window a
        zero-copy :class:`~repro.ipc.transport.RelayPayload` wraps."""
        if self.segment is None:
            raise XPCError(f"{self.name}: ring has no backing segment")
        return SegReg(
            segment=self.segment,
            va_base=self.va_base + sqe.data_off,
            pa_base=self.pa_base + sqe.data_off,
            length=sqe.slot_len,
            perm=self.segment.perm,
        )

    def peek_cqes(self) -> List[CQE]:
        """Uncharged view of unharvested completions (for invariant
        checks and crash-recovery harvesting)."""
        idx = self._indices()
        out = []
        for i in range(idx[_CQ_HEAD], idx[_CQ_TAIL]):
            raw = self._mem.read(
                self.pa_base + self._cqe_off
                + (i % self.entries) * CQE_BYTES, _CQE.size)
            out.append(CQE(*_CQE.unpack(raw)))
        return out

    def __repr__(self) -> str:
        sq_head, sq_tail, cq_head, cq_tail = self._indices()[:4]
        return (f"XPCRing({self.name!r}, entries={self.entries}, "
                f"sq={sq_head}/{sq_tail}, cq={cq_head}/{cq_tail})")
