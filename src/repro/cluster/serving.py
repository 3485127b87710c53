"""Shard-local application services for the cluster fabric.

Each class here is a *shard* of a familiar app — the state one node
owns for its slice of the key space — packaged as a transport-style
``handler(meta, payload)`` plus the matching request encoder, so
:meth:`repro.cluster.fabric.Cluster.serve` can install it on every node
(``factory=KVShard`` works as-is: the factory contract is simply
``node -> handler``).

Handlers charge their CPU on the worker core actually draining them:
the node kernel's ``handler_core``, which XPC handler dispatch records
for every drain, the same core the FS/net servers' transports resolve
``current_core`` to.

Three app families, mirroring the paper's §5.4 evaluation suite:

* :class:`KVShard` — an in-memory YCSB-style record store (the
  capacity benchmark's workhorse: cheap, uniform service time).
* :class:`StaticShard` — the httpd static site, speaking the real HTTP
  wire format from :mod:`repro.apps.httpd` (parse/build functions are
  reused, not reimplemented).
* :class:`SqliteShard` — the mini-SQLite database over a full per-node
  FS stack (journal, pager, B+tree), the heavyweight shard whose
  statement costs come from the real :class:`~repro.apps.sqlite.db`.
"""

from __future__ import annotations

import random
from typing import Optional, Tuple

from repro.apps.httpd import build_request, build_response, parse_request
from repro.apps.sqlite.db import Database
from repro.cluster.fabric import default_encoder
from repro.cluster.hashring import stable_hash
from repro.cluster.loadgen import Request
from repro.ipc.transport import Payload
from repro.runtime.supervisor import GrantOnRestart
from repro.sel4 import Sel4XPCTransport
from repro.services.fs.server import build_fs_stack

#: KV record touch: hash probe + record codec, YCSB-server scale.
KV_BASE_CYCLES = 1_500
KV_CODEC_PER_BYTE = 0.5

#: Static-file serving: header parse + cache probe per request.
HTTP_BASE_CYCLES = 2_500
HTTP_BODY_PER_BYTE = 0.25


class ShardHandler:
    """Base shard: a pool handler that charges the draining core.

    Subclasses implement :meth:`handle`; :meth:`_tick` inside it
    charges the core currently serving (the node kernel's
    ``handler_core``; the frontend core outside a handler).
    """

    def __init__(self, node) -> None:
        self.node = node
        self.requests = 0

    def _tick(self, cycles: int) -> None:
        core = self.node.kernel.handler_core
        if core is None:
            core = self.node.frontend_core
        core.tick(int(cycles))

    def __call__(self, meta: tuple, payload: Payload):
        self.requests += 1
        return self.handle(meta, payload)

    def handle(self, meta: tuple, payload: Payload):
        raise NotImplementedError


class KVShard(ShardHandler):
    """This node's slice of a YCSB-style key/value table.

    Wire format (see :func:`kv_encoder`): ``meta = (op, seq)``,
    payload ``key`` for reads and ``key=value`` for updates.
    """

    def __init__(self, node) -> None:
        super().__init__(node)
        self.store = {}
        self.reads = 0
        self.updates = 0
        self.misses = 0

    def handle(self, meta: tuple, payload: Payload):
        op = meta[0]
        raw = payload.read()
        key, _, value = raw.partition(b"=")
        self._tick(KV_BASE_CYCLES + len(raw) * KV_CODEC_PER_BYTE)
        if op == "update":
            self.store[bytes(key)] = bytes(value)
            self.updates += 1
            return ("ok",) + tuple(meta[1:]), b"1"
        self.reads += 1
        stored = self.store.get(bytes(key))
        if stored is None:
            self.misses += 1
            return ("miss",) + tuple(meta[1:]), b""
        return ("ok",) + tuple(meta[1:]), stored


#: KVShard's wire format is the fabric's default encoding.
kv_encoder = default_encoder


class StaticShard(ShardHandler):
    """The httpd static site, sharded: every node pre-renders the pages
    its slice of the URL space could be asked for (content is a pure
    function of the path + site seed, so any owner renders the same
    bytes — what a CDN origin shard looks like).
    """

    def __init__(self, node, page_bytes: int = 512,
                 site_seed: int = 7) -> None:
        super().__init__(node)
        self.page_bytes = page_bytes
        self.site_seed = site_seed
        self.hits = 0
        self.not_found = 0

    def page_for(self, path: str) -> Optional[bytes]:
        if not path.startswith("/k"):
            return None
        rng = random.Random((self.site_seed << 32)
                            ^ (stable_hash(path) & 0xFFFFFFFF))
        body = (f"<html><body>{path}:".encode()
                + bytes(rng.getrandbits(8)
                        for _ in range(self.page_bytes)))
        return body + b"</body></html>"

    def handle(self, meta: tuple, payload: Payload):
        path = parse_request(payload.read())
        if path is None:
            self._tick(HTTP_BASE_CYCLES)
            return ("http", 400) + tuple(meta[1:]), \
                build_response(400, b"bad request")
        body = self.page_for(path)
        if body is None:
            self.not_found += 1
            self._tick(HTTP_BASE_CYCLES)
            return ("http", 404) + tuple(meta[1:]), \
                build_response(404, b"not found")
        self.hits += 1
        self._tick(HTTP_BASE_CYCLES + len(body) * HTTP_BODY_PER_BYTE)
        return ("http", 200) + tuple(meta[1:]), build_response(200, body)


def http_encoder(req: Request) -> Tuple[tuple, bytes, int]:
    return (("GET", req.seq), build_request(f"/{req.key}"),
            req.value_bytes + 1024)


class SqliteShard(ShardHandler):
    """The mini-SQLite database as one node's shard.

    Builds the full per-node storage stack — XPC transport, block
    device + FS server pair, journaled :class:`Database` — on the
    node's own kernel, then serves the KV wire format against a single
    table.  Statement costs (parse/plan/codec) and every page I/O are
    charged by the real sqlite/FS code paths; nested FS calls issue
    from (and charge) the draining worker core, which the transport
    reads from the node kernel's ``handler_core``.
    """

    def __init__(self, node, table: str = "usertable",
                 disk_blocks: int = 4096) -> None:
        super().__init__(node)
        self.table = table
        client_proc = node.kernel.create_process(f"{node.name}-db")
        client_thread = node.kernel.create_thread(client_proc)
        node.kernel.run_thread(node.frontend_core, client_thread)
        self.transport = Sel4XPCTransport(node.kernel, node.frontend_core,
                                          client_thread)
        _, self.fs, _ = build_fs_stack(self.transport, node.kernel,
                                       disk_blocks=disk_blocks)
        self.db = Database(self.fs, path=f"/{node.name}-db")
        self.db.create_table(table)
        self.reads = 0
        self.updates = 0
        self.misses = 0

    def on_pool(self, pool) -> None:
        """Grant every worker thread (and restarted generations) the
        onward xcall-cap for the FS server — the same chain-cap wiring
        :meth:`repro.services.fs.server.FSServer.serve_async` does for
        its blockdev hop, one level up."""
        fs_sid = self.fs.sid
        for worker in pool.workers:
            self.transport.grant_to_thread(
                fs_sid, worker.supervisor.thread(worker.service_name))
            worker.supervisor.on_restart.append(
                GrantOnRestart(self.transport, fs_sid,
                               worker.supervisor))

    def handle(self, meta: tuple, payload: Payload):
        op = meta[0]
        raw = payload.read()
        key, _, value = raw.partition(b"=")
        key = bytes(key)
        if op == "update":
            self.updates += 1
            if self.db.get(self.table, key) is None:
                self.db.insert(self.table, key, bytes(value))
            else:
                self.db.update(self.table, key, bytes(value))
            return ("ok",) + tuple(meta[1:]), b"1"
        self.reads += 1
        stored = self.db.get(self.table, key)
        if stored is None:
            self.misses += 1
            return ("miss",) + tuple(meta[1:]), b""
        return ("ok",) + tuple(meta[1:]), stored
