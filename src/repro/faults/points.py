"""The fault-point catalogue: every named injection site in the stack.

A *fault point* is a named place where the simulation asks the probe's
``inject`` site (and through it the armed
:class:`~repro.faults.plan.FaultPlan`) whether to inject a failure.  The
catalogue is the authoritative list — :meth:`FaultPlan.arm` refuses
unknown names so a typo'd plan fails loudly instead of silently arming
nothing, and DESIGN.md §9's table lists these points in this order
(``tests/chaos/test_faults_engine.py`` checks it).

Points are grouped by the layer that hosts the ``inject`` call, mirroring
the failure modes of the paper's §4.2/§6.1 fault story plus the device
faults the OS-service evaluation (§5.3) must survive.

Test-only points may be created freely under the ``test.`` prefix.
"""

from __future__ import annotations

#: name -> (layer, description).
CATALOGUE = {
    # -- hardware ------------------------------------------------------
    "hw.tlb.stale_entry": (
        "hw",
        "a TLB entry goes stale immediately before use; the access "
        "re-walks the page table (models invalidation races)"),
    # -- XPC engine / objects -----------------------------------------
    "xpc.engine_cache.stale_entry": (
        "xpc",
        "an engine-cache line is stale at lookup; the xcall falls back "
        "to a validated x-entry table load"),
    "xpc.linkstack.overflow": (
        "xpc",
        "the link-stack push traps with overflow even though SRAM "
        "capacity remains (models the §4.1 bounded stack); the kernel "
        "spills and the xcall retries"),
    "xpc.callee_crash": (
        "xpc",
        "the callee process is killed at handler entry, mid-call; the "
        "kernel repairs the return path (§4.2)"),
    "xpc.callee_crash_before_xret": (
        "xpc",
        "the callee process is killed after its handler ran but before "
        "xret; the caller sees XPCPeerDiedError"),
    "xpc.relayseg.revoke": (
        "xpc",
        "the client's active relay segment is revoked by the kernel "
        "mid-workload (§4.4); in-flight windows go invalid"),
    "xpc.captest.slow": (
        "xpc",
        "the xcall's capability test charges extra cycles (action key "
        "'cycles'); a seeded silent slowdown for the perf-regression "
        "sentry to bisect, hit once per xcall"),
    # -- kernel --------------------------------------------------------
    "kernel.preempt": (
        "kernel",
        "a timer preemption lands mid-call: trap, scheduler pass, "
        "resume the same migrated thread"),
    # -- services / devices -------------------------------------------
    "blockdev.io_error": (
        "services",
        "the ramdisk fails a block read/write with an I/O error, "
        "surfaced to the FS server across the IPC boundary"),
    "blockdev.lost_write": (
        "services",
        "a block write is silently lost (the §5.3 crash model the "
        "write-ahead log exists to survive)"),
    "net.drop": (
        "services",
        "the loopback device drops the frame on the wire; TCP "
        "retransmission recovers"),
    "net.corrupt": (
        "services",
        "the loopback device flips a byte in the echoed frame; the "
        "IP/TCP checksums catch it and the stack drops the frame"),
    # -- async / batched XPC ------------------------------------------
    "aio.ring_full": (
        "aio",
        "a submission-queue push is refused as full even though space "
        "remains (models a racing producer filling the ring first); "
        "admission control rejects or parks the caller"),
    "aio.stale_head": (
        "aio",
        "the drain-side cached SQ head is stale; the worker re-reads "
        "the index from ring memory (charged) and recovers"),
    "aio.worker_death": (
        "aio",
        "the worker process dies between two SQEs mid-batch; completed "
        "CQEs survive in the ring, the supervisor restarts the worker "
        "and unfinished submissions are re-dispatched"),
    # -- cluster fabric ------------------------------------------------
    "cluster.node_death": (
        "cluster",
        "a whole node (machine + kernel + pools) dies at a fabric "
        "control step; the shard ring rebalances onto survivors and "
        "in-flight requests surface NodeDownError (action key 'node' "
        "picks the victim; defaults to the highest live node id)"),
    "cluster.partition": (
        "cluster",
        "the link between the sending and receiving node is severed "
        "just as a cross-node RPC is sent; the send fails after "
        "serialization (a connect timeout) and feeds the home node's "
        "circuit breaker"),
}

#: Prefix under which tests may fire ad-hoc points without registering.
TEST_PREFIX = "test."


def known(point: str) -> bool:
    """Is *point* armable (catalogued, or an ad-hoc test point)?"""
    return point in CATALOGUE or point.startswith(TEST_PREFIX)


def layer_of(point: str) -> str:
    if point in CATALOGUE:
        return CATALOGUE[point][0]
    return "test" if point.startswith(TEST_PREFIX) else "?"
