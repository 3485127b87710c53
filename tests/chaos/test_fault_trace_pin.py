"""Fault-trace pins: seeded chaos runs hashed end to end.

Each run below drives a workload under a seeded :class:`FaultPlan` and
digests the plan's ``trace_json()`` together with what the run
computed: outcomes, failure counts and the simulated clocks.  The
digests were recorded before fault points became probe sites, so any
change in where a plan is consulted, in how often a point is hit, or in
what an injection does shows up as a mismatch:

* the fs workload of ``test_chaos_fs_net`` (block-device, TLB, engine
  cache, link-stack, preemption and relay-seg revocation points) and
  its TCP echo workload (``net.drop``/``net.corrupt``);
* the batched-async fs workload of ``test_chaos_aio`` (the three aio
  points);
* a three-node sharded KV fabric with ``cluster.node_death`` and
  ``cluster.partition`` armed.

Regenerate with ``python -m tests.chaos.test_fault_trace_pin``.
"""

from __future__ import annotations

import hashlib
import json

import pytest

pytestmark = pytest.mark.chaos

import repro.faults as faults
from repro.cluster import Cluster, KVShard, LoadGenerator
from repro.faults import FaultPlan
from tests.chaos.test_chaos_aio import XPC_SPEC as AIO_SPEC
from tests.chaos.test_chaos_aio import aio_plan, run_aio_fs_workload
from tests.chaos.test_chaos_fs_net import (fs_plan, net_plan,
                                           run_fs_workload,
                                           run_net_workload)
from tests.conftest import TRANSPORT_SPECS, build_transport

SEED = 37

XPC_SPEC = next(s for s in TRANSPORT_SPECS if s[0] == "seL4-XPC")

GOLDEN = {
    "aio": "e1bc205b9bd17f8db4193850e49261ecb1003e1da93e45c6439f3220066f1805",
    "cluster": "f2f032bee7f91efaa21156432a13ac36c6b92b05bde9f1f5b2f6966de2326219",
    "fs": "bb741219929f71fada1965f33af5d8779f9b3940e66e31682bbce7e77fc3875b",
    "net": "b158faca8149d2807b10fe8ad6d4ace678195cd76286bb0707c4fe71e3a157b4",
}


def _digest(plan: FaultPlan, outcome) -> str:
    text = plan.trace_json() + "\n" + json.dumps(outcome, sort_keys=True)
    return hashlib.sha256(text.encode()).hexdigest()


def _clocks(machine):
    return [core.cycles for core in machine.cores]


def run_fs() -> str:
    machine, kernel, transport, client_thread = build_transport(XPC_SPEC)
    plan = fs_plan(SEED)
    failures, watch = run_fs_workload(kernel, transport, client_thread,
                                      plan, SEED)
    return _digest(plan, [failures, watch.checked, _clocks(machine),
                          transport.ipc_cycles])


def run_net() -> str:
    machine, kernel, transport, client_thread = build_transport(XPC_SPEC)
    plan = net_plan(SEED)
    server, watch = run_net_workload(kernel, transport, client_thread,
                                     plan, SEED)
    stack = server.stack
    return _digest(plan, [watch.checked, stack.frames_rejected,
                          _clocks(machine), transport.ipc_cycles])


def run_aio() -> str:
    machine, kernel, transport, _ct = build_transport(
        AIO_SPEC, mem_bytes=256 * 1024 * 1024, cores=4)
    plan = aio_plan(SEED)
    pool, watch = run_aio_fs_workload(machine, kernel, transport, plan,
                                      SEED)
    return _digest(plan, [watch.checked, pool.stats(), _clocks(machine)])


def run_cluster() -> str:
    cluster = Cluster(nodes=3, cores_per_node=2,
                      mem_bytes=16 * 1024 * 1024)
    cluster.serve("kv", KVShard)
    plan = (FaultPlan(SEED)
            .arm("cluster.node_death", nth=4, node=2)
            .arm("cluster.partition", probability=0.05, times=3))
    load = LoadGenerator(clients=2000, keys=128, mean_interval=400.0,
                         seed=SEED)
    with faults.active(plan):
        stats = cluster.run("kv", load, 160, control_every=8)
    return _digest(plan, [stats.completed, stats.failed, stats.remote,
                          stats.local, cluster.node_deaths,
                          cluster.trace_hash()])


RUNS = {"fs": run_fs, "net": run_net, "aio": run_aio,
        "cluster": run_cluster}


@pytest.mark.parametrize("name", sorted(RUNS))
def test_fault_trace_matches_pin(name):
    assert RUNS[name]() == GOLDEN[name]


if __name__ == "__main__":   # regenerate the GOLDEN table
    for name in sorted(RUNS):
        print(f'    "{name}": "{RUNS[name]()}",')
