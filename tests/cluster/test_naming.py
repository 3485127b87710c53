"""The sharded name server: homes, rebalance, breakers, unpublish."""

import pytest

from repro.cluster.naming import ShardedNameServer
from repro.cluster.node import Node, NodeDownError
from repro.cluster.serving import KVShard
from repro.services.nameserver import ServiceUnavailableError

KEYS = [f"k{i:06d}" for i in range(512)]


def make_node(nid, serve="kv"):
    node = Node(nid, cores=2, mem_bytes=32 * 1024 * 1024)
    if serve:
        node.serve(serve, KVShard(node))
    return node


@pytest.fixture
def world():
    naming = ShardedNameServer(vnodes=32)
    nodes = [make_node(i) for i in range(3)]
    for node in nodes:
        naming.node_join(node)
        naming.publish("kv", node)
    return naming, nodes


class TestMembership:
    def test_join_resolves_and_double_join_rejected(self, world):
        naming, nodes = world
        assert len(naming.live_nodes()) == 3
        with pytest.raises(KeyError):
            naming.node_join(nodes[0])

    def test_home_is_deterministic_over_live_nodes(self, world):
        naming, nodes = world
        homes = {key: naming.home(key).node_id for key in KEYS}
        assert set(homes.values()) == {0, 1, 2}
        assert homes == {key: naming.home(key).node_id for key in KEYS}

    def test_death_rebalances_onto_survivors(self, world):
        naming, nodes = world
        before = {key: naming.home(key).node_id for key in KEYS}
        naming.node_death(1)
        assert not nodes[1].alive
        after = {key: naming.home(key).node_id for key in KEYS}
        for key in KEYS:
            if before[key] != 1:
                assert after[key] == before[key]    # untouched shards
            else:
                assert after[key] in (0, 2)         # re-homed
        assert len(naming.live_nodes()) == 2

    def test_graceful_leave(self, world):
        naming, nodes = world
        naming.node_leave(2)
        assert 2 not in naming.ring
        assert all(naming.home(key).node_id in (0, 1) for key in KEYS)

    def test_held_live_list_follows_join_leave_and_death(self, world):
        naming, nodes = world
        assert naming.live == nodes
        held = naming.live
        naming.node_death(1)
        assert naming.live == [nodes[0], nodes[2]]
        assert held == nodes        # replaced, not mutated
        late = make_node(7)
        naming.node_join(late)
        naming.node_leave(0)
        assert naming.live == [nodes[2], late]
        assert naming.live_nodes() == naming.live
        assert naming.live_nodes() is not naming.live


class TestResolution:
    def test_resolve_unpublished_name(self, world):
        naming, nodes = world
        with pytest.raises(KeyError):
            naming.resolve("ghost", "k000001")

    def test_publish_requires_local_binding(self, world):
        naming, nodes = world
        with pytest.raises(KeyError):
            naming.publish("web", nodes[0])     # no local pool

    def test_resolve_routes_to_home(self, world):
        naming, nodes = world
        node = naming.resolve("kv", "k000007")
        assert node is naming.home("k000007")
        assert node.serves("kv")

    def test_dead_home_raises_node_down_until_rebalance(self, world):
        naming, nodes = world
        key = next(k for k in KEYS if naming.home(k).node_id == 1)
        nodes[1].alive = False      # died, ring not yet updated
        with pytest.raises(NodeDownError):
            naming.resolve("kv", key)
        naming.node_death(1)        # fabric notices: ring rebalances
        assert naming.resolve("kv", key).node_id in (0, 2)

    def test_admit_gates_the_home_like_resolve(self, world):
        naming, nodes = world
        key = KEYS[5]
        home = naming.home(key)
        naming.admit("kv", home)
        with pytest.raises(KeyError):
            naming.admit("ghost", home)
        for _ in range(3):          # default threshold
            naming.report_failure("kv", home)
        with pytest.raises(ServiceUnavailableError):
            naming.admit("kv", home)
        naming.unpublish("kv", home)
        with pytest.raises(KeyError):
            naming.admit("kv", home)

    def test_breaker_gates_per_node(self, world):
        naming, nodes = world
        key = KEYS[0]
        home = naming.home(key)
        for _ in range(3):          # default threshold
            naming.report_failure("kv", home)
        with pytest.raises(ServiceUnavailableError):
            naming.resolve("kv", key)
        # Another node's shard of the same name is unaffected.
        other_key = next(k for k in KEYS
                         if naming.home(k) is not home)
        assert naming.resolve("kv", other_key) is not home
        naming.report_success("kv", home)
        assert naming.resolve("kv", key) is home

    def test_unpublish_withdraws_one_node(self, world):
        naming, nodes = world
        key = KEYS[3]
        home = naming.home(key)
        naming.unpublish("kv", home)
        assert not home.serves("kv")
        with pytest.raises(KeyError):
            naming.resolve("kv", key)   # home no longer serves it
        other_key = next(k for k in KEYS
                         if naming.home(k) is not home)
        naming.resolve("kv", other_key)     # others still do
