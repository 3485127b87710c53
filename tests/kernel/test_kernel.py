"""The XPC control plane: registration, grants, segments, termination."""

import pytest

from repro.hw.machine import Machine
from repro.kernel.kernel import BaseKernel, KernelError, RELAY_VA_BASE
from repro.xpc.errors import (InvalidLinkageError, LinkStackOverflowError,
                              LinkStackUnderflowError)
from repro.xpc.linkstack import LinkStack
from repro.xpc.relayseg import SegReg


@pytest.fixture
def world():
    machine = Machine(cores=1, mem_bytes=64 * 1024 * 1024)
    kernel = BaseKernel(machine)
    return machine, kernel


def setup_pair(kernel, core):
    server = kernel.create_process("server")
    client = kernel.create_process("client")
    st = kernel.create_thread(server)
    ct = kernel.create_thread(client)
    entry = kernel.register_xentry(core, st, lambda *a: None)
    return server, client, st, ct, entry


class TestRegistrationAndGrants:
    def test_creator_gets_grant_cap(self, world):
        machine, kernel = world
        server, client, st, ct, entry = setup_pair(kernel, machine.core0)
        assert entry.entry_id in server.grant_caps

    def test_grant_sets_bitmap_bit(self, world):
        machine, kernel = world
        server, client, st, ct, entry = setup_pair(kernel, machine.core0)
        kernel.grant_xcall_cap(machine.core0, server, ct, entry.entry_id)
        assert ct.home_caps.test(entry.entry_id)

    def test_grant_without_grant_cap_rejected(self, world):
        machine, kernel = world
        server, client, st, ct, entry = setup_pair(kernel, machine.core0)
        with pytest.raises(KernelError):
            kernel.grant_xcall_cap(machine.core0, client, ct,
                                   entry.entry_id)

    def test_grant_cap_propagation(self, world):
        machine, kernel = world
        server, client, st, ct, entry = setup_pair(kernel, machine.core0)
        kernel.grant_xcall_cap(machine.core0, server, ct,
                               entry.entry_id, with_grant=True)
        other = kernel.create_thread(client)
        # Now the client holds the grant-cap and can grant onward.
        kernel.grant_xcall_cap(machine.core0, client, other,
                               entry.entry_id)
        assert other.home_caps.test(entry.entry_id)

    def test_revoke(self, world):
        machine, kernel = world
        server, client, st, ct, entry = setup_pair(kernel, machine.core0)
        kernel.grant_xcall_cap(machine.core0, server, ct, entry.entry_id)
        kernel.revoke_xcall_cap(ct, entry.entry_id)
        assert not ct.home_caps.test(entry.entry_id)

    def test_remove_xentry_requires_ownership(self, world):
        machine, kernel = world
        server, client, st, ct, entry = setup_pair(kernel, machine.core0)
        with pytest.raises(KernelError):
            kernel.remove_xentry(machine.core0, client, entry.entry_id)

    def test_dead_process_cannot_spawn_threads(self, world):
        machine, kernel = world
        process = kernel.create_process("dying")
        kernel.kill_process(process)
        with pytest.raises(KernelError):
            kernel.create_thread(process)


class TestRelaySegments:
    def test_create_parks_in_seg_list(self, world):
        machine, kernel = world
        process = kernel.create_process("p")
        seg, slot = kernel.create_relay_seg(machine.core0, process, 8192)
        parked = process.seg_list.peek(slot)
        assert parked.segment is seg
        assert seg.length == 8192

    def test_va_range_is_reserved_and_unique(self, world):
        machine, kernel = world
        process = kernel.create_process("p")
        a, _ = kernel.create_relay_seg(machine.core0, process, 4096)
        b, _ = kernel.create_relay_seg(machine.core0, process, 4096)
        assert a.va_base >= RELAY_VA_BASE
        ranges = sorted([(a.va_base, a.length), (b.va_base, b.length)])
        assert ranges[0][0] + ranges[0][1] <= ranges[1][0]

    def test_relay_va_never_overlaps_page_tables(self, world):
        """§3.3: the kernel ensures relay-seg mappings never overlap any
        page-table mapping — so no TLB shootdown is ever needed."""
        machine, kernel = world
        process = kernel.create_process("p")
        for _ in range(20):
            process.aspace.mmap(8 * 4096)
        seg, _ = kernel.create_relay_seg(machine.core0, process, 65536)
        for va, _, _ in process.aspace.page_table.mappings():
            assert not (seg.va_base <= va < seg.va_base + seg.length)

    def test_physical_contiguity(self, world):
        machine, kernel = world
        process = kernel.create_process("p")
        seg, _ = kernel.create_relay_seg(machine.core0, process,
                                         5 * 4096)
        machine.memory.write(seg.pa_base, b"\xaa" * seg.length)

    def test_free_active_segment_rejected(self, world):
        machine, kernel = world
        process = kernel.create_process("p")
        thread = kernel.create_thread(process)
        seg, slot = kernel.create_relay_seg(machine.core0, process, 4096)
        seg.active_owner = thread
        with pytest.raises(KernelError):
            kernel.free_relay_seg(machine.core0, seg)

    def test_free_returns_memory(self, world):
        machine, kernel = world
        process = kernel.create_process("p")
        free_before = machine.memory.allocator.free_frames
        seg, slot = kernel.create_relay_seg(machine.core0, process, 8192)
        process.seg_list.drop(slot)
        kernel.free_relay_seg(machine.core0, seg)
        assert machine.memory.allocator.free_frames == free_before

    def test_double_free_rejected_before_state_changes(self, world):
        machine, kernel = world
        core = machine.core0
        process = kernel.create_process("p")
        seg, slot = kernel.create_relay_seg(core, process, 8192)
        process.seg_list.drop(slot)
        kernel.free_relay_seg(core, seg)
        seg.revoked = False         # a stale handle; must stay untouched
        extents = [list(e) for e in machine.memory.allocator._extents]
        mode = core.mode
        with pytest.raises(KernelError, match="already freed"):
            kernel.free_relay_seg(core, seg)
        assert seg.revoked is False
        assert machine.memory.allocator._extents == extents
        assert core.mode == mode

    def test_bad_size_rejected(self, world):
        machine, kernel = world
        process = kernel.create_process("p")
        with pytest.raises(KernelError):
            kernel.create_relay_seg(machine.core0, process, 0)


class TestTermination:
    def _chain(self, kernel, core):
        """A -> B -> C with B about to die (paper §4.2's example)."""
        a = kernel.create_process("A")
        b = kernel.create_process("B")
        c = kernel.create_process("C")
        at = kernel.create_thread(a)
        bt = kernel.create_thread(b)
        ct2 = kernel.create_thread(c)
        entry_b = kernel.register_xentry(core, bt, lambda *x: None)
        entry_c = kernel.register_xentry(core, ct2, lambda *x: None)
        kernel.grant_xcall_cap(core, b, at, entry_b.entry_id)
        kernel.grant_xcall_cap(core, c, bt, entry_c.entry_id)
        kernel.run_thread(core, at)
        engine = kernel.machine.engines[0]
        engine.xcall(entry_b.entry_id)
        engine.xcall(entry_c.entry_id)
        return a, b, c, at, engine

    def test_eager_scan_invalidates_dead_records(self, world):
        machine, kernel = world
        a, b, c, at, engine = self._chain(kernel, machine.core0)
        kernel.kill_process(b, lazy=False)
        with pytest.raises(InvalidLinkageError):
            engine.xret()   # return into dead B traps

    def test_repair_return_skips_to_live_caller(self, world):
        """C's return after B died must land in A with a timeout error
        (§4.2 Application Termination)."""
        machine, kernel = world
        a, b, c, at, engine = self._chain(kernel, machine.core0)
        kernel.kill_process(b, lazy=False)
        restored = kernel.repair_return(machine.core0, at)
        assert restored is not None
        assert restored.caller_aspace is a.aspace
        assert machine.core0.aspace is a.aspace

    def test_repair_return_whole_chain_dead(self, world):
        machine, kernel = world
        a, b, c, at, engine = self._chain(kernel, machine.core0)
        kernel.kill_process(b, lazy=False)
        kernel.kill_process(a, lazy=False)
        assert kernel.repair_return(machine.core0, at) is None

    def test_lazy_kill_zaps_page_table(self, world):
        machine, kernel = world
        a, b, c, at, engine = self._chain(kernel, machine.core0)
        assert b.aspace.page_table.mapped_pages >= 0
        kernel.kill_process(b, lazy=True)
        assert b.aspace.page_table.mapped_pages == 0

    def test_kill_invalidates_served_xentries(self, world):
        machine, kernel = world
        server = kernel.create_process("server")
        st = kernel.create_thread(server)
        entry = kernel.register_xentry(machine.core0, st, lambda *a: 0)
        kernel.kill_process(server)
        assert not entry.valid

    def test_kill_revokes_owned_segments(self, world):
        machine, kernel = world
        process = kernel.create_process("p")
        seg, slot = kernel.create_relay_seg(machine.core0, process, 4096)
        kernel.kill_process(process)
        assert seg.revoked

    def test_kill_cost_lazy_vs_eager(self, world):
        """§4.2: the lazy kill's cost is a constant page-zero; the eager
        kill pays per resident linkage record."""
        machine, kernel = world

        def deep_chain():
            a, b, c, at, engine = self._chain(kernel, machine.core0)
            return b, at

        b, at = deep_chain()
        before = machine.core0.cycles
        kernel.kill_process(b, lazy=True, core=machine.core0)
        lazy_cost = machine.core0.cycles - before

        b2, at2 = deep_chain()
        before = machine.core0.cycles
        kernel.kill_process(b2, lazy=False, core=machine.core0)
        eager_cost = machine.core0.cycles - before

        assert lazy_cost > 0
        assert eager_cost > lazy_cost  # scanned the resident records


class TestRepairRestoresLikeXret:
    """§4.2 repair after a relay-seg theft (§3.3) restores the caller
    exactly as a clean ``xret`` would."""

    def _theft(self, kernel, core):
        client = kernel.create_process("client")
        thief = kernel.create_process("thief")
        at = kernel.create_thread(client)
        entry = kernel.register_xentry(core, kernel.create_thread(thief),
                                       lambda *x: None)
        kernel.grant_xcall_cap(core, thief, at, entry.entry_id)
        kernel.run_thread(core, at)
        own, slot = kernel.create_relay_seg(core, client, 4096)
        kernel.activate_relay_seg(core, at, slot)
        engine = kernel.machine.engines[0]
        engine.xcall(entry.entry_id)
        # The thief parks the handed-over window and leaves a fresh
        # scratch window of its own in seg-reg.
        scratch, slot = kernel.create_relay_seg(core, thief, 4096)
        engine.swapseg(slot)
        with pytest.raises(InvalidLinkageError):
            engine.xret()
        assert kernel.repair_return(core, at) is not None
        return client, at, own, scratch

    def test_callers_window_is_owned_again(self, world):
        machine, kernel = world
        client, at, own, scratch = self._theft(kernel, machine.core0)
        assert at.xpc.seg_reg.segment is own
        assert own.active_owner is at
        with pytest.raises(KernelError, match="active"):
            kernel.free_relay_seg(machine.core0, own)

    def test_thiefs_scratch_window_is_released(self, world):
        machine, kernel = world
        client, at, own, scratch = self._theft(kernel, machine.core0)
        assert scratch.active_owner is None
        kernel.free_relay_seg(machine.core0, scratch)
        assert scratch not in kernel.relay_segments

    def test_caller_runs_on_its_own_seg_list(self, world):
        machine, kernel = world
        client, at, own, scratch = self._theft(kernel, machine.core0)
        assert at.xpc.seg_list is client.seg_list


class TestMultiCoreTermination:
    """§4.2 recovery with concurrent chains on two cores: one victim
    process is in the middle of A→B→C chains on *both* cores."""

    @pytest.fixture
    def world2(self):
        machine = Machine(cores=2, mem_bytes=64 * 1024 * 1024)
        return machine, BaseKernel(machine)

    def _dual_chains(self, machine, kernel):
        core0, core1 = machine.cores
        a1 = kernel.create_process("A1")
        a2 = kernel.create_process("A2")
        b = kernel.create_process("B")
        c = kernel.create_process("C")
        at1 = kernel.create_thread(a1)
        at2 = kernel.create_thread(a2)
        bt = kernel.create_thread(b)
        ct = kernel.create_thread(c)
        entry_b = kernel.register_xentry(core0, bt, lambda *x: None)
        entry_c = kernel.register_xentry(core0, ct, lambda *x: None)
        kernel.grant_xcall_cap(core0, b, at1, entry_b.entry_id)
        kernel.grant_xcall_cap(core0, b, at2, entry_b.entry_id)
        kernel.grant_xcall_cap(core0, c, bt, entry_c.entry_id)
        kernel.run_thread(core0, at1)
        kernel.run_thread(core1, at2)
        for engine in machine.engines:
            engine.xcall(entry_b.entry_id)
            engine.xcall(entry_c.entry_id)
        return (a1, a2, b, c), (at1, at2)

    def test_eager_kill_invalidates_chains_on_every_core(self, world2):
        machine, kernel = world2
        (a1, a2, b, c), (at1, at2) = self._dual_chains(machine, kernel)
        kernel.kill_process(b, lazy=False)
        for thread in (at1, at2):
            dead = [r for r in thread.xpc.link_stack.records
                    if r.caller_aspace is b.aspace]
            assert dead and all(not r.valid for r in dead)
        # The C→B return traps on both cores.
        for engine in machine.engines:
            with pytest.raises(InvalidLinkageError):
                engine.xret()

    def test_repair_restores_each_core_independently(self, world2):
        machine, kernel = world2
        (a1, a2, b, c), (at1, at2) = self._dual_chains(machine, kernel)
        core0, core1 = machine.cores
        kernel.kill_process(b, lazy=False)

        restored = kernel.repair_return(core0, at1)
        assert restored.caller_aspace is a1.aspace
        assert core0.aspace is a1.aspace
        # Core 1's chain is untouched by core 0's repair.
        assert core1.aspace is c.aspace
        assert at2.xpc.link_stack.depth == 2

        restored = kernel.repair_return(core1, at2)
        assert restored.caller_aspace is a2.aspace
        assert core1.aspace is a2.aspace

    def test_eager_kill_of_caller_process(self, world2):
        """Killing one *client* must not disturb the other core's
        identical chain through the same servers."""
        machine, kernel = world2
        (a1, a2, b, c), (at1, at2) = self._dual_chains(machine, kernel)
        kernel.kill_process(a2, lazy=False)
        # Core 0 unwinds normally: C → B → A1.
        e0 = machine.engines[0]
        assert e0.xret().caller_aspace is b.aspace
        assert e0.xret().caller_aspace is a1.aspace
        # Core 1's whole chain below the dead client is unrepairable.
        assert kernel.repair_return(machine.cores[1], at2) is None


class TestLinkSpillHandlers:
    """§4.1: overflow of the bounded link-stack SRAM is a recoverable
    trap — the kernel spills, the xcall retries; drained-SRAM xrets
    refill from the spill area."""

    def _recursive_entry(self, kernel, core):
        server = kernel.create_process("server")
        client = kernel.create_process("client")
        st = kernel.create_thread(server)
        ct = kernel.create_thread(client)
        entry = kernel.register_xentry(core, st, lambda *x: None)
        kernel.grant_xcall_cap(core, server, ct, entry.entry_id)
        # The server may recurse into itself.
        kernel.grant_xcall_cap(core, server, st, entry.entry_id)
        kernel.run_thread(core, ct)
        return client, ct, entry

    def test_overflow_spill_retry_then_underflow_refill(self, world):
        machine, kernel = world
        core = machine.core0
        client, ct, entry = self._recursive_entry(kernel, core)
        ct.xpc.link_stack = LinkStack(capacity=4)  # tiny SRAM
        engine = machine.engines[0]

        depth = 0
        while depth < 6:
            try:
                engine.xcall(entry.entry_id)
            except LinkStackOverflowError:
                assert kernel.handle_link_overflow(core, ct) > 0
                continue  # retry the faulting xcall
            depth += 1
        stack = ct.xpc.link_stack
        assert stack.depth == 6
        assert stack.spilled_depth > 0

        unwound = 0
        while unwound < 6:
            try:
                engine.xret()
            except LinkStackUnderflowError:
                assert kernel.handle_link_underflow(core, ct) > 0
                continue  # retry the faulting xret
            unwound += 1
        assert stack.depth == 0
        assert core.aspace is client.aspace

    def test_unspillable_stack_reports_zero(self, world):
        machine, kernel = world
        process = kernel.create_process("p")
        thread = kernel.create_thread(process)
        # Nothing resident: the kernel cannot make room.
        assert kernel.handle_link_overflow(machine.core0, thread) == 0
