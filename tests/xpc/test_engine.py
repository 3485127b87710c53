"""The XPC engine: xcall/xret/swapseg semantics and cycle costs."""

import pytest

from repro.hw.machine import Machine
from repro.kernel.kernel import BaseKernel
from repro.params import DEFAULT_PARAMS
from repro.xpc.engine import XPCConfig
from repro.xpc.errors import (
    InvalidLinkageError, InvalidSegMaskError, InvalidXCallCapError,
    InvalidXEntryError, XPCError,
)
from repro.xpc.relayseg import SEG_INVALID, SegMask, SegReg


def build(xpc_config=None, tagged=False):
    machine = Machine(cores=1, mem_bytes=64 * 1024 * 1024,
                      xpc_config=xpc_config, tagged_tlb=tagged)
    kernel = BaseKernel(machine)
    core = machine.core0
    server = kernel.create_process("server")
    client = kernel.create_process("client")
    sthread = kernel.create_thread(server)
    cthread = kernel.create_thread(client)
    return machine, kernel, core, (server, sthread), (client, cthread)


def register(kernel, core, sthread, handler=None):
    return kernel.register_xentry(core, sthread,
                                  handler or (lambda *a: "ret"))


class TestXCallBasics:
    def test_xcall_switches_address_space_and_runs_entry(self):
        machine, kernel, core, (server, st), (client, ct) = build()
        entry = register(kernel, core, st)
        kernel.grant_xcall_cap(core, server, ct, entry.entry_id)
        kernel.run_thread(core, ct)
        engine = machine.engines[0]
        got_entry, window = engine.xcall(entry.entry_id)
        assert got_entry is entry
        assert core.aspace is server.aspace
        assert not window.valid
        engine.xret()
        assert core.aspace is client.aspace

    def test_xcall_without_cap_raises(self):
        machine, kernel, core, (server, st), (client, ct) = build()
        entry = register(kernel, core, st)
        kernel.run_thread(core, ct)
        with pytest.raises(InvalidXCallCapError):
            machine.engines[0].xcall(entry.entry_id)

    def test_xcall_invalid_entry_raises(self):
        machine, kernel, core, (server, st), (client, ct) = build()
        entry = register(kernel, core, st)
        kernel.grant_xcall_cap(core, server, ct, entry.entry_id)
        kernel.remove_xentry(core, server, entry.entry_id)
        kernel.run_thread(core, ct)
        with pytest.raises(InvalidXEntryError):
            machine.engines[0].xcall(entry.entry_id)

    def test_failed_xcall_leaves_no_linkage(self):
        machine, kernel, core, (server, st), (client, ct) = build()
        register(kernel, core, st)
        kernel.run_thread(core, ct)
        engine = machine.engines[0]
        with pytest.raises(XPCError):
            engine.xcall(0)
        assert ct.xpc.link_stack.depth == 0
        assert engine.stats.exceptions == 1

    def test_caller_identity_register(self):
        machine, kernel, core, (server, st), (client, ct) = build()
        entry = register(kernel, core, st)
        kernel.grant_xcall_cap(core, server, ct, entry.entry_id)
        kernel.run_thread(core, ct)
        engine = machine.engines[0]
        engine.xcall(entry.entry_id)
        # t0 carries the caller's xcall-cap-reg, unforgeable (§6.1).
        assert engine.caller_id_reg is ct.home_caps

    def test_cap_bitmap_switches_to_callee_runtime_state(self):
        machine, kernel, core, (server, st), (client, ct) = build()
        entry = register(kernel, core, st)
        kernel.grant_xcall_cap(core, server, ct, entry.entry_id)
        kernel.run_thread(core, ct)
        engine = machine.engines[0]
        engine.xcall(entry.entry_id)
        assert engine.state.cap_bitmap is st.home_caps
        engine.xret()
        assert engine.state.cap_bitmap is ct.home_caps

    def test_xret_on_empty_stack_raises(self):
        machine, kernel, core, _, (client, ct) = build()
        kernel.run_thread(core, ct)
        with pytest.raises(InvalidLinkageError):
            machine.engines[0].xret()

    def test_unbound_engine_raises(self):
        machine, kernel, core, (server, st), _ = build()
        entry = register(kernel, core, st)
        machine.engines[0].unbind()
        with pytest.raises(XPCError):
            machine.engines[0].xcall(entry.entry_id)


class TestNesting:
    def test_three_hop_chain_restores_in_order(self):
        machine, kernel, core, (b_proc, bt), (a_proc, at) = build()
        c_proc = kernel.create_process("C")
        ct2 = kernel.create_thread(c_proc)
        entry_b = register(kernel, core, bt)
        entry_c = register(kernel, core, ct2)
        kernel.grant_xcall_cap(core, b_proc, at, entry_b.entry_id)
        kernel.grant_xcall_cap(core, c_proc, bt, entry_c.entry_id)
        kernel.run_thread(core, at)
        engine = machine.engines[0]
        engine.xcall(entry_b.entry_id)
        assert core.aspace is b_proc.aspace
        engine.xcall(entry_c.entry_id)
        assert core.aspace is c_proc.aspace
        assert at.xpc.link_stack.depth == 2
        engine.xret()
        assert core.aspace is b_proc.aspace
        engine.xret()
        assert core.aspace is a_proc.aspace
        assert at.xpc.link_stack.depth == 0

    def test_seg_list_switches_with_the_chain(self):
        machine, kernel, core, (server, st), (client, ct) = build()
        entry = register(kernel, core, st)
        kernel.grant_xcall_cap(core, server, ct, entry.entry_id)
        kernel.run_thread(core, ct)
        engine = machine.engines[0]
        assert engine.state.seg_list is client.seg_list
        engine.xcall(entry.entry_id)
        assert engine.state.seg_list is server.seg_list
        engine.xret()
        assert engine.state.seg_list is client.seg_list


class TestRelaySegFlow:
    def _with_seg(self, nbytes=8192):
        machine, kernel, core, (server, st), (client, ct) = build()
        entry = register(kernel, core, st)
        kernel.grant_xcall_cap(core, server, ct, entry.entry_id)
        kernel.run_thread(core, ct)
        seg, slot = kernel.create_relay_seg(core, client, nbytes)
        engine = machine.engines[0]
        engine.swapseg(slot)  # install as active seg-reg
        return machine, kernel, core, engine, entry, seg, ct

    def test_window_passes_and_translates(self):
        machine, kernel, core, engine, entry, seg, ct = self._with_seg()
        machine.memory.write(seg.pa_base, b"zero copy!")
        got_entry, window = engine.xcall(entry.entry_id)
        assert window.valid
        # The callee reads the caller's bytes through the window.
        assert core.mem_read(seg.va_base, 10) == b"zero copy!"
        engine.xret()

    def test_mask_shrinks_passed_window(self):
        machine, kernel, core, engine, entry, seg, ct = self._with_seg()
        engine.write_seg_mask(SegMask(4096, 4096))
        _, window = engine.xcall(entry.entry_id)
        assert window.va_base == seg.va_base + 4096
        assert window.length == 4096
        engine.xret()
        # The caller's full window is restored by xret.
        assert engine.state.seg_reg.length == seg.length

    def test_mask_write_out_of_window_raises(self):
        machine, kernel, core, engine, entry, seg, ct = self._with_seg()
        with pytest.raises(InvalidSegMaskError):
            engine.write_seg_mask(SegMask(4096, seg.length))

    def test_ownership_transfers_along_the_chain(self):
        machine, kernel, core, engine, entry, seg, ct = self._with_seg()
        assert seg.active_owner is ct
        engine.xcall(entry.entry_id)
        assert seg.active_owner is ct  # migrating thread keeps it
        engine.xret()
        assert seg.active_owner is ct

    def test_callee_cannot_return_a_different_window(self):
        """§3.3: 'a malicious callee may swap caller's relay-seg to its
        seg-list and return a different one' — the engine must trap."""
        machine, kernel, core, engine, entry, seg, ct = self._with_seg()
        engine.xcall(entry.entry_id)
        # Malicious callee: stash the caller's window in its seg-list.
        engine.swapseg(0)
        with pytest.raises(InvalidLinkageError):
            engine.xret()
        # The kernel can see the stolen window parked in the seg-list.
        server_list = engine.state.seg_list
        assert any(w.segment is seg for _, w in server_list.segments())

    def test_callee_returning_window_intact_succeeds(self):
        machine, kernel, core, engine, entry, seg, ct = self._with_seg()
        engine.xcall(entry.entry_id)
        engine.swapseg(0)   # park it...
        engine.swapseg(0)   # ...and bring it back before returning
        engine.xret()
        assert engine.state.seg_reg.segment is seg

    def test_swapseg_invalidates_seg_reg(self):
        machine, kernel, core, engine, entry, seg, ct = self._with_seg()
        engine.swapseg(1)   # park into empty slot 1
        assert engine.state.seg_reg == SEG_INVALID
        assert seg.active_owner is None

    def test_swapseg_without_seg_list_raises(self):
        machine, kernel, core, engine, entry, seg, ct = self._with_seg()
        engine.state.seg_list = None
        with pytest.raises(XPCError):
            engine.swapseg(0)


class TestCycleCosts:
    def _cost_of_xcall(self, config):
        machine, kernel, core, (server, st), (client, ct) = build(config)
        entry = register(kernel, core, st)
        kernel.grant_xcall_cap(core, server, ct, entry.entry_id)
        kernel.run_thread(core, ct)
        engine = machine.engines[0]
        if config and config.engine_cache:
            engine.prefetch(entry.entry_id)
        before = core.cycles
        engine.xcall(entry.entry_id)
        return core.cycles - before

    def test_xcall_default_is_18_plus_tlb(self):
        """Paper Table 3: xcall = 18 cycles (plus the TLB flush that
        Figure 5 reports separately)."""
        cost = self._cost_of_xcall(XPCConfig(nonblocking_linkstack=True))
        assert cost == 18 + DEFAULT_PARAMS.tlb_flush

    def test_xcall_blocking_linkstack_is_34_plus_tlb(self):
        cost = self._cost_of_xcall(XPCConfig(nonblocking_linkstack=False))
        assert cost == 34 + DEFAULT_PARAMS.tlb_flush

    def test_xcall_engine_cache_is_6_plus_tlb(self):
        cost = self._cost_of_xcall(
            XPCConfig(nonblocking_linkstack=True, engine_cache=True))
        assert cost == 6 + DEFAULT_PARAMS.tlb_flush

    def test_tagged_tlb_removes_the_flush(self):
        machine, kernel, core, (server, st), (client, ct) = build(
            tagged=True)
        entry = register(kernel, core, st)
        kernel.grant_xcall_cap(core, server, ct, entry.entry_id)
        kernel.run_thread(core, ct)
        before = core.cycles
        machine.engines[0].xcall(entry.entry_id)
        assert core.cycles - before == 18 + DEFAULT_PARAMS.asid_switch

    def test_xret_is_23_plus_tlb(self):
        machine, kernel, core, (server, st), (client, ct) = build()
        entry = register(kernel, core, st)
        kernel.grant_xcall_cap(core, server, ct, entry.entry_id)
        kernel.run_thread(core, ct)
        engine = machine.engines[0]
        engine.xcall(entry.entry_id)
        before = core.cycles
        engine.xret()
        assert core.cycles - before == 23 + DEFAULT_PARAMS.tlb_flush

    def test_swapseg_is_11(self):
        machine, kernel, core, (server, st), (client, ct) = build()
        kernel.run_thread(core, ct)
        kernel.create_relay_seg(core, client, 4096)
        before = core.cycles
        machine.engines[0].swapseg(0)
        assert core.cycles - before == DEFAULT_PARAMS.swapseg == 11


class TestEngineCache:
    def test_prefetch_then_hit(self):
        config = XPCConfig(engine_cache=True)
        machine, kernel, core, (server, st), (client, ct) = build(config)
        entry = register(kernel, core, st)
        kernel.grant_xcall_cap(core, server, ct, entry.entry_id)
        kernel.run_thread(core, ct)
        engine = machine.engines[0]
        engine.prefetch(entry.entry_id)
        engine.xcall(entry.entry_id)
        assert engine.cache.hits == 1

    def test_negative_id_is_prefetch(self):
        config = XPCConfig(engine_cache=True)
        machine, kernel, core, (server, st), (client, ct) = build(config)
        entry = register(kernel, core, st)
        kernel.grant_xcall_cap(core, server, ct, entry.entry_id)
        kernel.run_thread(core, ct)
        engine = machine.engines[0]
        with pytest.raises(XPCError):
            engine.xcall(-entry.entry_id)   # prefetch pseudo-call
        assert engine.stats.prefetches == 1
        engine.xcall(entry.entry_id)
        assert engine.cache.hits == 1

    def test_kernel_eviction_after_remove(self):
        config = XPCConfig(engine_cache=True)
        machine, kernel, core, (server, st), (client, ct) = build(config)
        entry = register(kernel, core, st)
        kernel.grant_xcall_cap(core, server, ct, entry.entry_id)
        kernel.run_thread(core, ct)
        engine = machine.engines[0]
        engine.prefetch(entry.entry_id)
        kernel.remove_xentry(core, server, entry.entry_id)
        with pytest.raises(InvalidXEntryError):
            engine.xcall(entry.entry_id)

    def test_tagged_cache_is_per_thread(self):
        config = XPCConfig(engine_cache=True, engine_cache_tagged=True)
        machine, kernel, core, (server, st), (client, ct) = build(config)
        ct2 = kernel.create_thread(client)
        entry = register(kernel, core, st)
        for thread in (ct, ct2):
            kernel.grant_xcall_cap(core, server, thread, entry.entry_id)
        kernel.run_thread(core, ct)
        engine = machine.engines[0]
        engine.prefetch(entry.entry_id)
        kernel.run_thread(core, ct2)
        # Another thread's prefetch must not hit (§6.1 timing attacks).
        assert engine.cache.lookup(entry.entry_id, ct2) is None


class TestOutOfRangeCapIds:
    """DESIGN §6: an xcall whose cap bit is not set always raises
    invalid xcall-cap — an id past the bitmap has no bit at all, so it
    is refused by the cap test like any cleared bit, and charged the
    same cap-test floor."""

    @pytest.mark.parametrize("entry_id", [1024, 1025, 1 << 20])
    def test_xcall_past_the_bitmap_is_a_refused_cap_test(self, entry_id):
        from repro.params import XCALL_CAPTEST_FLOOR
        machine, kernel, core, (server, st), (client, ct) = build()
        register(kernel, core, st)
        kernel.run_thread(core, ct)
        engine = machine.engines[0]
        assert len(ct.xpc.cap_bitmap) == 1024
        before = core.cycles
        with pytest.raises(InvalidXCallCapError) as info:
            engine.xcall(entry_id)
        assert str(info.value) == (
            f"no xcall capability for x-entry {entry_id}")
        assert core.cycles - before == XCALL_CAPTEST_FLOOR
        assert engine.stats.exceptions == 1
        assert engine.stats.xcall_cycles == XCALL_CAPTEST_FLOOR
        assert engine.stats.xcalls == 0
        assert ct.xpc.link_stack.depth == 0
        assert core.aspace is client.aspace
