"""One seeded-violation table, run through every caller of the protocol
catalogue: the model checker's ``check_state``, the chaos suite's
``check_recovery_invariants``, the aio ring's ``check_ring_invariants``
and the differential harness's per-op check.

Each row seeds one broken property into a live kernel world and names
the invariant the catalogue must report.  Every caller must report it,
so no caller can fall back to a weaker reading of a property again.
"""

from types import SimpleNamespace

import pytest

from repro.proptest.executors import SyncExecutor
from repro.proptest.grammar import CallOp, GrantOp, Program, RegisterOp
from repro.proptest.harness import run_differential
from repro.sel4 import Sel4Kernel, Sel4XPCTransport
from repro.verify import (ModelChecker, ModelConfig,
                          check_recovery_invariants, check_ring_invariants)
from repro.verify.invariants import check_protocol, check_state
from repro.xpc.linkstack import LinkageRecord
from repro.xpc.relayseg import NO_MASK, SEG_INVALID, SegReg


def _seg(kernel, core):
    """A fresh process, two of its threads, and a segment it parks."""
    process = kernel.create_process("seeded")
    a = kernel.create_thread(process, "seeded-a")
    b = kernel.create_thread(process, "seeded-b")
    seg, _slot = kernel.create_relay_seg(core, process, 4096)
    return process, a, b, seg


def _window(thread, seg):
    thread.xpc.seg_reg = SegReg.for_segment(seg)


def two_holders(kernel, core):
    _, a, b, seg = _seg(kernel, core)
    _window(a, seg)
    _window(b, seg)
    seg.active_owner = a
    return seg


def none_owner(kernel, core):
    _, a, _, seg = _seg(kernel, core)
    _window(a, seg)
    seg.active_owner = None
    return seg


def other_owner(kernel, core):
    _, a, b, seg = _seg(kernel, core)
    _window(a, seg)
    seg.active_owner = b
    return seg


def revoked_windowed(kernel, core):
    _, a, _, seg = _seg(kernel, core)
    _window(a, seg)
    seg.active_owner = a
    seg.revoked = True
    return seg


def revoked_parked(kernel, core):
    _, _, _, seg = _seg(kernel, core)
    seg.revoked = True
    return seg


def dead_entry_valid(kernel, core):
    process = kernel.create_process("seeded")
    thread = kernel.create_thread(process, "seeded-a")
    kernel.register_xentry(core, thread, lambda *args: None)
    process.alive = False          # died without invalidating its entry
    return None


def link_stack_over(kernel, core):
    process = kernel.create_process("seeded")
    stack = kernel.create_thread(process, "seeded-a").xpc.link_stack
    record = LinkageRecord(None, None, None, SEG_INVALID, NO_MASK,
                           SEG_INVALID, 0)
    # A push that skipped the SRAM bound check.
    stack._records.extend([record] * (stack.capacity + 1))
    return None


#: (row, seeding function, the invariant the catalogue must report).
ROWS = [
    ("two-holders", two_holders, "single-owner"),
    ("windowed-none-owner", none_owner, "single-owner"),
    ("windowed-other-owner", other_owner, "single-owner"),
    ("revoked-windowed", revoked_windowed, "revoked-unmapped"),
    ("revoked-parked", revoked_parked, "revoked-unmapped"),
    ("dead-entry-valid", dead_entry_valid, "dead-entries-invalid"),
    ("link-stack-over-capacity", link_stack_over, "link-stack-bound"),
]
IDS = [row[0] for row in ROWS]
SINGLE_OWNER_ROWS = [row for row in ROWS if row[2] == "single-owner"]


def _invariants(violations):
    return {v.invariant for v in violations}


def _fresh_kernel():
    executor = SyncExecutor("seL4-XPC", Sel4Kernel, Sel4XPCTransport,
                            is_xpc=True)
    return executor.kernel, executor.core


@pytest.mark.parametrize("name,seed,invariant", ROWS, ids=IDS)
def test_model_checker_check_state(name, seed, invariant):
    checker = ModelChecker(ModelConfig(
        world_mutator=lambda world: seed(world.kernel, world.cores[0])))
    world, shadow = checker.build_world()
    assert _invariants(check_state(world, shadow)) == {invariant}


@pytest.mark.parametrize("name,seed,invariant", ROWS, ids=IDS)
def test_chaos_check_recovery_invariants(name, seed, invariant):
    kernel, core = _fresh_kernel()
    assert check_recovery_invariants(kernel) == []
    seed(kernel, core)
    assert _invariants(check_recovery_invariants(kernel)) == {invariant}


@pytest.mark.parametrize("name,seed,invariant", SINGLE_OWNER_ROWS,
                         ids=[row[0] for row in SINGLE_OWNER_ROWS])
def test_ring_check_ring_invariants(name, seed, invariant):
    kernel, core = _fresh_kernel()
    seg = seed(kernel, core)
    ring = SimpleNamespace(
        name="seeded-ring", entries=8, segment=seg, peek_cqes=lambda: [],
        peek_indices=lambda: dict(sq_head=0, sq_tail=0, cq_head=0,
                                  cq_tail=0, next_seq=0))
    violations = check_ring_invariants(ring, kernel)
    assert _invariants(violations) == {invariant}
    assert all(v.message.startswith("seeded-ring: ") for v in violations)


#: Three ops; the row is seeded right after the last one.
PROGRAM = Program((
    RegisterOp("e", "echo"), GrantOp("e"),
    CallOp("e", ("echo", 1), b"hi", 2),
), seed=0)


class _SeededExecutor(SyncExecutor):
    """seL4-XPC with one row seeded after the program's last op."""

    def __init__(self, seed) -> None:
        super().__init__("seL4-XPC", Sel4Kernel, Sel4XPCTransport,
                         is_xpc=True)
        self.seed = seed
        self.steps = 0

    def step(self, op) -> tuple:
        outcome = super().step(op)
        self.steps += 1
        if self.steps == len(PROGRAM.ops):
            self.seed(self.kernel, self.core)
        return outcome


@pytest.mark.parametrize("name,seed,invariant", ROWS, ids=IDS)
def test_harness_per_op_catalogue(name, seed, invariant):
    result = run_differential(
        PROGRAM, factories=[("seL4-XPC", lambda: _SeededExecutor(seed))])
    assert result.divergences == []
    last = len(PROGRAM.ops) - 1
    assert result.invariant_failures
    assert all(f.startswith(f"seL4-XPC: op {last} [{invariant}]")
               for f in result.invariant_failures)


def test_the_unseeded_harness_run_is_clean():
    result = run_differential(
        PROGRAM, factories=[("seL4-XPC", lambda: _SeededExecutor(
            lambda kernel, core: None))])
    assert result.ok
    assert check_protocol(_fresh_kernel()[0]) == []
