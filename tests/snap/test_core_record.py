"""Capture/restore, the snapshot store, and Recorder positioning.

A world carries every allocator it draws from (koids, ASIDs, segment
IDs, TCP ISNs), so a restore repeats the original allocation sequence
exactly and fingerprints compare between any two runs of the same ops
from the same state, whatever else ran in the process.
"""

import os

import pytest

from repro.snap import (Recorder, SnapshotStore, capture,
                        live_fingerprint, restore, world_clock)
from repro.snap.scenarios import fig5_world


def test_restore_s0_replays_byte_identically():
    world, ops = fig5_world()
    snap0 = capture(world, op_index=0)
    world.run(ops)
    fp_straight = live_fingerprint(world)

    replayed = restore(snap0)
    replayed.run(ops)
    assert replayed.outcomes == world.outcomes
    assert replayed.op_cycles == world.op_cycles
    assert live_fingerprint(replayed) == fp_straight


def test_one_snapshot_seeds_many_futures():
    world, ops = fig5_world()
    world.run(ops[:4])
    mid = capture(world, op_index=4)
    world.run(ops[4:])
    fp_straight = live_fingerprint(world)

    # Two independent restores of the same snapshot, run sequentially:
    # both must land on the straight-line state, and the snapshot must
    # stay dormant and reusable throughout.
    for _ in range(2):
        revived = restore(mid)
        revived.run(ops[4:])
        # The revived world keeps its pre-boundary outcome log.
        assert revived.outcomes == world.outcomes
        assert live_fingerprint(revived) == fp_straight
    assert mid.world.machine.memory.dormant


def test_capture_does_not_disturb_the_live_world():
    bare, ops = fig5_world()
    bare.run(ops)

    observed, ops2 = fig5_world()
    observed.run(ops2[:5])
    capture(observed)                       # mid-run checkpoint
    observed.run(ops2[5:])
    # Outcomes and per-op cycles are value-based, so they compare
    # across the two builds: the checkpoint must not have moved either.
    assert observed.outcomes == bare.outcomes
    assert observed.op_cycles == bare.op_cycles


def test_snapshot_is_cycle_stamped():
    world, ops = fig5_world()
    world.run(ops[:3])
    snap = capture(world, op_index=3)
    assert snap.cycle == world_clock(world) == world.clock()
    assert snap.op_index == 3
    assert snap.cycle > 0


def test_store_roundtrip_and_content_addressing(tmp_path):
    world, ops = fig5_world()
    world.run(ops[:3])
    snap = capture(world, op_index=3)
    world.run(ops[3:])
    fp_straight = live_fingerprint(world)

    store = SnapshotStore(str(tmp_path))
    key = store.save(snap)
    assert key == snap.key and len(key) == 12
    assert store.save(snap) == key          # idempotent: same content
    assert store.keys() == [key]

    loaded = store.load(key)
    assert loaded.fingerprint == snap.fingerprint
    assert loaded.op_index == 3
    revived = restore(loaded)
    revived.run(ops[3:])
    assert revived.outcomes == world.outcomes
    assert live_fingerprint(revived) == fp_straight


def test_store_detects_corruption(tmp_path):
    world, ops = fig5_world()
    world.run(ops[:2])
    store = SnapshotStore(str(tmp_path))
    key = store.save(capture(world, op_index=2))
    os.rename(tmp_path / f"{key}.snap", tmp_path / ("0" * 12 + ".snap"))
    with pytest.raises(ValueError, match="corruption"):
        store.load("0" * 12)


def test_recorder_checkpoint_cadence():
    world, ops = fig5_world()
    recorder = Recorder(world, every_ops=3)
    recorder.run(ops)
    assert [s.op_index for s in recorder.checkpoints] == [0, 3, 6, 9]
    assert recorder.nearest(7).op_index == 6
    assert recorder.nearest(0).op_index == 0
    assert recorder.nearest(10).op_index == 9


def test_recorder_every_cycles_cadence():
    world, ops = fig5_world()
    recorder = Recorder(world, every_ops=None, every_cycles=1)
    recorder.run(ops)
    # Every op burns cycles, so a 1-cycle cadence checkpoints each op.
    assert [s.op_index for s in recorder.checkpoints] == \
        list(range(len(ops) + 1))


def test_recorder_rejects_no_cadence_and_used_worlds():
    world, ops = fig5_world()
    with pytest.raises(ValueError, match="every_ops"):
        Recorder(world, every_ops=None, every_cycles=None)
    world.run(ops[:1])
    with pytest.raises(ValueError, match="fresh world"):
        Recorder(world)


def test_resume_positions_exactly():
    world, ops = fig5_world()
    recorder = Recorder(world, every_ops=4)
    recorder.run(ops)
    fp_straight = live_fingerprint(recorder.world)

    for mid in (0, 3, 5, len(ops)):
        positioned = recorder.resume(mid)
        assert positioned.op_index == mid
        assert positioned.outcomes == recorder.world.outcomes[:mid]
    finished = recorder.resume(len(ops))
    assert live_fingerprint(finished) == fp_straight
    with pytest.raises(IndexError):
        recorder.resume(len(ops) + 1)
    with pytest.raises(IndexError):
        recorder.resume(-1)


def test_checkpoints_share_clean_pages_copy_on_write():
    world, ops = fig5_world()
    recorder = Recorder(world, every_ops=1)
    recorder.run(ops)
    prev = recorder.checkpoints[-2].world.machine.memory.snap_page_table()
    last = recorder.checkpoints[-1].world.machine.memory.snap_page_table()
    shared = sum(1 for frame, page in last.items()
                 if prev.get(frame) is page)
    # Adjacent checkpoints of a small-op workload must share most
    # pages by identity — that is what makes checkpoints cheap.
    assert shared / len(last) > 0.5
