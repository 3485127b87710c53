"""XPCRing byte-identity regression: a fixed op script, pinned per step.

Drives one ring through a scripted sequence covering index wrap, a full
ring, the injected ``aio.ring_full`` refusal, arena exhaustion on the
data slot right after a successful meta allocation, arena exhaustion in
``push_cqe``, and ``reset`` both refused and accepted.  After every step
the sha256 of the whole segment's bytes and the core's cycle clock must
equal the golden values below, which were recorded against the original
field-at-a-time index implementation.  Any change to how the ring
reads or writes its header must leave simulated memory and cycles
exactly where they were, failure paths included.
"""

import hashlib

import repro.faults as faults
from repro.aio import SQE_ERR, SQE_OK, XPCRing
from repro.faults import FaultPlan
from repro.hw.machine import Machine
from repro.kernel.kernel import BaseKernel
from repro.xpc.errors import XPCError


def ring_trace():
    """Run the script; returns ``[(step, outcome, sha256, cycles)]``."""
    machine = Machine(cores=1, mem_bytes=16 * 1024 * 1024)
    kernel = BaseKernel(machine)
    core, mem = machine.core0, machine.memory
    seg, _slot = kernel.create_relay_seg(
        core, kernel.create_process("p"), 4096)
    trace = []

    def step(name, fn, *args):
        try:
            result = fn(*args)
            outcome = "ok" if result is None else repr(result)
        except XPCError as exc:        # XPCRingFullError included
            result = None
            outcome = f"{type(exc).__name__}: {exc}"
        digest = hashlib.sha256(mem.read(seg.pa_base, seg.length))
        trace.append((name, outcome, digest.hexdigest(), core.cycles))
        return result

    ring = step("format", XPCRing.format, core, mem, seg, 4, "golden")

    # Three two-deep rounds through a 4-entry ring: slots wrap.
    for rnd in range(3):
        for i in range(2):
            step(f"push r{rnd}.{i}", ring.push_sqe, core,
                 ("op", rnd, i, "kéy"), bytes([rnd * 2 + i]) * 24, 40)
        for i in range(2):
            sqe = step(f"pop_sqe r{rnd}.{i}", ring.pop_sqe, core)
            step(f"push_cqe r{rnd}.{i}", ring.push_cqe, core, sqe.seq,
                 SQE_OK if i else SQE_ERR, (0, sqe.seq, "ok"),
                 sqe.data_off, 16)
        step(f"pop_cqe r{rnd}.0", ring.pop_cqe, core)
        step(f"pop_cqe r{rnd}.1", ring.pop_cqe, core)
        step(f"pop_cqe r{rnd} empty", ring.pop_cqe, core)
        step(f"reset r{rnd}", ring.reset, core)

    # Fill the ring, then one more: refused by the index check.
    for i in range(4):
        step(f"fill {i}", ring.push_sqe, core, ("fill", i), b"f" * 8)
    step("push on full ring", ring.push_sqe, core, ("over",), b"o")

    # Drain the SQ; reset is refused while anything is unharvested.
    step("reset in flight", ring.reset, core)
    for i in range(4):
        sqe = step(f"drain {i}", ring.pop_sqe, core)
        step(f"complete {i}", ring.push_cqe, core, sqe.seq, SQE_OK,
             ("done", i), sqe.data_off, 8)
    step("pop_sqe empty", ring.pop_sqe, core)
    step("reset unharvested", ring.reset, core)
    for i in range(4):
        step(f"harvest {i}", ring.pop_cqe, core)
    step("reset drained", ring.reset, core)

    # The injected refusal fires even with space remaining.
    with faults.active(FaultPlan(0).arm("aio.ring_full", nth=1)):
        step("injected ring_full", ring.push_sqe, core, ("inj",), b"i")
    # A stale cached head costs one charged header reload.
    step("push before stale", ring.push_sqe, core, ("st",), b"s" * 4)
    with faults.active(FaultPlan(0).arm("aio.stale_head", nth=1)):
        sqe = step("pop_sqe stale head", ring.pop_sqe, core)
    step("complete stale", ring.push_cqe, core, sqe.seq, SQE_OK, (),
         sqe.data_off, 0)
    step("harvest stale", ring.pop_cqe, core)
    step("reset stale", ring.reset, core)

    # Arena: a big slot leaves room for the next meta but not its slot;
    # the meta's cursor bump stays stored when the slot is refused.
    step("big slot", ring.push_sqe, core, ("w", 1), b"b" * 2400)
    step("meta ok, slot exhausted", ring.push_sqe, core, ("w", 2),
         b"c" * 2000)
    step("still exhausted", ring.push_sqe, core, ("w", 3), b"d" * 1400)
    sqe = step("pop big", ring.pop_sqe, core)
    # Reply meta larger than what is left of the arena: refused.
    step("push_cqe exhausted", ring.push_cqe, core, sqe.seq, SQE_OK,
         ("r" * 1400,), sqe.data_off, 0)
    step("push_cqe small", ring.push_cqe, core, sqe.seq, SQE_OK,
         ("r",), sqe.data_off, 0)
    step("harvest big", ring.pop_cqe, core)
    step("reset after exhaustion", ring.reset, core)
    step("push after reset", ring.push_sqe, core, ("again",), b"a" * 16)
    return trace


#: ``(step, sha256 of the segment, core cycles)`` after every step,
#: recorded against the field-at-a-time implementation.
GOLDEN = [
    ('format',
     "a1dcb9d27537e0065d81039215c04468c670ea52b00165fd50d00e9e423e08a1", 340),
    ('push r0.0',
     "b3b7f523cf132efa03234c6fd37fcba7bdd3326d89e6f9dd5e50fa4dee90c64e", 351),
    ('push r0.1',
     "39bdd47c74974d16e7793e05cb6826a994386475b3bfda4702b561463ad26d7e", 362),
    ('pop_sqe r0.0',
     "718776366bf887cbad0ef36dc1211246559ea0089b479a3e8518eaf19632f53c", 372),
    ('push_cqe r0.0',
     "52f6cdf1c2aeef52f90b0cfc829cfa3acb3a51475867a42e0becaa92e82e55dd", 380),
    ('pop_sqe r0.1',
     "cf9c9e24619d2fd3f1b2bd4b0e6f4fe4db2e7cf73ab3406ccc4d0a2aae0f5e07", 390),
    ('push_cqe r0.1',
     "2e6bbfe2a064115f307cb52f8f3a26cc7350f50bd995c74553607e41e078c672", 398),
    ('pop_cqe r0.0',
     "1b64697f5796c790fb43e297adcd64ceadd030ac26a36114014ea54ba2d82d15", 406),
    ('pop_cqe r0.1',
     "17e98bf25b969f5d3b998c3e8900fa13deda9a8d9b67b54a76db829154be0b1d", 414),
    ('pop_cqe r0 empty',
     "17e98bf25b969f5d3b998c3e8900fa13deda9a8d9b67b54a76db829154be0b1d", 414),
    ('reset r0',
     "9c43b767f2e7fc9f82c18078eafcbd66badfacbd8d7430e4121e1c91570e3675", 434),
    ('push r1.0',
     "2ddfbcc872ddb6dd05c690f050a2323b766f3e681545f8981f8bc44739b5b37d", 445),
    ('push r1.1',
     "12a36e7ac61fe181cb0c0713800adf4a8be1576964b3913378df2857f7d1ac76", 456),
    ('pop_sqe r1.0',
     "64a26a71018cf4ac519d013022384f071fe9ff803b1d248da06bb9101cf8e837", 466),
    ('push_cqe r1.0',
     "38abb74a3093f71dfb2ae55fb049d29bcaee77a2d917ebaaaab59b7eafd66062", 474),
    ('pop_sqe r1.1',
     "a2d35489b73c8b6bb39b5b34d3eca5f693be63035fed57ba48a80006eb136923", 484),
    ('push_cqe r1.1',
     "6f691251300580cde277db10632575677a1b3bec83d1d0752170dfaa9a2564e9", 492),
    ('pop_cqe r1.0',
     "e7005721fc9e28f9e201989abb12b717d5411c4f479aabf0795c3e815260ae7f", 500),
    ('pop_cqe r1.1',
     "a9e3a6e31ba63d2b735d8fdbbf5d5b97a237e483db52ca890f642d579d23f1f6", 508),
    ('pop_cqe r1 empty',
     "a9e3a6e31ba63d2b735d8fdbbf5d5b97a237e483db52ca890f642d579d23f1f6", 508),
    ('reset r1',
     "e55a16b508d2936bce6b22a1a4dea3334d9aba7c95fe91f6cd955d5806baf1e9", 528),
    ('push r2.0',
     "f7487a1008a9a2ac16c4b6ce1198bf702304189db7ba8adaf3861f11c0e4f768", 539),
    ('push r2.1',
     "587f60941cd98d91cea4839b046e8bcec783e9b76e58095e776b7d935f9ed103", 550),
    ('pop_sqe r2.0',
     "600b841064f572f11c5fa9d81c4ce10c09fa6bc55b6f7b20318be61ddb8dcd4a", 560),
    ('push_cqe r2.0',
     "6efd412d22e80c6f7b2d54732f621e68ae1c6f5aab4f460319fe54dfc221c7ac", 568),
    ('pop_sqe r2.1',
     "c8b92a49ec5f5521f3ced8afc0059883c3cb74dfb00c883ecd7a30fce68692bf", 578),
    ('push_cqe r2.1',
     "ee7106a2578611c4d03b74d806c1a46f6a07c456758e95780c6a4301e36d62e0", 586),
    ('pop_cqe r2.0',
     "fa8b5f716425d6b575e5d8a7105217e689514aebadefb51281c61172d49e5abc", 594),
    ('pop_cqe r2.1',
     "4765ad1c5bed8c85ff8a3253c2d0d386e7c11b8682f1f0bc2f785b0a07340d02", 602),
    ('pop_cqe r2 empty',
     "4765ad1c5bed8c85ff8a3253c2d0d386e7c11b8682f1f0bc2f785b0a07340d02", 602),
    ('reset r2',
     "a9edcc45f1f1ad132b75e9317b1d5318c2865ebdae0443888eed2689d3f6da13", 622),
    ('fill 0',
     "d04a835520949a6f61a53ea60527d8b58eb3bb05e8be6e20aaab4dc64650248c", 632),
    ('fill 1',
     "5dddaa3cd46e27465be12dd65ce47af4581a4b755568abebea2476fb9733c64b", 642),
    ('fill 2',
     "2338f2d2039213b5283f28bc4711574f93d34c497be6eb41852c8df221873903", 652),
    ('fill 3',
     "f616fa0ee0859da394cc72b994d1ed15cb0131c529620188ae7bc8f681ac3518", 662),
    ('push on full ring',
     "f616fa0ee0859da394cc72b994d1ed15cb0131c529620188ae7bc8f681ac3518", 662),
    ('reset in flight',
     "f616fa0ee0859da394cc72b994d1ed15cb0131c529620188ae7bc8f681ac3518", 662),
    ('drain 0',
     "5d51ac77c6427a2fc825a8a6164fddd5f8c2b8913d6048cf54951039c13ce225", 672),
    ('complete 0',
     "93645b3512619cbde8128231e93fe7fe78479369665ecc143509216532a6ec25", 680),
    ('drain 1',
     "d0bdef47cb861427eb811a3827a0b7d3bda0083da7a705a17b6c28305387348f", 690),
    ('complete 1',
     "8a406732afedc974ed764c25c8fec72d3149ed3db96cedc7fcf599c9e667bb2c", 698),
    ('drain 2',
     "c6a1e5f0a4d50fc13afed27906088b0d04b88423853f5f13787766504a8e83ea", 708),
    ('complete 2',
     "71266796ca297a770bbb04de0346b6d9965e09f112fe94e21d170833e2e70f8b", 716),
    ('drain 3',
     "717e456c482d47f71ce6bf9135fecfd2bb70685acb576fc41cf5b6e880039a02", 726),
    ('complete 3',
     "f72b26424c98f5e00499cfc1fe0ff423a52b36ca6b3bb439c91e1b3d6b7c5342", 734),
    ('pop_sqe empty',
     "f72b26424c98f5e00499cfc1fe0ff423a52b36ca6b3bb439c91e1b3d6b7c5342", 734),
    ('reset unharvested',
     "f72b26424c98f5e00499cfc1fe0ff423a52b36ca6b3bb439c91e1b3d6b7c5342", 734),
    ('harvest 0',
     "8561232fa0c0b02a912e596f282c836874b4b091e5ba69f8490293f162e3defc", 742),
    ('harvest 1',
     "0fd1d4adc00853c04f569ed3be002671efc848ca7f095d2679f427707f48c89f", 750),
    ('harvest 2',
     "b752754fec4a57ea2bca9c9a3a6034e67bde3945cf843b4f6619c17996d1250e", 758),
    ('harvest 3',
     "c7a7386dbfba606272a8da7ea4ee4d5e5cf3cd6c7e82d74d3fa5e964a33b7dac", 766),
    ('reset drained',
     "9d9ad16e4fc1ee3be93dd9aad35ad898aa9c6e709d0d53a27d20bc7f9ef6a334", 786),
    ('injected ring_full',
     "9d9ad16e4fc1ee3be93dd9aad35ad898aa9c6e709d0d53a27d20bc7f9ef6a334", 786),
    ('push before stale',
     "2e742d9bed9bdbf09ae5c55c4276d65c035b7cbdcffb64b8cfb033ef7555da10", 796),
    ('pop_sqe stale head',
     "a74ad36bbb9eb917274d3c07e1cd4dcaae7cd86b4343c7ad01a3c4da8bbeef64", 826),
    ('complete stale',
     "01f280c3d967d4ab70d373684dce5a8b1a6013c8eef494fc22ff72466ac88138", 834),
    ('harvest stale',
     "364fda74bf67e719e18ff05b2bcc66e9478d310c644b2b2928fb61e62c2a40af", 842),
    ('reset stale',
     "1b13160eda05eb47b02428cced3adbb47fd5c2ba15ccb14799c5aa4a24831832", 862),
    ('big slot',
     "575c06fdf97db56f99cce287b2427c14718defbf25c888b761189fae06a0af94", 968),
    ('meta ok, slot exhausted',
     "ab23c4e130c4b5236f629cd4d8b11da03b40b661a4f530ee8fe3c248c6f68f74", 968),
    ('still exhausted',
     "7b80c218d544e363e274fda58cd9f3de100e6262ba2aa68f32312636febe7582", 968),
    ('pop big',
     "14a07edd10a67a07c53208f87226e1a184bf0bd08539ae62289fc76cb6ee911d", 978),
    ('push_cqe exhausted',
     "14a07edd10a67a07c53208f87226e1a184bf0bd08539ae62289fc76cb6ee911d", 978),
    ('push_cqe small',
     "a649d7fc303862910bd5fdc365dab322a025dd0a02f132e30eb735744dd721a5", 986),
    ('harvest big',
     "b33714f02d86fafe4bd987697bb8f827a2fcf6b462312f11415b184efb2f10ca", 994),
    ('reset after exhaustion',
     "aa3c48c64cc077d04e07941474f82551bd9f293f001953691bfc0d1f3f43d674", 1014),
    ('push after reset',
     "d479593a61674c0fc01bbe5269d03e527f4fdd9a87723e2da4bbca122b342a8a", 1025),
]


def test_script_covers_every_failure_path():
    outcomes = {step: outcome for step, outcome, _, _ in ring_trace()}
    assert "ring full (4 outstanding)" in outcomes["push on full ring"]
    assert "injected" in outcomes["injected ring_full"]
    assert "arena" in outcomes["meta ok, slot exhausted"]
    assert "arena" in outcomes["still exhausted"]
    assert "arena" in outcomes["push_cqe exhausted"]
    assert "in flight" in outcomes["reset in flight"]
    assert "in flight" in outcomes["reset unharvested"]
    assert outcomes["reset drained"] == "ok"
    assert outcomes["reset after exhaustion"] == "ok"
    assert outcomes["pop_sqe empty"] == "ok"
    assert outcomes["pop_cqe r2 empty"] == "ok"


def test_segment_bytes_and_cycles_match_golden_after_every_step():
    got = [(step, sha, cycles) for step, _, sha, cycles in ring_trace()]
    assert len(got) == len(GOLDEN)
    for observed, expected in zip(got, GOLDEN):
        assert observed == expected, f"first divergence at {expected[0]!r}"
