"""The differential property itself: every mechanism vs the oracle."""

import pytest

from repro.aio.batch import XPCRequestError
from repro.proptest.executors import classify_exception
from repro.proptest.gen import generate
from repro.proptest.grammar import (CallOp, GrantOp, KillOp, PreemptOp,
                                    Program, RegisterOp, RevokeOp,
                                    SubmitOp, WaitOp)
from repro.proptest.harness import run_differential
from repro.xpc.errors import (InvalidXCallCapError, InvalidXEntryError,
                              XPCPeerDiedError)

#: A handwritten program touching every op type and every error arm:
#: echo/xform/kv round trips, a §4.4 handover chain hop and a staged
#: one, denial, revocation, peer death (sync and deferred), a kv miss
#: (handler-error), a thief (§3.3 return-time check), a preemption,
#: and a batch that outlives a kill.
FULL_COVERAGE = Program((
    RegisterOp("e", "echo"), GrantOp("e"),
    RegisterOp("x", "xform"), GrantOp("x"),
    RegisterOp("k", "kv"), GrantOp("k"),
    RegisterOp("c", "chain"), GrantOp("c"),
    RegisterOp("t", "thief"), GrantOp("t"),
    CallOp("e", ("echo", 1), b"hello", 5),
    CallOp("x", ("xf", 2), bytes(range(32)), 32),
    CallOp("k", ("put", "alpha"), b"value", 8),
    CallOp("k", ("get", "alpha"), b"", 128),
    CallOp("k", ("get", "beta"), b"", 128),          # handler-error
    CallOp("c", ("fwd", "e", 1, ("echo", 3)), b"abcdef", 6),  # handover
    CallOp("c", ("fwd", "x", 0, ("xf", 4)), b"stage", 512),   # staged
    CallOp("c", ("fwd", "ghost", 0, ("echo", 5)), b"zz", 512),
    PreemptOp(),
    SubmitOp("e", ("echo", 6), b"async", 5),
    SubmitOp("x", ("xf", 7), b"queued", 6),
    WaitOp(),
    CallOp("t", ("steal", 8), b"", 8),               # peer-died (§3.3)
    RevokeOp("e"),
    CallOp("e", ("echo", 9), b"no", 2),              # denied
    SubmitOp("e", ("echo", 10), b"still", 5),        # ring cap survives
    KillOp("x"),
    CallOp("x", ("xf", 11), b"dead", 4),             # peer-died
    SubmitOp("x", ("xf", 12), b"late", 4),
    WaitOp(),
    CallOp("ghost", ("echo", 13)),                   # no-service
), seed=0)


def test_all_mechanisms_agree_on_the_full_coverage_program():
    result = run_differential(FULL_COVERAGE)
    assert result.invariant_failures == []
    assert result.divergences == [], "\n".join(
        d.describe() for d in result.divergences)
    assert len(result.reports) == 10
    assert result.sim_cycles > 0


#: ``generate(1045)`` shrunk to its core: a chain hop forwards to a
#: thief.  The §4.2 repair of the thief's return must restore the hop
#: exactly as ``xret`` does — window, owner and seg-list — or the hop's
#: own scratch swapseg lands in the thief's seg-list and the client's
#: return fails the §3.3 check as well.
SEED_1045 = Program((
    RegisterOp("svc0", "chain"), GrantOp("svc0"),
    RegisterOp("svc5", "thief"),
    CallOp("svc0", ("fwd", "svc5", 0, ("steal", 0)), b"", 512),
), seed=1045)


def test_seed_1045_chain_hop_reports_the_thiefs_death():
    result = run_differential(SEED_1045)
    assert result.expected[3] == ("ok", ("via-err", "peer-died"), b"")
    assert result.ok, (
        [d.describe() for d in result.divergences]
        + result.invariant_failures)


@pytest.mark.fuzz
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_generated_programs_agree(seed):
    result = run_differential(generate(seed))
    assert result.ok, (
        [d.describe() for d in result.divergences]
        + result.invariant_failures)


def test_classify_exception():
    assert classify_exception(XPCPeerDiedError(3)) == "peer-died"
    assert classify_exception(InvalidXEntryError("gone")) == "peer-died"
    assert classify_exception(InvalidXCallCapError("no")) == "denied"
    assert classify_exception(KeyError("beta")) == "handler-error"
    # Ring-contained errors carry the exception class in the CQE meta.
    assert classify_exception(
        XPCRequestError(("XPCPeerDiedError", ""))) == "peer-died"
    assert classify_exception(
        XPCRequestError(("InvalidXCallCapError", ""))) == "denied"
    assert classify_exception(
        XPCRequestError(("KeyError", "beta"))) == "handler-error"
    assert classify_exception(XPCRequestError(())) == "handler-error"
