"""CLI driver for snapshots: save/restore/bisect/identity/probe.

* ``save`` — run a scenario (or a counterexample artifact on one
  executor) to an op boundary, snapshot, and store it
  content-addressed;
* ``restore`` — revive a stored snapshot, optionally run the rest of
  the scenario's ops, and report fingerprint/cycle;
* ``bisect`` — record a run and reverse-until-invariant: pin the first
  op that breaks the chosen predicate;
* ``identity`` — the CI byte-identity tier: fig5/fig7-shaped worlds
  plus N generated differential programs, each checked straight-line
  vs restore-and-replay, resume-from-midpoint and a world rebuilt from
  its builder (exit 1 on any divergence);
* ``probe`` — print the canonical fingerprint of a small deterministic
  world; run under different ``PYTHONHASHSEED`` values it must not
  move (the hash-determinism contract of the fingerprint walker).

Exit status: 0 — success / identity holds; 1 — mismatch or violation
found (``bisect`` reporting a culprit is *success*: exit 0).
"""

from __future__ import annotations

import argparse
import json
import sys

from repro.proptest.executors import default_executor_factories
from repro.proptest.gen import generate
from repro.proptest.shrink import load_artifact
from repro.snap.core import (SnapshotStore, capture, live_fingerprint,
                             restore)
from repro.snap.record import Recorder
from repro.snap.scenarios import SCENARIOS
from repro.snap.timetravel import recovery_predicate, reverse_until
from repro.snap.world import ExecutorWorld

DEFAULT_STORE = ".snapstore"
DEFAULT_EXECUTOR = "seL4-XPC"


def _factory(name: str):
    table = dict(default_executor_factories())
    if name not in table:
        raise SystemExit(f"unknown executor {name!r}; one of: "
                         f"{', '.join(n for n, _ in table.items())}")
    return table[name]


def _build(args):
    """(world, ops) for --scenario or --program/--executor."""
    if args.scenario:
        return SCENARIOS[args.scenario]()
    if not args.program:
        raise SystemExit("need --scenario or --program")
    program = load_artifact(args.program)
    world = ExecutorWorld.build(_factory(args.executor), observe=True)
    return world, list(program.ops)


def _save(args) -> int:
    world, ops = _build(args)
    at_op = len(ops) if args.at_op is None else args.at_op
    world.run(ops[:at_op])
    snapshot = capture(world, op_index=at_op)
    store = SnapshotStore(args.store)
    key = store.save(snapshot)
    print(f"saved op={at_op} cycle={snapshot.cycle} key={key}")
    print(f"fingerprint={snapshot.fingerprint}")
    return 0


def _restore(args) -> int:
    store = SnapshotStore(args.store)
    snapshot = store.load(args.key)
    rest = None
    if args.run_rest:
        if not (args.scenario or args.program):
            raise SystemExit("--run-rest needs the originating "
                             "--scenario or --program for the op list")
        _, ops = _build(args)
        rest = ops[snapshot.op_index:]
    world = restore(snapshot)
    print(f"restored op={snapshot.op_index} cycle={snapshot.cycle} "
          f"key={snapshot.key}")
    if rest is not None:
        for op in rest:
            world.step(op)
        print(f"ran {len(rest)} remaining op(s): cycle={world.clock()}")
        for outcome in world.outcomes[-len(rest):]:
            print(f"  {outcome!r}")
    print(f"fingerprint={live_fingerprint(world)}")
    return 0


def _bisect(args) -> int:
    world, ops = _build(args)
    recorder = Recorder(world, every_ops=args.every_ops)
    recorder.run(ops)
    if args.invariant == "recovery":
        predicate = recovery_predicate
    else:  # error: some op surfaced an ("error", ...) outcome
        def predicate(w):
            return any(isinstance(o, tuple) and o and o[0] == "error"
                       for o in w.outcomes)
    result = reverse_until(recorder, predicate)
    if result is None:
        print(f"invariant {args.invariant!r} holds over all "
              f"{len(recorder.ops)} op(s)")
        return 0
    print(f"first violation after op {result.op_index}: {result.op!r}")
    print(f"  window: {len(result.window)} op(s), "
          f"probes: {result.probes}")
    print(f"  boundary snapshot: op={result.before.op_index} "
          f"cycle={result.before.cycle} key={result.before.key}")
    if args.store:
        key = SnapshotStore(args.store).save(result.before)
        print(f"  saved pre-violation snapshot -> {args.store}/{key}")
    return 0


def _identity_one(build, label: str, every_ops: int) -> bool:
    """Straight-line vs restore-and-replay byte identity for the world
    ``build()`` returns with its ops; True when identical."""
    world, ops = build()
    snap0 = capture(world, op_index=0)
    recorder = Recorder(world, every_ops=every_ops)
    recorder.run(ops)
    fp_straight = live_fingerprint(recorder.world)

    replayed = restore(snap0)
    replayed.run(ops)
    mid = len(ops) // 2
    resumed = recorder.resume(mid)
    for op in recorder.ops[mid:]:
        resumed.step(op)
    rebuilt, _ = build()
    rebuilt.run(ops)

    ok = True
    for mode, candidate in (("restore-S0", replayed),
                            ("resume-mid", resumed),
                            ("rebuild", rebuilt)):
        if (candidate.outcomes != recorder.world.outcomes
                or live_fingerprint(candidate) != fp_straight):
            print(f"  {label}: {mode} DIVERGED")
            ok = False
    print(f"  {label}: {'ok' if ok else 'FAILED'} "
          f"(cycles={recorder.world.clock()}, "
          f"fp={fp_straight[:12]})")
    return ok


def _identity(args) -> int:
    bad = 0
    print("scenario worlds:")
    for name, builder in SCENARIOS.items():
        if not _identity_one(builder, name, args.every_ops):
            bad += 1
    factories = default_executor_factories()
    for i in range(args.programs):
        program = generate(args.seed + i)
        # Rotate through the executor pool so the tier exercises every
        # mechanism without running the full matrix per program.
        exec_name, factory = factories[i % len(factories)]
        print(f"program seed={args.seed + i} ({len(program.ops)} ops, "
              f"{exec_name}):")
        ops = list(program.ops)
        if not _identity_one(
                lambda: (ExecutorWorld.build(factory, observe=True), ops),
                exec_name, args.every_ops):
            bad += 1
    if bad:
        print(f"{bad} identity failure(s)")
        return 1
    print("byte-identity holds everywhere")
    return 0


def _probe(args) -> int:
    world, ops = SCENARIOS["fig5"]()
    world.run(ops)
    print(f"cycles={world.clock()}")
    print(f"fingerprint={live_fingerprint(world)}")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.snap",
        description="Snapshot/restore, record/replay, and "
                    "reverse-until-invariant time travel.")
    sub = parser.add_subparsers(dest="cmd", required=True)

    def add_world_args(p):
        p.add_argument("--scenario", choices=sorted(SCENARIOS))
        p.add_argument("--program", help="counterexample artifact JSON")
        p.add_argument("--executor", default=DEFAULT_EXECUTOR,
                       help="executor for --program worlds")

    p_save = sub.add_parser("save", help="snapshot at an op boundary")
    add_world_args(p_save)
    p_save.add_argument("--at-op", type=int, default=None,
                        help="boundary to snapshot (default: end)")
    p_save.add_argument("--store", default=DEFAULT_STORE)

    p_restore = sub.add_parser("restore", help="revive a snapshot")
    add_world_args(p_restore)
    p_restore.add_argument("--key", required=True)
    p_restore.add_argument("--store", default=DEFAULT_STORE)
    p_restore.add_argument("--run-rest", action="store_true",
                           help="run the ops after the boundary")

    p_bisect = sub.add_parser(
        "bisect", help="first op violating an invariant")
    add_world_args(p_bisect)
    p_bisect.add_argument("--invariant", default="recovery",
                          choices=("recovery", "error"))
    p_bisect.add_argument("--every-ops", type=int, default=4)
    p_bisect.add_argument("--store", default=None,
                          help="also save the pre-violation snapshot")

    p_ident = sub.add_parser(
        "identity", help="byte-identity tier (CI contract)")
    p_ident.add_argument("--programs", type=int, default=20)
    p_ident.add_argument("--seed", type=int, default=0)
    p_ident.add_argument("--every-ops", type=int, default=4)

    sub.add_parser("probe",
                   help="canonical fingerprint of the fig5 demo")

    args = parser.parse_args(argv)
    return {"save": _save, "restore": _restore, "bisect": _bisect,
            "identity": _identity, "probe": _probe}[args.cmd](args)


if __name__ == "__main__":
    sys.exit(main())
