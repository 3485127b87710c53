"""CLI for repro.prof.

::

    # cycle-attribution flamegraph of a canonical scenario
    python -m repro.prof flame --scenario fig5 --out fig5.folded

    # evaluate SLOs against a scenario run
    python -m repro.prof slo --scenario fig5 \\
        --spec "p99(xpc.call_cycles) < 2000"

    # seeded-regression bisect smoke test (CI): inject a captest
    # slowdown from op N on and require the sentry to pin it
    python -m repro.prof sentry --scenario fig5 --inject-at 5 \\
        --extra 50 --expect-op 5 --expect-phase phase:captest

``flame`` writes flamegraph.pl/speedscope "folded" stacks;
``sentry`` exits nonzero when the bisect misses its expectation, so CI
can assert the whole drift→bisect→phase-diff pipeline end to end.
"""

from __future__ import annotations

import argparse
import json
import sys

import repro.obs as obs
from repro.prof.sentry import bisect_regression, seed_captest_regression
from repro.prof.slo import SLOEngine
from repro.snap.scenarios import SCENARIOS
from repro.snap.world import attach_obs


def _run_scenario(scenario: str, profile: bool = True):
    world, ops = SCENARIOS[scenario]()
    session = attach_obs(world, obs.ObsSession(profile=profile))
    for op in ops:
        world.step(op)
    return world, session


def cmd_flame(args: argparse.Namespace) -> int:
    _, session = _run_scenario(args.scenario)
    profiler = session.profiler
    folded = profiler.collapsed_text()
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(folded + "\n")
        print(f"wrote {len(profiler.collapsed())} stacks to {args.out}")
    else:
        print(folded)
    if args.json:
        with open(args.json, "w") as fh:
            json.dump(profiler.as_dict(), fh, indent=2)
        print(f"wrote flame tree to {args.json}")
    ok = profiler.complete()
    print(f"attributed {profiler.attributed} of "
          f"{profiler.clock_cycles()} clock cycles "
          f"({'complete' if ok else 'INCOMPLETE'})")
    return 0 if ok else 1


def cmd_slo(args: argparse.Namespace) -> int:
    world, session = _run_scenario(args.scenario, profile=False)
    engine = SLOEngine(session.registry, args.spec,
                       window_cycles=args.window)
    statuses = engine.evaluate(world.clock() or args.window)
    breaches = 0
    for status in statuses:
        state = ("no-data" if status.no_data
                 else "BREACH" if status.violated else "ok")
        breaches += status.violated
        print(f"{state:>7}  {status.spec.raw}  "
              f"(value={status.value}, burn={status.burn_rate:.2f})")
    if args.strict and breaches:
        return 1
    return 0


def cmd_sentry(args: argparse.Namespace) -> int:
    mutate = seed_captest_regression(args.extra, args.inject_at)
    report = bisect_regression(args.scenario, mutate)
    print(report.render())
    if args.json:
        with open(args.json, "w") as fh:
            json.dump(report.as_dict(), fh, indent=2)
    if not report.regressed:
        print("sentry: expected a regression but found none",
              file=sys.stderr)
        return 1
    if args.expect_op is not None and report.op_index != args.expect_op:
        print(f"sentry: pinned op #{report.op_index}, expected "
              f"#{args.expect_op}", file=sys.stderr)
        return 1
    if (args.expect_phase is not None
            and report.culprit_phase != args.expect_phase):
        print(f"sentry: culprit phase {report.culprit_phase!r}, "
              f"expected {args.expect_phase!r}", file=sys.stderr)
        return 1
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.prof",
        description="cycle flames, SLOs, perf sentry")
    sub = parser.add_subparsers(dest="cmd", required=True)

    p = sub.add_parser("flame", help="collapsed-stack cycle profile")
    p.add_argument("--scenario", choices=sorted(SCENARIOS),
                   default="fig5")
    p.add_argument("--out", help="write folded stacks here")
    p.add_argument("--json", help="write the flame tree JSON here")
    p.set_defaults(fn=cmd_flame)

    p = sub.add_parser("slo", help="evaluate SLO specs on a scenario")
    p.add_argument("--scenario", choices=sorted(SCENARIOS),
                   default="fig5")
    p.add_argument("--spec", action="append", required=True,
                   help="e.g. 'p99(xpc.call_cycles) < 2000' "
                        "(repeatable)")
    p.add_argument("--window", type=int, default=50_000)
    p.add_argument("--strict", action="store_true",
                   help="exit 1 on any breach")
    p.set_defaults(fn=cmd_slo)

    p = sub.add_parser("sentry",
                       help="seeded-regression bisect smoke test")
    p.add_argument("--scenario", choices=sorted(SCENARIOS),
                   default="fig5")
    p.add_argument("--inject-at", type=int, default=5,
                   help="xcalls before the seeded slowdown starts")
    p.add_argument("--extra", type=int, default=50,
                   help="extra captest cycles per regressed xcall")
    p.add_argument("--expect-op", type=int, default=None)
    p.add_argument("--expect-phase", default=None)
    p.add_argument("--json")
    p.set_defaults(fn=cmd_sentry)

    args = parser.parse_args(argv)
    return args.fn(args)


if __name__ == "__main__":
    sys.exit(main())
