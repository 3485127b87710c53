"""Command line of the host-time benchmark.

    python -m bench run [--seed 1009] [--label L] [--workload W]...
    python -m bench trace [--seed 1009] [--label L]
    python -m bench compare OLD NEW
    python -m bench measure --workload W --seed N --seconds S --trace 0|1

``run`` and ``trace`` measure each workload in a fresh child process
(``measure``), one at a time, and write ``bench/BENCH_<label>.json``.
``measure`` runs one workload in this process; its last stdout line is
one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import re
import subprocess
import sys

from bench import ROOT, use_checkout_src

SEED = 1009
#: Host seconds of timed passes per workload under ``run`` and ``trace``.
PASS_SECONDS = 2.0
CHILD_TIMEOUT_S = 170
DETAIL = "detail "


def _measure(args) -> int:
    from bench.runner import benchmark_spec, contract_line, measure
    from bench.workloads import WORKLOADS
    use_checkout_src()
    spec = benchmark_spec()
    trace = args.trace == 1
    result = measure(WORKLOADS[args.workload], args.seed, args.seconds,
                     trace=trace)
    chrome = result.pop("chrome_trace", None)
    if chrome is not None:
        out = ROOT / "bench" / "out"
        out.mkdir(exist_ok=True)
        (out / f"{args.workload}.trace.json").write_text(json.dumps(chrome))
    line = contract_line(result, spec, trace)
    for name, metric in line["metrics"].items():
        print(f"{name} {metric['value']} {metric['unit']}")
    print(DETAIL + json.dumps(result))
    print(json.dumps(line))
    return 0


def _child(workload: str, seed: int, trace: bool) -> dict:
    cmd = [sys.executable, "-m", "bench", "measure", "--workload", workload,
           "--seed", str(seed), "--seconds", str(PASS_SECONDS),
           "--trace", "1" if trace else "0"]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=CHILD_TIMEOUT_S)
    if proc.returncode != 0:
        raise RuntimeError(f"{workload}: exit {proc.returncode}\n"
                           f"{proc.stderr}")
    for line in proc.stdout.splitlines():
        if line.startswith(DETAIL):
            return json.loads(line[len(DETAIL):])
    raise RuntimeError(f"{workload}: no result in output")


def host_fingerprint() -> dict:
    try:
        sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True,
                             timeout=10).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        sha = ""
    return {"python": platform.python_version(),
            "platform": platform.platform(),
            "nproc": len(os.sched_getaffinity(0)),
            "git_sha": sha or "unknown"}


def _write_bench(label: str, section: str, payload: dict) -> str:
    path = ROOT / "bench" / f"BENCH_{label}.json"
    doc = json.loads(path.read_text()) if path.exists() else {}
    doc.update({"label": label,
                section: dict(payload, host=host_fingerprint())})
    path.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")
    return str(path.relative_to(ROOT))


def _run(args) -> int:
    from bench.runner import FAIL_RATIO, benchmark_spec
    from bench.workloads import WORKLOADS
    units = {m["name"]: m["unit"] for m in benchmark_spec()["end_to_end"]}
    units[FAIL_RATIO] = "failed/attempted"
    results, ok = {}, True
    for workload in args.workload or list(WORKLOADS):
        result = _child(workload, args.seed, trace=False)
        results[workload] = result
        ok &= result["correct"]
        print(f"{workload}  (correct={result['correct']}, "
              f"{result['attempted']} ops, {result['passes']} passes)")
        for name, unit in units.items():
            print(f"  {name:<16} {result['metrics'][name]:>16.6g} {unit}")
        for name, value in result["counters"].items():
            print(f"  {name:<28} {value:>12.6g}")
    path = _write_bench(args.label, "run",
                        {"seed": args.seed, "workloads": results})
    print(f"wrote {path}")
    return 0 if ok else 1


def _trace(args) -> int:
    from bench.layers import LAYERS
    from bench.workloads import WORKLOADS
    results, ok = {}, True
    for workload in WORKLOADS:
        result = _child(workload, args.seed, trace=True)
        layers = result["layers"]
        results[workload] = {key: result[key] for key in (
            "correct", "deterministic", "attempted", "failed", "layers")}
        results[workload]["sim"] = {
            name: value for name, value in result["metrics"].items()
            if name.startswith("sim_")}
        ok &= result["correct"]
        print(f"{workload}  (correct={result['correct']}, trace overhead "
              f"{layers['bench.trace_overhead']:.2f}x, unattributed "
              f"{layers['bench.unattributed_share']:.1%})")
        for layer in LAYERS:
            print(f"  {layer:<9} {layers[layer + '.calls']:>10} calls "
                  f"{layers[layer + '.self_s']:>9.4f} s self "
                  f"{layers[layer + '.share']:>7.1%}")
    path = _write_bench(args.label, "trace",
                        {"seed": args.seed, "workloads": results})
    print(f"wrote {path}; Chrome traces in bench/out/")
    return 0 if ok else 1


def _compare(args) -> int:
    from bench.compare import compare, render
    from bench.runner import benchmark_spec
    with open(args.old) as fh:
        old = json.load(fh)
    with open(args.new) as fh:
        new = json.load(fh)
    rows, regressed = compare(old, new, benchmark_spec())
    print(render(rows))
    if old["run"]["seed"] != new["run"]["seed"]:
        print(f"seeds differ ({old['run']['seed']} vs "
              f"{new['run']['seed']}): simulated metrics not compared")
    if regressed:
        print("a simulated metric or the failure ratio got worse")
    return 1 if regressed else 0


def _label(text: str) -> str:
    if not re.fullmatch(r"[A-Za-z0-9_.-]+", text):
        raise argparse.ArgumentTypeError("labels use letters, digits, _ . -")
    return text


def main(argv=None) -> int:
    from bench.workloads import WORKLOADS
    parser = argparse.ArgumentParser(prog="python -m bench")
    sub = parser.add_subparsers(dest="command", required=True)
    p = sub.add_parser("run", help="one untraced pass over the workloads")
    p.add_argument("--seed", type=int, default=SEED)
    p.add_argument("--label", type=_label, default="local")
    p.add_argument("--workload", action="append", choices=list(WORKLOADS))
    p.set_defaults(func=_run)
    p = sub.add_parser("trace", help="per-layer host time, all workloads")
    p.add_argument("--seed", type=int, default=SEED)
    p.add_argument("--label", type=_label, default="local")
    p.set_defaults(func=_trace)
    p = sub.add_parser("compare", help="judge NEW against OLD")
    p.add_argument("old")
    p.add_argument("new")
    p.set_defaults(func=_compare)
    p = sub.add_parser("measure", help="one workload in this process")
    p.add_argument("--workload", required=True, choices=list(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.set_defaults(func=_measure)
    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
