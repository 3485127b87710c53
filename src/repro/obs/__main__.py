"""``python -m repro.obs`` — render perf reports and Chrome traces
from run artifacts.

Artifacts are the JSON files :meth:`repro.obs.ObsSession.report`
produces; benchmarks drop them under ``benchmarks/obs/`` when run with
``REPRO_OBS=1``.  Examples:

    python -m repro.obs                          # report every artifact
    python -m repro.obs benchmarks/obs/fig7_fs_xpc.json
    python -m repro.obs --trace out.trace.json   # merged Perfetto trace
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import List

from repro.obs.report import merge_traces, render_report

DEFAULT_ARTIFACT_DIR = Path("benchmarks/obs")


def _collect(paths: List[str]) -> List[Path]:
    if not paths:
        paths = [str(DEFAULT_ARTIFACT_DIR)]
    files: List[Path] = []
    for raw in paths:
        path = Path(raw)
        if path.is_dir():
            files.extend(sorted(path.glob("*.json")))
        elif path.is_file():
            files.append(path)
        else:
            raise SystemExit(f"repro.obs: no such artifact: {path}")
    return files


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.obs",
        description="Render perf reports / Chrome traces from "
                    "repro.obs run artifacts.")
    parser.add_argument(
        "paths", nargs="*",
        help=f"artifact files or directories (default: "
             f"{DEFAULT_ARTIFACT_DIR}/)")
    parser.add_argument(
        "--report", metavar="OUT", default="-",
        help="write the rendered report here ('-' = stdout, default)")
    parser.add_argument(
        "--trace", metavar="OUT",
        help="write a merged Chrome trace_event JSON (load it at "
             "ui.perfetto.dev or chrome://tracing)")
    parser.add_argument(
        "--top", type=int, default=20, metavar="N",
        help="rows in the hot-path table (default 20)")
    opts = parser.parse_args(argv)

    files = _collect(opts.paths)
    if not files:
        print("repro.obs: no artifacts found (run benchmarks with "
              "REPRO_OBS=1 first)", file=sys.stderr)
        return 1

    artifacts = []
    for path in files:
        with open(path, "r", encoding="utf-8") as handle:
            artifacts.append(json.load(handle))

    report = "\n\n".join(
        render_report(artifact, top=opts.top) for artifact in artifacts)

    # Cross-artifact loss summary: silent data loss in any run makes
    # every aggregate above it suspect, so it gets the closing line.
    def _total(key: str) -> int:
        return sum(a.get("spans", {}).get(key, 0) for a in artifacts)

    summary = (f"summary: {len(artifacts)} artifacts, "
               f"{_total('finished')} spans finished, "
               f"{_total('dropped')} dropped, "
               f"{_total('truncated')} truncated, "
               f"{_total('repaired')} repaired")
    report += "\n\n" + summary
    if opts.report == "-":
        print(report)
    else:
        Path(opts.report).write_text(report + "\n", encoding="utf-8")
        print(f"repro.obs: report -> {opts.report}", file=sys.stderr)

    if opts.trace:
        trace = merge_traces(artifacts)
        with open(opts.trace, "w", encoding="utf-8") as handle:
            json.dump(trace, handle)
        print(f"repro.obs: {len(trace['traceEvents'])} events -> "
              f"{opts.trace}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
