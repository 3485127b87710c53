"""The perf-report pipeline: span aggregation and plain-text rendering.

Turns one run artifact (the dict :meth:`ObsSession.report` produces,
usually persisted as ``benchmarks/obs/*.json``) into the per-run perf
report ``python -m repro.obs`` prints: top hot paths by self-cycles,
PMU counter tables, registry counters, and histogram percentiles.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Sequence

from repro.analysis.report import render_table


def aggregate_spans(spans: Iterable) -> List[dict]:
    """Aggregate finished :class:`~repro.obs.span.Span` objects by name.

    ``self`` cycles are the span's duration minus the durations of its
    *direct* children — the classic profile decomposition, so hot-path
    ranking points at the layer that actually burned the cycles.
    """
    spans = list(spans)
    child_cycles: Dict[int, int] = {}
    for span in spans:
        if span.parent_id is not None:
            child_cycles[span.parent_id] = (
                child_cycles.get(span.parent_id, 0) + span.duration)
    rows: Dict[str, dict] = {}
    for span in spans:
        row = rows.setdefault(span.name, {
            "name": span.name, "cat": span.cat, "count": 0,
            "total_cycles": 0, "self_cycles": 0, "max_cycles": 0,
        })
        self_cycles = span.duration - child_cycles.get(span.span_id, 0)
        row["count"] += 1
        row["total_cycles"] += span.duration
        row["self_cycles"] += max(self_cycles, 0)
        row["max_cycles"] = max(row["max_cycles"], span.duration)
    out = sorted(rows.values(),
                 key=lambda r: r["self_cycles"], reverse=True)
    for row in out:
        row["avg_cycles"] = round(row["total_cycles"] / row["count"], 1)
    return out


def render_hot_paths(summary: Sequence[dict], top: int = 20) -> str:
    rows = [[r["name"], r["cat"], r["count"], r["total_cycles"],
             r["self_cycles"], r["avg_cycles"], r["max_cycles"]]
            for r in summary[:top]]
    title = "Top hot paths (by self cycles)"
    if len(summary) > top:
        title += f" — top {top} of {len(summary)}"
    return render_table(
        title,
        ["span", "cat", "calls", "total cyc", "self cyc", "avg", "max"],
        rows)


def render_pmu(pmu: Dict[str, Dict[str, int]]) -> str:
    rows = []
    for bank in sorted(pmu):
        for counter in sorted(pmu[bank]):
            rows.append([bank, counter, pmu[bank][counter]])
    return render_table("PMU counters", ["bank", "counter", "value"], rows)


def render_counters(metrics: dict) -> str:
    rows = []
    for name, data in sorted(metrics.get("counters", {}).items()):
        rows.append([name, data["value"], data["updated_cycle"]])
    for name, data in sorted(metrics.get("gauges", {}).items()):
        rows.append([f"{name} (gauge)", data["value"],
                     data["updated_cycle"]])
    return render_table("Registry counters & gauges",
                        ["metric", "value", "last cycle"], rows)


def render_histograms(metrics: dict) -> str:
    rows = []
    for name, data in sorted(metrics.get("histograms", {}).items()):
        pct = data.get("percentiles", {})
        rows.append([name, data["count"], data["mean"],
                     pct.get("p50", "-"), pct.get("p90", "-"),
                     pct.get("p99", "-"), data["max"]])
    return render_table(
        "Histograms (cycles unless noted)",
        ["histogram", "count", "mean", "p50", "p90", "p99", "max"], rows)


def render_report(artifact: dict, top: int = 20) -> str:
    """The full perf report for one run artifact."""
    title = artifact.get("title", "run")
    spans = artifact.get("spans", {})
    header = (f"perf report: {title}\n"
              f"spans: {spans.get('finished', 0)} finished, "
              f"{spans.get('dropped', 0)} dropped, "
              f"{spans.get('truncated', 0)} truncated, "
              f"{spans.get('repaired', 0)} repaired")
    loss = spans.get("dropped", 0)
    if loss:
        # Data loss is a report headline, not a buried field: a ring
        # that overflowed means the hot-path table under-counts.
        header += (f"\nWARNING: {loss} spans lost past ring capacity "
                   f"— raise REPRO_OBS_SPANS")
    sections = [header]
    profile = artifact.get("profile")
    if profile:
        flag = ("complete" if profile.get("complete")
                else "INCOMPLETE")
        header = (f"cycle profile: {profile.get('attributed_cycles', 0)}"
                  f" of {profile.get('clock_cycles', 0)} clock cycles "
                  f"attributed ({flag}), "
                  f"{len(profile.get('collapsed', {}))} stacks")
        sections.append(header)
    summary = artifact.get("span_summary") or []
    if summary:
        sections.append(render_hot_paths(summary, top))
    pmu = artifact.get("pmu") or {}
    if pmu:
        sections.append(render_pmu(pmu))
    metrics = artifact.get("metrics") or {}
    if metrics.get("counters") or metrics.get("gauges"):
        sections.append(render_counters(metrics))
    if metrics.get("histograms"):
        sections.append(render_histograms(metrics))
    return "\n\n".join(sections)


def merge_traces(artifacts: Sequence[dict]) -> dict:
    """One Chrome trace from many artifacts (pid = run title)."""
    events: List[dict] = []
    for artifact in artifacts:
        events.extend(artifact.get("trace_events", []))
    events.sort(key=lambda e: e.get("ts", 0))
    return {"traceEvents": events, "displayTimeUnit": "ns"}
