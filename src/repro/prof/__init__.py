"""repro.prof — profiling, SLOs, and the perf regression sentry.

Built on :mod:`repro.obs` (which owns the in-simulation
:class:`~repro.obs.profiler.CycleProfiler`, which hears every tick
through :mod:`repro.probe`) and :mod:`repro.snap` (whose record/replay stack powers the
bisecting sentry).  Three surfaces:

* **cycle flames** — run a scenario under ``ObsSession(profile=True)``
  and export collapsed stacks (``python -m repro.prof flame``);
* **SLOs** — :mod:`repro.prof.slo` evaluates declarative objectives
  (``p99(xpc.call_cycles) < 500``) over the metrics registry with
  burn-rate alerts; its engine is the duck-typed autoscaling signal
  for :class:`~repro.aio.pool.WorkerPool` and load-shedding input for
  :class:`~repro.aio.backpressure.AdmissionController`;
* **the sentry** — :mod:`repro.prof.sentry` bisects a cycle drift to
  the first divergent op via snapshots and names the guilty phase in
  a flame-tree diff.

The package re-exports only the SLO names: the cluster fabric imports
:mod:`repro.prof.slo`, and importing the sentry here would load the
snapshot, verify and fault packages into every cluster run.  Import
the sentry from :mod:`repro.prof.sentry`.
"""

from repro.prof.slo import (Alert, SLOEngine, SLOParseError, SLOSpec,
                            SLOStatus)

__all__ = ["Alert", "SLOEngine", "SLOParseError", "SLOSpec", "SLOStatus"]
