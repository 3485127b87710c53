"""Importing the cluster fabric loads no tooling packages.

The fabric reaches :mod:`repro.prof.slo` for its SLO engine; the
``repro.prof`` package must not drag the sentry (and with it the
snapshot, verify and fault packages) along.  Checked in a fresh
interpreter, since this session has imported everything already.
"""

import os
import subprocess
import sys

REPO_ROOT = os.path.dirname(os.path.dirname(
    os.path.dirname(os.path.abspath(__file__))))

TOOLING = ("repro.snap", "repro.verify", "repro.faults", "repro.proptest")


def test_import_cluster_loads_no_tooling_package():
    env = dict(os.environ, PYTHONPATH=os.path.join(REPO_ROOT, "src"))
    proc = subprocess.run(
        [sys.executable, "-c",
         "import sys, repro.cluster; print('\\n'.join(sys.modules))"],
        capture_output=True, text=True, env=env, cwd=REPO_ROOT,
        timeout=120)
    assert proc.returncode == 0, proc.stderr
    loaded = [name for name in proc.stdout.split()
              if ".".join(name.split(".")[:2]) in TOOLING]
    assert loaded == [], loaded
