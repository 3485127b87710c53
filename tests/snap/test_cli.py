"""The snapshot CLIs: ``python -m repro.snap`` and the time-travel
side of ``python -m repro.proptest`` (``--replay --at-op``).

Save/restore runs use one subprocess per invocation, as a user would
run them; a world carries its own allocators, so content-addressed
keys and fingerprints compare across runs and across processes.
"""

import os
import re
import subprocess
import sys

import pytest

from repro.proptest.__main__ import main as proptest_main
from repro.snap.__main__ import main as snap_main

REPO_ROOT = os.path.dirname(os.path.dirname(
    os.path.dirname(os.path.abspath(__file__))))
ARTIFACT = os.path.join(REPO_ROOT, "examples",
                        "proptest_counterexample.json")


def _snap(argv):
    env = dict(os.environ, PYTHONPATH=os.path.join(REPO_ROOT, "src"))
    proc = subprocess.run(
        [sys.executable, "-m", "repro.snap", *argv],
        capture_output=True, text=True, env=env, cwd=REPO_ROOT,
        timeout=300)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    return proc.stdout


def _field(out: str, name: str) -> str:
    match = re.search(rf"{name}=([0-9a-f]+)", out)
    assert match, f"no {name}= in:\n{out}"
    return match.group(1)


def test_save_is_deterministic_and_restore_agrees(tmp_path):
    store = str(tmp_path / "store")
    first = _snap(["save", "--scenario", "fig5", "--store", store])
    second = _snap(["save", "--scenario", "fig5", "--store", store])
    assert _field(first, "key") == _field(second, "key")
    assert _field(first, "fingerprint") == _field(second, "fingerprint")

    revived = _snap(["restore", "--key", _field(first, "key"),
                     "--store", store])
    assert _field(revived, "fingerprint") == \
        _field(first, "fingerprint")


def test_partial_save_plus_run_rest_reaches_the_final_state(tmp_path):
    store = str(tmp_path / "store")
    full = _snap(["save", "--scenario", "fig5", "--store", store])
    partial = _snap(["save", "--scenario", "fig5", "--at-op", "4",
                     "--store", store])
    assert _field(partial, "key") != _field(full, "key")

    resumed = _snap(["restore", "--key", _field(partial, "key"),
                     "--store", store, "--scenario", "fig5",
                     "--run-rest"])
    assert "ran 6 remaining op(s)" in resumed
    assert _field(resumed, "fingerprint") == _field(full, "fingerprint")


def test_bisect_pins_the_artifact_violation(capsys):
    rc = snap_main(["bisect", "--program", ARTIFACT,
                    "--invariant", "error", "--every-ops", "1"])
    out = capsys.readouterr().out
    assert rc == 0, out
    assert "first violation after op 2" in out
    assert "CallOp" in out


def test_bisect_reports_a_clean_timeline(capsys):
    rc = snap_main(["bisect", "--scenario", "fig5",
                    "--invariant", "error"])
    out = capsys.readouterr().out
    assert rc == 0, out
    assert "invariant 'error' holds over all 10 op(s)" in out


def test_proptest_replay_positions_at_op(capsys):
    rc = proptest_main(["--replay", ARTIFACT, "--at-op", "2"])
    out = capsys.readouterr().out
    assert rc == 0, out
    assert "positioned at op 2/3" in out
    assert "next op:" in out
    assert re.search(r"fingerprint=[0-9a-f]{64}", out)


def test_proptest_replay_at_op_rejects_bad_usage(capsys):
    assert proptest_main(["--replay", ARTIFACT, "--at-op", "9"]) == 2
    assert "out of range" in capsys.readouterr().out
    assert proptest_main(["--replay", ARTIFACT, "--at-op", "1",
                          "--executor", "no-such"]) == 2
    assert "unknown executor" in capsys.readouterr().out
