"""Smoke test of the benchmark's per-layer tracer, one small job per workload.

The tracer patches module-level names of the package from outside, so a
rename, an inlined lookup or a changed signature in the package empties
a layer silently.  Each case runs one traced job of a workload's shape,
far smaller than the benchmark's own, and checks every layer the
self-test requires on that workload.
"""

import json
import subprocess
import sys
import time
from pathlib import Path

import pytest

from birkhoff.cli import main

BENCH = Path(__file__).resolve().parent.parent / "bench"

# workload name -> the CLI arguments of its small job; LEDGER stands for
# a ledger that `expand --m 1 --ell 3` writes first
LEDGER = "LEDGER"
JOBS = {
    "expand-d1": ["expand", "--m", "1", "--ell", "3"],
    "verify-ledger-d1": ["verify", "--m", "1", "--ell", "3",
                         "--ledger", LEDGER],
    "verify-d2": ["verify", "--m", "1", "--ell", "3", "--dim", "2",
                  "--K", "1"],
}


@pytest.mark.parametrize("workload", list(JOBS))
def test_traced_job_fills_its_layers(tmp_path, monkeypatch, workload):
    monkeypatch.syspath_prepend(str(BENCH))
    import run
    import selftest

    ledger = tmp_path / "ledger.json"
    argv = [str(ledger) if a == LEDGER else a for a in JOBS[workload]]
    if LEDGER in JOBS[workload]:
        assert main(["expand", "--m", "1", "--ell", "3",
                     "--out", str(ledger)]) == 0
    stats = tmp_path / "stats.json"
    with open(tmp_path / "stdout", "wb") as out:
        proc = subprocess.run(
            [sys.executable, str(run.JOB), str(stats), repr(time.monotonic()),
             "1", *argv],
            stdout=out, stderr=subprocess.PIPE, env=run.job_env(1),
            timeout=300,
        )
    assert proc.returncode == 0, proc.stderr.decode(errors="replace")
    layers = json.loads(stats.read_text())["layers"]
    wrong = {
        metric: layers.get(metric, 0)
        for metric, used_by in selftest.USED_BY.items()
        if (layers.get(metric, 0) != 0) != (workload in used_by)
    }
    assert not wrong
