"""Checks that tie the package to the benchmark in ``bench/``.

The tracer patches module-level names of the package from outside, so a
rename, an inlined lookup or a changed signature in the package empties
a layer silently.  Each tracer case runs one traced job of a workload's
shape, far smaller than the benchmark's own, and checks every layer the
self-test requires on that workload.  The byte pin runs the benchmark's
own command lines in process and checks their output against the
sha256 that ``bench/run.py`` holds each job to.
"""

import hashlib
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


def test_benchmark_outputs_keep_their_bytes(tmp_path, monkeypatch, capsys):
    monkeypatch.syspath_prepend(str(BENCH))
    import run

    ledger = tmp_path / "ledger.json"
    assert main([*run.EXPAND_D1, "--out", str(ledger)]) == 0
    assert run.sha256_of(ledger) == run.LEDGER_SHA256
    capsys.readouterr()
    for name in ("verify-ledger-d1", "verify-d2"):
        workload = run.WORKLOADS[name]
        argv = [str(ledger) if a == run.LEDGER else a for a in workload.cli]
        assert main(argv) == 0, name
        out = capsys.readouterr().out.encode()
        assert hashlib.sha256(out).hexdigest() == workload.stdout_sha256, name
