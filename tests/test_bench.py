"""Smoke test of the benchmark's per-layer tracer on a small 2-D verify.

The tracer patches module-level names of the package from outside, so a
rename or an inlined lookup in the package empties a layer silently.
This runs one traced job, far smaller than the benchmark's own, and
checks every layer the self-test requires on ``verify-d2``.
"""

import json
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent.parent / "bench"


def test_traced_job_fills_the_verify_d2_layers(tmp_path, monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))
    import run
    import selftest

    stats = tmp_path / "stats.json"
    with open(tmp_path / "stdout", "wb") as out:
        proc = subprocess.run(
            [sys.executable, str(run.JOB), str(stats), repr(time.monotonic()),
             "1", "verify", "--m", "1", "--ell", "3", "--dim", "2", "--K", "1"],
            stdout=out, stderr=subprocess.PIPE, env=run.job_env(1),
            timeout=300,
        )
    assert proc.returncode == 0, proc.stderr.decode(errors="replace")
    layers = json.loads(stats.read_text())["layers"]
    wrong = {
        metric: layers.get(metric, 0)
        for metric, used_by in selftest.USED_BY.items()
        if (layers.get(metric, 0) != 0) != (selftest.D2 in used_by)
    }
    assert not wrong
