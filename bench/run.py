"""birkhoff benchmark: CLI jobs run one at a time, each in a fresh interpreter.

usage:
  python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1
  python3 bench/run.py --workload all [--seconds S]   # table of every workload

A run is a single-process closed loop: it starts the next job only when
the previous one has exited, and stops starting jobs when the next one
would end after --seconds.  Every job runs ``bench/job.py``, which
imports ``birkhoff.cli`` from ``src/`` of this checkout and calls its
``main``.  A job fails unless it exits 0, every ``checks`` entry of a
``verify`` is true, and the sha256 of its stdout equals the reference
recorded below.  --seed sets PYTHONHASHSEED for the jobs: it reorders
sets and dicts inside the engine without changing its inputs or output.

With --trace 0 the last stdout line holds the end-to-end metrics, as
medians over the run's jobs.  Times are taken at reference speed: they
are scaled by REF_CALIBRATION_S over the median time of ``calibrate.py``,
a fixed loop the run times after every job, once per JOB_S_PER_CALIBRATION
seconds of the job.  The raw medians are in the line before the result.  With --trace 1 the run alternates traced
and untraced jobs; it reports the per-layer metrics of the median traced
job (see ``layers.py``) and the tracing overhead.  NOTES.md explains
the workloads and what each layer metric should move.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
JOB = BENCH / "job.py"
CALIBRATE = BENCH / "calibrate.py"
LEDGER = ".bench_work/ledger-d1.json"

# set-up samples per run besides the jobs' own: import-only interpreters
SETUP_PROBES = 5
# calibrate.py's time on a quiet 2-core Xeon at 2.1 GHz under Python
# 3.11.7; times from a run whose calibrations took a median of c seconds
# are reported as time * REF_CALIBRATION_S / c
REF_CALIBRATION_S = 0.25
# seconds of job per calibration sample: a longer job is followed by more
# samples, so that a run of few long jobs still has several
JOB_S_PER_CALIBRATION = 4.0
# no job may outlive this, counted from the start of the run
RUN_DEADLINE_S = 170.0

# every flag spelled out, so the prepared ledger records exactly the
# config that verify-ledger-d1 checks it against
D1 = ("--dim", "1", "--K", "2", "--N", "0", "--assumption-mode", "nested-le")
D2 = ("--dim", "2", "--K", "1", "--N", "0", "--assumption-mode", "nested-le")


@dataclass(frozen=True)
class Workload:
    cli: tuple[str, ...]
    stdout_sha256: str
    # CLI run, untimed, that writes LEDGER before the jobs start
    prep: tuple[str, ...] = ()
    prep_sha256: str = ""


EXPAND_D1 = ("expand", "--m", "3", "--ell", "5", *D1)
LEDGER_SHA256 = "20b73b51434e544c063f0a68363567e51bdf69e814794469e7dd76fb9434f89a"

WORKLOADS = {
    "expand-d1": Workload(EXPAND_D1, LEDGER_SHA256),
    "verify-ledger-d1": Workload(
        ("verify", "--m", "3", "--ell", "5", *D1, "--ledger", LEDGER),
        "c47d1da42dd0b88f5a4192713cd34f67298b5ad9b87e2f0a3151bfbbf752d9cf",
        prep=(*EXPAND_D1, "--out", LEDGER),
        prep_sha256=LEDGER_SHA256,
    ),
    "verify-d2": Workload(
        ("verify", "--m", "2", "--ell", "4", *D2),
        "40b61e33521ab8f38b8651fdd51f3c282695a34390f141f1df05f6563a88f61b",
    ),
}

END_TO_END = {
    "wall_s": "s",
    "cpu_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}

CALLERS = ("evaluator", "oracle")
BRACKET_COUNTS = ("calls", "pairs_all", "pairs_in_cutoff", "pairs_contracting",
                  "terms_out")

# per-layer metric -> unit; spans are self times in seconds
PER_LAYER = {
    **{f"hamiltonian.bracket_s.{c}": "s" for c in CALLERS},
    **{f"hamiltonian.bracket_{k}.{c}": "count"
       for k in BRACKET_COUNTS for c in CALLERS},
    **{f"hamiltonian.bracket_useful_ratio.{c}": "ratio" for c in CALLERS},
    "hamiltonian.largest_kernel_terms": "count",
    "hamiltonian.kernel_add_s": "s",
    "hamiltonian.kernel_scale_s": "s",
    "hamiltonian.filter_s": "s",
    "hamiltonian.h1_s": "s",
    "evaluator.pi_calls": "count",
    "evaluator.pi_s": "s",
    "evaluator.internal_nodes": "count",
    "evaluator.reuse_ratio": "ratio",
    "evaluator.normal_form_s": "s",
    "evaluator.f_transform_s": "s",
    "evaluator.cancellation_s": "s",
    "oracle.iterate_s": "s",
    "oracle.taylor_calls": "count",
    "oracle.recursion_s": "s",
    "oracle.compare_s": "s",
    "enumeration.tree_class_s": "s",
    "enumeration.trees_out": "count",
    "trees.validate_s": "s",
    "trees.validate_calls": "count",
    "trees.symmetry_s": "s",
    "trees.render_s": "s",
    "cli.emit_s": "s",
    "cli.emit_bytes": "B",
    "cli.ledger_load_s": "s",
    "cli.ledger_bytes": "B",
    "cli.self_s": "s",
    "bench.counting_s": "s",
    "bench.traced_wall_s": "s",
    "bench.trace_overhead": "ratio",
}


def job_env(seed: int) -> dict:
    env = {k: v for k, v in os.environ.items() if k != "BIRKHOFF_CONFIG"}
    env["PYTHONPATH"] = str(SRC)
    env["PYTHONHASHSEED"] = str(seed % 2**32)
    return env


def sha256_of(path: Path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            h.update(block)
    return h.hexdigest()


def spawn(cli_args, env: dict, trace: bool = False,
          deadline: float | None = None) -> dict:
    """Run one job to completion; return its measurements and output."""
    stats_path = WORK / "job-stats.json"
    out_path = WORK / "job-stdout"
    err_path = WORK / "job-stderr"
    stats_path.unlink(missing_ok=True)
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        spawned = time.monotonic()
        proc = subprocess.Popen(
            [sys.executable, str(JOB), str(stats_path), repr(spawned),
             "1" if trace else "0", *cli_args],
            stdout=out, stderr=err, cwd=ROOT, env=env,
        )
        timeout = None if deadline is None else max(deadline - spawned, 1.0)
        killer = threading.Timer(timeout, proc.kill) if timeout else None
        try:
            if killer:
                killer.start()
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            if killer:
                killer.cancel()
        proc.returncode = os.waitstatus_to_exitcode(status)
        wall = time.monotonic() - spawned
    job = {
        "rc": proc.returncode,
        "wall_s": wall,
        "cpu_s": usage.ru_utime + usage.ru_stime,
        "peak_rss_mb": usage.ru_maxrss / 1024,
        "stdout": out_path,
        "stderr": err_path,
    }
    if stats_path.exists():
        with open(stats_path, encoding="utf-8") as fh:
            job.update(json.load(fh))
    return job


def calibrate(env: dict) -> float:
    """Seconds the calibration loop takes now, in a fresh interpreter."""
    done = subprocess.run([sys.executable, str(CALIBRATE)], env=env,
                          capture_output=True, text=True, check=True,
                          timeout=60)
    return float(done.stdout)


def check(job: dict, cli_args, expected_sha: str) -> str | None:
    """Why the job failed, or None if its output is right."""
    if job["rc"] != 0:
        return f"exit code {job['rc']}"
    if "setup_s" not in job:
        return "no stats written"
    if not Path(job["cli_file"]).is_relative_to(SRC):
        return f"imported birkhoff from {job['cli_file']}, not {SRC}"
    if cli_args[0] == "verify":
        with open(job["stdout"], encoding="utf-8") as fh:
            failed = [k for k, ok in json.load(fh)["checks"].items() if not ok]
        if failed:
            return f"verify checks failed: {failed}"
    got = sha256_of(job["stdout"])
    if got != expected_sha:
        return f"stdout sha256 {got}, expected {expected_sha}"
    return None


def _source_key() -> str:
    h = hashlib.sha256(sys.version.encode())
    for path in sorted(SRC.rglob("*.py")):
        h.update(str(path.relative_to(SRC)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def prepare(w: Workload, env: dict) -> str | None:
    """Write the workload's ledger unless this source already wrote it."""
    if not w.prep:
        return None
    ledger = ROOT / LEDGER
    key_path = ledger.with_suffix(".key")
    key = " ".join(w.prep) + "\n" + _source_key()
    if not (ledger.exists() and key_path.exists()
            and key_path.read_text() == key):
        ledger.unlink(missing_ok=True)
        job = spawn(w.prep, env)
        if job["rc"] != 0:
            return f"ledger preparation exited {job['rc']}"
        key_path.write_text(key)
    got = sha256_of(ledger)
    if got != w.prep_sha256:
        return f"prepared ledger sha256 {got}, expected {w.prep_sha256}"
    return None


def _note(message: str) -> None:
    print(message, file=sys.stderr, flush=True)


def measure(name: str, seed: int, seconds: float, trace: bool) -> dict:
    w = WORKLOADS[name]
    env = job_env(seed)
    WORK.mkdir(exist_ok=True)
    run_start = time.monotonic()
    deadline = run_start + RUN_DEADLINE_S
    problems = []
    prep_error = prepare(w, env)
    if prep_error:
        problems.append(prep_error)
    # one untimed import fills __pycache__, then the set-up samples
    spawn([], env)
    probes = [spawn([], env) for _ in range(SETUP_PROBES)]
    calibrations = []
    jobs = {False: [], True: []}
    kinds = (True, False) if trace else (False,)
    start = time.monotonic()
    attempted = failed = 0
    while True:
        round_start = time.monotonic()
        for traced in kinds:
            job = spawn(w.cli, env, traced, deadline)
            samples = max(1, round(job["wall_s"] / JOB_S_PER_CALIBRATION))
            calibrations += [calibrate(env) for _ in range(samples)]
            attempted += 1
            why = check(job, w.cli, w.stdout_sha256)
            if why:
                failed += 1
                tail = job["stderr"].read_text(errors="replace")[-2000:]
                problems.append(f"{'traced ' if traced else ''}job: {why}")
                _note(f"{name}: job failed: {why}\n{tail}")
            else:
                jobs[traced].append(job)
        now = time.monotonic()
        estimate = now - round_start
        if failed or now - start + estimate > seconds or now > deadline:
            break
    for leftover in ("job-stats.json", "job-stdout", "job-stderr"):
        (WORK / leftover).unlink(missing_ok=True)

    plain = jobs[False]
    setups = [j["setup_s"] for j in probes if j["rc"] == 0 and "setup_s" in j]
    setups += [j["setup_s"] for j in plain]
    raw = {
        "wall_s": statistics.median(j["wall_s"] for j in plain),
        "cpu_s": statistics.median(j["cpu_s"] for j in plain),
        "setup_s": statistics.median(setups),
    } if plain else {}
    speed = REF_CALIBRATION_S / statistics.median(calibrations)
    metrics = {}
    if plain and not trace:
        values = {k: v * speed for k, v in raw.items()}
        values["peak_rss_mb"] = statistics.median(
            j["peak_rss_mb"] for j in plain)
        metrics = {k: {"value": values[k], "unit": u}
                   for k, u in END_TO_END.items()}
    elif plain and jobs[True]:
        metrics = layer_metrics(jobs[True], raw["wall_s"])
    info = {
        "workload": name,
        "cli": ["birkhoff", *w.cli],
        "seed": seed,
        "trace": int(trace),
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "platform": platform.platform(),
        "repetitions": len(plain) + len(jobs[True]),
        "setup_samples": len(setups),
        "raw_medians": raw,
        "calibration_s": calibrations,
        "speed": speed,
        "error_rate": failed / attempted,
        "problems": problems,
    }
    correct = not problems and bool(metrics)
    return {"info": info, "result": {
        "correct": correct, "attempted": attempted, "failed": failed,
        "metrics": metrics,
    }}


def layer_metrics(traced: list[dict], plain_wall_s: float) -> dict:
    """Per-layer metrics of the median traced job."""
    ranked = sorted(traced, key=lambda j: j["wall_s"])
    job = ranked[(len(ranked) - 1) // 2]
    raw = job["layers"]
    values = {name: raw.get(name, 0) for name in PER_LAYER}
    for c in CALLERS:
        pairs = values[f"hamiltonian.bracket_pairs_all.{c}"]
        useful = values[f"hamiltonian.bracket_pairs_contracting.{c}"]
        values[f"hamiltonian.bracket_useful_ratio.{c}"] = (
            useful / pairs if pairs else 0.0
        )
    nodes = values["evaluator.internal_nodes"]
    values["evaluator.reuse_ratio"] = (
        1 - values["hamiltonian.bracket_calls.evaluator"] / nodes
        if nodes else 0.0
    )
    values["bench.traced_wall_s"] = job["traced_wall_s"]
    values["bench.trace_overhead"] = (
        statistics.median(j["wall_s"] for j in traced) / plain_wall_s - 1
    )
    return {k: {"value": values[k], "unit": u} for k, u in PER_LAYER.items()}


def summary(seed: int, seconds: float) -> int:
    """Run every workload untraced and print its end-to-end metrics."""
    results = {}
    print(f"{'workload':<18} {'metric':<12} {'value':>12} unit")
    for name in WORKLOADS:
        run = measure(name, seed, seconds, trace=False)
        results[name] = run["result"]
        rows = {k: (m["value"], m["unit"])
                for k, m in run["result"]["metrics"].items()}
        rows["error_rate"] = (run["info"]["error_rate"], "ratio")
        for metric, (value, unit) in rows.items():
            print(f"{name:<18} {metric:<12} {value:>12.4f} {unit}", flush=True)
    print(json.dumps(results, sort_keys=True))
    return 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=36.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    # a terminated run unwinds through spawn(), which kills its job
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))
    if not (SRC / "birkhoff" / "cli.py").is_file():
        _note(f"error: no birkhoff sources at {SRC / 'birkhoff'}")
        return 2
    if args.workload == "all":
        return summary(args.seed, args.seconds)
    run = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps({"run": run["info"]}, sort_keys=True))
    print(json.dumps(run["result"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
