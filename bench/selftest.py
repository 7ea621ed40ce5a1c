"""Self-test of the benchmark's tracing and references.

usage: python3 bench/selftest.py

Runs one traced job of every workload under two hash seeds and checks:

* each job exits 0 and its stdout, like the prepared ledger, matches the
  sha256 recorded in run.py, so tracing changes no output;
* every exact count repeats under both seeds;
* each layer metric is nonzero on the workloads that must use the layer
  and zero on those that bypass it, so that a rename in the package
  cannot silently empty a layer;
* the spans plus ``cli.self_s`` add up to the traced wall time, and
  ``cli.self_s`` is a small part of it;
* BENCHMARK.json names exactly the workloads and metrics run.py reports.

Exits 1 and lists the failures if any check fails.  Takes one to two
minutes.
"""

from __future__ import annotations

import json
import sys

import run

EXPAND, LEDGER, D2 = "expand-d1", "verify-ledger-d1", "verify-d2"
ALL = {EXPAND, LEDGER, D2}
TREES = {EXPAND, D2}
ORACLE = {LEDGER, D2}

# layer metric -> the workloads on which it must be nonzero; it must be
# zero on every other workload
USED_BY = {
    **{f"hamiltonian.bracket_{k}.evaluator": TREES
       for k in ("s", *run.BRACKET_COUNTS)},
    **{f"hamiltonian.bracket_{k}.oracle": ORACLE
       for k in ("s", *run.BRACKET_COUNTS)},
    "hamiltonian.largest_kernel_terms": ALL,
    "hamiltonian.kernel_add_s": ALL,
    "hamiltonian.kernel_scale_s": ALL,
    "hamiltonian.filter_s": ALL,
    "hamiltonian.h1_s": ALL,
    "evaluator.pi_calls": TREES,
    "evaluator.pi_s": TREES,
    "evaluator.internal_nodes": TREES,
    "evaluator.normal_form_s": TREES,
    "evaluator.f_transform_s": {D2},
    "evaluator.cancellation_s": {D2},
    "oracle.iterate_s": ORACLE,
    "oracle.taylor_calls": ORACLE,
    "oracle.recursion_s": {D2},
    "oracle.compare_s": ORACLE,
    "enumeration.tree_class_s": TREES,
    "enumeration.trees_out": TREES,
    "trees.validate_s": TREES,
    "trees.validate_calls": TREES,
    "trees.symmetry_s": TREES,
    "trees.render_s": TREES,
    "cli.emit_s": ALL,
    "cli.emit_bytes": ALL,
    "cli.ledger_load_s": {LEDGER},
    "cli.ledger_bytes": {LEDGER},
    "cli.self_s": ALL,
}
# ratios and bench-side figures are derived from the metrics above
DERIVED = {
    *(f"hamiltonian.bracket_useful_ratio.{c}" for c in run.CALLERS),
    "evaluator.reuse_ratio",
    "bench.counting_s",
    "bench.traced_wall_s",
    "bench.trace_overhead",
}
EXACT_UNITS = {"count", "B"}
# every span the tracer records is a per-layer metric in seconds
SPANS = [k for k, unit in run.PER_LAYER.items() if unit == "s"
         and k not in ("cli.self_s", "bench.traced_wall_s")]
SEEDS = (1, 2)
# cli.self_s is interpreter start-up and argument parsing
MAX_SELF_SHARE = 0.1


def check_benchmark_json(failures: list[str]) -> None:
    with open(run.ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        spec = json.load(fh)
    if [w["name"] for w in spec["workloads"]] != list(run.WORKLOADS):
        failures.append("BENCHMARK.json workloads differ from run.WORKLOADS")
    for key, table in (("end_to_end", run.END_TO_END),
                       ("per_layer", run.PER_LAYER)):
        listed = {m["name"]: m["unit"] for m in spec[key]}
        if listed != table:
            failures.append(f"BENCHMARK.json {key} differs from run.py")
    if set(USED_BY) | DERIVED != set(run.PER_LAYER):
        failures.append("USED_BY and DERIVED do not cover run.PER_LAYER")


def traced_job(name: str, seed: int, failures: list[str]) -> dict:
    w = run.WORKLOADS[name]
    env = run.job_env(seed)
    why = run.prepare(w, env)
    if why:
        failures.append(f"{name}: {why}")
    job = run.spawn(w.cli, env, trace=True)
    why = run.check(job, w.cli, w.stdout_sha256)
    if why:
        tail = job["stderr"].read_text(errors="replace")[-1000:]
        failures.append(f"{name} seed {seed}: traced job: {why}\n{tail}")
        return {}
    return job["layers"] | {"wall_s": job["traced_wall_s"]}


def check_workload(name: str, failures: list[str]) -> None:
    runs = [traced_job(name, seed, failures) for seed in SEEDS]
    if not all(runs):
        return
    first, second = runs
    for metric, unit in run.PER_LAYER.items():
        if unit in EXACT_UNITS and first.get(metric) != second.get(metric):
            failures.append(f"{name}: {metric} differs between seeds: "
                            f"{first.get(metric)} vs {second.get(metric)}")
    for metric, used_by in USED_BY.items():
        value = first.get(metric, 0)
        if name in used_by and not value > 0:
            failures.append(f"{name}: {metric} is {value}, must be > 0")
        if name not in used_by and value != 0:
            failures.append(f"{name}: {metric} is {value}, must be 0")
    for layers in runs:
        spans = sum(layers.get(k, 0) for k in SPANS)
        wall = layers["wall_s"]
        if abs(spans + layers["cli.self_s"] - wall) > 1e-6 * wall:
            failures.append(f"{name}: spans plus cli.self_s != wall {wall}")
        if not 0 <= layers["cli.self_s"] <= MAX_SELF_SHARE * wall:
            failures.append(f"{name}: cli.self_s {layers['cli.self_s']} is "
                            f"outside [0, {MAX_SELF_SHARE} x wall {wall}]")
    print(f"{name}: traced wall {first['wall_s']:.2f} s and "
          f"{second['wall_s']:.2f} s", flush=True)


def main() -> int:
    failures: list[str] = []
    check_benchmark_json(failures)
    run.WORK.mkdir(exist_ok=True)
    for name in run.WORKLOADS:
        check_workload(name, failures)
    for leftover in ("job-stats.json", "job-stdout", "job-stderr"):
        (run.WORK / leftover).unlink(missing_ok=True)
    for failure in failures:
        print(f"FAIL {failure}")
    print("self-test passed" if not failures else
          f"self-test failed: {len(failures)} problem(s)")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
