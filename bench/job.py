"""One benchmark job: a fresh interpreter that runs the birkhoff CLI once.

usage: python3 bench/job.py STATS SPAWNED TRACE [CLI-ARG ...]

STATS is the file this process writes its timings to, SPAWNED the
``time.monotonic()`` reading the parent took just before spawning it,
and TRACE ``1`` to install the per-layer tracer of ``layers.py``.  With
no CLI arguments the job only imports ``birkhoff.cli``, which is how the
benchmark samples set-up time.  The CLI's stdout and exit code pass
through untouched.
"""

import json
import sys
import time


def main() -> int:
    stats_path, spawned, trace = sys.argv[1], float(sys.argv[2]), sys.argv[3]
    cli_args = sys.argv[4:]
    import birkhoff.cli

    ready = time.monotonic()
    stats = {"setup_s": ready - spawned, "cli_file": birkhoff.cli.__file__}
    rc = 0
    if cli_args:
        tracer = None
        if trace == "1":
            import layers

            tracer = layers.install()
        rc = birkhoff.cli.main(cli_args)
        sys.stdout.flush()
        if tracer is not None:
            stats["traced_wall_s"] = time.monotonic() - spawned
            stats["layers"] = tracer.report(stats["traced_wall_s"])
    with open(stats_path, "w", encoding="utf-8") as fh:
        json.dump(stats, fh)
    return rc


if __name__ == "__main__":
    sys.exit(main())
