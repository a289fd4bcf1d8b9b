"""One timed CLI invocation in a fresh interpreter.

    python3 perfbench/child.py <workload> <seed> <run|trace|setup>

Imports banachkit from ``src/``, builds the workload's arguments, then times
``banachkit.cli.main(argv)`` with the report captured in memory.  Prints one
JSON line: the exit code, the report, ``ready`` (the ``time.monotonic()``
reading just before the timed call, from which the parent derives set-up
time), ``wall_s``, ``peak_rss_mb`` and, in mode ``trace``, the per-layer
metrics.  Mode ``setup`` stops at ``ready`` and prints only that.
"""

from __future__ import annotations

import contextlib
import io
import json
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import banachkit.cli  # noqa: E402

import workloads  # noqa: E402


def peak_rss_mb() -> float:
    """High-water resident set size of this process, in MiB."""
    with open("/proc/self/status", encoding="ascii") as status:
        for line in status:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError("VmHWM missing from /proc/self/status")


def main() -> None:
    name, seed, mode = sys.argv[1], int(sys.argv[2]), sys.argv[3]
    argv = workloads.WORKLOADS[name].argv(seed)
    entry = banachkit.cli.main
    tracer = None
    if mode == "trace":
        import tracing

        tracer = tracing.Tracer()
        tracing.install(tracer)
        entry = tracer.span("cli", entry)
    captured = io.StringIO()
    ready = time.monotonic()
    if mode == "setup":
        sys.stdout.write(json.dumps({"ready": ready}) + "\n")
        return
    start = time.perf_counter()
    with contextlib.redirect_stdout(captured):
        code = entry(argv)
    wall_s = time.perf_counter() - start
    rss = peak_rss_mb()
    report = captured.getvalue()
    result = {"exit": code, "report": report, "ready": ready, "wall_s": wall_s, "peak_rss_mb": rss}
    if tracer is not None:
        result["layers"] = tracing.layer_metrics(tracer, len(report.encode()))
    sys.stdout.write(json.dumps(result) + "\n")


if __name__ == "__main__":
    main()
