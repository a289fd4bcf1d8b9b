"""The banachkit benchmark: four CLI workloads, end to end and per layer.

    python3 perfbench/run.py [--workload NAME] [--seed N] [--seconds S] [--trace 0|1]

Run from a checkout of the repository; ``src/`` is imported directly.  Each
workload is one ``banachkit`` CLI invocation (see ``workloads.py``).  One
client in a closed loop runs the invocation again and again, each in a fresh
interpreter started only after the previous one has exited, until ``--seconds``
have passed (at least three times).  Every output is checked; an invocation
with an unexpected exit code or a failed check counts as failed.

``--trace 0`` reports the end-to-end metrics as medians over invocations:
``wall_s`` (the ``main(argv)`` call, JSON emission included), ``setup_s``
(interpreter start through imports and argument construction, over 30
samples: children that stop before the call make up the number), and
``peak_rss_mb``.  ``--trace 1`` alternates untraced and traced invocations
(at least two of each) and reports the per-layer metrics; counts of work
must repeat exactly across the traced invocations or the run is marked
incorrect.  Without ``--workload`` every workload runs in turn.

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.  See README.md in this directory.
"""

from __future__ import annotations

import argparse
import compileall
import json
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

from metrics import END_TO_END, LAYER_METRICS, is_time
from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SOURCE = ROOT / "src" / "banachkit"
MIN_INVOCATIONS = 3
MIN_TRACED = 2
# Invocations of the long workloads are few, so set-up-only children make up
# the set-up samples to this count.
SETUP_SAMPLES = 30
INVOCATION_TIMEOUT_S = 60


@dataclass
class Invocation:
    """Outcome of one CLI invocation in its own interpreter."""

    problems: list[str]
    wall_s: float | None = None
    setup_s: float | None = None
    peak_rss_mb: float | None = None
    layers: dict[str, float] | None = None


def _child(name: str, seed: int, mode: str) -> tuple[dict | None, float, str]:
    """Run child.py once; its JSON result (None if it gave none), spawn time, error text."""
    command = [sys.executable, "-s", str(HERE / "child.py"), name, str(seed), mode]
    spawned = time.monotonic()
    try:
        proc = subprocess.run(
            command, cwd=ROOT, capture_output=True, text=True, timeout=INVOCATION_TIMEOUT_S
        )
    except subprocess.TimeoutExpired:
        return None, spawned, f"no result within {INVOCATION_TIMEOUT_S} s"
    try:
        return json.loads(proc.stdout), spawned, ""
    except ValueError:
        return None, spawned, f"child exited {proc.returncode}: {proc.stderr.strip()[-500:]}"


def invoke(name: str, seed: int, trace: bool) -> Invocation:
    """Run one invocation of workload ``name`` in a child interpreter and check it."""
    out, spawned, error = _child(name, seed, "trace" if trace else "run")
    if out is None:
        return Invocation([error])
    return Invocation(
        problems=WORKLOADS[name].check(out["exit"], out["report"], seed),
        wall_s=out["wall_s"],
        setup_s=out["ready"] - spawned,
        peak_rss_mb=out["peak_rss_mb"],
        layers=out.get("layers"),
    )


def probe_setup(name: str, seed: int) -> float | None:
    """Set-up time of a child that stops just before the timed call."""
    out, spawned, _ = _child(name, seed, "setup")
    return None if out is None else out["ready"] - spawned


@dataclass
class Result:
    attempted: int = 0
    failed: int = 0
    metrics: dict[str, tuple[float | None, str]] = field(default_factory=dict)
    problems: list[str] = field(default_factory=list)


def _median(values: list[float | None]) -> float | None:
    measured = [v for v in values if v is not None]
    return statistics.median(measured) if measured else None


def _check_counts_repeat(traced: list[Invocation]) -> None:
    """Mark each traced invocation whose work counts differ from the first one's."""
    first = next((i.layers for i in traced if i.layers is not None), None)
    for invocation in traced:
        if invocation.layers is None or invocation.layers is first:
            continue
        differing = [
            f"{m} {first[m]} -> {invocation.layers[m]}"
            for m, _, _ in LAYER_METRICS
            if not is_time(m) and invocation.layers[m] != first[m]
        ]
        if differing:
            invocation.problems.append("work counts differ between traced runs: " + ", ".join(differing))


def measure(name: str, seed: int, seconds: float, trace: bool) -> Result:
    """Run workload ``name`` in a closed loop for ``seconds`` and aggregate its metrics."""
    plain: list[Invocation] = []
    traced: list[Invocation] = []
    started = time.monotonic()
    while (len(traced) < MIN_TRACED if trace else len(plain) < MIN_INVOCATIONS) or (
        time.monotonic() - started < seconds
    ):
        plain.append(invoke(name, seed, False))
        if trace:
            traced.append(invoke(name, seed, True))
    _check_counts_repeat(traced)

    result = Result()
    for invocation in plain + traced:
        result.attempted += 1
        if invocation.problems:
            result.failed += 1
            result.problems.extend(invocation.problems[:5])
    if not trace:
        probes = [probe_setup(name, seed) for _ in range(SETUP_SAMPLES - len(plain))]
        samples = {
            "wall_s": [i.wall_s for i in plain],
            "setup_s": [i.setup_s for i in plain] + probes,
            "peak_rss_mb": [i.peak_rss_mb for i in plain],
        }
        for metric, unit in END_TO_END:
            result.metrics[metric] = (_median(samples[metric]), unit)
        return result
    layers = [i.layers for i in traced if i.layers is not None]
    for metric, unit, _ in LAYER_METRICS:
        if metric == "trace.overhead_s":
            walls = (_median([i.wall_s for i in traced]), _median([i.wall_s for i in plain]))
            value = None if None in walls else walls[0] - walls[1]
        elif is_time(metric):
            value = _median([layer[metric] for layer in layers])
        else:
            value = layers[0][metric] if layers else None
        result.metrics[metric] = (value, unit)
    return result


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), help="default: every workload in turn")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SOURCE / "cli.py").is_file():
        sys.stderr.write(f"banachkit sources not found under {SOURCE.parent}\n")
        return 2
    compileall.compile_dir(str(SOURCE), quiet=1)

    names = [args.workload] if args.workload else list(WORKLOADS)
    attempted = failed = 0
    metrics: dict[str, dict] = {}
    for name in names:
        result = measure(name, args.seed, args.seconds, bool(args.trace))
        if any(value is None for value, _ in result.metrics.values()):
            sys.stderr.write(f"{name}: no invocation produced a measurement\n")
            return 1
        attempted += result.attempted
        failed += result.failed
        for problem in result.problems:
            sys.stderr.write(f"{name}: {problem}\n")
        print(f"{name} invocations {result.attempted} count")
        print(f"{name} error_rate {result.failed / result.attempted} 1")
        prefix = f"{name}." if len(names) > 1 else ""
        for metric, (value, unit) in result.metrics.items():
            print(f"{name} {metric} {value} {unit}")
            metrics[prefix + metric] = {"value": value, "unit": unit}
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
