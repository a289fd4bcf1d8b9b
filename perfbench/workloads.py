"""The four benchmark workloads: CLI arguments built from a seed, and output checks.

Each workload is one ``banachkit`` CLI invocation.  ``argv(seed)`` builds its
arguments and ``check(exit_code, report, seed)`` returns the problems found in
its output, an empty list when the output is correct.  Discrete fields must
match exactly; floats must agree within relative 1e-9 with the value
banachkit 0.1.0 produced when the benchmark was written, or with a closed
form that banachkit 0.1.0 meets to within a few ulps.

This module does not import banachkit, so the checks cannot borrow the code
they check.
"""

from __future__ import annotations

import itertools
import json
import math
from dataclasses import dataclass
from typing import Callable

REL_TOL = 1e-9
# Oscillations are differences of equal norms, so their expected value is 0
# and only an absolute tolerance makes sense for them.
ABS_TOL = 1e-12

# make_example_space(2, 3, [1, 1.5, 1.8]): segment dimensions 2, 65, 3^18 + 1
EXAMPLE_SPACE = json.dumps(
    {"kind": "lp_sum", "p": 2.0, "ps": [1.0, 1.5, 1.8], "ns": [2, 65, 3**18 + 1]},
    separators=(",", ":"),
)

# The seed at which the seeded workloads' outputs were recorded from banachkit 0.1.0.
REFERENCE_SEED = 0


class Problems(list):
    """Collected check failures; ``expect`` records a message when a condition fails."""

    def expect(self, ok: bool, message: str) -> None:
        if not ok:
            self.append(message)

    def close(self, actual, expected: float, what: str) -> None:
        ok = isinstance(actual, float) and math.isclose(
            actual, expected, rel_tol=REL_TOL, abs_tol=ABS_TOL
        )
        self.expect(ok, f"{what}: {actual!r}, expected {expected!r}")


def _grid(step: float, max_len: int) -> list[list[float]]:
    """The CLI's default coefficient net: nonzero tuples on a grid in [-1, 1]."""
    k = round(1.0 / step)
    values = [i * step for i in range(-k, k + 1)]
    return [
        list(t)
        for n in range(1, max_len + 1)
        for t in itertools.product(values, repeat=n)
        if any(c != 0.0 for c in t)
    ]


# ---------------------------------------------------------------------------
# goodness: the README goodness example with the net cut to max_len 3
# ---------------------------------------------------------------------------

GOODNESS_BLOCKING = "|".join(str(i) for i in range(1, 90))
GOODNESS_K, GOODNESS_H = 68, 9
GOODNESS_INNER_P = 1.8  # the window [68, 77] lies inside segment 3


def _goodness_argv(seed: int) -> list[str]:
    return [
        "goodness", "--space", EXAMPLE_SPACE, "--blocking", GOODNESS_BLOCKING,
        "--net-step", "0.25", "--max-n", "3", "--epsilon", "1e-3",
        "--horizon", f"{GOODNESS_K},{GOODNESS_H}",
    ]


def _check_goodness(report: dict, seed: int, problems: Problems) -> None:
    result = report["result"]
    problems.expect(result["verdict"] == "good-within-tolerance", f"verdict {result['verdict']!r}")
    records = result["records"]
    problems.expect(len(records) == 816, f"{len(records)} records, expected 816")
    evaluations = sum(r["evaluations"] for r in records)
    problems.expect(evaluations == 91040, f"{evaluations} evaluations, expected 91040")
    # Every window position holds a unit vector of segment 3, so each record's
    # norm is the l_1.8 norm of its coefficients, whatever the positions.
    for record, coeffs in zip(records, _grid(0.25, 3)):
        problems.expect(record["coeffs"] == coeffs, f"record coeffs {record['coeffs']}, expected {coeffs}")
        exact = sum(abs(a) ** GOODNESS_INNER_P for a in coeffs) ** (1.0 / GOODNESS_INNER_P)
        for key in ("sup", "inf", "estimate"):
            problems.close(record[key], exact, f"{key} at {coeffs}")
        problems.close(record["oscillation"], 0.0, f"oscillation at {coeffs}")


# ---------------------------------------------------------------------------
# stabilize: Milliken-Taylor stabilization at M = 12 with exhaustive verify
# ---------------------------------------------------------------------------

# Per net tuple of grid(0.5, 2), in net order, as banachkit 0.1.0 reports them.
STABILIZE_COLORS = (
    20, 10, 10, 20, 31, 24, 20, 24, 31, 24, 15, 10, 15, 24,
    20, 10, 10, 20, 24, 15, 10, 15, 24, 31, 24, 20, 24, 31,
)
STABILIZE_NODES = (12, 12, 12, 12, 62) + (10,) * 23
STABILIZE_LENGTHS = (12,) * 4 + (10,) * 24


def _stabilize_argv(seed: int) -> list[str]:
    return [
        "stabilize-nccb", "--space", EXAMPLE_SPACE, "--M", "12",
        "--net-step", "0.5", "--max-n", "2", "--verify",
    ]


def _check_stabilize(report: dict, seed: int, problems: Problems) -> None:
    result = report["result"]
    blocking = [[i] for i in range(3, 13)]
    problems.expect(result["blocking"] == blocking, f"blocking {result['blocking']}")
    problems.expect(result["complete"] is True, "stabilization not complete")
    problems.expect(result["verified_monochromatic"] is True, "verify found a non-monochromatic family")
    steps = result["steps"]
    problems.expect(len(steps) == 28, f"{len(steps)} steps, expected 28")
    expected = zip(_grid(0.5, 2), STABILIZE_COLORS, STABILIZE_NODES, STABILIZE_LENGTHS)
    for step, (coeffs, color, nodes, length) in zip(steps, expected):
        got = (step["coeffs"], step["found"], step["color"], step["nodes_explored"], step["length"])
        want = (coeffs, True, color, nodes, length)
        problems.expect(got == want, f"step {got}, expected {want}")
        witness = [[i] for i in range(13 - length, 13)]
        problems.expect(step["witness"] == witness, f"witness {step['witness']} at {coeffs}")


# ---------------------------------------------------------------------------
# asymptotic: the README `stabilized` command, sampled at the given seed
# ---------------------------------------------------------------------------

ASYMPTOTIC_SCHEDULE = [1, 10, 100]
ASYMPTOTIC_REFERENCE = {"pool_sizes": [279, 258, 50], "constants": [1.0000000000000007, 1.0000000000000007, 1.0000000000000004]}


def _asymptotic_argv(seed: int) -> list[str]:
    return [
        "stabilized", "--space", '{"kind":"lp","p":2}', "--n", "3",
        "--schedule", ",".join(map(str, ASYMPTOTIC_SCHEDULE)), "--seed", str(seed),
    ]


def _check_asymptotic(report: dict, seed: int, problems: Problems) -> None:
    result = report["result"]
    problems.expect(report["config"]["seed"] == seed, f"report seed {report['config']['seed']}")
    verdict = result["verdict"]
    problems.expect(verdict == "consistent-with-stabilized-1-asymptotic-lp", f"verdict {verdict!r}")
    rows = result["rows"]
    cutoffs = [r["N"] for r in rows]
    problems.expect(cutoffs == ASYMPTOTIC_SCHEDULE, f"cutoffs {cutoffs}")
    constants = [r["constant"] for r in rows]
    sizes = [r["pool_size"] for r in rows]
    problems.expect(all(b <= a for a, b in zip(constants, constants[1:])), f"constants {constants} increase")
    problems.expect(all(0 < b <= a for a, b in zip(sizes, sizes[1:])), f"pool sizes {sizes}")
    # Normalized disjoint blocks in l_2 are orthonormal: every constant is 1.
    for N, constant in zip(cutoffs, constants):
        problems.close(constant, 1.0, f"C({N}, 3)")
    if seed == REFERENCE_SEED:
        expected = ASYMPTOTIC_REFERENCE
        problems.expect(sizes == expected["pool_sizes"], f"pool sizes {sizes}, expected {expected['pool_sizes']}")
        for N, got, want in zip(cutoffs, constants, expected["constants"]):
            problems.close(got, want, f"C({N}, 3)")


# ---------------------------------------------------------------------------
# sandwich: random block tuples, each normed once
# ---------------------------------------------------------------------------

SANDWICH_TRIALS = 20000


def _sandwich_argv(seed: int) -> list[str]:
    return ["verify-example-space", "--trials", str(SANDWICH_TRIALS), "--seed", str(seed)]


def _check_sandwich(report: dict, seed: int, problems: Problems) -> None:
    result = report["result"]
    problems.expect(report["config"]["seed"] == seed, f"report seed {report['config']['seed']}")
    problems.expect(result["passed"] is True, "sandwich check did not pass")
    problems.expect(result["sandwich_failures"] == [], f"{len(result['sandwich_failures'])} sandwich failures")
    problems.expect(result["trials"] == SANDWICH_TRIALS, f"trials {result['trials']}")
    problems.expect(result["vacuous"] is False, "vacuous run")
    problems.expect(result["type_checks"] == [[1, True], [2, True], [3, True]], f"type checks {result['type_checks']}")
    problems.expect(result["ns"] == [2, 65, 3**18 + 1], f"segment dimensions {result['ns']}")


# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Workload:
    name: str
    command: str
    argv: Callable[[int], list[str]]
    check_report: Callable[[dict, int, Problems], None]

    def check(self, exit_code: int, report_text: str, seed: int) -> list[str]:
        """Problems with one invocation's exit code and report; empty when correct."""
        problems = Problems()
        problems.expect(exit_code == 0, f"exit code {exit_code}")
        try:
            report = json.loads(report_text)
            problems.expect(report["command"] == self.command, f"command {report['command']!r}")
            self.check_report(report, seed, problems)
        except (ValueError, KeyError, TypeError, IndexError) as exc:
            problems.append(f"malformed report: {exc!r}")
        return problems


WORKLOADS = {
    w.name: w
    for w in (
        Workload("goodness", "goodness", _goodness_argv, _check_goodness),
        Workload("stabilize", "stabilize-nccb", _stabilize_argv, _check_stabilize),
        Workload("asymptotic", "stabilized", _asymptotic_argv, _check_asymptotic),
        Workload("sandwich", "verify-example-space", _sandwich_argv, _check_sandwich),
    )
}
