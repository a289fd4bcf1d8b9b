"""Check every golden report hash and the parser pin without pytest.

Usage: python tests/golden_hashes.py

Runs each invocation of ``test_golden.GOLDEN`` through ``banachkit.cli.main``
from this checkout's ``src`` and compares the sha256 of its output, then
hashes the parser surface and the failure records of a sandwich check
(``test_golden.sandwich_digest``), then runs each of ``test_golden.parser_cases()``
through ``main`` and through a ``main`` that parses with the full
``build_parser()``, and compares exit code, stdout and stderr.  Then
compares ``random_block_tuple`` with the public-``Random``-method oracle of
``draw_oracle`` (vectors and generator state) at a few seeds and shapes,
for ``Random`` and for a subclass that overrides only ``random()``, which
checks on each interpreter that the draw makes the calls those methods
make.  Then compares the subsets ``combinatorics._subsets_from`` gives with
the sorted ``combinations`` of ``subset_oracle``: every ground set {lo..n}
with n < 16, and larger walks, whole or their first entries.  Then
compares ``nccb_stabilize`` with the one-coloring-per-tuple loop of
``stabilize_oracle`` on its fixed cases, and ``verify_stabilization``
with the walk verify of ``stabilize_oracle`` on seeded results in every
space of ``class_key_oracle``.  Then compares the scaled l_p
kernel with the product list of ``kernel_oracle`` on fixed-seed cases,
values by ``float.hex`` and errors by type and message.  Then checks, per
space of ``class_key_oracle`` and seed, that drawn block tuples with equal
class keys give equal combination norms.
Prints one line per mismatch, then the line count of each module of
``src/``, total and code only (a ``tokenize`` count without comments,
docstrings or blank lines), then a summary line that ends with those counts
for all of ``src/``, and exits 1 if there is any mismatch, else exits 0.
Needs only the standard library, so it can check interpreters that have no
pytest installed.  pytest does not collect this file, since its name does
not start with ``test_``.
"""

import hashlib
import sys
import tokenize
import types
from pathlib import Path
from random import Random

SRC = Path(__file__).resolve().parent.parent / "src"
sys.path.insert(0, str(SRC))

try:
    import pytest  # noqa: F401
except ImportError:
    # test_golden only uses pytest to decorate its tests
    stub = types.ModuleType("pytest")
    stub.mark = types.SimpleNamespace(parametrize=lambda *args, **kwargs: lambda fn: fn)
    sys.modules["pytest"] = stub

import test_golden  # noqa: E402
from banachkit.spaces import make_example_space  # noqa: E402
from class_key_oracle import CLASS_KEY_SEEDS, CLASS_SPACES, class_key_mismatches  # noqa: E402
from draw_oracle import RandomOverridingRandom, draw_mismatches  # noqa: E402
from kernel_oracle import kernel_mismatches  # noqa: E402
from stabilize_oracle import STABILIZE_CASES, VERIFY_SEEDS, stabilize_mismatches, verify_mismatches  # noqa: E402
from subset_oracle import subset_order_mismatches  # noqa: E402

# (seed, max_n, max_block, constant_coefficients) for the draw differential;
# max_block 30 draws samples whose set size exceeds the default shape's
DRAW_SHAPES = [(0, 4, 5, False), (1, 2, 30, False), (7, 5, 12, True), (42, 3, 25, False)]

# (lo, n, count) for subset walks on larger ground sets; count None is the whole walk
SUBSET_WALKS = [(1, 16, None), (9, 16, None), (1, 20, 20000), (1, 40, 20000), (17, 40, 20000)]

# seeds of the kernel differential, and the cases drawn from each
KERNEL_SEEDS, KERNEL_DRAWS = range(8), 250

# tokens that hold no code
NOT_CODE = {tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT, tokenize.ENCODING, tokenize.ENDMARKER}


def code_lines(path: Path) -> int:
    """Lines of ``path`` that hold code: no blank line, comment or docstring,
    a docstring being a string that makes up a whole statement."""
    with path.open("rb") as f:
        tokens = [t for t in tokenize.tokenize(f.readline) if t.type not in (tokenize.COMMENT, tokenize.NL)]
    lines = set()
    for before, token, after in zip([None] + tokens, tokens, tokens[1:] + [None]):
        if token.type in NOT_CODE or (
            token.type == tokenize.STRING and before.type in NOT_CODE and after.type == tokenize.NEWLINE
        ):
            continue
        lines.update(range(token.start[0], token.end[0] + 1))
    return len(lines)


def main() -> int:
    failures = []
    for name, (argv, digest) in sorted(test_golden.GOLDEN.items()):
        code, got = test_golden.report_digest(argv)
        if (code, got) != (0, digest):
            failures.append(f"{name}: exit {code}, sha256 {got}, expected exit 0, sha256 {digest}")
    surface = hashlib.sha256(test_golden.parser_surface().encode()).hexdigest()
    if surface != test_golden.PARSER_SURFACE:
        failures.append(f"parser surface: sha256 {surface}, expected {test_golden.PARSER_SURFACE}")
    sandwich = test_golden.sandwich_digest()
    if sandwich != test_golden.SANDWICH_DIGEST:
        failures.append(f"sandwich records: sha256 {sandwich}, expected {test_golden.SANDWICH_DIGEST}")
    hash_failures = len(failures)
    cases = test_golden.parser_cases()
    for argv in cases:
        if test_golden.run_main(argv) != test_golden.run_main(argv, full_parser=True):
            failures.append(f"parser case {argv}: main differs from the full parser")
    parser_failures = len(failures)
    spaces = [make_example_space(2.0, 3, [1.0, 1.5, 1.8]), make_example_space(1.5, 2, [1.0, 1.2])]
    draw_cases = [
        (spec, *shape, rng_class)
        for spec in spaces
        for shape in DRAW_SHAPES
        for rng_class in (Random, RandomOverridingRandom)
    ]
    draw_agree = 0
    for spec, seed, max_n, max_block, constant, rng_class in draw_cases:
        mismatches = draw_mismatches(spec, seed, max_n, max_block, constant, rng_class)
        failures += mismatches
        draw_agree += not mismatches
    subset_cases = [(lo, n, None) for n in range(16) for lo in range(1, n + 2)] + SUBSET_WALKS
    subset_agree = 0
    for lo, n, count in subset_cases:
        mismatches = subset_order_mismatches(lo, n, count)
        failures += mismatches
        subset_agree += not mismatches
    stabilize_agree = 0
    for case in STABILIZE_CASES.values():
        mismatches = stabilize_mismatches(*case)
        failures += mismatches
        stabilize_agree += not mismatches
    verify_cases = verify_agree = 0
    for spec in CLASS_SPACES.values():
        for seed in VERIFY_SEEDS:
            mismatches, verdicts = verify_mismatches(spec, seed)
            failures += mismatches
            verify_cases += len(verdicts)
            verify_agree += len(verdicts) - len(mismatches)
    kernel_failures = 0
    for seed in KERNEL_SEEDS:
        mismatches = kernel_mismatches(seed, KERNEL_DRAWS)
        failures += mismatches
        kernel_failures += len(mismatches)
    kernel_cases = len(KERNEL_SEEDS) * KERNEL_DRAWS
    class_key_cases = [(spec, seed) for spec in CLASS_SPACES.values() for seed in CLASS_KEY_SEEDS]
    class_key_agree = 0
    for spec, seed in class_key_cases:
        mismatches = class_key_mismatches(spec, seed)
        failures += mismatches
        class_key_agree += not mismatches
    for line in failures:
        print(line)
    modules = sorted(SRC.rglob("*.py"))
    counts = [(len(path.read_bytes().splitlines()), code_lines(path)) for path in modules]
    for path, (total, code) in zip(modules, counts):
        print(f"{path.relative_to(SRC)}: {total} lines, {code} of code")
    print(f"{len(test_golden.GOLDEN) + 2 - hash_failures} of {len(test_golden.GOLDEN) + 2} hashes match, "
          f"{len(cases) + hash_failures - parser_failures} of {len(cases)} parser cases agree, "
          f"{draw_agree} of {len(draw_cases)} draw cases, "
          f"{subset_agree} of {len(subset_cases)} subset-order cases, "
          f"{stabilize_agree} of {len(STABILIZE_CASES)} stabilization cases, "
          f"{verify_agree} of {verify_cases} verify cases, "
          f"{kernel_cases - kernel_failures} of {kernel_cases} kernel cases, "
          f"{class_key_agree} of {len(class_key_cases)} class-key cases agree "
          f"on Python {sys.version.split()[0]}; src/ has "
          f"{sum(total for total, _ in counts)} lines, {sum(code for _, code in counts)} of code")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
