"""Check every golden report hash and the parser pin without pytest.

Usage: python tests/golden_hashes.py

Runs each invocation of ``test_golden.GOLDEN`` through ``banachkit.cli.main``
from this checkout's ``src`` and compares the sha256 of its output, then
hashes the parser surface, then runs each of ``test_golden.parser_cases()``
through ``main`` and through a ``main`` that parses with the full
``build_parser()``, and compares exit code, stdout and stderr.  Prints one
line per mismatch and exits 1 if there is any, else exits 0.  Needs only the standard library, so it can
check interpreters that have no pytest installed.  pytest does not collect
this file, since its name does not start with ``test_``.
"""

import hashlib
import sys
import types
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

try:
    import pytest  # noqa: F401
except ImportError:
    # test_golden only uses pytest to decorate its tests
    stub = types.ModuleType("pytest")
    stub.mark = types.SimpleNamespace(parametrize=lambda *args, **kwargs: lambda fn: fn)
    sys.modules["pytest"] = stub

import test_golden  # noqa: E402


def main() -> int:
    failures = []
    for name, (argv, digest) in sorted(test_golden.GOLDEN.items()):
        code, got = test_golden.report_digest(argv)
        if (code, got) != (0, digest):
            failures.append(f"{name}: exit {code}, sha256 {got}, expected exit 0, sha256 {digest}")
    surface = hashlib.sha256(test_golden.parser_surface().encode()).hexdigest()
    if surface != test_golden.PARSER_SURFACE:
        failures.append(f"parser surface: sha256 {surface}, expected {test_golden.PARSER_SURFACE}")
    hash_failures = len(failures)
    cases = test_golden.parser_cases()
    for argv in cases:
        if test_golden.run_main(argv) != test_golden.run_main(argv, full_parser=True):
            failures.append(f"parser case {argv}: main differs from the full parser")
    for line in failures:
        print(line)
    print(f"{len(test_golden.GOLDEN) + 1 - hash_failures} of {len(test_golden.GOLDEN) + 1} hashes match, "
          f"{len(cases) + hash_failures - len(failures)} of {len(cases)} parser cases agree "
          f"on Python {sys.version.split()[0]}")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
