"""The README's library tour and command-line examples run as printed."""

import io
import re
import shlex
from contextlib import redirect_stdout
from pathlib import Path

import pytest

from banachkit import cli

README = Path(__file__).resolve().parent.parent / "README.md"


def tour_block() -> str:
    text = README.read_text(encoding="utf-8")
    section = text.split("## Library tour", 1)[1]
    return re.search(r"```python\n(.*?)```", section, re.S).group(1)


def test_library_tour_runs_verbatim():
    block = tour_block()
    namespace: dict = {}
    exec(compile(block, "README.md", "exec"), namespace)

    assert "# 'good-within-tolerance'" in block
    assert namespace["report"].verdict == "good-within-tolerance"
    assert namespace["report"].net.max_len == 4
    assert "counts 4 904 952 window evaluations" in README.read_text(encoding="utf-8")
    assert sum(r.evaluations for r in namespace["report"].records) == 4_904_952

    assert "# '1|3|5'" in block
    assert namespace["cert"].witness.encode() == "1|3|5"

    assert "# '3|4|5|6|7|8'" in block
    assert namespace["result"].blocking.encode() == "3|4|5|6|7|8"

    constants = namespace["verdict"].constants()
    assert all(b <= a for a, b in zip(constants, constants[1:]))
    assert constants[-1] == pytest.approx(2 ** (1 / 1.8 - 1 / 2), rel=1e-9)


def example_lines() -> list[str]:
    text = README.read_text(encoding="utf-8")
    section = text.split("\nExamples:\n", 1)[1]
    block = re.search(r"```\n(.*?)```", section, re.S).group(1)
    return [line for line in block.splitlines() if line.strip()]


def test_cli_examples_run_verbatim():
    lines = example_lines()
    assert len(lines) == 5
    for line in lines:
        argv = shlex.split(line)
        assert argv[0] == "banachkit"
        with redirect_stdout(io.StringIO()):
            assert cli.main(argv[1:]) == 0, line
