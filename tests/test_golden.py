"""Byte-exact reports of fixed CLI invocations.

The first four hashes were taken from banachkit 0.1.0 before the
combination-norm kernel replaced SparseVector arithmetic in the scans; any
change to a verdict, certificate, color, node count or float changes them.
Their argument lists are the benchmark's workloads at seed 0, copied here on
purpose.  The James stabilization was hashed before the searches moved to
cached subset tables and verify to one pass per sign family; James is not
unconditional, so its verify still recolors every tuple.
"""

import hashlib
import io
import json
from contextlib import redirect_stdout

import pytest

from banachkit.cli import main

EXAMPLE_SPACE = json.dumps(
    {"kind": "lp_sum", "p": 2.0, "ps": [1.0, 1.5, 1.8], "ns": [2, 65, 3**18 + 1]},
    separators=(",", ":"),
)

GOLDEN = {
    "goodness": (
        [
            "goodness", "--space", EXAMPLE_SPACE, "--blocking", "|".join(str(i) for i in range(1, 90)),
            "--net-step", "0.25", "--max-n", "3", "--epsilon", "1e-3", "--horizon", "68,9",
        ],
        "562db254f55b90e61f82a16d7c37997ac690dfcd38ac2439bb3853d4e4c39f03",
    ),
    "stabilize": (
        [
            "stabilize-nccb", "--space", EXAMPLE_SPACE, "--M", "12",
            "--net-step", "0.5", "--max-n", "2", "--verify",
        ],
        "4a87700e65f3f8c2a9a9c0a495d1aa209ce87f29e8d318f5e12ae9ab3af973bc",
    ),
    "asymptotic": (
        ["stabilized", "--space", '{"kind":"lp","p":2}', "--n", "3", "--schedule", "1,10,100", "--seed", "0"],
        "5a97ec0fa2a110bd8e91c4544bbc756ff92b2d35c51e5e5768f1278bdea4b81a",
    ),
    "sandwich": (
        ["verify-example-space", "--trials", "20000", "--seed", "0"],
        "273f2933402ea0b413997dbeab099958fcee1d92fa7b300ae9cc238b23164cb9",
    ),
    "stabilize-james": (
        [
            "stabilize-nccb", "--space", '{"kind":"james"}', "--M", "10",
            "--net-step", "0.5", "--max-n", "2", "--verify",
        ],
        "1ade565d4d57127abb9dbc7314851e521c36e2e786fae6631f134f1546dee4d7",
    ),
}


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_report_bytes(name):
    argv, digest = GOLDEN[name]
    out = io.StringIO()
    with redirect_stdout(out):
        code = main(argv)
    assert code == 0
    assert hashlib.sha256(out.getvalue().encode()).hexdigest() == digest
