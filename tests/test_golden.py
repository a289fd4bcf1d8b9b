"""Byte-exact reports of fixed CLI invocations.

The first four hashes were taken from banachkit 0.1.0 before the
combination-norm kernel replaced SparseVector arithmetic in the scans; any
change to a verdict, certificate, color, node count or float changes them.
Their argument lists are the benchmark's workloads at seed 0, copied here on
purpose.  The James stabilization was hashed before the searches moved to
cached subset tables and verify to one pass per sign family; James is not
unconditional, so its verify still recolors every tuple.  The l_p, c_0 and
interleaved stabilizations and the norm-quantized Milliken-Taylor search were
hashed before norm-quantization colorings began to memoize colors by block
class and Lp/C0 coordinates lost their index keys.  The example space at
M = 14 and at max-n 3, M = 11, and James at M = 12, were hashed before the
Milliken-Taylor search and verify colored coarsening families by distinct
class tuple instead of enumerating them.  The norm, game, krivine-p,
equivalence, spreading, extract, ramsey, hindman and parity/constant
milliken reports, and the CSV stabilized table, were hashed before every
command's report configuration was read from its parsed options instead of
a key list per command.  The tight-window stabilized table (its random draws
leave the window in 31 of 60 tuples) and the arity-3 parity milliken search
were hashed before coarsening index tuples came from one enumerator and the
tuple pool from one loop per kind.  The lp_sum, interleave(l_1, c_0) and
James stabilized reports were hashed before the asymptotic verdict scanned
each block-coordinate class once instead of each pool tuple.  The goodness
run of the README tour (the default grid(0.25, 4) net over the window
[68, 80]) was hashed before goodness windows computed one norm per distinct
class tuple of positions instead of one per position tuple.
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
INTERLEAVE = '{"kind":"interleave","a":{"kind":"lp","p":1},"b":{"kind":"lp","p":2}}'
INTERLEAVE_C0 = '{"kind":"interleave","a":{"kind":"lp","p":1},"b":{"kind":"c0"}}'

GOLDEN = {
    "goodness": (
        [
            "goodness", "--space", EXAMPLE_SPACE, "--blocking", "|".join(str(i) for i in range(1, 90)),
            "--net-step", "0.25", "--max-n", "3", "--epsilon", "1e-3", "--horizon", "68,9",
        ],
        "562db254f55b90e61f82a16d7c37997ac690dfcd38ac2439bb3853d4e4c39f03",
    ),
    "goodness-readme-tour": (
        [
            "goodness", "--space", EXAMPLE_SPACE, "--blocking", "|".join(str(i) for i in range(1, 90)),
            "--net-step", "0.25", "--max-n", "4", "--epsilon", "1e-3", "--horizon", "68,12",
        ],
        "f53d5a1e36d856a154ef0585b830c2651dcbce107d55207feb396d1a75088088",
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
    "stabilize-lp": (
        [
            "stabilize-nccb", "--space", '{"kind":"lp","p":1.5}', "--M", "10",
            "--net-step", "0.5", "--max-n", "2", "--verify",
        ],
        "a28c3d2e251017113391671d45532d47bce94f86de03f282de0773a487cc5e22",
    ),
    "stabilize-c0": (
        [
            "stabilize-nccb", "--space", '{"kind":"c0"}', "--M", "10",
            "--net-step", "0.5", "--max-n", "2", "--verify",
        ],
        "d63d8a1ef53fd95c7d2cfcc230fab6ce519407d3f4562136a0e8ea01f4a4af46",
    ),
    "stabilize-interleave": (
        [
            "stabilize-nccb", "--space",
            '{"kind":"interleave","a":{"kind":"lp","p":1},"b":{"kind":"lp","p":2}}',
            "--M", "10", "--net-step", "0.5", "--max-n", "2", "--verify",
        ],
        "b01b2c745e87ec96cec8c8ee1d08893e9aa7ce1f0973b815b7863c4514d70f62",
    ),
    "stabilize-m14": (
        [
            "stabilize-nccb", "--space", EXAMPLE_SPACE, "--M", "14",
            "--net-step", "0.5", "--max-n", "2", "--verify",
        ],
        "7999a265675c582735897d815cd5af000c05f005f2f05a80cbda83e93653ac7c",
    ),
    "stabilize-max-n-3": (
        [
            "stabilize-nccb", "--space", EXAMPLE_SPACE, "--M", "11",
            "--net-step", "0.5", "--max-n", "3", "--verify",
        ],
        "d10a55ffce9b1503b6e3f298c745e1ed209aeb59e73e9d32c318e324d6a2dde3",
    ),
    "stabilize-james-m12": (
        [
            "stabilize-nccb", "--space", '{"kind":"james"}', "--M", "12",
            "--net-step", "0.5", "--max-n", "2", "--verify",
        ],
        "2fde559e472c35af6f0667d4ea92edd12641b6c184a819f50ebf7e378bf5127e",
    ),
    "milliken-norm-quant": (
        [
            "milliken", "--coloring", "norm-quant", "--P", "singletons:8",
            "--k", "2", "--L", "4", "--space", EXAMPLE_SPACE,
        ],
        "d292d8177def7a59255b072722559568dda2c7e6039dd137e108c9922a45cf6d",
    ),
    "norm-interleave": (
        ["norm", "--space", INTERLEAVE, "--vector", "1:1,2:-0.5,5:2"],
        "b7a6376b7a9fc2a966f8717387f56f0a166b445a666a19b8c04657e7a33c0609",
    ),
    "game-nccb": (
        ["game", "--space", INTERLEAVE, "--vector-player", "nccb:3", "--subspace", "constant:2"],
        "2f3ab9b5e19dcbb7046ade2db8d91696d042f98ed9b1b4cabf79fbb490d25ed4",
    ),
    "game-net": (
        ["game", "--space", EXAMPLE_SPACE, "--vector-player", "net:4:3", "--rounds", "5"],
        "5e661dd68235c07b5949fe2a9c8b12e359c91c3c8c615b746f403ec509d97016",
    ),
    "krivine-p": (
        ["krivine-p", "--space", INTERLEAVE, "--max-n", "8", "--start", "2"],
        "ec44e86e027136e894dc9c13c68e8d78506323b12f49becfea5bf1381db17dab",
    ),
    "equivalence-inf": (
        ["equivalence", "--space", '{"kind":"c0"}', "--blocking", "1|2|3", "--ref-p", "inf"],
        "262efe037f3d7308d3f2734b5b9c9f7b2eac9aa52ed48c598457d4eef3cc1225",
    ),
    "spreading-fit-p": (
        [
            "spreading", "--space", INTERLEAVE, "--blocking", "1|2|3|4|5|6|7|8|9|10",
            "--horizons", "1,3,5", "--fit-p",
        ],
        "b1b9bb7a0b7e90738190dbbe1e0a1d9c5467053cd7b20308b8cbdb1b1a422695",
    ),
    "extract": (
        [
            "extract", "--space", EXAMPLE_SPACE, "--blocking", "1|2|3|4|5|6|7|8|9|10|11|12",
            "--target-len", "4",
        ],
        "1f42ff60fab9a25b978c14454a62ce9321d7ad2b51544416043c0d800084c065",
    ),
    "ramsey": (
        ["ramsey", "--coloring", "min-parity", "--M", "10", "--k", "2", "--L", "3"],
        "97f8f41c63e855575ca6a4a31a704f8ed6b8d944c03080f0025529e9130069f6",
    ),
    "hindman": (
        ["hindman", "--coloring", "min-parity", "--M", "10", "--L", "3"],
        "379085b3c17d7bafa5e7dd397b76010ae49e5eaeae92be3af3c39e60c6df375d",
    ),
    "milliken-first-min-parity": (
        ["milliken", "--coloring", "first-min-parity", "--P", "singletons:8", "--k", "2", "--L", "3"],
        "c3d0b013d32ee4caab0d84722af4eb15431306dc393943590021740c0147b520",
    ),
    "milliken-constant": (
        ["milliken", "--coloring", "constant:1", "--P", "singletons:6", "--k", "2", "--L", "3"],
        "defbf558efac99c51cf77a4238ac090817b00d665c73ad3980230f5d349371a8",
    ),
    "stabilized-tight-window": (
        ["stabilized", "--space", '{"kind":"lp","p":2}', "--n", "2", "--schedule", "1", "--window", "5", "--samples", "60"],
        "5e742875f91a0a6d28593db5d0bb5c322d45ab2f697e9dd50a76495da47d87d9",
    ),
    "milliken-first-min-parity-k3": (
        ["milliken", "--coloring", "first-min-parity", "--P", "singletons:11", "--k", "3", "--L", "5"],
        "72097c90c55985b02c53352a05f21e501227203adad0718a45911ab28ae1e727",
    ),
    "stabilized-csv": (
        [
            "stabilized", "--space", '{"kind":"lp","p":2}', "--n", "2", "--schedule", "1,6",
            "--window", "8", "--samples", "12", "--seed", "9", "--format", "csv",
        ],
        "cb9957b7db91f6705ef44ca81bd64b861019ac93a1aa3864a5af075979b5609c",
    ),
    "stabilized-lp-sum": (
        ["stabilized", "--space", EXAMPLE_SPACE, "--n", "2", "--schedule", "1,10,40", "--seed", "3"],
        "daf6d8bf7be56b5068d575551c74bd0eacb8575c88371b3f8fb2585f732085fa",
    ),
    "stabilized-interleave-c0-csv": (
        [
            "stabilized", "--space", INTERLEAVE_C0, "--n", "3", "--schedule", "1,10",
            "--seed", "1", "--format", "csv",
        ],
        "e8d4cffe820e176a4b024d3d79bd12d6d192fd5e6a1404b5b7470b4c813b52a1",
    ),
    "stabilized-james": (
        ["stabilized", "--space", '{"kind":"james"}', "--n", "2", "--schedule", "1,10,30", "--seed", "0"],
        "42d316a29d85c330800c185718626837d6f1fc612657b66cd1e3c517160cac3b",
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
