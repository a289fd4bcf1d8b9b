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
class tuple of positions instead of one per position tuple.  The CSV ramsey
report, the first golden written through the key/value rows of a command
that supplies no table of its own, was hashed before the package built its
list of public names from the modules' own lists.  The other eleven CSV
reports ending in ``-csv`` (one per command that had none) and the parser
surface (each subcommand's help and the argparse attributes of its
options) were hashed before the subcommands' options moved from one block
of ``add_argument`` calls each into one table.  The JSON ``norm`` reports
of l_inf, c_0, an l_p sum, James and an interleave with outer sum, which
print each kind's space document, were hashed before that document was
written from the dataclass fields instead of by a ``to_doc`` per kind.
The stabilized reports against l_1.5 and l_1, which run the generic and the
p = 1 branches of ``LpReference.coeff_norm``, were hashed before the
equivalence scan memoized reference norms per net representatives tuple.
The sandwich digest hashes the report of 2 000 trials of
``verify_example_space`` at tolerance -1, where 1 995 trials fail, so it pins
the drawn blocks, vectors, coefficients, norms and bounds that the
``verify-example-space`` goldens, whose trials all pass, do not print; it was
taken before the ``LpSum`` norm summed each segment as one run of equal keys
instead of gathering segment masses in a dict.
``main`` builds only the invoked command's subparser, so ``parser_cases``
runs five argument lists per command through ``main`` and through the full
``build_parser()``, which must agree in exit code, stdout and stderr.  ``tests/golden_hashes.py`` checks all
of them without pytest.
"""

import argparse
import hashlib
import io
import json
from contextlib import redirect_stderr, redirect_stdout

import pytest

from banachkit import cli
from banachkit.analysis import verify_example_space
from banachkit.cli import build_parser, main

EXAMPLE_SPACE = json.dumps(
    {"kind": "lp_sum", "p": 2.0, "ps": [1.0, 1.5, 1.8], "ns": [2, 65, 3**18 + 1]},
    separators=(",", ":"),
)
INTERLEAVE = '{"kind":"interleave","a":{"kind":"lp","p":1},"b":{"kind":"lp","p":2}}'
LP2 = '{"kind":"lp","p":2}'
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
    "norm-lp-inf": (
        ["norm", "--space", '{"kind":"lp","p":"inf"}', "--vector", "1:1,2:-3,7:2.5"],
        "84966113fe5dfceeb9f529b4323315b49c397a7a0b4e9c85e9b86050d9f0c455",
    ),
    "norm-c0": (
        ["norm", "--space", '{"kind":"c0"}', "--vector", "2:0.5,4:-1.25"],
        "977b1a96db844e8629e9ccac1dffdb86b6c76baf8c9a0888de09cb4145e875ba",
    ),
    "norm-lp-sum": (
        ["norm", "--space", '{"kind":"lp_sum","p":2,"ps":[1,1.5],"ns":[2,3]}', "--vector", "1:1,2:-1,4:0.5,5:2"],
        "bcc400bd1a8a424a0a4b1b2b14f3041527f51dc683c25e93b19f37f7935f2cbb",
    ),
    "norm-james": (
        ["norm", "--space", '{"kind":"james"}', "--vector", "1:1,2:1,4:-1"],
        "8eec458406327767b5b6c0bd8a1f7db039d5e34755a4b8dfd57da11408ecf239",
    ),
    "norm-interleave-sum": (
        [
            "norm", "--space",
            '{"kind":"interleave","a":{"kind":"james"},"b":{"kind":"lp","p":"Infinity"},"outer":"sum"}',
            "--vector", "1:1,2:-2,3:1,6:0.5",
        ],
        "492aa39d712f41c5d30039aa1b51c6462f6d7d59f7b6fb34904f778cebe16c7c",
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
    "ramsey-csv": (
        ["ramsey", "--coloring", "min-parity", "--M", "6", "--k", "2", "--L", "3", "--format", "csv"],
        "0cf36edfecf4272c79c913c37d9af80c1b696078d90da418791fd5bbfb4c6f91",
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
    "stabilized-lp1.5": (
        ["stabilized", "--space", '{"kind":"lp","p":1.5}', "--p", "1.5", "--n", "3", "--schedule", "1,10", "--seed", "1"],
        "23ce3e7950dfd7903c7506c921140d1723015398b97e9697942d7249c70be25b",
    ),
    "stabilized-lp1": (
        ["stabilized", "--space", '{"kind":"lp","p":1}', "--p", "1", "--n", "2", "--schedule", "1,10", "--seed", "2"],
        "e2e4ca2a6d085e4c3088d7e61098251eff1eb48efeb23b585c2751773fbe5dd4",
    ),
    "verify-example-space-csv": (
        ["verify-example-space", "--trials", "200", "--seed", "0", "--format", "csv"],
        "e658370d482b2f65b3d1b993627ff82eedfded041cec818b08088851b75fa9ab",
    ),
    "equivalence-csv": (
        ["equivalence", "--space", LP2, "--blocking", "1|2,3|4", "--format", "csv"],
        "4fe5873d6512cbbc44fee07edb2bc68380fdf898eb857048a2f92c9d48ac8c69",
    ),
    "game-csv": (
        [
            "game", "--space", '{"kind":"james"}', "--vector-player", "nccb:2", "--rounds", "3",
            "--format", "csv",
        ],
        "4563332e1d7984158af47dcac16c7aab22b920e083e085bf6cd0e7077da50867",
    ),
    "hindman-csv": (
        ["hindman", "--coloring", "min-parity", "--M", "8", "--L", "3", "--format", "csv"],
        "d8588e4f514c9880bf155f7fe72ba0b86a57116024218dc97bd207e57d7b861e",
    ),
    "milliken-csv": (
        [
            "milliken", "--coloring", "first-min-parity", "--P", "singletons:8", "--k", "2", "--L", "3",
            "--format", "csv",
        ],
        "91f58c2f1307b349bef55ed7c23e50b155d62aa45113a64cbecc26c44b4d257f",
    ),
    "stabilize-nccb-csv": (
        [
            "stabilize-nccb", "--space", LP2, "--M", "8", "--net-step", "0.5", "--max-n", "2", "--verify",
            "--format", "csv",
        ],
        "fd65c11eb9872190ed2ed7edc1e1b3fde6c39208e15a50ce4fd96aacae00b717",
    ),
    "krivine-p-csv": (
        ["krivine-p", "--space", '{"kind":"lp","p":1.5}', "--max-n", "8", "--format", "csv"],
        "486518b66079b158f40b86042315383de779f8e403cef544f6a865b2931a6c3a",
    ),
    "extract-csv": (
        [
            "extract", "--space", LP2, "--blocking", "|".join(str(i) for i in range(1, 7)),
            "--net-step", "1", "--max-n", "2", "--format", "csv",
        ],
        "425b11d96f41c13c51eb81480cb115e04a02739ee658a02baf1c333bad21b415",
    ),
    "norm-csv": (
        ["norm", "--space", '{"kind":"james"}', "--vector", "1:1,3:-1", "--format", "csv"],
        "59ca75576d1ef9a9f6e83a697a1ca361f3965091b736e54ad1ed4db8d3c1d33a",
    ),
    "goodness-csv": (
        [
            "goodness", "--space", LP2, "--blocking", "|".join(str(i) for i in range(1, 13)),
            "--net-step", "0.5", "--max-n", "2", "--format", "csv",
        ],
        "d5bea561d248f685a38a866b408c1e9f58112f18260ab948db3cf687acac8255",
    ),
    "spreading-csv": (
        [
            "spreading", "--space", LP2, "--blocking", "|".join(str(i) for i in range(1, 21)),
            "--horizons", "1,5", "--net-step", "0.5", "--max-n", "2", "--format", "csv",
        ],
        "7631f9674ba8d8a901e8110f04ce1ed1b760f7268c39e9dfe680450ebe772baf",
    ),
}


PARSER_SURFACE = "961c52c59826d678002e0911c284f279a1a18f3ec079df5d26d63d85c2553932"

SANDWICH_DIGEST = "634595ffcb875836b11a314670686b69f4792ac6133f56f087c35a362f6f86eb"


def sandwich_digest() -> str:
    """sha256 of the sorted-key JSON of a sandwich report whose records hold every drawn value."""
    report = verify_example_space(2, (1, 1.5, 1.8), 2000, seed=0, tol=-1.0)
    return hashlib.sha256(json.dumps(report.to_doc(), sort_keys=True, allow_nan=False).encode()).hexdigest()


def parser_surface() -> str:
    """Each subcommand's help, then the argparse attributes of each of its actions.

    Raw ``--help`` text is not hashed, since Python 3.13 lays it out differently.
    """
    (commands,) = [a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction)]
    helps = {a.dest: a.help for a in commands._choices_actions}
    lines = []
    for name, sub in commands.choices.items():
        lines.append(f"{name}: {helps[name]}")
        for a in sub._actions:
            kind = getattr(a.type, "__qualname__", repr(a.type))
            fields = (
                type(a).__name__, a.option_strings, a.dest, repr(a.default), kind,
                a.required, a.choices, a.help, a.nargs, a.const,
            )
            lines.append(repr(fields))
    return "\n".join(lines) + "\n"


# One out-of-domain option value per subcommand
OUT_OF_DOMAIN = {
    "norm": ["--format", "xml"],
    "verify-example-space": ["--trials", "x"],
    "goodness": ["--horizon", "0,2"],
    "spreading": ["--window", "-1"],
    "equivalence": ["--ref-n", "0"],
    "game": ["--rounds", "-1"],
    "stabilized": ["--n", "0"],
    "ramsey": ["--M", "x"],
    "hindman": ["--L", "x"],
    "milliken": ["--quantum", "x"],
    "stabilize-nccb": ["--net-step", "0"],
    "krivine-p": ["--start", "0"],
    "extract": ["--target-len", "0"],
}


def parser_cases() -> list[list[str]]:
    """Five argument lists per subcommand: its CSV golden, ``--help``, the
    golden with an unknown option, the golden without its first required
    option (or, for a subcommand with none, with an option lacking its
    value), and the golden with an out-of-domain value."""
    cases = []
    for name, _, _, options in cli._COMMANDS:
        golden = GOLDEN[f"{name}-csv"][0]
        required = next((flag for flag, kwargs in options if kwargs.get("required")), None)
        if required is None:
            missing = [*golden, "--seed"]
        else:
            at = golden.index(required)
            missing = golden[:at] + golden[at + 2:]
        cases += [
            golden,
            [name, "--help"],
            [*golden, "--no-such-option"],
            missing,
            [*golden, *OUT_OF_DOMAIN[name]],
        ]
    return cases


def run_main(argv: list[str], full_parser: bool = False) -> tuple[int, str, str]:
    """Exit code, stdout and stderr of ``main(argv)``; with ``full_parser``,
    ``main`` parses with ``build_parser()``, which declares every command's options."""
    out, err = io.StringIO(), io.StringIO()
    real = cli.build_parser
    if full_parser:
        cli.build_parser = lambda command=None: real()
    try:
        with redirect_stdout(out), redirect_stderr(err):
            code = main(argv)
    finally:
        cli.build_parser = real
    return code, out.getvalue(), err.getvalue()


def report_digest(argv: list[str]) -> tuple[int, str]:
    code, out, _ = run_main(argv)
    return code, hashlib.sha256(out.encode()).hexdigest()


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_report_bytes(name):
    argv, digest = GOLDEN[name]
    assert report_digest(argv) == (0, digest)


def test_sandwich_digest():
    assert sandwich_digest() == SANDWICH_DIGEST


def test_parser_surface():
    assert hashlib.sha256(parser_surface().encode()).hexdigest() == PARSER_SURFACE


@pytest.mark.parametrize("argv", parser_cases(), ids=" ".join)
def test_main_parses_as_the_full_parser_does(argv):
    assert run_main(argv) == run_main(argv, full_parser=True)
