"""Command-line entry point.

Every command reads its space from a JSON document (``--space`` takes a
file path or inline JSON), embeds the full run configuration in its report,
and emits JSON (default) or flat CSV.  All sampling is driven by an
explicit ``--seed``, so identical invocations produce byte-identical
reports.

Exit status: 0 when the computation ran and every declared check passed,
1 when a declared check failed (the report carries the certificates),
2 on usage or configuration errors.
"""

from __future__ import annotations

import argparse
import io
import json
import math
import sys
from typing import Sequence

from . import __version__
from .analysis import (
    ScalarNet,
    brunel_sucheston_extract,
    equivalence_constant,
    verify_example_space,
    goodness_test,
    krivine_p_estimate,
    LpReference,
    nccb_stabilize,
    norm_quantization_coloring,
    spreading_model_estimate,
    verify_stabilization,
)
from .blockseq import BlockSequence, interleave_array, nccb_from_blocking, tree_from_array, branch
from .combinatorics import (
    BlockClasses,
    Blocking,
    Coloring,
    constant_coloring,
    hindman_search,
    load_coloring_table,
    milliken_taylor_search,
    min_parity_coloring,
    ramsey_search,
    size_parity_coloring,
    verify_hindman_certificate,
    verify_milliken_taylor_certificate,
    verify_ramsey_certificate,
)
from .games import asymptotic_lp_verdict, play, strategy_from_name
from .spaces import Interleave, Lp, SparseVector, _PairFormError, space_from_doc

EXIT_OK = 0
EXIT_CHECKS_FAILED = 1
EXIT_USAGE = 2


class UsageError(Exception):
    pass


# ---------------------------------------------------------------------------
# Input plumbing
# ---------------------------------------------------------------------------


def _read_json(option: str, form: str, text: str | None = None, path: str | None = None):
    """JSON decoded from ``text``, or from the file at ``path``; what is not
    JSON is refused naming ``option``, the file, and the ``form`` it takes."""
    if path is not None:
        with open(path, "r", encoding="utf-8") as handle:
            text = handle.read()
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        source = option if path is None else f"{option} file {path!r}"
        raise ValueError(f"{source} is not valid JSON ({exc}); it takes {form}") from None


_SPACE_FORM = 'a space document such as {"kind": "lp", "p": 2}, inline or in a file'
_VECTORS_FORM = "a list of vectors, each a list of [index, coefficient] pairs"


def _load_space(text: str):
    if text.lstrip().startswith(("{", "[")):
        doc = _read_json("--space", _SPACE_FORM, text)
    else:
        doc = _read_json("--space", _SPACE_FORM, path=text)
    return space_from_doc(doc)


def _parse_list(text: str, kind, noun: str) -> list:
    try:
        return [kind(chunk) for chunk in text.split(",") if chunk.strip()]
    except ValueError:
        raise ValueError(f"expected comma-separated {noun}, got {text!r}") from None


def _parse_ints(text: str) -> list[int]:
    return _parse_list(text, int, "integers")


def _parse_floats(text: str) -> list[float]:
    return _parse_list(text, float, "numbers")


def _convert(kind, raw: str, expected: str, text: str | None = None):
    """``kind(raw)``; if that fails, a usage error saying what was expected
    and which option text (``raw`` unless given) did not give it."""
    try:
        return kind(raw)
    except ValueError:
        shown = raw if text is None else text
        raise UsageError(f"{expected}, got {shown!r}") from None


def _build_net(args) -> ScalarNet:
    return ScalarNet.grid(step=args.net_step, max_len=args.max_n)


def _sequence_from_args(spec, args) -> list[SparseVector]:
    if getattr(args, "blocking", None):
        return list(nccb_from_blocking(spec, Blocking.parse(args.blocking)))
    if getattr(args, "vectors", None):
        doc = _read_json("--vectors", _VECTORS_FORM, path=args.vectors)
        if type(doc) is list:
            try:
                return [SparseVector.from_pairs(pairs) for pairs in doc]
            except (_PairFormError, TypeError):  # other vector faults name themselves
                pass
        raise ValueError(f"--vectors file {args.vectors!r} does not hold {_VECTORS_FORM}")
    raise UsageError("provide a sequence via --blocking or --vectors")


def _coloring_from_args(args, kind: str, ground: int, spec=None, arity: int | None = None) -> Coloring:
    text = args.coloring
    name, _, param = text.partition(":")
    if name == "min-parity" and kind == "set":
        return min_parity_coloring(ground)
    if name == "size-parity" and kind == "set":
        return size_parity_coloring(ground)
    if name == "sum-parity" and kind == "set":
        return Coloring(
            kind="set", colors=2, ground=ground,
            fn=lambda E: sum(E.elements) % 2, name="sum-parity",
        )
    if name == "constant":
        color = _convert(int, param or "0", "--coloring constant:v needs an integer v", text)
        return constant_coloring(ground, color, kind=kind, arity=arity)
    if name == "first-min-parity" and kind == "blocking":
        # exact classes: the min of a union is the min of its lower set
        return Coloring(
            kind="blocking", colors=2, ground=ground, arity=arity,
            fn=lambda blocks: blocks[0].min() % 2, name="first-min-parity",
            classes=BlockClasses(of=lambda i, e: e[0] % 2 if i == 0 else -1, color=lambda key: key[0]),
        )
    if name == "norm-quant" and kind == "blocking":
        if spec is None:
            raise UsageError("norm-quant coloring needs --space")
        coeffs = _parse_floats(args.coeffs)
        return norm_quantization_coloring(spec, coeffs, args.quantum, ground)
    if name == "table":
        return load_coloring_table(param, kind=kind, ground=ground, arity=arity)
    raise UsageError(f"unknown {kind} coloring {text!r}")


# ---------------------------------------------------------------------------
# Report emission
# ---------------------------------------------------------------------------


def _emit(args, report, rows: list[list] | None = None) -> None:
    """Write ``report`` in ``args.format``, building only what that format prints.

    ``report`` is a result dict, written as CSV through ``rows`` when given
    and as key/value rows otherwise, or a report whose ``to_doc`` gives the
    result and whose ``to_rows`` gives the CSV table.  A report that would
    hold an infinite or NaN number is refused, and nothing is written.
    """
    command = args.command
    # every option of the parsed subcommand, keyed by its option name
    config = {k.replace("_", "-"): v for k, v in vars(args).items() if k not in ("command", "fn")}
    if args.format == "json":
        envelope = {
            "tool": "banachkit",
            "version": __version__,
            "command": command,
            "config": config,
            "result": report if isinstance(report, dict) else report.to_doc(),
        }
        try:
            text = json.dumps(envelope, sort_keys=True, allow_nan=False)
        except ValueError:
            _check_finite("field config", config)
            _check_finite("field result", envelope["result"])
            raise
        sys.stdout.write(text)
        sys.stdout.write("\n")
    else:
        _check_finite("field config", config)
        if isinstance(report, dict):
            _check_finite("field result", report)
            table = rows if rows is not None else _flatten_rows(report)
        else:
            table = report.to_rows()
            for number, row in enumerate(table[1:], 1):
                for name, value in zip(table[0], row):
                    _check_finite(f"column {name} in row {number}", value)
        import csv  # on use: a slow import that JSON reports do not need

        buffer = io.StringIO()
        writer = csv.writer(buffer, lineterminator="\n")
        for row in table:
            writer.writerow(row)
        sys.stdout.write(f"# banachkit {__version__} {command}\n")
        sys.stdout.write("# config: " + json.dumps(config, sort_keys=True) + "\n")
        sys.stdout.write(buffer.getvalue())


def _check_finite(where: str, value) -> None:
    """Refuse ``value`` if it is or holds an infinite or NaN float, naming
    where (dict keys walked in sorted order, as reports print them)."""
    if type(value) is float and not math.isfinite(value):
        raise ValueError(f"report {where} is {value!r}; a JSON or CSV report holds only finite numbers")
    if type(value) is dict:
        for key in sorted(value):
            _check_finite(f"{where}.{key}", value[key])
    elif type(value) is list or type(value) is tuple:
        for i, item in enumerate(value):
            _check_finite(f"{where}[{i}]", item)


def _flatten_rows(result: dict) -> list[list]:
    rows = [["key", "value"]]
    def walk(prefix: str, value):
        if isinstance(value, dict):
            for k in sorted(value):
                walk(f"{prefix}.{k}" if prefix else str(k), value[k])
        elif isinstance(value, list):
            rows.append([prefix, json.dumps(value, sort_keys=True)])
        else:
            rows.append([prefix, value])
    walk("", result)
    return rows


# ---------------------------------------------------------------------------
# Commands
# ---------------------------------------------------------------------------


def _cmd_norm(args) -> int:
    spec = _load_space(args.space)
    vector = SparseVector.parse(args.vector)
    result = {
        "space": spec.to_doc(),
        "vector": vector.to_pairs(),
        "norm": spec.norm(vector),
    }
    _emit(args, result, rows=[["norm"], [result["norm"]]])
    return EXIT_OK


def _cmd_verify_example_space(args) -> int:
    ps = _parse_floats(args.ps)
    report = verify_example_space(args.p, ps, args.trials, seed=args.seed)
    result = report.to_doc()
    if report.vacuous:
        result["warning"] = "trials=0: sandwich check is vacuous"
    _emit(args, result)
    return EXIT_OK if report.passed else EXIT_CHECKS_FAILED


def _demo_sequence(name: str):
    if name == "interleave-oscillation":
        spec = Interleave(Lp(1.0), Lp(2.0), outer="max")
        odd = BlockSequence([SparseVector.unit(2 * i - 1) for i in range(1, 13)])
        even = BlockSequence([SparseVector.unit(2 * i) for i in range(1, 13)])
        arr = interleave_array(odd, even, m=2, rows=8)
        tree = tree_from_array(arr, depth=8, width=2)
        seq = list(branch(tree, range(1, 9)))
        return spec, seq, ScalarNet.of([(1.0, 1.0)])
    raise UsageError(f"unknown demo {name!r}")


def _cmd_goodness(args) -> int:
    if args.demo:
        spec, seq, net = _demo_sequence(args.demo)
    else:
        if not args.space:
            raise UsageError("--space is required without --demo")
        spec = _load_space(args.space)
        seq = _sequence_from_args(spec, args)
        net = _build_net(args)
    K, H = (args.horizon if args.horizon else (1, None))
    report = goodness_test(spec, seq, net, K=K, H=H, epsilon=args.epsilon)
    _emit(args, report)
    return EXIT_OK


def _cmd_spreading(args) -> int:
    spec = _load_space(args.space)
    seq = _sequence_from_args(spec, args)
    net = _build_net(args)
    horizons = _parse_ints(args.horizons)
    report = spreading_model_estimate(
        spec, seq, net, horizons, H=args.window, fit_reference_p=args.fit_p
    )
    _emit(args, report)
    return EXIT_OK


def _cmd_equivalence(args) -> int:
    spec = _load_space(args.space)
    seq = _sequence_from_args(spec, args)
    n = len(seq) if args.ref_n is None else args.ref_n
    ref_p = _convert(float, args.ref_p, "--ref-p needs a number")
    report = equivalence_constant(spec, seq, LpReference(ref_p, n), net_step=args.net_step)
    _emit(args, report.to_doc())
    return EXIT_OK


def _cmd_game(args) -> int:
    spec = _load_space(args.space)
    subspace = strategy_from_name(args.subspace, "subspace-player")
    vector = strategy_from_name(args.vector_player, "vector-player")
    transcript = play(spec, subspace, vector, args.rounds)
    _emit(args, transcript.to_doc())
    return EXIT_OK


def _cmd_stabilized(args) -> int:
    spec = _load_space(args.space)
    schedule = _parse_ints(args.schedule)
    verdict = asymptotic_lp_verdict(
        spec,
        p=_convert(float, args.p, "--p needs a number"),
        n=args.n,
        schedule=schedule,
        epsilon=args.epsilon,
        window=args.window,
        seed=args.seed,
        samples=args.samples,
    )
    _emit(args, verdict)
    return EXIT_OK


def _emit_search(args, cert, verify) -> int:
    """Emit a search certificate with ``certificate_verified``: ``verify(cert)``
    when a witness was found, else True; a failed check exits 1."""
    sound = verify(cert) if cert.found else True
    _emit(args, cert.to_doc() | {"certificate_verified": sound})
    return EXIT_OK if sound else EXIT_CHECKS_FAILED


def _cmd_ramsey(args) -> int:
    coloring = _coloring_from_args(args, "set", args.M)
    cert = ramsey_search(coloring, args.k, args.L)
    return _emit_search(args, cert, lambda cert: verify_ramsey_certificate(coloring, args.k, cert))


def _cmd_hindman(args) -> int:
    coloring = _coloring_from_args(args, "set", args.M)
    cert = hindman_search(coloring, args.M, args.L)
    return _emit_search(args, cert, lambda cert: verify_hindman_certificate(coloring, cert))


def _cmd_milliken(args) -> int:
    spec = _load_space(args.space) if args.space else None
    if args.P.startswith("singletons:"):
        M = _convert(int, args.P[len("singletons:"):], "--P singletons:M needs an integer M", args.P)
        P = Blocking.singletons(M)
    else:
        P = Blocking.parse(args.P)
    if not len(P):
        raise UsageError("--P must have at least one block (singletons:M needs M >= 1)")
    ground = P[-1].max()
    coloring = _coloring_from_args(args, "blocking", ground, spec=spec, arity=args.k)
    cert = milliken_taylor_search(coloring, P, args.k, args.L)
    return _emit_search(args, cert, lambda cert: verify_milliken_taylor_certificate(coloring, args.k, cert))


def _cmd_stabilize_nccb(args) -> int:
    spec = _load_space(args.space)
    net = _build_net(args)
    result = nccb_stabilize(spec, args.M, net, epsilon=args.epsilon, quantum=args.quantum)
    doc = result.to_doc()
    ok = True
    if args.verify:
        ok = verify_stabilization(spec, result, net)
        doc["verified_monochromatic"] = ok
    _emit(args, doc)
    return EXIT_OK if ok else EXIT_CHECKS_FAILED


def _cmd_krivine_p(args) -> int:
    spec = _load_space(args.space)
    report = krivine_p_estimate(spec, args.max_n, start=args.start)
    _emit(args, report.to_doc())
    return EXIT_OK


def _cmd_extract(args) -> int:
    spec = _load_space(args.space)
    seq = _sequence_from_args(spec, args)
    net = _build_net(args)
    result = brunel_sucheston_extract(spec, seq, net, target_len=args.target_len)
    _emit(args, result.to_doc())
    return EXIT_OK


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------


def _horizon(text: str) -> tuple[int, int]:
    parts = _parse_ints(text)
    if len(parts) != 2:
        raise argparse.ArgumentTypeError("horizon must be K,H")
    if parts[0] < 1 or parts[1] < 0:
        raise argparse.ArgumentTypeError(f"horizon needs K >= 1 and H >= 0, got {text!r}")
    return parts[0], parts[1]


def _net_step(text: str) -> float:
    try:
        step = float(text)
    except ValueError:
        step = math.nan
    if not 0.0 < step < math.inf:
        raise argparse.ArgumentTypeError(f"must be a finite number > 0, got {text!r}")
    return step


def _at_least(minimum: int):
    """Argument type: an integer >= ``minimum``."""

    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            value = minimum - 1
        if value < minimum:
            raise argparse.ArgumentTypeError(f"must be an integer >= {minimum}, got {text!r}")
        return value

    return parse


# Options shared by several commands: (flag, add_argument kwargs) pairs and tuples of them
_SEED_FORMAT = (
    ("--seed", dict(type=int, default=0)),
    ("--format", dict(choices=("json", "csv"), default="json")),
)
_NET = (*_SEED_FORMAT, ("--net-step", dict(type=_net_step, default=0.25)))
_NET_MAX_N = (*_NET, ("--max-n", dict(type=int, default=2)))
_SPACE = ("--space", dict(required=True))
_SEQUENCE = (
    ("--blocking", dict(help="NCCB sequence over this blocking, e.g. '1,2|4|7,8'")),
    ("--vectors", dict(help="JSON file: list of vectors as index/coefficient pairs")),
)
_COLORING = ("--coloring", dict(required=True))
_M = ("--M", dict(type=int, required=True))
_K = ("--k", dict(type=int, required=True))
_L = ("--L", dict(type=int, required=True))

# (name, help, handler, options in --help order)
_COMMANDS = (
    ("norm", "norm of a vector in a space", _cmd_norm, (
        _SPACE,
        ("--vector", dict(required=True, help="e.g. '1:1,2:-0.5'")),
        *_SEED_FORMAT,
    )),
    ("verify-example-space", "sandwich bounds and type-p failure checks", _cmd_verify_example_space, (
        ("--p", dict(type=float, default=2.0)),
        ("--ps", dict(default="1,1.5,1.8")),
        ("--trials", dict(type=int, default=1000)),
        *_SEED_FORMAT,
    )),
    ("goodness", "oscillation of combination norms over a window", _cmd_goodness, (
        ("--space", {}), *_SEQUENCE,
        ("--demo", dict(choices=("interleave-oscillation",))),
        ("--epsilon", dict(type=float, default=1e-6)),
        ("--horizon", dict(type=_horizon, help="K,H window")),
        *_NET_MAX_N,
    )),
    ("spreading", "per-tuple limit estimates at horizons", _cmd_spreading, (
        _SPACE, *_SEQUENCE,
        ("--horizons", dict(required=True, help="e.g. '1,3,68'")),
        ("--window", dict(type=_at_least(0), default=None)),
        ("--fit-p", dict(action="store_true")),
        *_NET_MAX_N,
    )),
    ("equivalence", "two-sided equivalence constant against lp(p,n)", _cmd_equivalence, (
        _SPACE, *_SEQUENCE,
        ("--ref-p", dict(default="2")),
        ("--ref-n", dict(type=_at_least(1), default=None)),
        *_NET,
    )),
    ("game", "run the subspace-vs-vector game", _cmd_game, (
        _SPACE,
        ("--subspace", dict(default="tail:1", help="constant:m or tail:lead")),
        ("--vector-player", dict(default="unit", help="unit, nccb:width or net:window:pick")),
        ("--rounds", dict(type=_at_least(0), default=4)),
        *_SEED_FORMAT,
    )),
    ("stabilized", "sampled C(N,n) table over a cutoff schedule", _cmd_stabilized, (
        _SPACE,
        ("--p", dict(default="2")),
        ("--n", dict(type=_at_least(1), default=2)),
        ("--schedule", dict(default="1,10,100")),
        ("--epsilon", dict(type=float, default=0.1)),
        ("--window", dict(type=_at_least(0), default=24)),
        ("--samples", dict(type=_at_least(0), default=40)),
        *_SEED_FORMAT,
    )),
    ("ramsey", "monochromatic k-subset search", _cmd_ramsey, (_COLORING, _M, _K, _L, *_SEED_FORMAT)),
    ("hindman", "monochromatic finite-union blocking search", _cmd_hindman, (_COLORING, _M, _L, *_SEED_FORMAT)),
    ("milliken", "monochromatic coarsening-family search", _cmd_milliken, (
        _COLORING,
        ("--P", dict(required=True, help="blocking, or singletons:M")),
        _K, _L,
        ("--space", {}),
        ("--coeffs", dict(default="1,1")),
        ("--quantum", dict(type=float, default=0.05)),
        *_SEED_FORMAT,
    )),
    ("stabilize-nccb", "coarsen until NCCB norms stabilize per net tuple", _cmd_stabilize_nccb, (
        _SPACE, _M,
        ("--epsilon", dict(type=float, default=0.1)),
        ("--quantum", dict(type=float, default=0.05)),
        ("--verify", dict(
            action="store_true", help="color the class tuple of every coarsening of the result")),
        *_NET_MAX_N,
    )),
    ("krivine-p", "growth-slope estimate of the Krivine exponent", _cmd_krivine_p, (
        _SPACE,
        ("--max-n", dict(type=int, default=16)),
        ("--start", dict(type=_at_least(1), default=1)),
        *_SEED_FORMAT,
    )),
    ("extract", "diagonal subsequence extraction with post-verification", _cmd_extract, (
        _SPACE, *_SEQUENCE,
        ("--target-len", dict(type=_at_least(1), default=None)),
        *_NET_MAX_N,
    )),
)


def build_parser(command: str | None = None) -> argparse.ArgumentParser:
    """The ``banachkit`` parser for ``command`` only, or for every command
    when ``command`` is None.

    The top-level usage names every command either way, so the usage in an
    error message does not depend on ``command``.
    """
    parser = argparse.ArgumentParser(prog="banachkit", description=__doc__)
    parser.add_argument("--version", action="version", version=f"banachkit {__version__}")
    # with one choice, name all of them as argparse does; without a command,
    # the metavar would also replace ``command`` in the "required" error
    metavar = None if command is None else _COMMAND_METAVAR
    commands = parser.add_subparsers(dest="command", required=True, metavar=metavar)
    for name, help_text, handler, options in _COMMANDS:
        if command in (None, name):
            sub = commands.add_parser(name, help=help_text)
            for flag, kwargs in options:
                sub.add_argument(flag, **kwargs)
            sub.set_defaults(fn=handler)
    return parser


_COMMAND_NAMES = frozenset(name for name, _, _, _ in _COMMANDS)
_COMMAND_METAVAR = "{" + ",".join(name for name, _, _, _ in _COMMANDS) + "}"


def main(argv: Sequence[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    # The top-level parser has no option that takes a value, so a command name
    # in first place is the command argparse dispatches to, and the other
    # subparsers never read their options.
    parser = build_parser(argv[0] if argv and argv[0] in _COMMAND_NAMES else None)
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on usage errors and 0 on --help; pass both through
        return int(exc.code or 0)
    try:
        return args.fn(args)
    except UsageError as exc:
        sys.stderr.write(f"usage error: {exc}\n")
        return EXIT_USAGE
    except (ValueError, OSError, json.JSONDecodeError, KeyError) as exc:
        # str() of a KeyError quotes its message
        sys.stderr.write(f"config error: {exc.args[0] if isinstance(exc, KeyError) else exc}\n")
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
