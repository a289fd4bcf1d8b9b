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
import csv
import io
import json
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
from .spaces import Interleave, Lp, SparseVector, space_from_doc

EXIT_OK = 0
EXIT_CHECKS_FAILED = 1
EXIT_USAGE = 2


class UsageError(Exception):
    pass


# ---------------------------------------------------------------------------
# Input plumbing
# ---------------------------------------------------------------------------


def _load_space(text: str):
    if text.lstrip().startswith("{"):
        doc = json.loads(text)
    else:
        with open(text, "r", encoding="utf-8") as handle:
            doc = json.load(handle)
    return space_from_doc(doc)


def _parse_ints(text: str) -> list[int]:
    return [int(chunk) for chunk in text.split(",") if chunk.strip()]


def _parse_floats(text: str) -> list[float]:
    return [float(chunk) for chunk in text.split(",") if chunk.strip()]


def _build_net(args) -> ScalarNet:
    return ScalarNet.grid(step=args.net_step, max_len=args.max_n)


def _sequence_from_args(spec, args) -> list[SparseVector]:
    if getattr(args, "blocking", None):
        return list(nccb_from_blocking(spec, Blocking.parse(args.blocking)))
    if getattr(args, "vectors", None):
        with open(args.vectors, "r", encoding="utf-8") as handle:
            doc = json.load(handle)
        return [SparseVector.from_pairs(pairs) for pairs in doc]
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
        return constant_coloring(ground, int(param or 0), kind=kind, arity=arity)
    if name == "first-min-parity" and kind == "blocking":
        return Coloring(
            kind="blocking", colors=2, ground=ground, arity=arity,
            fn=lambda blocks: blocks[0].min() % 2, name="first-min-parity",
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


def _emit(args, command: str, config: dict, result: dict, rows: list[list] | None = None) -> None:
    envelope = {
        "tool": "banachkit",
        "version": __version__,
        "command": command,
        "config": config,
        "result": result,
    }
    if args.format == "json":
        sys.stdout.write(json.dumps(envelope, sort_keys=True, allow_nan=False))
        sys.stdout.write("\n")
    else:
        sys.stdout.write(f"# banachkit {__version__} {command}\n")
        sys.stdout.write("# config: " + json.dumps(config, sort_keys=True) + "\n")
        buffer = io.StringIO()
        writer = csv.writer(buffer, lineterminator="\n")
        table = rows if rows is not None else _flatten_rows(result)
        for row in table:
            writer.writerow(row)
        sys.stdout.write(buffer.getvalue())


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


def _config_of(args, keys: Sequence[str]) -> dict:
    config = {"seed": getattr(args, "seed", None), "format": args.format}
    for key in keys:
        config[key] = getattr(args, key.replace("-", "_"), None)
    return config


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
    _emit(args, "norm", _config_of(args, ["space", "vector"]), result,
          rows=[["norm"], [result["norm"]]])
    return EXIT_OK


def _cmd_verify_example_space(args) -> int:
    ps = _parse_floats(args.ps)
    report = verify_example_space(args.p, ps, args.trials, seed=args.seed)
    result = report.to_doc()
    if report.vacuous:
        result["warning"] = "trials=0: sandwich check is vacuous"
    _emit(args, "verify-example-space", _config_of(args, ["p", "ps", "trials"]), result)
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
    config = _config_of(args, ["space", "blocking", "vectors", "demo", "net-step", "max-n", "epsilon", "horizon"])
    _emit(args, "goodness", config, report.to_doc(), rows=report.to_rows())
    return EXIT_OK


def _cmd_spreading(args) -> int:
    spec = _load_space(args.space)
    seq = _sequence_from_args(spec, args)
    net = _build_net(args)
    horizons = _parse_ints(args.horizons)
    report = spreading_model_estimate(
        spec, seq, net, horizons, H=args.window, fit_reference_p=args.fit_p
    )
    config = _config_of(args, ["space", "blocking", "vectors", "horizons", "net-step", "max-n", "window"])
    _emit(args, "spreading", config, report.to_doc(), rows=report.to_rows())
    return EXIT_OK


def _cmd_equivalence(args) -> int:
    spec = _load_space(args.space)
    seq = _sequence_from_args(spec, args)
    ref_p = float("inf") if args.ref_p == "inf" else float(args.ref_p)
    n = args.ref_n if args.ref_n else len(seq)
    report = equivalence_constant(
        spec, seq, LpReference(ref_p, n), net_step=args.net_step
    )
    config = _config_of(args, ["space", "blocking", "vectors", "ref-p", "ref-n", "net-step"])
    _emit(args, "equivalence", config, report.to_doc())
    return EXIT_OK


def _cmd_game(args) -> int:
    spec = _load_space(args.space)
    subspace = strategy_from_name(args.subspace, "subspace-player")
    vector = strategy_from_name(args.vector_player, "vector-player")
    transcript = play(spec, subspace, vector, args.rounds)
    config = _config_of(args, ["space", "subspace", "vector-player", "rounds"])
    _emit(args, "game", config, transcript.to_doc())
    return EXIT_OK


def _cmd_stabilized(args) -> int:
    spec = _load_space(args.space)
    schedule = _parse_ints(args.schedule)
    verdict = asymptotic_lp_verdict(
        spec,
        p=float("inf") if args.p == "inf" else float(args.p),
        n=args.n,
        schedule=schedule,
        epsilon=args.epsilon,
        window=args.window,
        seed=args.seed,
        samples=args.samples,
    )
    config = _config_of(args, ["space", "p", "n", "schedule", "epsilon", "window", "samples"])
    _emit(args, "stabilized", config, verdict.to_doc(), rows=verdict.to_rows())
    return EXIT_OK


def _cmd_ramsey(args) -> int:
    coloring = _coloring_from_args(args, "set", args.M)
    cert = ramsey_search(coloring, args.k, args.L)
    sound = verify_ramsey_certificate(coloring, args.k, cert) if cert.found else True
    result = cert.to_doc() | {"certificate_verified": sound}
    _emit(args, "ramsey", _config_of(args, ["coloring", "M", "k", "L"]), result)
    return EXIT_OK if sound else EXIT_CHECKS_FAILED


def _cmd_hindman(args) -> int:
    coloring = _coloring_from_args(args, "set", args.M)
    cert = hindman_search(coloring, args.M, args.L)
    sound = verify_hindman_certificate(coloring, cert) if cert.found else True
    result = cert.to_doc() | {"certificate_verified": sound}
    _emit(args, "hindman", _config_of(args, ["coloring", "M", "L"]), result)
    return EXIT_OK if sound else EXIT_CHECKS_FAILED


def _cmd_milliken(args) -> int:
    spec = _load_space(args.space) if args.space else None
    if args.P.startswith("singletons:"):
        P = Blocking.singletons(int(args.P.split(":", 1)[1]))
    else:
        P = Blocking.parse(args.P)
    ground = P[-1].max()
    coloring = _coloring_from_args(args, "blocking", ground, spec=spec, arity=args.k)
    cert = milliken_taylor_search(coloring, P, args.k, args.L)
    sound = verify_milliken_taylor_certificate(coloring, args.k, cert) if cert.found else True
    result = cert.to_doc() | {"certificate_verified": sound}
    _emit(args, "milliken", _config_of(args, ["coloring", "P", "k", "L", "space", "coeffs", "quantum"]), result)
    return EXIT_OK if sound else EXIT_CHECKS_FAILED


def _cmd_stabilize_nccb(args) -> int:
    spec = _load_space(args.space)
    net = _build_net(args)
    result = nccb_stabilize(spec, args.M, net, epsilon=args.epsilon, quantum=args.quantum)
    doc = result.to_doc()
    ok = True
    if args.verify:
        ok = verify_stabilization(spec, result, net)
        doc["verified_monochromatic"] = ok
    config = _config_of(args, ["space", "M", "net-step", "max-n", "epsilon", "quantum", "verify"])
    _emit(args, "stabilize-nccb", config, doc)
    return EXIT_OK if ok else EXIT_CHECKS_FAILED


def _cmd_krivine_p(args) -> int:
    spec = _load_space(args.space)
    report = krivine_p_estimate(spec, args.max_n, start=args.start)
    config = _config_of(args, ["space", "max-n", "start"])
    _emit(args, "krivine-p", config, report.to_doc())
    return EXIT_OK


def _cmd_extract(args) -> int:
    spec = _load_space(args.space)
    seq = _sequence_from_args(spec, args)
    net = _build_net(args)
    result = brunel_sucheston_extract(spec, seq, net, target_len=args.target_len)
    config = _config_of(args, ["space", "blocking", "vectors", "net-step", "max-n", "target-len"])
    _emit(args, "extract", config, result.to_doc())
    return EXIT_OK


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------


def _horizon(text: str) -> tuple[int, int]:
    parts = _parse_ints(text)
    if len(parts) != 2:
        raise argparse.ArgumentTypeError("horizon must be K,H")
    return parts[0], parts[1]


def _add_common(sub, net: bool = True):
    sub.add_argument("--seed", type=int, default=0)
    sub.add_argument("--format", choices=("json", "csv"), default="json")
    if net:
        sub.add_argument("--net-step", type=float, default=0.25)
        sub.add_argument("--max-n", type=int, default=2)


def _add_sequence_args(sub):
    sub.add_argument("--blocking", help="NCCB sequence over this blocking, e.g. '1,2|4|7,8'")
    sub.add_argument("--vectors", help="JSON file: list of vectors as index/coefficient pairs")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="banachkit", description=__doc__)
    parser.add_argument("--version", action="version", version=f"banachkit {__version__}")
    commands = parser.add_subparsers(dest="command", required=True)

    sub = commands.add_parser("norm", help="norm of a vector in a space")
    sub.add_argument("--space", required=True)
    sub.add_argument("--vector", required=True, help="e.g. '1:1,2:-0.5'")
    _add_common(sub, net=False)
    sub.set_defaults(fn=_cmd_norm)

    sub = commands.add_parser("verify-example-space", help="sandwich bounds and type-p failure checks")
    sub.add_argument("--p", type=float, default=2.0)
    sub.add_argument("--ps", default="1,1.5,1.8")
    sub.add_argument("--trials", type=int, default=1000)
    _add_common(sub, net=False)
    sub.set_defaults(fn=_cmd_verify_example_space)

    sub = commands.add_parser("goodness", help="oscillation of combination norms over a window")
    sub.add_argument("--space")
    _add_sequence_args(sub)
    sub.add_argument("--demo", choices=("interleave-oscillation",))
    sub.add_argument("--epsilon", type=float, default=1e-6)
    sub.add_argument("--horizon", type=_horizon, help="K,H window")
    _add_common(sub)
    sub.set_defaults(fn=_cmd_goodness)

    sub = commands.add_parser("spreading", help="per-tuple limit estimates at horizons")
    sub.add_argument("--space", required=True)
    _add_sequence_args(sub)
    sub.add_argument("--horizons", required=True, help="e.g. '1,3,68'")
    sub.add_argument("--window", type=int, default=None)
    sub.add_argument("--fit-p", action="store_true")
    _add_common(sub)
    sub.set_defaults(fn=_cmd_spreading)

    sub = commands.add_parser("equivalence", help="two-sided equivalence constant against lp(p,n)")
    sub.add_argument("--space", required=True)
    _add_sequence_args(sub)
    sub.add_argument("--ref-p", default="2")
    sub.add_argument("--ref-n", type=int, default=None)
    _add_common(sub)
    sub.set_defaults(fn=_cmd_equivalence)

    sub = commands.add_parser("game", help="run the subspace-vs-vector game")
    sub.add_argument("--space", required=True)
    sub.add_argument("--subspace", default="tail:1", help="constant:m or tail:lead")
    sub.add_argument("--vector-player", default="unit", help="unit or nccb:width")
    sub.add_argument("--rounds", type=int, default=4)
    _add_common(sub, net=False)
    sub.set_defaults(fn=_cmd_game)

    sub = commands.add_parser("stabilized", help="sampled C(N,n) table over a cutoff schedule")
    sub.add_argument("--space", required=True)
    sub.add_argument("--p", default="2")
    sub.add_argument("--n", type=int, default=2)
    sub.add_argument("--schedule", default="1,10,100")
    sub.add_argument("--epsilon", type=float, default=0.1)
    sub.add_argument("--window", type=int, default=24)
    sub.add_argument("--samples", type=int, default=40)
    _add_common(sub, net=False)
    sub.set_defaults(fn=_cmd_stabilized)

    sub = commands.add_parser("ramsey", help="monochromatic k-subset search")
    sub.add_argument("--coloring", required=True)
    sub.add_argument("--M", type=int, required=True)
    sub.add_argument("--k", type=int, required=True)
    sub.add_argument("--L", type=int, required=True)
    _add_common(sub, net=False)
    sub.set_defaults(fn=_cmd_ramsey)

    sub = commands.add_parser("hindman", help="monochromatic finite-union blocking search")
    sub.add_argument("--coloring", required=True)
    sub.add_argument("--M", type=int, required=True)
    sub.add_argument("--L", type=int, required=True)
    _add_common(sub, net=False)
    sub.set_defaults(fn=_cmd_hindman)

    sub = commands.add_parser("milliken", help="monochromatic coarsening-family search")
    sub.add_argument("--coloring", required=True)
    sub.add_argument("--P", required=True, help="blocking, or singletons:M")
    sub.add_argument("--k", type=int, required=True)
    sub.add_argument("--L", type=int, required=True)
    sub.add_argument("--space")
    sub.add_argument("--coeffs", default="1,1")
    sub.add_argument("--quantum", type=float, default=0.05)
    _add_common(sub, net=False)
    sub.set_defaults(fn=_cmd_milliken)

    sub = commands.add_parser("stabilize-nccb", help="coarsen until NCCB norms stabilize per net tuple")
    sub.add_argument("--space", required=True)
    sub.add_argument("--M", type=int, required=True)
    sub.add_argument("--epsilon", type=float, default=0.1)
    sub.add_argument("--quantum", type=float, default=0.05)
    sub.add_argument("--verify", action="store_true", help="exhaustively recolor the result")
    _add_common(sub)
    sub.set_defaults(fn=_cmd_stabilize_nccb)

    sub = commands.add_parser("krivine-p", help="growth-slope estimate of the Krivine exponent")
    sub.add_argument("--space", required=True)
    sub.add_argument("--max-n", type=int, default=16)
    sub.add_argument("--start", type=int, default=1)
    _add_common(sub, net=False)
    sub.set_defaults(fn=_cmd_krivine_p)

    sub = commands.add_parser("extract", help="diagonal subsequence extraction with post-verification")
    sub.add_argument("--space", required=True)
    _add_sequence_args(sub)
    sub.add_argument("--target-len", type=int, default=None)
    _add_common(sub)
    sub.set_defaults(fn=_cmd_extract)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
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
        sys.stderr.write(f"config error: {exc}\n")
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
