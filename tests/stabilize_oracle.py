"""NCCB stabilization with one fresh coloring per net tuple and no shared
walk, and the stabilization verify that walks the coarsenings itself.

``oracle_nccb_stabilize`` is the loop that ``analysis.nccb_stabilize`` ran
before it shared one coloring per sign family and one class walk per zero
pattern, kept as its oracle: each tuple builds its own norm-quantization
coloring, whose classes carry no step memo.  ``stabilize_mismatches``
compares the two on one space, ground set, net and quantum.

``walk_verify_stabilization`` is ``analysis.verify_stabilization`` as it
was before it asked the Milliken-Taylor search for P, with its own driver
of the class walk, ``walk_coarsening_colors``, copied verbatim; it colors
every class tuple and never stops early.  ``verify_mismatches`` compares
the two on seeded stabilization runs, each result checked at its own
quantum and at a finer one, and the blocking it started from, where
verdicts can be False.

Needs only the standard library and banachkit, so both the pytest suite and
``golden_hashes.py`` import it; pytest does not collect this file, since
its name does not start with ``test_``.
"""

from dataclasses import replace
from random import Random
from typing import Mapping

from banachkit.analysis import (
    ScalarNet,
    StabilizationResult,
    StabilizationStep,
    _check_epsilon,
    _check_quantum,
    nccb_stabilize,
    norm_quantization_coloring,
    verify_stabilization,
)
from banachkit.combinatorics import (
    _START,
    Blocking,
    Coloring,
    _check_ground,
    _class_step,
    milliken_taylor_search,
)
from banachkit.spaces import Interleave, InvalidVectorError, James, Lp, LpSum, make_example_space


def oracle_nccb_stabilize(spec, M, net, epsilon, quantum):
    if M < 1:
        raise ValueError("ground bound M must be >= 1")
    _check_epsilon(epsilon)
    _check_quantum(quantum)
    current = Blocking.singletons(M)
    steps = []
    complete = True
    cache: dict = {}
    for coeffs in net.tuples:
        n = len(coeffs)
        if len(current) < n:
            complete = False
            steps.append(
                StabilizationStep(tuple(coeffs), len(current), False, None, 0, current)
            )
            continue
        coloring = norm_quantization_coloring(spec, coeffs, quantum, M, cache=cache)
        # L = n always succeeds: a length-n blocking is its own only length-n coarsening
        for L in range(len(current), n - 1, -1):
            cert = milliken_taylor_search(coloring, current, k=n, L=L)
            if cert.found:
                break
        current = cert.witness
        steps.append(
            StabilizationStep(
                tuple(coeffs), len(current), True, cert.color, cert.nodes_explored, current
            )
        )
    return StabilizationResult(
        blocking=current,
        steps=tuple(steps),
        complete=complete,
        epsilon=epsilon,
        quantum=quantum,
        ground=M,
    )


def walk_coarsening_colors(coloring: Coloring, P: Blocking, k: int) -> set[int]:
    """The colors of the length-k coarsenings of P, for a coloring with ``classes``.

    P must lie in the ground set; its blocks walk through ``_class_step``
    and each distinct class tuple is colored once.
    """
    _check_ground(coloring, P)
    states: Mapping = _START
    keys: set[tuple[int, ...]] = set()
    for room, block in zip(range(len(P) - 1, -1, -1), P):
        states, finals = _class_step(coloring.classes, k, states, block.elements, room)
        keys |= finals
    return {coloring.classes.color(key) for key in keys}


def walk_verify_stabilization(spec, result, net) -> bool:
    P = result.blocking
    cache: dict = {}
    for n in net.lengths():
        if len(P) < n:
            break
        for coeffs in net.representatives(n, spec.unconditional):
            coloring = norm_quantization_coloring(
                spec, coeffs, result.quantum, result.ground, cache=cache
            )
            if len(walk_coarsening_colors(coloring, P, n)) > 1:
                return False
    return True


def _outcome(run):
    try:
        return run()
    except (InvalidVectorError, ValueError) as exc:
        return f"{type(exc).__name__}: {exc}"


def stabilize_mismatches(spec, M, net, quantum, epsilon=0.1):
    """A description of where ``nccb_stabilize`` and the oracle give other
    results or other errors, as a list of at most one line."""
    got = _outcome(lambda: nccb_stabilize(spec, M, net, epsilon, quantum))
    want = _outcome(lambda: oracle_nccb_stabilize(spec, M, net, epsilon, quantum))
    if got == want:
        return []
    return [f"stabilize {spec!r} M={M} quantum={quantum} net={list(net.tuples)}: {got!r}, oracle {want!r}"]


# (space, M, net, quantum) for fixed differential cases: nets with zeros,
# sign flips, repeated tuples and interleaved families and zero patterns, in
# unconditional and conditional spaces
STABILIZE_CASES = {
    "example": (
        make_example_space(2.0, 3, [1.0, 1.5, 1.8]), 10,
        ScalarNet.of([(1.0,), (-1.0,), (0.5, 0.0), (1.0, -0.5), (0.0, 0.5), (-1.0, 0.5), (0.5, 0.0), (-0.5, -0.0)]),
        0.05,
    ),
    # segments {1, 2}, {3, 4, 5}, {6..10}
    "lp_sum-crossing": (
        LpSum(2.0, (1.0, 1.5, 1.8), (2, 3, 5)), 10,
        ScalarNet.of([(1.0, -0.5), (0.5, 0.0), (-1.0, 0.5), (0.0, -0.5), (1.0, 0.5), (1.0, -0.5)]),
        0.1,
    ),
    "james": (
        James(), 8,
        ScalarNet.of([(1.0, -1.0), (0.0, 1.0), (-1.0, 1.0), (1.0, 1.0), (-0.0, 1.0), (1.0, -1.0)]),
        0.05,
    ),
    "interleave-lp-james": (
        Interleave(Lp(2.0), James(), "max"), 8,
        ScalarNet.of([(0.5,), (1.0, 0.5, 0.0), (-1.0, -0.5, 0.0), (0.0, 0.5, 1.0), (1.0, 0.5, 0.0)]),
        0.3,
    ),
}


# the seeds that the pytest suite and golden_hashes.py draw verify cases from
VERIFY_SEEDS = range(6)


def verify_results(spec, seed: int) -> tuple[ScalarNet, list[StabilizationResult]]:
    """A seeded grid net and three results to verify against it: a
    stabilization run over {1..M}, M in 3..10, that run's blocking checked at
    a quarter of its quantum, and the singleton blocking the run started
    from.  In l_p and c_0 every verdict is True, since normalized blocks
    there give every NCCB combination one norm."""
    rng = Random(seed)
    M = rng.randint(3, 10)
    step = rng.choice((0.25, 0.5, 1.0))
    net = ScalarNet.grid(step, rng.randint(1, 2 if step == 0.25 else 3))
    quantum = rng.choice((0.05, 0.1, 0.3))
    result = nccb_stabilize(spec, M, net, 0.1, quantum)
    return net, [result, replace(result, quantum=quantum / 4), replace(result, blocking=Blocking.singletons(M))]


def verify_mismatches(spec, seed: int) -> tuple[list[str], list]:
    """Where ``verify_stabilization`` and ``walk_verify_stabilization`` give
    another verdict or another error on the results of ``verify_results``,
    one line each, and the outcomes of the verify.  A space that cannot
    host the run gives no results."""
    try:
        net, results = verify_results(spec, seed)
    except (InvalidVectorError, ValueError):
        return [], []
    out, verdicts = [], []
    for result in results:
        got = _outcome(lambda: verify_stabilization(spec, result, net))
        want = _outcome(lambda: walk_verify_stabilization(spec, result, net))
        verdicts.append(got)
        if got != want:
            out.append(
                f"verify {spec!r} seed={seed} P={result.blocking.encode()} quantum={result.quantum}: "
                f"{got!r}, oracle {want!r}"
            )
    return out, verdicts
