"""NCCB stabilization with one fresh coloring per net tuple and no shared walk.

``oracle_nccb_stabilize`` is the loop that ``analysis.nccb_stabilize`` ran
before it shared one coloring per sign family and one class walk per zero
pattern, kept as its oracle: each tuple builds its own norm-quantization
coloring, whose classes carry no step memo.  ``stabilize_mismatches``
compares the two on one space, ground set, net and quantum.  Needs only the
standard library and banachkit, so both the pytest suite and
``golden_hashes.py`` import it; pytest does not collect this file, since
its name does not start with ``test_``.
"""

from banachkit.analysis import (
    ScalarNet,
    StabilizationResult,
    StabilizationStep,
    _check_epsilon,
    _check_quantum,
    nccb_stabilize,
    norm_quantization_coloring,
)
from banachkit.combinatorics import Blocking, milliken_taylor_search
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
