"""Goodness detection, spreading-model estimation, and stabilization.

A finite coefficient net stands in for "all scalar tuples": the default is
every tuple with coordinates on a uniform grid in [-1, 1] up to a maximum
length.  A sequence is *good within tolerance* when, for every net tuple a,
the values ||sum_i a_i y_{k_i}|| over all increasing index tuples drawn
from a window oscillate by at most epsilon.  Verdicts are deliberately
three-valued (good-within-tolerance / oscillating / inconclusive): a finite
net and a finite window can refute goodness but never prove the infinite
statement, and a window that does not fit the sequence is reported rather
than silently passed.

The extraction and stabilization procedures reuse the combinatorial
searches on norm-quantization colorings: values landing in a common cell of
width ``quantum`` oscillate by less than ``quantum``, which turns "find a
stabilized sub-structure" into "find a monochromatic one".
"""

from __future__ import annotations

import itertools
import math
from collections import Counter
from dataclasses import dataclass, replace
from random import Random
from typing import Callable, Iterable, Sequence

from .blockseq import BlockSequence, CombinationNorm, _sign_free, nccb_from_blocking
from .combinatorics import (
    Blocking,
    BlockClasses,
    Coloring,
    FiniteSet,
    _Report,
    _check_at_least,
    _table,
    milliken_taylor_search,
    ramsey_search,
)
from .spaces import (
    INF,
    LpSum,
    SparseVector,
    SpaceSpec,
    _check_exponent,
    _p_doc,
    _reject_coefficient,
    _sum_left,
    combination_norm,
    make_example_space,
    type_p_witness,
)

__all__ = [
    "ScalarNet",
    "GoodnessRecord",
    "GoodnessReport",
    "goodness_test",
    "SpreadingRecord",
    "SpreadingEstimate",
    "spreading_model_estimate",
    "LpReference",
    "SequenceReference",
    "EquivalenceReport",
    "equivalence_constant",
    "ExtractionResult",
    "brunel_sucheston_extract",
    "StabilizationStep",
    "StabilizationResult",
    "nccb_stabilize",
    "verify_stabilization",
    "norm_quantization_coloring",
    "KrivineReport",
    "krivine_p_estimate",
    "ExampleSpaceReport",
    "verify_example_space",
]

VERDICT_GOOD = "good-within-tolerance"
VERDICT_OSCILLATING = "oscillating"
VERDICT_INCONCLUSIVE = "inconclusive"


# ---------------------------------------------------------------------------
# Coefficient nets
# ---------------------------------------------------------------------------


# The most tuples ``ScalarNet.grid`` builds, far above the 7 376 of step 0.25
# at length 4, the largest net of the documented and tested runs.
_NET_LIMIT = 1_000_000


@dataclass(frozen=True)
class ScalarNet:
    """Finite list of coefficient tuples standing in for all of [-1,1]^n.

    ``grid`` builds the default net: all tuples of length 1..max_len with
    coordinates multiples of ``step`` in [-1, 1], the all-zero tuples
    removed, ordered by (length, lexicographic).  Every signed unit tuple up
    to max_len is on the grid by construction.
    """

    tuples: tuple[tuple[float, ...], ...]
    step: float | None = None
    max_len: int = 0

    @classmethod
    def grid(cls, step: float = 0.25, max_len: int = 4) -> "ScalarNet":
        if not 0 < step <= 2:
            raise ValueError(f"net step {step} out of range")
        if max_len < 1:
            raise ValueError(f"net max_len {max_len} must be >= 1: the net would be empty")
        k = round(1.0 / step)
        if abs(k * step - 1.0) > 1e-9:
            raise ValueError(f"net step {step} must divide 1")
        # b^l - 1 nonzero tuples of each length l, counted before any is built,
        # in closed form while the count is short enough to write out
        b = 2 * k + 1
        digits = max_len * math.log10(b)
        size = (b ** (max_len + 1) - b) // (b - 1) - max_len if digits < 100 else f"about 10^{int(digits)}"
        if digits >= 100 or size > _NET_LIMIT:
            raise ValueError(
                f"net step {step} and max_len {max_len} give {size} tuples, past the limit of {_NET_LIMIT}"
            )
        values = [i * step for i in range(-k, k + 1)]
        tuples = []
        for n in range(1, max_len + 1):
            # bool(c) is c != 0.0 for every float, so any() drops the zero tuples
            tuples.extend(filter(any, itertools.product(values, repeat=n)))
        return cls(tuples=tuple(tuples), step=step, max_len=max_len)

    @classmethod
    def of(cls, tuples: Iterable[Sequence[float]]) -> "ScalarNet":
        normalized = tuple(tuple(float(c) for c in t) for t in tuples)
        if not normalized:
            raise ValueError("a scalar net needs at least one tuple")
        longest = max(len(t) for t in normalized)
        return cls(tuples=normalized, step=None, max_len=longest)

    def lengths(self) -> tuple[int, ...]:
        return tuple(sorted({len(t) for t in self.tuples}))

    def representatives(self, n: int, sign_free: bool) -> tuple[tuple[float, ...], ...]:
        """The first tuple of each distinct key among the length-n tuples.

        The key is ``|t|`` coordinatewise when ``sign_free`` and ``t`` itself
        otherwise.  Representatives come in net order: each key's first
        tuple sits where that tuple sits in ``tuples``.  The result is
        cached on the instance, outside the fields, so equality, hashing and
        ``to_doc`` ignore it.
        """
        cache = self.__dict__.setdefault("_representatives", {})
        reps = cache.get((n, sign_free))
        if reps is None:
            first: dict[tuple[float, ...], tuple[float, ...]] = {}
            for t in self.tuples:
                if len(t) == n:
                    first.setdefault(_sign_free(t) if sign_free else t, t)
            reps = cache[n, sign_free] = tuple(first.values())
        return reps

    def to_doc(self) -> dict:
        return {"step": self.step, "max_len": self.max_len, "size": len(self.tuples)}


# ---------------------------------------------------------------------------
# Goodness
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class GoodnessRecord(_Report):
    """Sup, inf and oscillation of one net tuple's norms over the window
    [K, K+H].  ``evaluations`` is the number of window tuples covered, not
    the number of norms computed: tuples whose blocks share coordinates
    share one computation."""

    coeffs: tuple[float, ...]
    K: int
    H: int
    feasible: bool
    sup: float | None
    inf: float | None
    oscillation: float | None
    estimate: float | None
    evaluations: int


@dataclass(frozen=True)
class GoodnessReport(_Report):
    """Window records of every net tuple and the verdict they give."""

    records: tuple[GoodnessRecord, ...]
    verdict: str
    epsilon: float
    K: int
    H: int
    net: ScalarNet
    diagnostics: tuple[str, ...] = ()

    def max_oscillation(self) -> float:
        values = [r.oscillation for r in self.records if r.oscillation is not None]
        return max(values) if values else 0.0

    def to_doc(self) -> dict:
        return super().to_doc() | {"max_oscillation": self.max_oscillation()}

    def to_rows(self) -> list[list]:
        return _table(self.records, ("coeffs", "K", "H", "sup", "inf", "oscillation", "estimate"))


def _check_epsilon(epsilon: float) -> None:
    if not 0.0 <= epsilon < math.inf:
        raise ValueError(f"epsilon must be finite and >= 0, got {epsilon!r}")


def _check_quantum(quantum: float) -> None:
    if not 0.0 < quantum < math.inf:
        raise ValueError(f"quantum must be finite and > 0, got {quantum!r}")


def _quantization(coeffs: Sequence[float], quantum: float, what: str) -> tuple[int, Callable[[float], int]]:
    """The color count and the cell of a norm, for combinations of normalized blocks under
    ``coeffs``, whose norms lie in [0, sum_i |a_i|]; ``what`` begins the refusal."""
    cells = _sum_left(map(abs, coeffs)) / quantum if quantum > 0.0 else math.inf
    if not cells < math.inf:
        raise ValueError(f"{what} no finite count of colors")
    # snap to 12 decimals first so values that are equal up to float noise
    # (different summation orders, block sizes) share a cell
    return math.ceil(cells) + 2, lambda value: int(math.floor(round(value, 12) / quantum))


def _record_for_tuple(norm_of: CombinationNorm, coeffs: Sequence[float], K: int, H: int) -> GoodnessRecord:
    """Window record for one tuple.  Its ``evaluations`` counts the window
    tuples the record covers, not the norms computed for it."""
    n = len(coeffs)
    feasible = K + H <= len(norm_of.seq) and n <= H + 1
    if not feasible:
        return GoodnessRecord(tuple(coeffs), K, H, False, None, None, None, None, 0)
    sup, inf = norm_of.window_extremes(coeffs, K, H)
    return GoodnessRecord(
        tuple(coeffs), K, H, True, sup, inf, sup - inf, (sup + inf) / 2.0, math.comb(H + 1, n)
    )


def goodness_test(
    spec: SpaceSpec,
    seq: Sequence[SparseVector],
    net: ScalarNet,
    K: int = 1,
    H: int | None = None,
    epsilon: float = 1e-6,
) -> GoodnessReport:
    """Measure per-tuple oscillation of combination norms over a window.

    For each net tuple of length n, evaluates ||sum a_i y_{k_i}|| over every
    increasing n-tuple with K <= k_1 and k_n <= K + H, where K >= 1 and
    H >= 0.  The verdict is good-within-tolerance iff every oscillation is
    <= epsilon; any window that does not fit the sequence makes the verdict
    inconclusive.
    """
    _check_epsilon(epsilon)
    seq = list(seq)
    if H is None:
        H = 3 * net.max_len
    if K < 1 or H < 0:
        raise ValueError(f"window needs K >= 1 and H >= 0, got K={K}, H={H}")
    norm_of = CombinationNorm(spec, seq)
    records = tuple(_record_for_tuple(norm_of, t, K, H) for t in net.tuples)
    diagnostics = []
    if any(not r.feasible for r in records):
        verdict = VERDICT_INCONCLUSIVE
        diagnostics.append(
            f"sequence of length {len(seq)} cannot host the window [{K}, {K + H}]"
        )
    elif all(r.oscillation <= epsilon for r in records):
        verdict = VERDICT_GOOD
    else:
        verdict = VERDICT_OSCILLATING
    return GoodnessReport(
        records=records, verdict=verdict, epsilon=epsilon, K=K, H=H, net=net,
        diagnostics=tuple(diagnostics),
    )


# ---------------------------------------------------------------------------
# Spreading-model estimates
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SpreadingRecord(_Report):
    """Spreading estimate of one coefficient tuple at one horizon."""

    coeffs: tuple[float, ...]
    horizon: int
    H: int
    feasible: bool
    estimate: float | None
    oscillation: float | None


@dataclass(frozen=True)
class SpreadingEstimate(_Report):
    """Spreading records over every horizon, with the fitted exponent."""

    records: tuple[SpreadingRecord, ...]
    horizons: tuple[int, ...]
    monotone_oscillation: bool
    fit_p: float | None

    def estimates_for(self, coeffs: Sequence[float]) -> list[tuple[int, float]]:
        wanted = tuple(coeffs)
        return [
            (r.horizon, r.estimate)
            for r in self.records
            if r.coeffs == wanted and r.estimate is not None
        ]

    def to_doc(self) -> dict:
        return super().to_doc() | {"fit_p": _p_doc(self.fit_p)}

    def to_rows(self) -> list[list]:
        return _table(self.records, ("coeffs", "horizon", "H", "estimate", "oscillation"))


def spreading_model_estimate(
    spec: SpaceSpec,
    seq: Sequence[SparseVector],
    net: ScalarNet,
    horizons: Sequence[int],
    H: int | None = None,
    fit_reference_p: bool = False,
) -> SpreadingEstimate:
    """Per-tuple limit estimates at increasing horizons.

    The estimate at horizon K is the midpoint of the observed sup and inf
    over the window [K, K+H]; the oscillation column shows how far from a
    limit the window still is.  ``fit_reference_p`` adds a log-log slope fit
    of the all-ones-tuple estimates against tuple length.
    """
    seq = list(seq)
    if H is None:
        H = 3 * net.max_len
    if not horizons:
        raise ValueError("need at least one horizon")
    if H < 0 or min(horizons) < 1:
        raise ValueError(f"need H >= 0 and every horizon >= 1, got H={H}, horizons={list(horizons)}")
    norm_of = CombinationNorm(spec, seq)
    records = []
    for K in sorted(horizons):
        for t in net.tuples:
            r = _record_for_tuple(norm_of, t, K, H)
            records.append(
                SpreadingRecord(r.coeffs, K, H, r.feasible, r.estimate, r.oscillation)
            )
    by_tuple: dict[tuple[float, ...], list[float]] = {}
    for r in records:
        if r.oscillation is not None:
            by_tuple.setdefault(r.coeffs, []).append(r.oscillation)
    monotone = all(
        all(b <= a + 1e-12 for a, b in zip(osc, osc[1:])) for osc in by_tuple.values()
    )
    fit_p = _fit_reference_p(records, max(horizons)) if fit_reference_p else None
    return SpreadingEstimate(
        records=tuple(records),
        horizons=tuple(sorted(horizons)),
        monotone_oscillation=monotone,
        fit_p=fit_p,
    )


def _fit_reference_p(records: Sequence[SpreadingRecord], final_horizon: int) -> float | None:
    """Slope fit of log(estimate of the all-ones tuple) against log(length)."""
    points = []
    for r in records:
        if r.horizon != final_horizon or r.estimate is None:
            continue
        if all(c == 1.0 for c in r.coeffs):
            points.append((math.log(len(r.coeffs)), math.log(max(r.estimate, 1e-300))))
    if len(points) < 2:
        return None
    xs = [p[0] for p in points]
    ys = [p[1] for p in points]
    if max(ys) - min(ys) < 1e-12:
        return math.inf
    import statistics  # on use: a slow import that few commands need

    slope = statistics.linear_regression(xs, ys).slope
    if slope <= 1e-12:
        return math.inf
    return 1.0 / slope


# ---------------------------------------------------------------------------
# Equivalence constants
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class LpReference:
    """The unit vector basis of l_p^n as a reference norm on coefficients."""

    p: float
    n: int

    def __post_init__(self):
        object.__setattr__(self, "p", _check_exponent(self.p))

    def coeff_norm(self, coeffs: Sequence[float]) -> float:
        if self.p == math.inf:
            return max(abs(c) for c in coeffs)
        if self.p == 1.0:
            return _sum_left(abs(c) for c in coeffs)
        if self.p == 2.0:
            return math.sqrt(_sum_left(c * c for c in coeffs))
        return _sum_left(abs(c) ** self.p for c in coeffs) ** (1.0 / self.p)

    def describe(self) -> dict:
        return {"kind": "lp", "p": _p_doc(self.p), "n": self.n}


@dataclass(frozen=True, init=False)
class SequenceReference:
    """An explicit sequence in an explicit space as the reference object."""

    spec: SpaceSpec
    seq: tuple[SparseVector, ...]

    def __init__(self, spec: SpaceSpec, seq: Sequence[SparseVector]):
        object.__setattr__(self, "spec", spec)
        object.__setattr__(self, "seq", tuple(seq))
        # outside the fields, so equality and hashing ignore it
        object.__setattr__(self, "_norm_of", CombinationNorm(spec, self.seq))

    @property
    def n(self) -> int:
        return len(self.seq)

    def coeff_norm(self, coeffs: Sequence[float]) -> float:
        if len(coeffs) > self.n:
            raise ValueError(f"{len(coeffs)} coefficients for {self.n} reference vectors")
        return self._norm_of(coeffs, range(1, len(coeffs) + 1))

    def describe(self) -> dict:
        return {"kind": "sequence", "space": self.spec.to_doc(), "n": self.n}


Reference = LpReference | SequenceReference


@dataclass(frozen=True)
class EquivalenceReport(_Report):
    """Two-sided equivalence bounds between a block tuple and a reference.

    ``lower`` is the largest observed ratio reference/sequence, ``upper``
    the largest sequence/reference ratio, and ``constant`` their product,
    so constant = 1 means the scanned net saw an isometry.  Certificates are
    the extremal tuples scaled onto the reference unit sphere; evaluating
    either ratio on its certificate reproduces the bound.  ``net_error`` is
    a first-order Lipschitz bound on how much a finer net could move any
    single norm value.
    """

    lower: float
    upper: float
    constant: float
    certificate_lower: tuple[float, ...]
    certificate_upper: tuple[float, ...]
    n: int
    net_step: float | None
    net_error: float
    reference: dict


def equivalence_constant(
    spec: SpaceSpec,
    seq: Sequence[SparseVector],
    reference: Reference,
    net: ScalarNet | None = None,
    net_step: float = 0.25,
) -> EquivalenceReport:
    """Scan a coefficient net for the two equivalence extremes.

    Ratios are scale invariant, so the scan runs over raw grid tuples of
    length n; certificates are reported normalized to the reference unit
    sphere.  Tuples of reference norm 0 are skipped (the grid has none); a
    net with no other tuple of length n raises ``ValueError``, and so does a
    tuple whose combination of the sequence has norm 0.

    Each representative's reference norm is computed once per reference and
    representatives tuple: the reference instance keeps the last tuple it
    scanned, found by identity so that it is not rehashed, with its norms,
    outside the fields (as ``ScalarNet.representatives`` keeps its cache), so
    equality, hashing, ``repr`` and ``describe()`` ignore the memo.  Each
    tuple is measured by ``spec.parts_norm`` on the sequence's coordinates
    and per-vector maxima, as ``CombinationNorm`` measures it; ``Lp`` scales
    from the maxima (the exactness argument is at ``spaces._lp_parts_norm``).
    """
    n = reference.n
    seq = list(seq)
    if len(seq) < n:
        raise ValueError(f"need at least {n} vectors, got {len(seq)}")
    head = seq[:n]
    if net is None:
        net = ScalarNet.grid(step=net_step, max_len=n)
    positions = tuple(range(1, n + 1))
    norm_of = CombinationNorm(spec, head)
    parts, tops, parts_norm = norm_of.parts, norm_of.tops, spec.parts_norm
    # Both norms ignore coefficient signs when the sequence side is
    # unconditional and the reference is l_p, so a ratio is a function of
    # the tuple's sign-free key.  Each key is scanned once, through its
    # first tuple in net order: the updates below take a strictly larger
    # ratio, so a later tuple of a key already seen never moves a bound,
    # and each bound's tuple is the first in net order to reach it.
    sign_free = norm_of.unconditional and isinstance(reference, LpReference)
    reps = net.representatives(n, sign_free)
    if not reps:
        raise ValueError(f"net contains no tuples of length {n}")

    # Exact, since coeff_norm is a pure function of the reference and t.  The
    # list is extended in scan order, so a scan that raises part way raises
    # where computing each norm afresh would.  The memo holds reps, so the
    # identity test cannot match another tuple.
    memo = reference.__dict__.get("_coeff_norms")
    if memo is None or memo[0] is not reps:
        memo = reference.__dict__["_coeff_norms"] = (reps, [])
    r_norms = memo[1]
    best_upper = -math.inf
    best_lower = -math.inf
    arg_upper = arg_lower = reps[0]
    for i, t in enumerate(reps):
        if i == len(r_norms):
            r_norms.append(reference.coeff_norm(t))
        r_norm = r_norms[i]
        if not r_norm > 0.0:
            continue
        s_norm = parts_norm(t, parts, tops) if parts is not None else norm_of(t, positions)
        if s_norm == 0.0:
            raise ValueError(
                f"the combination with coefficients {t} has norm 0: no lower bound exists"
            )
        ratio = s_norm / r_norm
        if ratio > best_upper:
            best_upper = ratio
            arg_upper = t
        if 1.0 / ratio > best_lower:
            best_lower = 1.0 / ratio
            arg_lower = t

    max_norm = max(spec.norm(v) for v in head)
    step = net.step if net.step is not None else net_step
    report = EquivalenceReport(
        lower=best_lower,
        upper=best_upper,
        constant=best_lower * best_upper,
        certificate_lower=_on_reference_sphere(arg_lower, reference),
        certificate_upper=_on_reference_sphere(arg_upper, reference),
        n=n,
        net_step=net.step,
        net_error=0.5 * step * n * max_norm,
        reference=reference.describe(),
    )
    return report


def _on_reference_sphere(coeffs: tuple[float, ...], reference: Reference) -> tuple[float, ...]:
    r = reference.coeff_norm(coeffs)
    if r == 0.0:
        # a certificate keeps the net's first tuple only when no ratio moved it
        raise ValueError(
            f"net contains no tuple of length {len(coeffs)} with a positive reference norm"
        )
    return tuple(c / r for c in coeffs)


# ---------------------------------------------------------------------------
# Diagonal extraction (finite Ramsey analogue)
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ExtractionStep(_Report):
    """Outcome of the subsequence search for one coefficient tuple."""

    coeffs: tuple[float, ...]
    epsilon: float
    found: bool
    selection: tuple[int, ...]
    nodes_explored: int


@dataclass(frozen=True)
class ExtractionResult(_Report):
    """Extracted subsequence indices, the steps that chose them and their goodness."""

    indices: tuple[int, ...]
    complete: bool
    certified: bool
    diagonalized: bool
    steps: tuple[ExtractionStep, ...]
    goodness: GoodnessReport


def brunel_sucheston_extract(
    spec: SpaceSpec,
    vectors: Sequence[SparseVector],
    net: ScalarNet,
    eps_schedule: Sequence[float] | Callable[[int], float] | None = None,
    target_len: int | None = None,
    norm_tol: float = 1e-9,
) -> ExtractionResult:
    """Greedy finite analogue of the diagonal subsequence extraction.

    For each net tuple in enumeration order, the current selection is
    refined to a sub-list on which all combination norms fall inside one
    quantization cell of width eps_m (found by the pruned Ramsey search on
    the quantized coloring), producing nested selections; the returned
    indices are the diagonal of that chain, extended by the tail of the
    final selection.  Failures to refine, an infeasible diagonal, or a
    failed goodness post-check are all flagged, never silently passed.
    """
    vectors = list(vectors)
    for v in vectors:
        if abs(spec.norm(v) - 1.0) > norm_tol:
            raise ValueError("extraction requires normalized input vectors")
    if target_len is None:
        target_len = max(2, len(vectors) // 2)
    _check_at_least("target_len", target_len, 1)

    def eps_of(m: int) -> float:
        if eps_schedule is None:
            return 2.0 ** (-m)
        if callable(eps_schedule):
            return float(eps_schedule(m))
        return float(eps_schedule[m - 1])

    norm_of = CombinationNorm(spec, vectors)
    selections: list[tuple[int, ...]] = []
    current = tuple(range(1, len(vectors) + 1))
    steps = []
    complete = True
    final_eps = 1.0
    for m, coeffs in enumerate(net.tuples, start=1):
        eps = eps_of(m)
        final_eps = eps
        n = len(coeffs)
        L = max(target_len, n)
        found = False
        if len(current) >= L:
            ground = current
            colors, cell = _quantization(
                coeffs, eps, f"extraction step m={m} with eps={eps!r} and coefficients {list(coeffs)} gives"
            )
            coloring = Coloring(
                kind="set",
                colors=colors,
                ground=len(ground),
                fn=lambda subset: cell(norm_of(coeffs, [ground[pos - 1] for pos in subset.elements])),
                name="norm-quantization",
            )
            cert = ramsey_search(coloring, k=n, L=L)
            if cert.found:
                current = tuple(ground[pos - 1] for pos in cert.witness.elements)
                found = True
            steps.append(ExtractionStep(tuple(coeffs), eps, cert.found, current, cert.nodes_explored))
        else:
            steps.append(ExtractionStep(tuple(coeffs), eps, False, current, 0))
        if not found:
            complete = False
        selections.append(current)

    # The diagonal rule needs the m-th selection to be at least m long.  With
    # more net tuples than selected vectors that is impossible; the final
    # selection is then returned instead, which is sound because it is nested
    # inside every earlier selection and so satisfies every processed
    # tolerance at once.
    diagonal_ok = all(len(sel) >= m for m, sel in enumerate(selections, start=1))
    if selections and diagonal_ok:
        chosen = [sel[m - 1] for m, sel in enumerate(selections, start=1)]
        chosen.extend(selections[-1][len(selections):])
        indices = tuple(chosen)
        diagonalized = True
    else:
        indices = current
        diagonalized = False

    picked = [vectors[i - 1] for i in indices]
    goodness = goodness_test(spec, picked, net, K=1, epsilon=final_eps)
    certified = goodness.verdict == VERDICT_GOOD
    return ExtractionResult(
        indices=indices,
        complete=complete,
        certified=certified,
        diagonalized=diagonalized,
        steps=tuple(steps),
        goodness=goodness,
    )


# ---------------------------------------------------------------------------
# NCCB stabilization via Milliken-Taylor on quantized colorings
# ---------------------------------------------------------------------------


def norm_quantization_coloring(
    spec: SpaceSpec,
    coeffs: Sequence[float],
    quantum: float,
    ground: int,
    cache: dict | None = None,
) -> Coloring:
    """Color a blocking by the quantized norm of the NCCB combination.

    f(E_1, ..., E_n) = floor( ||sum_i a_i y_{E_i}|| / quantum ) where each
    y_E is the normalized indicator of E.  Norms lie in [0, sum_i |a_i|], so
    they land in finitely many cells; a monochromatic family has oscillation
    below ``quantum``.  A ground set past a finite space raises here.

    Blocks fall into classes, one per ``spec.class_key`` of y_E, which says
    why the memos here are exact.  ``cache`` maps a block's elements to its
    class id, and its ``None`` entry holds the class table: the coordinates
    of each class's first block and the id of each key; colorings of one
    space may share it.  Each coloring memoizes colors by class tuple; its
    ``classes`` let the Milliken-Taylor search and ``verify_stabilization``
    color class tuples, with a merge memo, without listing coarsenings.
    """
    _check_quantum(quantum)
    coeffs = tuple(float(c) for c in coeffs)
    count, cell = _quantization(coeffs, quantum, f"quantum {quantum!r} and coefficients {list(coeffs)} give")
    # the largest odd and even indices reach furthest, in an Interleave too
    spec.coordinates(SparseVector.indicator(range(max(1, ground - 1), ground + 1)))
    class_of: dict = cache if cache is not None else {}
    class_coords, class_ids = class_of.setdefault(None, ([], {}))
    colors: dict[tuple[int, ...], int] = {}

    def class_id(elements: tuple[int, ...]) -> int:
        cid = class_of.get(elements)
        if cid is None:
            indicator = SparseVector.indicator(elements)
            coords = tuple(spec.coordinates(indicator.scale(1.0 / spec.norm(indicator))))
            cid = class_of[elements] = class_ids.setdefault(spec.class_key(coords), len(class_coords))
            if cid == len(class_coords):
                class_coords.append(coords)
        return cid

    # As in a combination, a block under a zero coefficient is never
    # normalized: its id is -1 and its coordinates are empty.
    def class_at(i: int, elements: tuple[int, ...]) -> int:
        return class_id(elements) if coeffs[i] != 0.0 else -1

    def fn(blocks: tuple[FiniteSet, ...]) -> int:
        # the blocks of a blocking are successively increasing
        return color_of(tuple([class_at(i, b.elements) for i, b in enumerate(blocks)]))

    def color_of(key: tuple[int, ...]) -> int:
        color = colors.get(key)
        if color is None:
            parts = [class_coords[cid] if cid >= 0 else () for cid in key]
            color = colors[key] = cell(combination_norm(spec, coeffs, parts))
        return color

    return Coloring(
        kind="blocking",
        colors=count,
        ground=ground,
        fn=fn,
        arity=len(coeffs),
        name="norm-quantization",
        classes=BlockClasses(of=class_at, color=color_of),
    )


@dataclass(frozen=True)
class StabilizationStep(_Report):
    """Search outcome of one net tuple and the blocking it leaves."""

    coeffs: tuple[float, ...]
    length: int
    found: bool
    color: int | None
    nodes_explored: int
    witness: Blocking


@dataclass(frozen=True)
class StabilizationResult(_Report):
    """Blocking stabilized against every net tuple at the quantum resolution.

    The returned blocking is the last witness of the nested search chain;
    being coarser than every earlier witness, its whole coarsening family is
    monochromatic for every processed tuple, so any NCCB built over any
    coarsening oscillates by at most quantum (+ epsilon headroom) per tuple.
    ``complete`` is False when the ground set was exhausted before every
    tuple could be stabilized; the deepest stabilized prefix is returned.
    """

    blocking: Blocking
    steps: tuple[StabilizationStep, ...]
    complete: bool
    epsilon: float
    quantum: float
    ground: int


def nccb_stabilize(
    spec: SpaceSpec,
    M: int,
    net: ScalarNet,
    epsilon: float,
    quantum: float,
) -> StabilizationResult:
    """Coarsen the singleton blocking of {1..M} until NCCB norms stabilize.

    For each net tuple, blockings are colored by the quantized NCCB
    combination norm and the Milliken-Taylor search looks for the longest
    coarsening of the current blocking whose own coarsenings are
    monochromatic (trying full length first, then shorter).  Constant
    colorings keep the blocking unchanged, so an exactly homogeneous space
    returns the identity blocking.

    Two exact sharing rules leave every color, witness and node count as a
    fresh coloring per tuple gives them.  In an unconditional space t, -t
    and |t| give their combination norms by the same float operations up to
    sign, so each such sign family (elsewhere, each tuple) has one coloring.
    With the one shared ``cache``, ``of`` and the merge memo depend only on
    which coefficients are zero, so colorings with one zero pattern share
    them and a memo of class walk steps (``BlockClasses.step``), differing
    only in ``color``.  A pattern that one tuple alone has gets no step
    memo: that tuple's searches differ in L, so none of its steps recurs.
    A pattern's colorings, and so its step memo, are dropped with its last
    tuple: each sign family has one zero pattern, so none is asked for again.
    """
    if M < 1:
        raise ValueError("ground bound M must be >= 1")
    _check_epsilon(epsilon)
    _check_quantum(quantum)
    current = Blocking.singletons(M)
    steps = []
    complete = True
    cache: dict = {}
    colorings: dict = {}  # by zero pattern, then by sign family
    patterns = [tuple(c != 0.0 for c in t) for t in net.tuples]
    repeats = Counter(patterns)
    for coeffs, pattern in zip(net.tuples, patterns):
        n = len(coeffs)
        repeats[pattern] -= 1  # now the pattern's tuples after this one
        shared = colorings.setdefault(pattern, {}) if repeats[pattern] else colorings.pop(pattern, {})
        if len(current) < n:
            complete = False
            steps.append(
                StabilizationStep(tuple(coeffs), len(current), False, None, 0, current)
            )
            continue
        family = _sign_free(coeffs) if spec.unconditional else tuple(coeffs)
        coloring = shared.get(family)
        if coloring is None:
            coloring = norm_quantization_coloring(spec, coeffs, quantum, M, cache=cache)
            if shared:
                walk = next(iter(shared.values())).classes
            else:
                # the pattern's first tuple, since a length that no longer fits never fits again
                walk = replace(coloring.classes, steps={} if repeats[pattern] else None)
            coloring = shared[family] = replace(coloring, classes=replace(walk, color=coloring.classes.color))
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


def verify_stabilization(
    spec: SpaceSpec,
    result: StabilizationResult,
    net: ScalarNet,
) -> bool:
    """Check, per tuple, that the result's length-n coarsenings are monochromatic.

    The check is the search's own certificate for P itself: each tuple's
    coloring asks ``milliken_taylor_search`` for a coarsening of P of length
    ``len(P)``.  That search has one candidate path, P's blocks one per
    node, and colors each length-n coarsening of P at the node of its last
    block, so it finds P exactly when all those colors are one.  It shares
    the search's class walk, so this is no independent check.  In an
    unconditional space the tuples t, -t and |t| color every blocking alike
    (their combination norms are the same float operations up to sign), so
    only each sign family's first tuple is colored.  As in
    ``nccb_stabilize``, colorings with one zero pattern share one class
    walk and its step memo; on the one path, every step of a pattern's later
    searches is a memo hit.
    """
    P = result.blocking
    cache: dict = {}
    for n in net.lengths():
        if len(P) < n:
            break
        walks: dict = {}  # by zero pattern, which fixes n
        for coeffs in net.representatives(n, spec.unconditional):
            coloring = norm_quantization_coloring(
                spec, coeffs, result.quantum, result.ground, cache=cache
            )
            walk = walks.setdefault(tuple(c != 0.0 for c in coeffs), replace(coloring.classes, steps={}))
            coloring = replace(coloring, classes=replace(walk, color=coloring.classes.color))
            if not milliken_taylor_search(coloring, P, n, len(P)).found:
                return False
    return True


# ---------------------------------------------------------------------------
# Krivine p estimate
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class KrivineReport(_Report):
    """Krivine exponent fitted to the growth of NCCB norms over singletons."""

    p_estimate: float
    slope: float
    r_squared: float
    norms: tuple[float, ...]
    monotone: bool
    start: int
    max_n: int

    def to_doc(self) -> dict:
        return super().to_doc() | {"p_estimate": _p_doc(self.p_estimate)}


def krivine_p_estimate(spec: SpaceSpec, max_n: int, start: int = 1) -> KrivineReport:
    """Estimate the Krivine exponent from NCCB growth over singletons.

    Fits log ||y_start + ... + y_{start+n-1}|| against log n by least
    squares and returns 1/slope; slope <= 0 maps to infinity (c_0-like
    growth).  Non-monotone growth is reported through the monotone flag and
    the goodness of fit.
    """
    if max_n < 4:
        raise ValueError("need max_n >= 4 for a meaningful fit")
    _check_at_least("start", start, 1)
    blocking = Blocking([FiniteSet([start + i]) for i in range(max_n)])
    parts = [spec.coordinates(y) for y in nccb_from_blocking(spec, blocking)]
    # the singletons are disjoint, so each prefix sum has exactly their
    # coordinates and unit coefficients reproduce its float operations
    ones = [1.0] * max_n
    norms = [combination_norm(spec, ones, parts[:n]) for n in range(1, max_n + 1)]
    xs = [math.log(n) for n in range(1, max_n + 1)]
    logs = [math.log(max(v, 1e-300)) for v in norms]
    monotone = all(b >= a - 1e-12 for a, b in zip(norms, norms[1:]))
    if max(logs) - min(logs) < 1e-12:
        return KrivineReport(math.inf, 0.0, 1.0, tuple(norms), monotone, start, max_n)
    import statistics  # on use: a slow import that few commands need

    slope = statistics.linear_regression(xs, logs).slope
    try:
        r_squared = statistics.correlation(xs, logs) ** 2
    except statistics.StatisticsError:
        r_squared = 1.0
    p = math.inf if slope <= 1e-12 else 1.0 / slope
    return KrivineReport(p, slope, r_squared, tuple(norms), monotone, start, max_n)


# ---------------------------------------------------------------------------
# Example-space verification (sandwich + type failure)
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ExampleSpaceReport(_Report):
    """Sandwich failures and type checks of the example space."""

    passed: bool
    trials: int
    sandwich_failures: tuple[dict, ...]
    type_checks: tuple[tuple[int, bool], ...]
    ns: tuple[int, ...]
    vacuous: bool


def _block_tuple_frames(spec: LpSum, max_n: int, max_block: int) -> list[tuple[list[int], int]]:
    """Per tuple length n = 1..max_n, the anchors a draw may start near and
    the span of its uniform start; they depend only on the space and n."""
    if max_n < 1 or max_block < 1:
        raise ValueError(f"max_n and max_block must be >= 1, got {max_n} and {max_block}")
    total = spec.total_dim
    joints = [1] + [hi + 1 for _, hi in (spec.segment_range(s) for s in range(1, len(spec.ns)))]
    frames = []
    for n in range(1, max_n + 1):
        budget = n * (max_block + 10) + 5
        anchors = [j for j in joints if j + budget <= total] or [1]
        frames.append((anchors, max(1, total - budget)))
    return frames


def _draw_block_tuple(
    spec: LpSum, rng: Random, frames: list[tuple[list[int], int]], max_block: int, constant_coefficients: bool
) -> tuple[list[list[int]], list[list[tuple[int, float]]]]:
    """Random normalized block tuple in an LpSum, biased toward segment joints.

    Returns, per block, its support and its normalized coefficients keyed
    for ``spec.coordinate_norm``.  A block is scaled by the float operations
    of ``SparseVector.scale`` (the products, dropped zeros and rejected
    non-finite values), so supports and coefficients are the entries of the
    vectors ``random_block_tuple`` returns.  ``frames`` is
    ``_block_tuple_frames(spec, max_n, max_block)``.

    The draw makes, in the same order, the calls on ``rng._randbelow`` and
    ``rng.random`` that ``randint``, ``choice``, ``uniform`` and ``sample``
    make.  Python documents only ``random()`` as reproducible across
    versions, so drawing through the public methods tied the tuples to
    their code just the same; ``tests/golden_hashes.py`` checks the draw
    against them on each interpreter.  In CPython 3.10 to 3.13, ``randint(a, b)`` is
    ``a + _randbelow(b - a + 1)``, ``choice(seq)`` is
    ``seq[_randbelow(len(seq))]`` and ``uniform(a, b)`` is
    ``a + (b - a) * random()``.  ``sample(range(c, c + m), k)`` with
    m = k + 6 always takes sample's pool branch, since its set size is 21
    for k <= 5 and at least 21 + 3k above, and the window loop below is
    that branch.  Calling the bound ``_randbelow`` keeps this exact for
    any subclass of ``Random``, including one that overrides only
    ``random()``.
    """
    below, random = rng._randbelow, rng.random
    keys_of, norm_of = spec.segment_keys, spec.coordinate_norm
    n = 1 + below(len(frames))
    anchors, span = frames[n - 1]
    if random() < 0.5:
        cursor = max(1, anchors[below(len(anchors))] - below(4))
    else:
        cursor = 1 + below(span)
    supports = []
    parts = []
    for _ in range(n):
        size = 1 + below(max_block)
        m = size + 6
        pool = list(range(cursor, cursor + m))
        window = []
        for i in range(size):
            j = below(m - i)
            window.append(pool[j])
            pool[j] = pool[m - i - 1]
        window.sort()
        if constant_coefficients:
            coeffs = [1.0] * size
        else:
            coeffs = [-1.0 + 2.0 * random() or 0.5 for _ in window]
        keys = keys_of(window)
        factor = 1.0 / norm_of(list(zip(keys, coeffs)))
        part = [
            (key, x)
            for key, c in zip(keys, coeffs)
            if (x := factor * c) != 0.0 and (-INF < x < INF or _reject_coefficient(x))
        ]
        supports.append(window if len(part) == size else [i for i, c in zip(window, coeffs) if factor * c])
        parts.append(part)
        cursor = window[-1] + 1 + below(5)
    return supports, parts


def _block_tuple_reach(max_n: int, max_block: int) -> int:
    """The largest index a block tuple drawn in a too short space can take.

    A block lies in the ``size + 6`` indices from the cursor on, and the next
    cursor is at most 5 past it, so ``n`` blocks from index 1 end by index
    ``n * (max_block + 10) - 4``.  A space long enough for the anchor budget
    keeps every tuple 10 short of its end; a shorter one starts every
    tuple at index 1.  So tuples fit a space exactly when its dimension is
    at least this reach at ``n = max_n``.
    """
    return max_n * (max_block + 10) - 4


def random_block_tuple(
    spec: LpSum,
    rng: Random,
    max_n: int = 4,
    max_block: int = 5,
    constant_coefficients: bool = False,
) -> BlockSequence:
    """Random normalized block tuple in an LpSum, biased toward segment joints."""
    frames = _block_tuple_frames(spec, max_n, max_block)
    supports, parts = _draw_block_tuple(spec, rng, frames, max_block, constant_coefficients)
    return BlockSequence(
        [SparseVector(zip(support, [x for _, x in part])) for support, part in zip(supports, parts)]
    )


def verify_example_space(
    p: float,
    ps: Sequence[float],
    trials: int,
    seed: int = 0,
    tol: float = 1e-9,
) -> ExampleSpaceReport:
    """Check the two-sided combination-norm bound and the type-p failure.

    Builds the space whose segment dimensions exceed s^(p*p_s/(p-p_s)),
    then over ``trials`` random normalized block tuples (y_i) and random
    coefficient tuples a verifies

        sum |a_i|^p <= ||sum a_i y_i||^p <= n^(p/p_{s0} - 1) * sum |a_i|^p

    with s0 the segment containing the first support point, and verifies
    that every segment defeats the type-p inequality at C = s.  The tuples
    are those of ``random_block_tuple`` at its default shape; a space too
    short to hold them is rejected before any is drawn.
    """
    _check_at_least("trials", trials, 0)
    spec = make_example_space(p, len(ps), ps)
    max_n, max_block = 4, 5
    reach = _block_tuple_reach(max_n, max_block)
    if spec.total_dim < reach:
        raise ValueError(
            f"example space of total dimension {spec.total_dim} cannot host the random "
            f"block tuples, which reach index {reach}"
        )
    rng = Random(seed)
    random = rng.random
    frames = _block_tuple_frames(spec, max_n, max_block)
    p, ps = spec.p, spec.ps
    failures: list[dict] = []
    for _ in range(trials):
        supports, parts = _draw_block_tuple(spec, rng, frames, max_block, False)
        n = len(parts)
        coeffs = [-1.0 + 2.0 * random() for _ in range(n)]  # uniform(-1.0, 1.0)
        value = combination_norm(spec, coeffs, parts)
        power_sum = 0.0
        for a in coeffs:
            power_sum += abs(a) ** p
        s0 = parts[0][0][0] + 1
        cap = n ** (p / ps[s0 - 1] - 1.0) * power_sum
        mid = value ** p
        if not (power_sum <= mid + tol and mid <= cap + tol):
            failures.append(
                {
                    "blocks": supports,
                    "vectors": [
                        [[i, x] for i, (_, x) in zip(support, part)]
                        for support, part in zip(supports, parts)
                    ],
                    "coeffs": coeffs,
                    "norm": value,
                    "lower": power_sum,
                    "upper": cap,
                    "segment": s0,
                }
            )
    type_checks = tuple(
        (s, type_p_witness(spec, s, float(s))) for s in range(1, len(spec.ns) + 1)
    )
    passed = not failures and all(ok for _, ok in type_checks)
    return ExampleSpaceReport(
        passed=passed,
        trials=trials,
        sandwich_failures=tuple(failures),
        type_checks=type_checks,
        ns=spec.ns,
        vacuous=trials == 0,
    )
