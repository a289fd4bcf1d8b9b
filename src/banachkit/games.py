"""The subspace-vs-vector game and empirical asymptotic-lp constants.

The game alternates a subspace player (naming tail cutoffs m_i) with a
vector player (producing normalized finitely supported vectors supported
past the cutoff); the outcome of a run is the block sequence of played
vectors.  All constants computed here are explicitly empirical: the true
move space of the vector player is a unit sphere, so a net-sampled maximum
is a lower bound on adversarial play, and every report carries the net and
window parameters that produced it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from random import Random
from typing import Callable, Sequence

from .analysis import (
    EquivalenceReport,
    GoodnessReport,
    LpReference,
    ScalarNet,
    VERDICT_GOOD,
    equivalence_constant,
    goodness_test,
)
from .blockseq import BlockSequence, BlockTree, branch
from .spaces import SparseVector, SpaceSpec

__all__ = [
    "GameTranscript",
    "Strategy",
    "ProtocolViolationError",
    "play",
    "subspace_constant",
    "subspace_tail",
    "vector_unit",
    "vector_nccb",
    "vector_net",
    "strategy_from_name",
    "AsymptoticReport",
    "stabilized_constant",
    "AsymptoticVerdict",
    "asymptotic_lp_verdict",
    "BranchExtraction",
    "good_branch_extract",
]

NORMALIZATION_TOL = 1e-9


class ProtocolViolationError(ValueError):
    """A strategy emitted an illegal move; the message names the offender."""

    def __init__(self, offender: str, message: str):
        super().__init__(f"{offender}: {message}")
        self.offender = offender


# ---------------------------------------------------------------------------
# Transcripts and strategies
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class GameTranscript:
    """Alternating run (m_1, y_1, ..., m_n, y_n) with a block-sequence outcome."""

    moves: tuple[tuple[int, SparseVector], ...]

    @property
    def outcome(self) -> BlockSequence:
        return BlockSequence([y for _, y in self.moves])

    def to_doc(self) -> dict:
        return {
            "moves": [[m, y.to_pairs()] for m, y in self.moves],
            "outcome": self.outcome.to_doc(),
        }


@dataclass(frozen=True)
class Strategy:
    """Deterministic move rule for one of the two roles.

    Subspace rules map (completed rounds, spec) to a cutoff; vector rules
    map (completed rounds, pending cutoff, spec) to a vector.
    """

    role: str
    name: str
    rule: Callable

    def __post_init__(self):
        if self.role not in ("subspace-player", "vector-player"):
            raise ValueError(f"unknown role {self.role!r}")


def subspace_constant(m: int) -> Strategy:
    return Strategy("subspace-player", f"constant:{m}", lambda rounds, spec: m)


def subspace_tail(lead: int = 1) -> Strategy:
    """Cutoff one past the maximum support seen, plus an optional lead."""

    def rule(rounds, spec) -> int:
        if not rounds:
            return max(1, lead)
        return max(y.max_index() for _, y in rounds) + lead

    return Strategy("subspace-player", f"tail:{lead}", rule)


def vector_unit() -> Strategy:
    """Play the next admissible normalized unit basis vector."""

    def rule(rounds, cutoff: int, spec: SpaceSpec) -> SparseVector:
        past = max((y.max_index() for _, y in rounds), default=0)
        j = max(cutoff, past + 1)
        e = SparseVector.unit(j)
        return e.scale(1.0 / spec.norm(e))

    return Strategy("vector-player", "unit", rule)


def vector_nccb(width: int = 2) -> Strategy:
    """Play the normalized indicator of the next admissible index window."""

    def rule(rounds, cutoff: int, spec: SpaceSpec) -> SparseVector:
        past = max((y.max_index() for _, y in rounds), default=0)
        j = max(cutoff, past + 1)
        v = SparseVector.indicator(range(j, j + width))
        return v.scale(1.0 / spec.norm(v))

    return Strategy("vector-player", f"nccb:{width}", rule)


def vector_net(net: ScalarNet | None = None, window: int = 8, pick: int = 0) -> Strategy:
    """Draw the move from a declared net of normalized block vectors.

    Candidates are the net's coefficient tuples laid onto consecutive basis
    vectors inside the window of ``window`` indices past the cutoff, then
    normalized; ``pick`` selects one by enumeration index.  The true move
    space is the whole unit sphere of the tail subspace, which is not
    finitely enumerable; this is the declared finite stand-in.
    """
    chosen_net = net if net is not None else ScalarNet.grid(step=0.5, max_len=2)

    def rule(rounds, cutoff: int, spec: SpaceSpec) -> SparseVector:
        past = max((y.max_index() for _, y in rounds), default=0)
        j = max(cutoff, past + 1)
        candidates = [t for t in chosen_net.tuples if len(t) <= window]
        coeffs = candidates[pick % len(candidates)]
        v = SparseVector({j + i: c for i, c in enumerate(coeffs) if c != 0.0})
        return v.scale(1.0 / spec.norm(v))

    return Strategy("vector-player", f"net:{window}:{pick}", rule)


def strategy_from_name(text: str, role: str) -> Strategy:
    """Resolve ``name`` or ``name:param`` into a registered strategy."""
    name, _, param = text.partition(":")
    if role == "subspace-player":
        if name == "constant":
            return subspace_constant(int(param or 1))
        if name == "tail":
            return subspace_tail(int(param or 1))
    else:
        if name == "unit":
            return vector_unit()
        if name == "nccb":
            return vector_nccb(int(param or 2))
        if name == "net":
            parts = [int(x) for x in param.split(":") if x] if param else []
            window = parts[0] if parts else 8
            pick = parts[1] if len(parts) > 1 else 0
            return vector_net(window=window, pick=pick)
    raise ValueError(f"unknown {role} strategy {text!r}")


def play(spec: SpaceSpec, subspace: Strategy, vector: Strategy, n: int) -> GameTranscript:
    """Run n alternating rounds and enforce the outcome invariants.

    The vector player must answer each cutoff m_i with a normalized vector
    supported in [m_i, inf) and past all earlier supports; any violation
    raises naming the offending player.
    """
    if subspace.role != "subspace-player":
        raise ProtocolViolationError("subspace-player", f"strategy {subspace.name} has wrong role")
    if vector.role != "vector-player":
        raise ProtocolViolationError("vector-player", f"strategy {vector.name} has wrong role")
    rounds: list[tuple[int, SparseVector]] = []
    for _ in range(n):
        cutoff = subspace.rule(list(rounds), spec)
        if not isinstance(cutoff, int) or cutoff < 1:
            raise ProtocolViolationError("subspace-player", f"illegal cutoff {cutoff!r}")
        y = vector.rule(list(rounds), cutoff, spec)
        if not isinstance(y, SparseVector) or y.is_zero():
            raise ProtocolViolationError("vector-player", f"illegal vector {y!r}")
        if y.min_index() < cutoff:
            raise ProtocolViolationError(
                "vector-player", f"support starts at {y.min_index()}, before cutoff {cutoff}"
            )
        if rounds and y.min_index() <= rounds[-1][1].max_index():
            raise ProtocolViolationError(
                "vector-player", "support does not come after the previous vector"
            )
        if abs(spec.norm(y) - 1.0) > NORMALIZATION_TOL:
            raise ProtocolViolationError(
                "vector-player", f"vector has norm {spec.norm(y)!r}, not 1"
            )
        rounds.append((cutoff, y))
    return GameTranscript(moves=tuple(rounds))


# ---------------------------------------------------------------------------
# Sampled stabilized constants
# ---------------------------------------------------------------------------


def _structured_tuples(
    spec: SpaceSpec, n: int, lo: int, hi: int
) -> list[BlockSequence]:
    """Deterministic candidates: consecutive normalized units and pair blocks."""
    out = []
    for start in range(lo, hi - n + 2):
        vectors = []
        for i in range(n):
            e = SparseVector.unit(start + i)
            vectors.append(e.scale(1.0 / spec.norm(e)))
        out.append(BlockSequence(vectors))
    for start in range(lo, hi - 2 * n + 2):
        vectors = []
        for i in range(n):
            v = SparseVector.indicator((start + 2 * i, start + 2 * i + 1))
            vectors.append(v.scale(1.0 / spec.norm(v)))
        out.append(BlockSequence(vectors))
    return out


def _random_tuples(
    spec: SpaceSpec, n: int, lo: int, hi: int, seed: int, count: int
) -> list[BlockSequence]:
    rng = Random(seed)
    out = []
    span = hi - lo + 1
    if span < 2 * n:
        return out
    for _ in range(count):
        cursor = rng.randint(lo, max(lo, hi - 2 * n))
        vectors = []
        ok = True
        for _ in range(n):
            size = rng.randint(1, 3)
            top = min(cursor + size + 3, hi)
            if cursor > top:
                ok = False
                break
            indices = sorted(rng.sample(range(cursor, top + 1), min(size, top - cursor + 1)))
            coeffs = [rng.uniform(-1.0, 1.0) or 0.5 for _ in indices]
            v = SparseVector({i: c for i, c in zip(indices, coeffs)})
            vectors.append(v.scale(1.0 / spec.norm(v)))
            cursor = max(indices) + 1 + rng.randint(0, 2)
            if cursor > hi:
                ok = ok and len(vectors) == n
        if ok and len(vectors) == n:
            out.append(BlockSequence(vectors))
    return out


def _tuple_pool(
    spec: SpaceSpec, n: int, lo: int, hi: int, seed: int, samples: int
) -> list[BlockSequence]:
    if hi - lo + 1 < n:
        raise ValueError(f"window [{lo}, {hi}] cannot host block {n}-tuples")
    pool = _structured_tuples(spec, n, lo, hi)
    pool.extend(_random_tuples(spec, n, lo, hi, seed, samples))
    if not pool:
        raise ValueError(f"empty sample window [{lo}, {hi}]")
    return pool


@dataclass(frozen=True)
class AsymptoticReport:
    """Sampled constant C(N, n) with the tuple that attained it.

    Re-running the equivalence scan on the certificate tuple reproduces the
    constant; the certificate is stored as explicit vectors for that reason.
    """

    n: int
    N: int
    constant: float
    certificate: BlockSequence
    certificate_report: EquivalenceReport
    window: int
    seed: int
    samples: int
    pool_size: int
    net: ScalarNet

    def to_doc(self) -> dict:
        return {
            "n": self.n,
            "N": self.N,
            "constant": self.constant,
            "certificate": self.certificate.to_doc(),
            "certificate_report": self.certificate_report.to_doc(),
            "window": self.window,
            "seed": self.seed,
            "samples": self.samples,
            "pool_size": self.pool_size,
            "net": self.net.to_doc(),
        }


def _max_constant(
    spec: SpaceSpec,
    p: float,
    n: int,
    pool: Sequence[BlockSequence],
    net: ScalarNet,
    scans: dict[BlockSequence, EquivalenceReport],
) -> tuple[float, BlockSequence, EquivalenceReport]:
    """Worst tuple of ``pool``; ``scans`` keeps each tuple's scan for reuse."""
    best = None
    for seq in pool:
        if seq not in scans:
            scans[seq] = equivalence_constant(spec, seq, LpReference(p, n), net=net)
        report = scans[seq]
        if best is None or report.constant > best[0]:
            best = (report.constant, seq, report)
    return best


def stabilized_constant(
    spec: SpaceSpec,
    p: float,
    n: int,
    N: int,
    window: int = 24,
    net: ScalarNet | None = None,
    seed: int = 0,
    samples: int = 40,
) -> AsymptoticReport:
    """Max equivalence constant against l_p^n over sampled tuples past N.

    Samples normalized block n-tuples supported inside [N, N + window]
    (deterministic unit/pair candidates plus seeded random ones) and takes
    the worst equivalence constant.  A lower bound on the true stabilized
    constant at cutoff N.
    """
    if net is None:
        net = ScalarNet.grid(step=0.25, max_len=n)
    pool = _tuple_pool(spec, n, N, N + window, seed, samples)
    constant, certificate, report = _max_constant(spec, p, n, pool, net, {})
    return AsymptoticReport(
        n=n, N=N, constant=constant, certificate=certificate, certificate_report=report,
        window=window, seed=seed, samples=samples, pool_size=len(pool), net=net,
    )


@dataclass(frozen=True)
class AsymptoticVerdict:
    """Empirical C(N, n) table over a cutoff schedule with a labeled verdict."""

    p: float
    n: int
    epsilon: float
    rows: tuple[AsymptoticReport, ...]
    verdict: str
    empirical: bool = True

    def constants(self) -> tuple[float, ...]:
        return tuple(r.constant for r in self.rows)

    def to_doc(self) -> dict:
        return {
            "p": "inf" if self.p == math.inf else self.p,
            "n": self.n,
            "epsilon": self.epsilon,
            "verdict": self.verdict,
            "empirical": self.empirical,
            "rows": [r.to_doc() for r in self.rows],
        }

    def to_rows(self) -> list[list]:
        out = [["N", "constant", "pool_size"]]
        for r in self.rows:
            out.append([r.N, r.constant, r.pool_size])
        return out


def asymptotic_lp_verdict(
    spec: SpaceSpec,
    p: float,
    n: int,
    schedule: Sequence[int],
    epsilon: float,
    window: int = 24,
    net: ScalarNet | None = None,
    seed: int = 0,
    samples: int = 40,
) -> AsymptoticVerdict:
    """C(N, n) along a cutoff schedule, sampled from one shared pool.

    All schedule points share a single tuple pool over [min N, max N +
    window], filtered per cutoff, so the sampled constants are monotone
    nonincreasing by construction (the candidate family only shrinks).  The
    verdict compares the final constant against 1 + epsilon and is labeled
    empirical: a finite net can refute but not certify the infinite
    property.
    """
    if not schedule:
        raise ValueError("need a nonempty cutoff schedule")
    schedule = sorted(schedule)
    if net is None:
        net = ScalarNet.grid(step=0.25, max_len=n)
    lo, hi = schedule[0], schedule[-1] + window
    pool = _tuple_pool(spec, n, lo, hi, seed, samples)
    scans: dict[BlockSequence, EquivalenceReport] = {}  # shared by all cutoffs
    rows = []
    for N in schedule:
        eligible = [seq for seq in pool if seq[0].min_index() >= N]
        if not eligible:
            raise ValueError(f"no sampled tuples supported past N={N}")
        constant, certificate, report = _max_constant(spec, p, n, eligible, net, scans)
        rows.append(
            AsymptoticReport(
                n=n, N=N, constant=constant, certificate=certificate,
                certificate_report=report, window=window, seed=seed,
                samples=samples, pool_size=len(eligible), net=net,
            )
        )
    final = rows[-1].constant
    verdict = (
        "consistent-with-stabilized-1-asymptotic-lp"
        if final <= 1.0 + epsilon
        else "not-consistent"
    )
    return AsymptoticVerdict(p=p, n=n, epsilon=epsilon, rows=tuple(rows), verdict=verdict)


# ---------------------------------------------------------------------------
# Good-branch extraction from a block tree
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class BranchExtraction:
    branch: BlockSequence
    path: tuple[int, ...]
    complete: bool
    certified: bool
    goodness: GoodnessReport
    metadata: dict = field(default_factory=dict)

    def to_doc(self) -> dict:
        return {
            "path": list(self.path),
            "branch": self.branch.to_doc(),
            "complete": self.complete,
            "certified": self.certified,
            "goodness": self.goodness.to_doc(),
            "metadata": self.metadata,
        }


def good_branch_extract(
    tree: BlockTree,
    spec: SpaceSpec,
    p: float,
    eps_rule: Callable[[int], float] | None = None,
    net: ScalarNet | None = None,
    lead_samples: int = 8,
    lead_window: int = 8,
    lead_max_n: int = 3,
    seed: int = 0,
) -> BranchExtraction:
    """Walk a block tree choosing successors past stabilization cutoffs.

    At step n the required tolerance is eps_rule(n) (default 1/n).  The
    abstract subspace strategies of the underlying argument have no finite
    analogue, so the cutoff is realized as: the smallest cutoff N on a
    doubling schedule at which the sampled constant C(N, min(n, lead_max_n))
    is within the tolerance, combined with "one past the supports seen so
    far".  (Capping the sampled tuple length keeps the scan affordable; the
    cap is recorded in the metadata.)  If no cutoff qualifies inside the
    tree's horizon, extraction continues on support alone but the result is
    not certified.  The branch is post-verified with the goodness test.
    """
    if eps_rule is None:
        eps_rule = lambda n: 1.0 / n
    if net is None:
        net = ScalarNet.grid(step=0.5, max_len=2)
    horizon = max(v.max_index() for v in tree.nodes.values()) if tree.nodes else 1

    lead_cache: dict[int, int | None] = {}

    def stabilization_lead(n: int) -> int | None:
        if n not in lead_cache:
            tol = eps_rule(n)
            n_eff = min(n, lead_max_n)
            found = None
            N = 1
            while N <= horizon:
                try:
                    report = stabilized_constant(
                        spec, p, n_eff, N, window=lead_window,
                        net=ScalarNet.grid(step=1.0, max_len=n_eff),
                        seed=seed, samples=lead_samples,
                    )
                except ValueError:
                    break
                if report.constant <= 1.0 + tol:
                    found = N
                    break
                N *= 2
            lead_cache[n] = found
        return lead_cache[n]

    path: list[int] = []
    complete = True
    all_leads_found = True
    for step in range(1, tree.depth + 1):
        lead = stabilization_lead(step)
        if lead is None:
            all_leads_found = False
            lead = 1
        past = tree.nodes[tuple(path)].max_index() if path else 0
        cutoff = max(past + 1, lead)
        children = tree.children(tuple(path))
        chosen = None
        for key in children:
            if tree.nodes[key].min_index() >= cutoff:
                chosen = key
                break
        if chosen is None:
            complete = False
            break
        path = list(chosen)

    if not path:
        raise ValueError("tree exhausted before any admissible successor")
    result_branch = branch(tree, path)
    final_eps = eps_rule(len(result_branch))
    goodness = goodness_test(spec, list(result_branch), net, K=1, epsilon=final_eps)
    certified = complete and all_leads_found and goodness.verdict == VERDICT_GOOD
    return BranchExtraction(
        branch=result_branch,
        path=tuple(path),
        complete=complete,
        certified=certified,
        goodness=goodness,
        metadata={
            "cutoff_rule": "stabilized-constant-lead",
            "leads": {str(n): lead_cache[n] for n in sorted(lead_cache)},
            "lead_max_n": lead_max_n,
            "note": (
                "abstract subspace strategies realized as sampled stabilization "
                "cutoffs plus one-past-support"
            ),
        },
    )
