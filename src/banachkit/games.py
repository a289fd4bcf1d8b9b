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

from dataclasses import dataclass, field
from random import Random
from typing import Callable, Sequence

from .analysis import (
    EquivalenceReport,
    GoodnessReport,
    LpReference,
    ScalarNet,
    VERDICT_GOOD,
    _check_epsilon,
    equivalence_constant,
    goodness_test,
)
from .blockseq import BlockSequence, BlockTree, branch
from .combinatorics import _Report, _check_at_least, _table
from .spaces import InvalidVectorError, SparseVector, SpaceSpec, _check_exponent, _p_doc

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

# The most structured tuples, and the most random samples, a stabilized pool
# may hold.  The README run (n = 3 over [1, 124]) builds 241; 10^5 l_2
# 3-tuples took about 75 MB and 0.6 s to build (x86-64, Python 3.11), and the
# size grows with the span.
_POOL_LIMIT = 100_000


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
    _check_at_least("constant cutoff m", m, 1)
    return Strategy("subspace-player", f"constant:{m}", lambda rounds, spec: m)


def subspace_tail(lead: int = 1) -> Strategy:
    """Cutoff one past the maximum support seen, plus an optional lead."""
    _check_at_least("tail lead", lead, 0)

    def rule(rounds, spec) -> int:
        if not rounds:
            return max(1, lead)
        return max(y.max_index() for _, y in rounds) + lead

    return Strategy("subspace-player", f"tail:{lead}", rule)


def _vector_strategy(name: str, vector_at: Callable[[int], SparseVector]) -> Strategy:
    """Play ``vector_at(j)``, normalized, at the first admissible index j."""

    def rule(rounds, cutoff: int, spec: SpaceSpec) -> SparseVector:
        past = max((y.max_index() for _, y in rounds), default=0)
        v = vector_at(max(cutoff, past + 1))
        return v.scale(1.0 / spec.norm(v))

    return Strategy("vector-player", name, rule)


def vector_unit() -> Strategy:
    """Play the next admissible normalized unit basis vector."""
    return _vector_strategy("unit", SparseVector.unit)


def vector_nccb(width: int = 2) -> Strategy:
    """Play the normalized indicator of the next admissible index window."""
    _check_at_least("nccb width", width, 1)
    return _vector_strategy(f"nccb:{width}", lambda j: SparseVector.indicator(range(j, j + width)))


def vector_net(net: ScalarNet | None = None, window: int = 8, pick: int = 0) -> Strategy:
    """Draw the move from a declared net of normalized block vectors.

    Candidates are the net's coefficient tuples laid onto consecutive basis
    vectors inside the window of ``window`` indices past the cutoff, then
    normalized; ``pick`` selects one by enumeration index.  The true move
    space is the whole unit sphere of the tail subspace, which is not
    finitely enumerable; this is the declared finite stand-in.
    """
    chosen_net = net if net is not None else ScalarNet.grid(step=0.5, max_len=2)
    candidates = [t for t in chosen_net.tuples if len(t) <= window]
    if not candidates:
        raise ValueError(f"net window {window} is shorter than every tuple of the net")
    coeffs = candidates[pick % len(candidates)]
    return _vector_strategy(
        f"net:{window}:{pick}",
        lambda j: SparseVector({j + i: c for i, c in enumerate(coeffs) if c != 0.0}),
    )


def strategy_from_name(text: str, role: str) -> Strategy:
    """Resolve ``name`` or ``name:param`` into a registered strategy."""
    name, _, param = text.partition(":")

    def integer(raw: str) -> int:
        try:
            return int(raw)
        except ValueError:
            raise ValueError(f"{role} strategy {text!r}: parameter {raw!r} is not an integer") from None

    if role == "subspace-player":
        if name == "constant":
            return subspace_constant(integer(param or "1"))
        if name == "tail":
            return subspace_tail(integer(param or "1"))
    else:
        if name == "unit":
            if param:
                raise ValueError(f"{role} strategy {text!r} takes no parameter")
            return vector_unit()
        if name == "nccb":
            return vector_nccb(integer(param or "2"))
        if name == "net":
            # parameters are read by position, so an empty slot is refused, not skipped
            parts = param.split(":") if param else []
            if len(parts) > 2:
                raise ValueError(f"{role} strategy {text!r} takes at most two parameters")
            if "" in parts:
                raise ValueError(f"{role} strategy {text!r} has an empty parameter")
            window = integer(parts[0]) if parts else 8
            pick = integer(parts[1]) if len(parts) > 1 else 0
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
    _check_at_least("rounds", n, 0)
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
    """Deterministic candidates: consecutive normalized units, then pair blocks.

    Each block is built once per (width, start index) and shared by every
    tuple that holds it.  Its norm is computed once per coordinate list,
    since ``norm(v)`` is ``coordinate_norm(coordinates(v))``: in l_p, once
    per width.
    """
    out = []
    norms: dict[tuple, float] = {}
    for width in (1, 2):
        blocks: dict[int, SparseVector] = {}
        for start in range(lo, hi - width * n + 2):
            vectors = []
            for i in range(start, start + width * n, width):
                v = blocks.get(i)
                if v is None:
                    v = SparseVector.indicator(range(i, i + width))
                    coords = tuple(spec.coordinates(v))
                    if coords not in norms:
                        norms[coords] = spec.coordinate_norm(coords)
                    v = blocks[i] = v.scale(1.0 / norms[coords])
                vectors.append(v)
            out.append(BlockSequence(vectors))
    return out


def _random_tuples(
    spec: SpaceSpec, n: int, lo: int, hi: int, seed: int, count: int
) -> list[BlockSequence]:
    rng = Random(seed)
    out = []
    if hi - lo + 1 < 2 * n:
        return out
    for _ in range(count):
        cursor = rng.randint(lo, max(lo, hi - 2 * n))
        vectors = []
        for _ in range(n):
            size = rng.randint(1, 3)
            top = min(cursor + size + 3, hi)
            if cursor > top:
                break
            indices = sorted(rng.sample(range(cursor, top + 1), min(size, top - cursor + 1)))
            coeffs = [rng.uniform(-1.0, 1.0) or 0.5 for _ in indices]
            v = SparseVector({i: c for i, c in zip(indices, coeffs)})
            vectors.append(v.scale(1.0 / spec.norm(v)))
            cursor = max(indices) + 1 + rng.randint(0, 2)
        else:
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
class AsymptoticReport(_Report):
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
    constant at cutoff N: the one row of ``asymptotic_lp_verdict`` over the
    schedule [N].
    """
    return asymptotic_lp_verdict(spec, p, n, [N], 0.0, window, net, seed, samples).rows[0]


@dataclass(frozen=True)
class AsymptoticVerdict(_Report):
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
        return super().to_doc() | {"p": _p_doc(self.p)}

    def to_rows(self) -> list[list]:
        return _table(self.rows, ("N", "constant", "pool_size"))


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
    _check_at_least("schedule cutoffs", min(schedule), 1)
    _check_epsilon(epsilon)
    _check_at_least("samples", samples, 0)
    if samples > _POOL_LIMIT:
        raise ValueError(f"samples must be <= {_POOL_LIMIT}, got {samples}")
    _check_at_least("n", n, 1)
    _check_at_least("window", window, 0)
    reference = LpReference(p, n)
    schedule = sorted(schedule)
    lo, hi = schedule[0], schedule[-1] + window
    # as many as _structured_tuples builds, counted before any is built
    size = sum(max(0, hi - lo - width * n + 2) for width in (1, 2))
    if size > _POOL_LIMIT:
        raise ValueError(
            f"schedule {lo}..{schedule[-1]} and window {window} span [{lo}, {hi}], which holds "
            f"{size} structured block {n}-tuples, past the limit of {_POOL_LIMIT}"
        )
    if net is None:
        net = ScalarNet.grid(step=0.25, max_len=n)
    pool = _tuple_pool(spec, n, lo, hi, seed, samples)
    # Every pool tuple is supported past the first cutoff, so each is scanned
    # here, in pool order, and the rows only pick among the reports.
    scans: dict[tuple, EquivalenceReport] = {}
    # keyed by id(v): the pool keeps every vector alive for the whole call,
    # so no id is reused while the memo is read
    coords: dict[int, tuple] = {}
    reports = []
    for seq in pool:
        # The scan reads ``seq`` only through ``CombinationNorm(spec, seq).parts``
        # (``unconditional`` is derived from it) and ``spec.norm(v)``, which is
        # ``coordinate_norm(coordinates(v))``.  A BlockSequence has successive
        # supports, so both are functions of this key (each block's
        # coordinates, in tuple order) and tuples with one key get equal
        # reports.  Every pool vector was normed when the pool was built, so
        # the key cannot raise.
        for v in seq:
            if id(v) not in coords:
                coords[id(v)] = tuple(spec.coordinates(v))
        key = tuple([coords[id(v)] for v in seq])
        if key not in scans:
            scans[key] = equivalence_constant(spec, seq, reference, net=net)
        reports.append(scans[key])
    rows = []
    starts = [seq[0].min_index() for seq in pool]
    constants = [report.constant for report in reports]
    for N in schedule:
        eligible = [i for i, start in enumerate(starts) if start >= N]
        if not eligible:
            raise ValueError(f"no sampled tuples supported past N={N}")
        # max keeps the first index to reach the maximum, so the certificate
        # is the first tuple in pool order with the worst constant
        best = max(eligible, key=constants.__getitem__)
        rows.append(
            AsymptoticReport(
                n=n, N=N, constant=reports[best].constant, certificate=pool[best],
                certificate_report=reports[best], window=window, seed=seed,
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
class BranchExtraction(_Report):
    branch: BlockSequence
    path: tuple[int, ...]
    complete: bool
    certified: bool
    goodness: GoodnessReport
    metadata: dict = field(default_factory=dict)


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
    _check_exponent(p)
    _check_at_least("lead_samples", lead_samples, 0)
    _check_at_least("lead_window", lead_window, 0)
    _check_at_least("lead_max_n", lead_max_n, 1)
    if eps_rule is None:
        eps_rule = lambda n: 1.0 / n
    if net is None:
        net = ScalarNet.grid(step=0.5, max_len=2)
    horizon = max(v.max_index() for v in tree.nodes.values()) if tree.nodes else 1

    path: list[int] = []
    complete = True
    leads: dict[str, int | None] = {}
    for step in range(1, tree.depth + 1):
        # the stabilization lead: the first N on the doubling schedule whose
        # sampled constant is within this step's tolerance, else None
        tol = eps_rule(step)
        n_eff = min(step, lead_max_n)
        lead_net = ScalarNet.grid(step=1.0, max_len=n_eff)
        lead = None
        N = 1
        while N <= horizon:
            try:
                report = stabilized_constant(
                    spec, p, n_eff, N, window=lead_window, net=lead_net, seed=seed, samples=lead_samples
                )
            except InvalidVectorError:  # the sample window ran past a finite space
                break
            if report.constant <= 1.0 + tol:
                lead = N
                break
            N *= 2
        leads[str(step)] = lead
        past = tree.nodes[tuple(path)].max_index() if path else 0
        cutoff = max(past + 1, lead or 1)
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
    certified = complete and None not in leads.values() and goodness.verdict == VERDICT_GOOD
    return BranchExtraction(
        branch=result_branch,
        path=tuple(path),
        complete=complete,
        certified=certified,
        goodness=goodness,
        metadata={
            "cutoff_rule": "stabilized-constant-lead",
            "leads": leads,
            "lead_max_n": lead_max_n,
            "note": (
                "abstract subspace strategies realized as sampled stabilization "
                "cutoffs plus one-past-support"
            ),
        },
    )
