"""The equivalence scan and the stabilization verify walk one representative
per key of a coefficient net.  Both are pinned here against verbatim copies
of the per-tuple loops they replaced, and their work is counted.  The
per-tuple verify walks the coarsenings through the copy of its walk in
``stabilize_oracle``, which ``src/`` no longer has."""

import io
import itertools
import math
from contextlib import redirect_stdout

import pytest
from hypothesis import given, settings, strategies as st

from banachkit import analysis
from banachkit.analysis import (
    LpReference,
    ScalarNet,
    SequenceReference,
    StabilizationResult,
    equivalence_constant,
    verify_stabilization,
)
from banachkit.blockseq import CombinationNorm, combine
from banachkit.cli import main
from banachkit.combinatorics import Blocking, FiniteSet
from banachkit.spaces import (
    C0,
    Interleave,
    InvalidVectorError,
    James,
    Lp,
    LpSum,
    SparseVector,
    make_example_space,
    norm,
)

from stabilize_oracle import walk_coarsening_colors

SPACES = {
    "lp1": Lp(1.0),
    "lp1.5": Lp(1.5),
    "lp2": Lp(2.0),
    "lpinf": Lp(math.inf),
    "c0": C0(),
    "james": James(),
    "lp_sum": make_example_space(2.0, 3, [1.0, 1.5, 1.8]),
    # 10 coordinates: vectors past index 10 fail, in both scans alike
    "lp_sum-short": LpSum(2.0, (1.0, 1.5, 1.8), (2, 3, 5)),
    "interleave-lp-c0": Interleave(Lp(1.5), C0(), "sum"),
    "interleave-lp-james": Interleave(Lp(2.0), James(), "max"),
}


# ---------------------------------------------------------------------------
# The scans as they were before they walked representatives, copied verbatim
# ---------------------------------------------------------------------------


def _sign_free(coeffs):
    return tuple(map(abs, coeffs))


def old_equivalence_constant(spec, seq, reference, net=None, net_step=0.25):
    n = reference.n
    seq = list(seq)
    if len(seq) < n:
        raise ValueError(f"need at least {n} vectors, got {len(seq)}")
    head = seq[:n]
    if net is None:
        net = ScalarNet.grid(step=net_step, max_len=n)
    tuples = [t for t in net.tuples if len(t) == n]
    if not tuples:
        raise ValueError(f"net contains no tuples of length {n}")
    positions = tuple(range(1, n + 1))
    norm_of = CombinationNorm(spec, head)
    # Both norms ignore coefficient signs when the sequence side is
    # unconditional and the reference is l_p, so a ratio is shared by all
    # sign patterns of a tuple; the scan still visits every tuple in order.
    sign_free = norm_of.unconditional and isinstance(reference, LpReference)
    ratios = {}

    best_upper = -math.inf
    best_lower = -math.inf
    arg_upper = tuples[0]
    arg_lower = tuples[0]
    for t in tuples:
        key = _sign_free(t) if sign_free else t
        if key not in ratios:
            r_norm = reference.coeff_norm(t)
            ratios[key] = norm_of(t, positions) / r_norm if r_norm > 0.0 else None
        ratio = ratios[key]
        if ratio is None:
            continue
        if ratio > best_upper:
            best_upper = ratio
            arg_upper = t
        if 1.0 / ratio > best_lower:
            best_lower = 1.0 / ratio
            arg_lower = t

    max_norm = max(spec.norm(v) for v in head)
    step = net.step if net.step is not None else net_step
    report = analysis.EquivalenceReport(
        lower=best_lower,
        upper=best_upper,
        constant=best_lower * best_upper,
        certificate_lower=old_on_reference_sphere(arg_lower, reference),
        certificate_upper=old_on_reference_sphere(arg_upper, reference),
        n=n,
        net_step=net.step,
        net_error=0.5 * step * n * max_norm,
        reference=reference.describe(),
    )
    return report


def old_on_reference_sphere(coeffs, reference):
    r = reference.coeff_norm(coeffs)
    return tuple(c / r for c in coeffs)


def old_verify_stabilization(spec, result, net):
    P = result.blocking
    checked = set()
    cache = {}
    for coeffs in net.tuples:
        n = len(coeffs)
        family = _sign_free(coeffs) if spec.unconditional else tuple(coeffs)
        if len(P) < n or family in checked:
            continue
        checked.add(family)
        coloring = analysis.norm_quantization_coloring(
            spec, coeffs, result.quantum, result.ground, cache=cache
        )
        if len(walk_coarsening_colors(coloring, P, n)) > 1:
            return False
    return True


def outcome(run):
    """The result of ``run``, or the type and message of what it raised."""
    try:
        return run()
    except (ValueError, ZeroDivisionError, InvalidVectorError) as exc:
        return type(exc), str(exc)


# ---------------------------------------------------------------------------
# Strategies
# ---------------------------------------------------------------------------

coefficient = st.one_of(
    st.sampled_from((0.0, -0.0, 1.0, -1.0, 0.5, -0.5, 0.25, -0.75, 2.0, -3.0)),
    st.floats(min_value=-4.0, max_value=4.0, allow_nan=False),
)
vector_value = st.one_of(
    st.sampled_from((1.0, -1.0, 0.5, -2.0)),
    st.floats(min_value=0.1, max_value=3.0),
)


@st.composite
def vector_lists(draw, n):
    """n nonzero vectors inside {1..12}: successive blocks, or free supports."""
    if draw(st.booleans()):
        elements = sorted(draw(st.lists(st.integers(1, 12), min_size=n, max_size=12, unique=True)))
        cuts = sorted(draw(st.permutations(range(1, len(elements))))[: n - 1])
        bounds = [0, *cuts, len(elements)]
        supports = [elements[a:b] for a, b in zip(bounds, bounds[1:])]
    else:
        supports = draw(
            st.lists(st.lists(st.integers(1, 12), min_size=1, max_size=4, unique=True), min_size=n, max_size=n)
        )
    return [SparseVector({i: draw(vector_value) for i in support}) for support in supports]


@st.composite
def of_nets(draw, n):
    """A ScalarNet.of net with duplicates, sign flips, zero tuples and other lengths."""
    base = draw(st.lists(st.lists(coefficient, min_size=n, max_size=n).map(tuple), min_size=1, max_size=12))
    pool = list(base)
    pool += [tuple(-c for c in t) for t in draw(st.lists(st.sampled_from(base), max_size=6))]
    pool += [tuple(map(abs, t)) for t in draw(st.lists(st.sampled_from(base), max_size=4))]
    pool += draw(st.lists(st.sampled_from(base), max_size=6))  # duplicates
    pool += [(0.0,) * n] * draw(st.integers(0, 2))
    pool += draw(st.lists(st.lists(coefficient, min_size=1, max_size=4).map(tuple), max_size=5))
    return ScalarNet.of(draw(st.permutations(pool)))


@st.composite
def scan_cases(draw):
    n = draw(st.integers(1, 3))
    spec = SPACES[draw(st.sampled_from(sorted(SPACES)))]
    seq = draw(vector_lists(n))
    if draw(st.booleans()):
        reference = LpReference(draw(st.sampled_from((1.0, 1.5, 2.0, math.inf))), n)
    else:
        reference = SequenceReference(SPACES[draw(st.sampled_from(sorted(SPACES)))], draw(vector_lists(n)))
    if draw(st.booleans()):
        net = ScalarNet.grid(draw(st.sampled_from((0.25, 0.5, 1.0))), draw(st.integers(n, 3)))
    else:
        net = draw(of_nets(n))
    return spec, seq, reference, net


# ---------------------------------------------------------------------------
# ScalarNet.representatives
# ---------------------------------------------------------------------------


class TestRepresentatives:
    def test_first_tuple_of_each_key_in_net_order(self):
        net = ScalarNet.of([(1.0, -1.0), (0.5,), (-1.0, 1.0), (1.0, 1.0), (1.0, -1.0), (0.0, 0.0), (-0.5, 0.0)])
        assert net.representatives(2, True) == ((1.0, -1.0), (0.0, 0.0), (-0.5, 0.0))
        assert net.representatives(2, False) == (
            (1.0, -1.0), (-1.0, 1.0), (1.0, 1.0), (0.0, 0.0), (-0.5, 0.0),
        )
        assert net.representatives(1, True) == ((0.5,),)
        assert net.representatives(3, True) == ()

    def test_grid_keys(self):
        net = ScalarNet.grid(0.25, 3)
        assert sum(len(t) == 3 for t in net.tuples) == 728
        assert len(net.representatives(3, True)) == 124
        assert len(net.representatives(3, False)) == 728

    @settings(max_examples=60, deadline=None)
    @given(net=of_nets(2), sign_free=st.booleans())
    def test_matches_a_first_occurrence_filter(self, net, sign_free):
        seen, expected = set(), []
        for t in net.tuples:
            key = tuple(map(abs, t)) if sign_free else t
            if len(t) == 2 and key not in seen:
                seen.add(key)
                expected.append(t)
        assert net.representatives(2, sign_free) == tuple(expected)

    def test_cache_is_invisible_to_equality_hash_repr_and_doc(self):
        warm, cold = ScalarNet.grid(0.5, 2), ScalarNet.grid(0.5, 2)
        before = (repr(warm), hash(warm), warm.to_doc())
        first = warm.representatives(2, True)
        assert warm.representatives(2, True) is first
        assert (repr(warm), hash(warm), warm.to_doc()) == before
        assert warm == cold and hash(warm) == hash(cold)

    @pytest.mark.parametrize("step", [0.25, 0.5, 1.0])
    @pytest.mark.parametrize("max_len", [1, 2, 3, 4])
    def test_grid_matches_a_generator_filter(self, step, max_len):
        k = round(1.0 / step)
        values = [i * step for i in range(-k, k + 1)]
        expected = [
            t
            for n in range(1, max_len + 1)
            for t in itertools.product(values, repeat=n)
            if any(c != 0.0 for c in t)
        ]
        assert ScalarNet.grid(step, max_len).tuples == tuple(expected)


# ---------------------------------------------------------------------------
# The equivalence scan against the per-tuple scan
# ---------------------------------------------------------------------------


class TestEquivalenceScanAgainstTheOldScan:
    @settings(max_examples=300, deadline=None)
    @given(case=scan_cases())
    def test_reports_are_equal(self, case):
        self.assert_reports_are_equal(*case)

    @pytest.mark.parametrize(
        "seq",
        [
            [SparseVector({1: 1.0}), SparseVector({1: 1.0})],  # equal vectors cancel
            [SparseVector({1: 1.0}), SparseVector({})],  # a zero vector, successive supports
            [SparseVector({2: 0.5}), SparseVector({1: 1.0, 2: -1.0}), SparseVector({1: -2.0, 2: 2.0})],
        ],
    )
    @pytest.mark.parametrize("name", ["lp2", "c0", "james", "interleave-lp-james"])
    def test_a_combination_of_norm_zero_is_refused(self, name, seq):
        n = len(seq)
        new = outcome(lambda: equivalence_constant(SPACES[name], seq, LpReference(2.0, n)))
        assert new[0] is ValueError and new[1].endswith("has norm 0: no lower bound exists")
        self.assert_reports_are_equal(SPACES[name], seq, LpReference(2.0, n), ScalarNet.grid(0.25, n))

    @staticmethod
    def assert_reports_are_equal(spec, seq, reference, net):
        new = outcome(lambda: equivalence_constant(spec, seq, reference, net=net))
        old = outcome(lambda: old_equivalence_constant(spec, seq, reference, net=net))
        if new != old:
            # two intended changes, both where the old scan divided by zero
            n = reference.n
            assert old == (ZeroDivisionError, "float division by zero")
            norm_of = CombinationNorm(spec, seq[:n])
            positive = [t for t in net.tuples if len(t) == n and reference.coeff_norm(t) > 0.0]
            zero = next((t for t in positive if norm_of(t, range(1, n + 1)) == 0.0), None)
            if zero is None:
                # a net without a positive reference norm
                assert not positive
                assert new == (ValueError, f"net contains no tuple of length {n} with a positive reference norm")
            else:
                # a combination of norm 0, named by its first tuple in net order
                assert new == (
                    ValueError, f"the combination with coefficients {zero} has norm 0: no lower bound exists"
                )

    @pytest.mark.parametrize("name", sorted(SPACES))
    @pytest.mark.parametrize("p", [1.0, 1.5, 2.0, math.inf])
    def test_default_grid_on_unit_vectors(self, name, p):
        seq = [SparseVector.unit(i) for i in (1, 2, 3)]
        reference = LpReference(p, 3)
        assert equivalence_constant(SPACES[name], seq, reference) == old_equivalence_constant(
            SPACES[name], seq, reference
        )

    @staticmethod
    def assert_first_reaching_tuples_certify(spec, seq, reference, report):
        """Each certificate is the first grid tuple whose own ratio is the bound."""
        norm_of = CombinationNorm(spec, seq)
        ratios = [
            (t, norm_of(t, (1, 2, 3)) / reference.coeff_norm(t))
            for t in ScalarNet.grid(0.25, 3).tuples
            if len(t) == 3
        ]
        first_upper = next(t for t, ratio in ratios if ratio == report.upper)
        first_lower = next(t for t, ratio in ratios if 1.0 / ratio == report.lower)
        assert report.certificate_upper == analysis._on_reference_sphere(first_upper, reference)
        assert report.certificate_lower == analysis._on_reference_sphere(first_lower, reference)
        return first_upper, first_lower

    def test_l2_orthonormal_blocks_tie_everywhere(self):
        # every ratio is 1 up to rounding, so the certificates pin which of
        # the tying tuples is reported
        seq = [SparseVector({1: 0.6, 2: 0.8}), SparseVector({4: 1.0}), SparseVector({5: 0.8, 7: -0.6})]
        reference = LpReference(2.0, 3)
        report = equivalence_constant(Lp(2.0), seq, reference)
        assert report == old_equivalence_constant(Lp(2.0), seq, reference)
        assert report.constant == pytest.approx(1.0, abs=1e-12)
        self.assert_first_reaching_tuples_certify(Lp(2.0), seq, reference, report)

    def test_c0_certificates(self):
        seq = [SparseVector.unit(i) for i in (1, 2, 3)]
        reference = LpReference(2.0, 3)
        report = equivalence_constant(C0(), seq, reference)
        assert report == old_equivalence_constant(C0(), seq, reference)
        upper, lower = self.assert_first_reaching_tuples_certify(C0(), seq, reference, report)
        # max|a| / ||a||_2 is 1 on the signed unit tuples, the first of them (-1, 0, 0);
        # ||a||_2 / max|a| is sqrt 3 up to rounding on the constant-modulus tuples
        assert report.upper == 1.0 and upper == (-1.0, 0.0, 0.0)
        assert report.lower == pytest.approx(math.sqrt(3), abs=1e-15)
        assert len(set(map(abs, lower))) == 1

    def test_a_net_without_a_positive_reference_norm_is_refused(self):
        with pytest.raises(ValueError, match="no tuple of length 2 with a positive reference norm"):
            equivalence_constant(
                Lp(2.0), [SparseVector.unit(1), SparseVector.unit(2)], LpReference(2.0, 2),
                net=ScalarNet.of([(0.0, 0.0)]),
            )
        with pytest.raises(ValueError, match="no tuple of length 1 with a positive reference norm"):
            equivalence_constant(
                Lp(2.0), [SparseVector.unit(1)], LpReference(1.0, 1), net=ScalarNet.of([(0.0,), (1.0, 1.0)])
            )


# ---------------------------------------------------------------------------
# The stabilization verify against the per-tuple verify
# ---------------------------------------------------------------------------


@st.composite
def verify_cases(draw):
    """A blocking of {1..M}, M <= 12, a quantum and a net."""
    M = draw(st.integers(1, 12))
    elements = sorted(draw(st.lists(st.integers(1, M), min_size=1, max_size=M, unique=True)))
    blocks = draw(st.integers(min(3, len(elements)), len(elements)))
    cuts = sorted(draw(st.permutations(range(1, len(elements))))[: blocks - 1])
    bounds = [0, *cuts, len(elements)]
    P = Blocking([FiniteSet(elements[a:b]) for a, b in zip(bounds, bounds[1:])])
    if draw(st.integers(0, 2)):
        net = ScalarNet.grid(draw(st.sampled_from((0.5, 1.0))), draw(st.integers(1, 3)))
    else:
        net = draw(of_nets(draw(st.integers(1, 3))))
    return P, M, draw(st.sampled_from((0.05, 0.1, 0.3, 1.0))), net


class TestVerifyAgainstTheOldVerify:
    @pytest.mark.parametrize("name", sorted(SPACES))
    @settings(max_examples=25, deadline=None)
    @given(case=verify_cases())
    def test_verdicts_are_equal(self, name, case):
        P, M, quantum, net = case
        spec = SPACES[name]
        result = StabilizationResult(blocking=P, steps=(), complete=True, epsilon=0.1, quantum=quantum, ground=M)
        assert outcome(lambda: verify_stabilization(spec, result, net)) == outcome(
            lambda: old_verify_stabilization(spec, result, net)
        )

    @pytest.mark.parametrize("name", sorted(SPACES))
    def test_stabilized_results_verify_alike(self, name):
        spec = SPACES[name]
        net = ScalarNet.grid(0.5, 2)
        M = 10 if name == "lp_sum-short" else 12
        result = analysis.nccb_stabilize(spec, M, net, epsilon=0.1, quantum=0.05)
        assert verify_stabilization(spec, result, net) == old_verify_stabilization(spec, result, net)


# ---------------------------------------------------------------------------
# Work counts: a return to per-tuple work shows without a timer
# ---------------------------------------------------------------------------


@pytest.fixture
def kernel_calls(monkeypatch):
    # the scan calls the l_p kernel itself, once per tuple; a norm of one
    # vector does not enter it through this name
    calls = []
    real = Lp.parts_norm

    def counted(self, coeffs, parts, tops):
        calls.append(tuple(coeffs))
        return real(self, coeffs, parts, tops)

    monkeypatch.setattr(Lp, "parts_norm", counted)
    return calls


class TestWorkCounts:
    def test_one_lp_scan_makes_one_kernel_call_per_sign_free_key(self, kernel_calls, monkeypatch):
        keyed = []
        monkeypatch.setattr(analysis, "_sign_free", lambda t: keyed.append(t) or tuple(map(abs, t)))
        net = ScalarNet.grid(0.25, 3)
        seq = [SparseVector.unit(i) for i in (1, 2, 3)]
        equivalence_constant(Lp(2.0), seq, LpReference(2.0, 3), net=net)
        assert len(kernel_calls) == 124
        assert len(keyed) == 728  # the keys are built once per net ...
        equivalence_constant(Lp(2.0), seq, LpReference(2.0, 3), net=net)
        assert len(kernel_calls) == 248
        assert len(keyed) == 728  # ... and a second scan visits only the representatives

    def test_readme_stabilized_kernel_calls(self, kernel_calls):
        with redirect_stdout(io.StringIO()):
            code = main(["stabilized", "--space", '{"kind":"lp","p":2}', "--n", "3", "--schedule", "1,10,100"])
        assert code == 0
        # 40 coordinate classes among the 279 pool tuples, 124 sign-free keys each
        assert len(kernel_calls) == 4_960

    def test_readme_stabilized_computes_each_fixed_input_once(self, kernel_calls, monkeypatch):
        reference_norms, indicators = [], []
        coeff_norm, indicator = LpReference.coeff_norm, SparseVector.indicator.__func__

        def counted_coeff_norm(self, coeffs):
            reference_norms.append(tuple(coeffs))
            return coeff_norm(self, coeffs)

        def counted_indicator(cls, indices):
            indicators.append(tuple(indices))
            return indicator(cls, indices)

        monkeypatch.setattr(LpReference, "coeff_norm", counted_coeff_norm)
        monkeypatch.setattr(SparseVector, "indicator", classmethod(counted_indicator))
        with redirect_stdout(io.StringIO()):
            code = main(["stabilized", "--space", '{"kind":"lp","p":2}', "--n", "3", "--schedule", "1,10,100"])
        assert code == 0
        # 124 representatives once per run, plus two certificates per scan
        assert len(reference_norms) == 124 + 2 * 40
        # the 124 units and 123 pairs of [1, 124], each built once
        assert len(indicators) == 247 and len(set(indicators)) == 247
        assert len(kernel_calls) == 4_960

    def test_a_second_scan_finds_the_reference_norms_without_hashing(self, monkeypatch):
        class HashCounted(tuple):
            hashes = 0

            def __hash__(self):
                HashCounted.hashes += 1
                return super().__hash__()

        net = ScalarNet.grid(0.25, 3)
        reps = HashCounted(net.representatives(3, True))
        net.__dict__["_representatives"][3, True] = reps
        norms = []
        coeff_norm = LpReference.coeff_norm
        monkeypatch.setattr(LpReference, "coeff_norm", lambda self, t: norms.append(t) or coeff_norm(self, t))
        reference, seq = LpReference(2.0, 3), [SparseVector.unit(i) for i in (1, 2, 3)]
        first = equivalence_constant(Lp(2.0), seq, reference, net=net)
        assert equivalence_constant(Lp(2.0), seq, reference, net=net) == first
        assert HashCounted.hashes == 0
        assert len(norms) == 124 + 2 * 2  # the representatives once, two certificates per scan

    def test_reference_memo_is_invisible_to_equality_hash_repr_and_describe(self):
        warm, cold = LpReference(2.0, 3), LpReference(2.0, 3)
        before = (repr(warm), hash(warm), warm.describe())
        seq = [SparseVector.unit(i) for i in (1, 2, 3)]
        report = equivalence_constant(Lp(2.0), seq, warm)
        assert warm.__dict__["_coeff_norms"]  # the scan filled the memo
        assert equivalence_constant(Lp(2.0), seq, warm) == report == equivalence_constant(Lp(2.0), seq, cold)
        assert (repr(warm), hash(warm), warm.describe()) == before
        assert warm == cold and hash(warm) == hash(cold) and repr(warm) == repr(cold)

    @pytest.mark.parametrize(
        "make_reference",
        [
            lambda n: LpReference(1.5, n),
            lambda n: LpReference(math.inf, n),
            lambda n: SequenceReference(James(), [SparseVector({2 * i + 1: 1.0, 2 * i + 2: -0.5}) for i in range(n)]),
        ],
        ids=["lp1.5", "lpinf", "sequence-james"],
    )
    def test_a_reused_reference_gives_the_oracle_reports(self, make_reference):
        # nets a and b have equal representatives that differ in the sign of a zero
        net_a = ScalarNet.of([(0.0, 1.0), (0.5, -1.0), (0.0, 1.0, -0.5), (1.0, -0.25, 0.5)])
        net_b = ScalarNet.of([(-0.0, 1.0), (0.5, -1.0), (-0.0, 1.0, -0.5), (1.0, -0.25, 0.5)])
        nets = [ScalarNet.grid(0.25, 3), ScalarNet.grid(0.5, 3), net_a, net_b]
        for n in (2, 3):
            reference = make_reference(n)
            for net in nets + nets:
                for name in ("lp2", "lp_sum", "james", "interleave-lp-c0"):
                    for seq in (
                        [SparseVector.unit(i) for i in range(1, n + 1)],
                        [SparseVector({3 * i + 1: 1.0, 3 * i + 3: -2.0}) for i in range(n)],
                    ):
                        spec = SPACES[name]
                        assert equivalence_constant(spec, seq, reference, net=net) == old_equivalence_constant(
                            spec, seq, reference, net=net
                        )

    @pytest.mark.parametrize("name", sorted(SPACES))
    def test_combination_norm_on_a_plain_successive_list(self, name):
        spec = SPACES[name]
        seq = [SparseVector({1: 0.5, 2: -1.0}), SparseVector({4: 2.0}), SparseVector({5: 1.0, 7: -0.25})]
        norm_of = CombinationNorm(spec, seq)
        assert norm_of.parts is not None
        coeffs = (1.0, -0.5, 0.25)
        for positions in [(1, 2, 3), (1, 2), (1, 3), (2, 3), (1,), (2,), (3,)]:
            c = coeffs[: len(positions)]
            got = norm_of(c, positions)
            assert type(got) is float and got == norm(spec, combine(seq, c, positions))
        assert norm_of(coeffs, range(1, 4)) == norm(spec, combine(seq, coeffs, (1, 2, 3)))
