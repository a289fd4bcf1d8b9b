"""The combination-norm kernel and its memos against the SparseVector path.

Every comparison is exact (``==``): the kernel promises the same float
operations in the same order as ``norm(spec, combine(...))``, and the memos
promise records, reports and verdicts identical to a scan that evaluates
every tuple and every window afresh.  The oracles below are written here in
that plain style and share no code with the kernel.
"""

import itertools
import json
import math

import pytest
from hypothesis import given, settings, strategies as st

from banachkit.analysis import (
    EquivalenceReport,
    GoodnessRecord,
    LpReference,
    ScalarNet,
    SequenceReference,
    equivalence_constant,
    goodness_test,
    norm_quantization_coloring,
    spreading_model_estimate,
)
from banachkit import blockseq, games
from banachkit.blockseq import BlockSequence, CombinationNorm, combine, nccb_from_blocking
from banachkit.combinatorics import Blocking, coarsenings
from banachkit.games import AsymptoticReport, AsymptoticVerdict, _tuple_pool, asymptotic_lp_verdict
from banachkit.spaces import (
    C0,
    Interleave,
    InvalidVectorError,
    James,
    Lp,
    LpSum,
    SparseVector,
    combination_norm,
    norm,
)

UNCONDITIONAL = [
    Lp(1.0),
    Lp(1.5),
    Lp(2.0),
    Lp(3.0),
    Lp(math.inf),
    C0(),
    LpSum(2.0, (1.0, 1.5), (3, 60)),
    Interleave(Lp(1.0), Lp(2.0), "max"),
    Interleave(LpSum(2.0, (1.0, 1.5), (2, 40)), C0(), "sum"),
]
CONDITIONAL = [James(), Interleave(Lp(1.0), James(), "max"), Interleave(James(), Lp(2.0), "sum")]
SPECS = UNCONDITIONAL + CONDITIONAL

coefficient = st.one_of(
    st.sampled_from([0.0, -0.0, 0.25, -0.5, 1.0, -1.0]),
    st.floats(min_value=-4, max_value=4, allow_nan=False),
)


# bounded away from zero, so that no combination of nonzero coefficients vanishes
sizable = st.floats(min_value=0.01, max_value=4).flatmap(lambda x: st.sampled_from([x, -x]))


@st.composite
def block_lists(draw, overlapping=False, coefficient=coefficient):
    """Lists of 1..6 vectors inside 1..60; successive unless ``overlapping``."""
    count = draw(st.integers(min_value=1, max_value=6))
    vectors = []
    cursor = 1
    for _ in range(count):
        if overlapping:
            cursor = draw(st.integers(min_value=1, max_value=40))
        size = draw(st.integers(min_value=1, max_value=4))
        window = st.integers(min_value=cursor, max_value=cursor + 6)
        indices = draw(st.lists(window, min_size=1, max_size=size, unique=True))
        coeffs = draw(st.lists(coefficient, min_size=len(indices), max_size=len(indices)))
        vectors.append(SparseVector(dict(zip(indices, coeffs))))
        cursor = max(indices) + 1 + draw(st.integers(min_value=0, max_value=2))
    return vectors


@st.composite
def combinations_of(draw, overlapping=False):
    seq = draw(block_lists(overlapping))
    positions = sorted(draw(st.sets(st.integers(min_value=1, max_value=len(seq)), min_size=1)))
    coeffs = draw(st.lists(coefficient, min_size=len(positions), max_size=len(positions)))
    return seq, tuple(coeffs), tuple(positions)


def plain_norm(spec, seq, coeffs, positions):
    return norm(spec, combine(seq, coeffs, positions))


def overlaps(seq):
    supports = [set(v.support()) for v in seq]
    return any(a & b for a, b in itertools.combinations(supports, 2))


# ---------------------------------------------------------------------------
# The kernel
# ---------------------------------------------------------------------------


class TestKernelBitExact:
    @settings(max_examples=300, deadline=None)
    @given(spec=st.sampled_from(SPECS), case=combinations_of())
    def test_successive_supports(self, spec, case):
        seq, coeffs, positions = case
        kernel = CombinationNorm(spec, seq)
        assert kernel.parts is not None
        assert kernel(coeffs, positions) == plain_norm(spec, seq, coeffs, positions)
        if not any(v.is_zero() for v in seq):
            block = CombinationNorm(spec, BlockSequence(seq))
            assert block(coeffs, positions) == kernel(coeffs, positions)

    @settings(max_examples=300, deadline=None)
    @given(spec=st.sampled_from(SPECS), case=combinations_of(overlapping=True))
    def test_overlapping_supports_take_the_combine_path(self, spec, case):
        seq, coeffs, positions = case
        kernel = CombinationNorm(spec, seq)
        if overlaps(seq):
            assert kernel.parts is None and not kernel.unconditional
        assert kernel(coeffs, positions) == plain_norm(spec, seq, coeffs, positions)

    @settings(max_examples=200, deadline=None)
    @given(spec=st.sampled_from(SPECS), v=block_lists().map(lambda vs: vs[0]))
    def test_norm_is_the_coordinate_formula(self, spec, v):
        assert spec.norm(v) == spec.coordinate_norm(spec.coordinates(v))
        assert combination_norm(spec, (1.0,), [spec.coordinates(v)]) == spec.norm(v)

    @settings(max_examples=200, deadline=None)
    @given(spec=st.sampled_from(UNCONDITIONAL), case=combinations_of())
    def test_unconditional_values_ignore_signs(self, spec, case):
        # the premise of the |t| memo
        seq, coeffs, positions = case
        kernel = CombinationNorm(spec, seq)
        assert kernel.unconditional
        flipped = tuple(abs(a) for a in coeffs)
        assert kernel(coeffs, positions) == kernel(flipped, positions)

    def test_conditional_kinds_are_flagged(self):
        for spec in CONDITIONAL:
            assert not spec.unconditional
            assert not CombinationNorm(spec, [SparseVector.unit(1)]).unconditional
        # James really is sign sensitive on successive supports
        seq = [SparseVector.unit(1), SparseVector.unit(2)]
        assert plain_norm(James(), seq, (1.0, 1.0), (1, 2)) != plain_norm(James(), seq, (1.0, -1.0), (1, 2))

    def test_overflowing_products_raise_like_combine(self):
        seq = [SparseVector({1: 1e300}), SparseVector({2: 1.0})]
        for spec in (Lp(2.0), Interleave(Lp(1.0), James(), "max")):
            with pytest.raises(InvalidVectorError):
                plain_norm(spec, seq, (1e10, 1.0), (1, 2))
            with pytest.raises(InvalidVectorError):
                CombinationNorm(spec, seq)((1e10, 1.0), (1, 2))
            with pytest.raises(InvalidVectorError):
                CombinationNorm(spec, seq)((1.0, math.nan), (1, 2))

    def test_vector_outside_the_space_fails_only_when_used(self):
        spec = LpSum(2.0, (1.0,), (3,))
        seq = [SparseVector.unit(1), SparseVector.unit(2), SparseVector.unit(7)]
        kernel = CombinationNorm(spec, seq)
        assert kernel((1.0, 1.0), (1, 2)) == plain_norm(spec, seq, (1.0, 1.0), (1, 2))
        with pytest.raises(InvalidVectorError, match="index 7 outside"):
            kernel((1.0,), (3,))


# ---------------------------------------------------------------------------
# Memo-free oracles for the scans
# ---------------------------------------------------------------------------


def goodness_record_oracle(spec, seq, coeffs, K, H):
    n = len(coeffs)
    if not (K >= 1 and K + H <= len(seq) and n <= H + 1):
        return GoodnessRecord(tuple(coeffs), K, H, False, None, None, None, None, 0)
    values = [plain_norm(spec, seq, coeffs, ks) for ks in itertools.combinations(range(K, K + H + 1), n)]
    sup = -math.inf
    inf = math.inf
    for value in values:
        if value > sup:
            sup = value
        if value < inf:
            inf = value
    return GoodnessRecord(tuple(coeffs), K, H, True, sup, inf, sup - inf, (sup + inf) / 2.0, len(values))


def equivalence_oracle(spec, seq, reference, net):
    n = reference.n
    head = list(seq)[:n]
    tuples = [t for t in net.tuples if len(t) == n]
    best_upper = best_lower = -math.inf
    arg_upper = arg_lower = tuples[0]
    for t in tuples:
        r_norm = reference.coeff_norm(t)
        if r_norm <= 0.0:
            continue
        ratio = plain_norm(spec, head, t, range(1, n + 1)) / r_norm
        if ratio > best_upper:
            best_upper, arg_upper = ratio, t
        if 1.0 / ratio > best_lower:
            best_lower, arg_lower = 1.0 / ratio, t

    def on_sphere(t):
        r = reference.coeff_norm(t)
        return tuple(c / r for c in t)

    step = net.step if net.step is not None else 0.25
    return EquivalenceReport(
        lower=best_lower,
        upper=best_upper,
        constant=best_lower * best_upper,
        certificate_lower=on_sphere(arg_lower),
        certificate_upper=on_sphere(arg_upper),
        n=n,
        net_step=net.step,
        net_error=0.5 * step * n * max(norm(spec, v) for v in head),
        reference=reference.describe(),
    )


OVERLAPPING = [
    SparseVector({1: 1.0, 2: 1.0}),
    SparseVector({2: 1.0}),
    SparseVector({2: -0.5, 3: 1.0}),
    SparseVector({4: 1.0}),
    SparseVector({3: 0.25, 5: 1.0}),
    SparseVector({6: 1.0}),
]


@pytest.fixture
def kernel_calls(monkeypatch):
    calls = []
    real = blockseq.combination_norm

    def counted(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(blockseq, "combination_norm", counted)
    return calls


class TestGoodnessMemo:
    @settings(max_examples=40, deadline=None)
    @given(spec=st.sampled_from(SPECS), seq=block_lists(), K=st.integers(1, 2), H=st.integers(0, 4))
    def test_records_match_the_oracle(self, spec, seq, K, H):
        net = ScalarNet.grid(step=0.5, max_len=2)
        report = goodness_test(spec, seq, net, K=K, H=H)
        expected = [goodness_record_oracle(spec, seq, t, K, H) for t in net.tuples]
        assert list(report.records) == expected

    @pytest.mark.parametrize("spec", [Lp(2.0), LpSum(2.0, (1.0, 1.5), (2, 10)), C0()])
    def test_overlapping_supports_keep_signs_apart(self, spec):
        # a(e1+e2) + b e2 = a e1 + (a+b) e2: flipping b changes the norm, so a
        # |t| memo would be wrong here and must not fire
        net = ScalarNet.grid(step=0.5, max_len=2)
        report = goodness_test(spec, OVERLAPPING, net, K=1, H=3)
        records = {r.coeffs: r for r in report.records}
        assert records[(1.0, 1.0)].sup != records[(1.0, -1.0)].sup
        expected = [goodness_record_oracle(spec, OVERLAPPING, t, 1, 3) for t in net.tuples]
        assert list(report.records) == expected

    # In l_2 the five unit vectors share one class, so each distinct |t| is
    # computed once; in James each position is its own class.
    @pytest.mark.parametrize("spec, computed", [(Lp(2.0), 2 + 8), (James(), 4 * 4 + 24 * 6)])
    def test_scans_compute_once_per_sign_pattern_and_class_tuple(self, spec, computed, kernel_calls):
        net = ScalarNet.grid(step=0.5, max_len=2)  # 4 + 24 tuples, 2 + 8 distinct |t|
        report = goodness_test(spec, [SparseVector.unit(i) for i in range(1, 6)], net, K=1, H=3)
        assert len(kernel_calls) == computed
        assert sum(r.evaluations for r in report.records) == 4 * 4 + 24 * 6

    def test_memo_hits_carry_their_own_coefficients_and_counts(self):
        net = ScalarNet.grid(step=0.5, max_len=2)
        report = goodness_test(Lp(2.0), [SparseVector.unit(i) for i in range(1, 8)], net, K=1, H=5)
        assert [r.coeffs for r in report.records] == list(net.tuples)
        assert {r.evaluations for r in report.records if len(r.coeffs) == 2} == {math.comb(6, 2)}

    def test_spreading_records_match_the_oracle(self):
        spec = LpSum(2.0, (1.0, 1.5), (3, 60))
        seq = list(nccb_from_blocking(spec, Blocking.parse("1|2,3|4|5,6|7|8|9|10,11|12")))
        net = ScalarNet.grid(step=0.5, max_len=2)
        estimate = spreading_model_estimate(spec, seq, net, horizons=[1, 3], H=4)
        expected = [
            goodness_record_oracle(spec, seq, t, K, 4) for K in (1, 3) for t in net.tuples
        ]
        assert [(r.coeffs, r.estimate, r.oscillation) for r in estimate.records] == [
            (r.coeffs, r.estimate, r.oscillation) for r in expected
        ]


# the boundary between its segments sits at 8 | 9, inside the windows below
STRADDLED = LpSum(2.0, (1.0, 1.5), (8, 60))


@st.composite
def repeated_shapes(draw):
    """Successive blocks made of two or three shapes, each repeated and translated.

    A shape is a list of (offset, coefficient) pairs; each block lays one
    shape down from a cursor.  In l_p and c_0, and within one segment of an
    l_p sum, the copies of a shape share a coordinate class.
    """
    shape = st.lists(st.integers(min_value=0, max_value=2), min_size=1, max_size=2, unique=True).flatmap(
        lambda offsets: st.tuples(
            st.just(sorted(offsets)), st.lists(sizable, min_size=len(offsets), max_size=len(offsets))
        )
    )
    shapes = draw(st.lists(shape, min_size=2, max_size=3))
    order = draw(st.lists(st.integers(min_value=0, max_value=len(shapes) - 1), min_size=3, max_size=8))
    vectors = []
    cursor = 1
    for i in order:
        offsets, coeffs = shapes[i]
        vectors.append(SparseVector({cursor + o: c for o, c in zip(offsets, coeffs)}))
        cursor += offsets[-1] + 1 + draw(st.sampled_from([0, 0, 1, 2]))
    return vectors


def spreading_oracle(spec, seq, net, horizons, H):
    return [
        (r.coeffs, K, r.feasible, r.estimate, r.oscillation)
        for K in sorted(horizons)
        for r in (goodness_record_oracle(spec, seq, t, K, H) for t in net.tuples)
    ]


def spreading_rows(estimate):
    return [(r.coeffs, r.horizon, r.feasible, r.estimate, r.oscillation) for r in estimate.records]


class TestGoodnessClassTuples:
    """Window scans that compute one norm per class tuple of positions."""

    @pytest.mark.parametrize("spec", SPECS + [STRADDLED])
    @settings(max_examples=30, deadline=None)
    @given(seq=repeated_shapes(), K=st.integers(1, 3), H=st.integers(0, 4))
    def test_records_match_the_oracle(self, spec, seq, K, H):
        net = ScalarNet.grid(step=0.5, max_len=2)
        report = goodness_test(spec, seq, net, K=K, H=H)
        assert list(report.records) == [goodness_record_oracle(spec, seq, t, K, H) for t in net.tuples]
        estimate = spreading_model_estimate(spec, seq, net, horizons=[1, 3], H=H)
        assert spreading_rows(estimate) == spreading_oracle(spec, seq, net, [1, 3], H)

    def test_a_window_across_a_segment_boundary(self, kernel_calls):
        # one shape on both sides of the boundary: two classes, not one
        seq = [SparseVector({k: 1.0, k + 1: -0.5}) for k in range(1, 20, 3)]
        segments = {s for v in seq[:5] for s, _ in STRADDLED.coordinates(v)}
        assert segments == {0, 1}
        net = ScalarNet.grid(step=0.5, max_len=3)
        report = goodness_test(STRADDLED, seq, net, K=1, H=4)
        assert list(report.records) == [goodness_record_oracle(STRADDLED, seq, t, 1, 4) for t in net.tuples]
        assert 0 < len(kernel_calls) < sum(r.evaluations for r in report.records)
        assert report.verdict == "oscillating"

    @pytest.mark.parametrize("spec", [Lp(2.0), C0(), James()])
    def test_overlapping_supports_walk_every_tuple(self, spec, monkeypatch):
        # translated copies of one shape, but overlapping: no classes, and
        # each distinct net tuple is combined over its whole window
        seq = [SparseVector({k: 1.0, k + 1: 1.0}) for k in range(1, 8)]
        calls = []
        real = blockseq.combine

        def counted(*args):
            calls.append(args)
            return real(*args)

        monkeypatch.setattr(blockseq, "combine", counted)
        net = ScalarNet.grid(step=0.5, max_len=2)
        report = goodness_test(spec, seq, net, K=2, H=4)
        assert len(calls) == sum(r.evaluations for r in report.records)
        assert list(report.records) == [goodness_record_oracle(spec, seq, t, 2, 4) for t in net.tuples]

    @pytest.mark.parametrize("spec", [Lp(2.0), C0(), LpSum(2.0, (1.0, 1.5), (3, 60)), James()])
    def test_an_overflow_raises_what_the_oracle_raises(self, spec):
        # units and two huge blocks: the window's first overflow, at (1, 4),
        # is -inf; a later one, of another class tuple, is +inf
        huge = {4: -1e300, 6: 1e300}
        seq = [SparseVector({k: huge.get(k, 1.0)}) for k in range(1, 9)]
        net = ScalarNet.of([(1.0,), (1.0, 1e10)])

        def raised(run):
            with pytest.raises(InvalidVectorError) as info:
                run()
            return str(info.value)

        expected = raised(lambda: [goodness_record_oracle(spec, seq, t, 1, 5) for t in net.tuples])
        assert expected == "coefficient -inf is not finite"
        assert raised(lambda: goodness_test(spec, seq, net, K=1, H=5)) == expected
        assert raised(lambda: spreading_model_estimate(spec, seq, net, horizons=[1], H=5)) == expected


class TestEquivalenceMemo:
    @settings(max_examples=60, deadline=None)
    @given(
        spec=st.sampled_from(SPECS),
        seq=block_lists(coefficient=sizable).filter(lambda vs: len(vs) >= 3),
        p=st.sampled_from([1.0, 2.0, 3.0, math.inf]),
    )
    def test_reports_match_the_oracle(self, spec, seq, p):
        net = ScalarNet.grid(step=0.5, max_len=3)
        reference = LpReference(p, 3)
        expected = equivalence_oracle(spec, seq, reference, net)
        assert equivalence_constant(spec, seq, reference, net=net) == expected

    def test_conditional_reference_keeps_signs_apart(self):
        # the sequence side ignores signs, the James reference does not
        units = [SparseVector.unit(i) for i in range(1, 4)]
        net = ScalarNet.grid(step=0.5, max_len=3)
        reference = SequenceReference(James(), units)
        report = equivalence_constant(Lp(2.0), units, reference, net=net)
        assert report == equivalence_oracle(Lp(2.0), units, reference, net)
        assert report.constant > 1.0

    @pytest.mark.parametrize("spec", [Lp(2.0), Lp(1.0), C0()])
    def test_overlapping_supports(self, spec):
        net = ScalarNet.grid(step=0.25, max_len=3)
        reference = LpReference(2.0, 3)
        assert not CombinationNorm(spec, OVERLAPPING[:3]).unconditional
        report = equivalence_constant(spec, OVERLAPPING, reference, net=net)
        assert report == equivalence_oracle(spec, OVERLAPPING, reference, net)


@pytest.fixture
def scanned(monkeypatch):
    """The sequences ``games`` hands to the equivalence scan, in call order."""
    calls = []
    real = games.equivalence_constant

    def counted(spec, seq, *args, **kwargs):
        calls.append(seq)
        return real(spec, seq, *args, **kwargs)

    monkeypatch.setattr(games, "equivalence_constant", counted)
    return calls


def lp_class(seq):
    """In l_p a block's coordinate class is its coefficient list."""
    return tuple(tuple(c for _, c in v.to_pairs()) for v in seq)


ASYMPTOTIC_SPECS = {
    "lp1": Lp(1.0),
    "lp1.5": Lp(1.5),
    "lp2": Lp(2.0),
    "lpinf": Lp(math.inf),
    "c0": C0(),
    "james": James(),
    "lp_sum": LpSum(2.0, (1.0, 1.5, 1.8), (2, 65, 400)),
    "interleave-lp-c0": Interleave(Lp(1.0), C0(), "sum"),
    "interleave-lp-james": Interleave(Lp(1.0), James(), "max"),
}


ORACLE_CASES = [(name, 2, (1, 4, 9), seed) for name in sorted(ASYMPTOTIC_SPECS) for seed in (0, 1, 2, 7)]
ORACLE_CASES += [("lp2", 3, (1, 10, 30), 0), ("lp_sum", 2, (1, 3, 68), 1)]


class TestAsymptoticMemo:
    @staticmethod
    def oracle_verdict(spec, p, n, schedule, seed, samples, net):
        """The verdict from one plain scan per pool tuple, with no memo."""
        pool = _tuple_pool(spec, n, schedule[0], schedule[-1] + 24, seed, samples)
        rows = []
        for N in schedule:
            eligible = [seq for seq in pool if seq[0].min_index() >= N]
            best = None
            for seq in eligible:
                report = equivalence_oracle(spec, seq, LpReference(p, n), net)
                if best is None or report.constant > best[0]:
                    best = (report.constant, seq, report)
            rows.append(
                AsymptoticReport(
                    n=n, N=N, constant=best[0], certificate=best[1], certificate_report=best[2],
                    window=24, seed=seed, samples=samples, pool_size=len(eligible), net=net,
                )
            )
        label = (
            "consistent-with-stabilized-1-asymptotic-lp"
            if rows[-1].constant <= 1.05
            else "not-consistent"
        )
        return AsymptoticVerdict(p=p, n=n, epsilon=0.05, rows=tuple(rows), verdict=label)

    @pytest.mark.parametrize(
        "name, n, schedule, seed",
        ORACLE_CASES,
        ids=[f"{name}-n{n}-N{schedule[-1]}-seed{seed}" for name, n, schedule, seed in ORACLE_CASES],
    )
    def test_verdict_matches_the_oracle(self, name, n, schedule, seed):
        spec = ASYMPTOTIC_SPECS[name]
        p = 1.0 if isinstance(spec, Interleave) else 2.0
        net = ScalarNet.grid(step=0.25, max_len=n)
        verdict = asymptotic_lp_verdict(spec, p, n, schedule, epsilon=0.05, net=net, seed=seed, samples=12)
        expected = self.oracle_verdict(spec, p, n, schedule, seed, 12, net)
        assert json.dumps(verdict.to_doc()).encode() == json.dumps(expected.to_doc()).encode()

    def test_each_coordinate_class_is_scanned_once(self, scanned):
        verdict = asymptotic_lp_verdict(Lp(2.0), 2.0, 2, [1, 5, 20], epsilon=0.05, samples=10)
        pool = _tuple_pool(Lp(2.0), 2, 1, 44, 0, 10)
        classes = [lp_class(seq) for seq in scanned]
        assert set(classes) == {lp_class(seq) for seq in pool}
        # the units and the pairs are one class each, the random tuples one each
        assert len(scanned) == len(set(classes)) == 12 < verdict.rows[0].pool_size == len(pool) == 94

    def test_readme_stabilized_scans_each_distinct_class(self, scanned):
        verdict = asymptotic_lp_verdict(Lp(2.0), 2.0, 3, [1, 10, 100], epsilon=0.1)
        pool = _tuple_pool(Lp(2.0), 3, 1, 124, 0, 40)
        assert verdict.rows[0].pool_size == len(pool) == 279
        assert len(scanned) == len({lp_class(seq) for seq in pool}) == 40

    def test_james_tuples_of_equal_shape_are_not_shared(self, scanned):
        # the same coefficients at 1, 2 and at 5, 6: James measures the gap
        # before a support, so the two tuples have different reports
        spec = James()
        pool = [
            BlockSequence([SparseVector({1: 1.0}), SparseVector({2: -0.5})]),
            BlockSequence([SparseVector({5: 1.0}), SparseVector({6: -0.5})]),
        ]
        net = ScalarNet.grid(step=0.25, max_len=2)
        reference = LpReference(2.0, 2)
        scans = {}
        games._max_constant(spec, reference, pool, net, scans)
        assert scanned == pool and len(scans) == 2
        first, second = (equivalence_oracle(spec, seq, reference, net) for seq in pool)
        assert first != second
        assert list(scans.values()) == [first, second]


class TestQuantizedColoring:
    @pytest.mark.parametrize(
        "spec, coeffs",
        [
            (LpSum(2.0, (1.0, 1.5, 1.8), (2, 65, 400)), (1.0, -0.5)),
            (James(), (0.5, 1.0)),
            (Interleave(Lp(1.0), Lp(2.0), "max"), (0.0, 1.0)),
            (Lp(3.0), (1.0, 1.0, -1.0)),
        ],
    )
    def test_colors_match_the_sparse_vector_path(self, spec, coeffs):
        cache = {}
        coloring = norm_quantization_coloring(spec, coeffs, 0.05, 7, cache=cache)
        for blocking in coarsenings(Blocking.singletons(7), len(coeffs)):
            ys = nccb_from_blocking(spec, blocking)
            value = plain_norm(spec, ys, coeffs, range(1, len(coeffs) + 1))
            assert coloring.of_blocking(list(blocking)) == int(math.floor(round(value, 12) / 0.05))
        # the cache holds class ids and class coordinates, no vectors
        assert cache and not any(isinstance(coords, SparseVector) for coords in cache.values())
