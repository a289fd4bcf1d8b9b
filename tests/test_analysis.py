"""Goodness verdicts, spreading estimates, equivalence constants,
extraction, stabilization, and the Krivine slope estimator."""

import math
from random import Random

import pytest
from hypothesis import given, settings, strategies as st

from banachkit import analysis
from banachkit.analysis import (
    LpReference,
    ScalarNet,
    SequenceReference,
    StabilizationResult,
    VERDICT_GOOD,
    VERDICT_INCONCLUSIVE,
    VERDICT_OSCILLATING,
    brunel_sucheston_extract,
    equivalence_constant,
    verify_example_space,
    goodness_test,
    krivine_p_estimate,
    nccb_stabilize,
    norm_quantization_coloring,
    random_block_tuple,
    spreading_model_estimate,
    verify_stabilization,
)
from banachkit.blockseq import (
    BlockSequence,
    branch,
    interleave_array,
    nccb_from_blocking,
    tree_from_array,
)
from banachkit.combinatorics import Blocking, FiniteSet, coarsenings
from banachkit.spaces import C0, Interleave, James, Lp, LpSum, SparseVector, make_example_space, norm


def unit(i):
    return SparseVector.unit(i)


def lp_units(n):
    return [unit(i) for i in range(1, n + 1)]


def interleave_space():
    return Interleave(Lp(1.0), Lp(2.0), "max")


def interleave_branch(rows=8):
    odd = BlockSequence([unit(2 * i - 1) for i in range(1, rows + 6)])
    even = BlockSequence([unit(2 * i) for i in range(1, rows + 6)])
    arr = interleave_array(odd, even, m=2, rows=rows)
    tree = tree_from_array(arr, depth=rows, width=2)
    return list(branch(tree, range(1, rows + 1)))


class TestScalarNet:
    def test_grid_contents(self):
        net = ScalarNet.grid(step=0.5, max_len=2)
        assert (1.0,) in net.tuples and (-1.0,) in net.tuples
        assert (0.0, 1.0) in net.tuples and (1.0, 0.0) in net.tuples
        assert (0.0,) not in net.tuples and (0.0, 0.0) not in net.tuples
        for t in net.tuples:
            assert all(abs(c) <= 1.0 and abs(c / 0.5 - round(c / 0.5)) < 1e-12 for c in t)

    def test_grid_deterministic_order(self):
        assert ScalarNet.grid(0.5, 2).tuples == ScalarNet.grid(0.5, 2).tuples
        lens = [len(t) for t in ScalarNet.grid(0.5, 3).tuples]
        assert lens == sorted(lens)

    def test_bad_step_rejected(self):
        with pytest.raises(ValueError):
            ScalarNet.grid(step=0.3)

    @pytest.mark.parametrize("max_len", [0, -1])
    def test_empty_grid_rejected(self, max_len):
        # an empty net would make every goodness verdict a vacuous pass
        with pytest.raises(ValueError, match="max_len"):
            ScalarNet.grid(step=0.25, max_len=max_len)


class TestGoodness:
    def test_lp_units_are_good_with_exact_limits(self):
        spec = Lp(2.0)
        net = ScalarNet.grid(0.5, 2)
        report = goodness_test(spec, lp_units(20), net, K=1, epsilon=1e-9)
        assert report.verdict == VERDICT_GOOD
        for r in report.records:
            expected = sum(abs(c) ** 2 for c in r.coeffs) ** 0.5
            assert r.estimate == pytest.approx(expected, abs=1e-12)
            assert r.oscillation <= 1e-12

    def test_interleave_branch_oscillates(self):
        report = goodness_test(
            interleave_space(), interleave_branch(), ScalarNet.of([(1.0, 1.0)]),
            K=1, epsilon=1e-6,
        )
        assert report.verdict == VERDICT_OSCILLATING
        record = report.records[0]
        assert record.sup == pytest.approx(2.0, abs=1e-12)
        assert record.inf == pytest.approx(1.0, abs=1e-12)
        assert record.oscillation >= 2 - math.sqrt(2) - 1e-9

    def test_verdict_monotone_in_epsilon(self):
        spec = interleave_space()
        seq = interleave_branch()
        net = ScalarNet.of([(1.0, 1.0)])
        tight = goodness_test(spec, seq, net, epsilon=0.5)
        loose = goodness_test(spec, seq, net, epsilon=1.5)
        assert tight.verdict == VERDICT_OSCILLATING
        assert loose.verdict == VERDICT_GOOD  # oscillation 1.0 <= 1.5

    def test_short_sequence_inconclusive(self):
        report = goodness_test(Lp(2.0), lp_units(3), ScalarNet.grid(0.5, 2), K=1)
        assert report.verdict == VERDICT_INCONCLUSIVE
        assert report.diagnostics

    def test_example_space_limits_approach_lp(self):
        spec = make_example_space(2.0, 3, [1.0, 1.5, 1.8])
        seq = [unit(i) for i in range(1, 90)]
        net = ScalarNet.grid(0.5, 2)
        early = goodness_test(spec, seq, net, K=1, epsilon=1e-9)
        late = goodness_test(spec, seq, net, K=70, epsilon=1e-9)
        assert late.max_oscillation() < early.max_oscillation()
        for r in late.records:
            expected = sum(abs(c) ** 2 for c in r.coeffs) ** 0.5
            bound = (2 ** (1 / 1.8 - 1 / 2) - 1) * expected + 1e-9
            assert abs(r.estimate - expected) <= bound


class TestSpreading:
    def test_lp_estimates_exact(self):
        report = spreading_model_estimate(
            Lp(1.5), lp_units(25), ScalarNet.grid(0.5, 2), horizons=[1, 6]
        )
        for r in report.records:
            expected = sum(abs(c) ** 1.5 for c in r.coeffs) ** (1 / 1.5)
            assert r.estimate == pytest.approx(expected, abs=1e-12)

    def test_unit_tuples_estimate_one(self):
        report = spreading_model_estimate(
            Lp(2.0), lp_units(15), ScalarNet.of([(1.0,), (0.0, 1.0)]), horizons=[1, 4]
        )
        for r in report.records:
            assert r.estimate == pytest.approx(1.0, abs=1e-12)

    def test_james_staircase_horizon_independent(self):
        spec = James()
        stairs = [SparseVector.indicator(range(1, k + 1)) for k in (2, 5, 7, 11, 14, 20, 23, 28, 31, 37, 40, 44)]
        report = spreading_model_estimate(
            spec, stairs, ScalarNet.grid(0.5, 2), horizons=[1, 4]
        )
        for coeffs in {r.coeffs for r in report.records}:
            values = [e for _, e in report.estimates_for(coeffs)]
            assert max(values) - min(values) <= 1e-9
        for r in report.records:
            assert r.oscillation <= 1e-9

    def test_fit_reference_p(self):
        report = spreading_model_estimate(
            Lp(2.0), lp_units(25), ScalarNet.of([(1.0,), (1.0, 1.0), (1.0, 1.0, 1.0)]),
            horizons=[1, 5], fit_reference_p=True,
        )
        assert report.fit_p == pytest.approx(2.0, abs=1e-6)

    def test_monotone_oscillation_diagnostic(self):
        spec = make_example_space(2.0, 2, [1.0, 1.5])
        seq = [unit(i) for i in range(1, 40)]
        report = spreading_model_estimate(spec, seq, ScalarNet.grid(1.0, 2), horizons=[1, 10])
        assert report.monotone_oscillation


class TestEquivalence:
    def test_l1_pair_against_l2(self):
        report = equivalence_constant(Lp(1.0), lp_units(2), LpReference(2.0, 2))
        assert report.lower == pytest.approx(1.0, abs=1e-12)
        assert report.upper == pytest.approx(math.sqrt(2), abs=1e-12)
        assert report.constant == pytest.approx(math.sqrt(2), abs=1e-12)
        assert sorted(abs(c) for c in report.certificate_upper) == pytest.approx(
            [1 / math.sqrt(2)] * 2, abs=1e-12
        )
        assert sorted(abs(c) for c in report.certificate_lower) == pytest.approx(
            [0.0, 1.0], abs=1e-12
        )

    def test_certificates_reproduce_bounds(self):
        spec = interleave_space()
        seq = [unit(1), unit(2), unit(3)]
        ref = LpReference(2.0, 3)
        report = equivalence_constant(spec, seq, ref)
        from banachkit.blockseq import combine

        s_up = norm(spec, combine(seq, report.certificate_upper, [1, 2, 3]))
        r_up = ref.coeff_norm(report.certificate_upper)
        assert s_up / r_up == pytest.approx(report.upper, abs=1e-9)
        s_lo = norm(spec, combine(seq, report.certificate_lower, [1, 2, 3]))
        r_lo = ref.coeff_norm(report.certificate_lower)
        assert r_lo / s_lo == pytest.approx(report.lower, abs=1e-9)

    def test_nccb_lp_isometry(self):
        for p in (1.0, 1.5, 2.0, math.inf):
            seq = nccb_from_blocking(Lp(p), Blocking.parse("1,2|3|4,5,6|8"))
            report = equivalence_constant(Lp(p), list(seq), LpReference(p, 4))
            assert report.constant <= 1 + 1e-9

    def test_symmetry_under_swap(self):
        seq = lp_units(2)
        forward = equivalence_constant(Lp(1.0), seq, SequenceReference(Lp(2.0), seq))
        backward = equivalence_constant(Lp(2.0), seq, SequenceReference(Lp(1.0), seq))
        assert forward.lower == pytest.approx(backward.upper, abs=1e-12)
        assert forward.upper == pytest.approx(backward.lower, abs=1e-12)
        assert forward.constant == pytest.approx(backward.constant, abs=1e-12)

    def test_claim1_bound_on_block_tuples(self):
        spec = make_example_space(2.0, 3, [1.0, 1.5, 1.8])
        rng = Random(4)
        for _ in range(25):
            seq = random_block_tuple(spec, rng, max_n=3)
            n = len(seq)
            report = equivalence_constant(spec, list(seq), LpReference(2.0, n), net_step=0.5)
            s0 = spec.segment_of(seq[0].min_index()).s
            cap = n ** (1 / spec.ps[s0 - 1] - 1 / 2)
            assert report.constant <= cap + report.net_error + 1e-9

    def test_too_few_vectors_rejected(self):
        with pytest.raises(ValueError):
            equivalence_constant(Lp(2.0), lp_units(2), LpReference(2.0, 3))


class TestExtraction:
    def test_lp_identity_selection(self):
        result = brunel_sucheston_extract(
            Lp(2.0), lp_units(16), ScalarNet.grid(0.5, 2), target_len=8
        )
        assert result.indices == tuple(range(1, 9))
        assert result.complete
        assert result.certified

    def test_interleave_selects_single_parity(self):
        result = brunel_sucheston_extract(
            interleave_space(), lp_units(16), ScalarNet.of([(1.0, 1.0)]),
            eps_schedule=[0.25], target_len=7,
        )
        assert len({i % 2 for i in result.indices}) == 1
        assert result.certified

    def test_example_space_selection_escapes_low_segment(self):
        spec = make_example_space(2.0, 3, [1.0, 1.5, 1.8])
        seq = [unit(i) for i in range(1, 21)]
        result = brunel_sucheston_extract(
            spec, seq, ScalarNet.of([(1.0, 1.0)]), eps_schedule=[0.25], target_len=8
        )
        # pair norms differ between segment-1 and segment-2 supports, so a
        # 0.25-stabilized selection must avoid the first segment entirely
        assert all(i >= 3 for i in result.indices)
        assert result.certified

    def test_unnormalized_input_rejected(self):
        with pytest.raises(ValueError):
            brunel_sucheston_extract(
                Lp(2.0), [SparseVector({1: 2.0})], ScalarNet.grid(1.0, 1)
            )

    def test_failure_is_flagged_not_silent(self):
        # window too tight to certify: target longer than the ground set
        result = brunel_sucheston_extract(
            Lp(2.0), lp_units(4), ScalarNet.grid(0.5, 2), target_len=8
        )
        assert not result.complete
        assert not any(step.found for step in result.steps)


class TestStabilization:
    def test_lp_identity_blocking(self):
        result = nccb_stabilize(Lp(2.0), 6, ScalarNet.grid(0.5, 2), epsilon=0.1, quantum=0.05)
        assert result.blocking == Blocking.singletons(6)
        assert result.complete

    def test_constant_coloring_keeps_identity(self):
        # c_0: every NCCB combination norm is max|a_i|, constant over blockings
        result = nccb_stabilize(C0(), 5, ScalarNet.grid(0.5, 2), epsilon=0.1, quantum=0.05)
        assert result.blocking == Blocking.singletons(5)

    def test_example_space_drops_low_segment(self):
        spec = make_example_space(2.0, 3, [1.0, 1.5, 1.8])
        net = ScalarNet.grid(0.5, 2)
        result = nccb_stabilize(spec, 8, net, epsilon=0.1, quantum=0.05)
        assert result.complete
        assert result.blocking.encode() == "3|4|5|6|7|8"
        assert verify_stabilization(spec, result, net)

    def test_post_goodness_within_eps_plus_quantum(self):
        spec = make_example_space(2.0, 3, [1.0, 1.5, 1.8])
        net = ScalarNet.grid(0.5, 2)
        result = nccb_stabilize(spec, 8, net, epsilon=0.1, quantum=0.05)
        P = result.blocking
        for m in (len(P), len(P) - 1):
            for Q in coarsenings(P, m):
                seq = nccb_from_blocking(spec, Q)
                report = goodness_test(spec, list(seq), net, K=1, H=m - 1, epsilon=0.15)
                assert report.max_oscillation() <= result.epsilon + result.quantum

    def test_quantization_coloring_values(self):
        coloring = norm_quantization_coloring(Lp(2.0), (1.0, 1.0), 0.05, 10)
        value = coloring.of_blocking([FiniteSet([1]), FiniteSet([2])])
        assert value == int(math.floor(round(math.sqrt(2), 12) / 0.05))


UNCONDITIONAL_SPACES = {
    "lp": Lp(1.5),
    "c0": C0(),
    "lp_sum": LpSum(2.0, (1.0, 1.5, 1.8), (2, 3, 4)),
    "interleave": Interleave(Lp(1.0), C0(), "sum"),
}


def hand_built_result(blocking, ground):
    return StabilizationResult(
        blocking=Blocking.parse(blocking), steps=(), complete=True,
        epsilon=0.1, quantum=0.05, ground=ground,
    )


class TestVerifyStabilizationFamilies:
    @pytest.mark.parametrize("kind", sorted(UNCONDITIONAL_SPACES))
    @settings(max_examples=25, deadline=None)
    @given(t=st.lists(st.sampled_from((-1.0, -0.7, -0.5, 0.0, 0.3, 0.5, 1.0)), min_size=1, max_size=3))
    def test_sign_family_colors_every_coarsening_alike(self, kind, t):
        spec = UNCONDITIONAL_SPACES[kind]
        assert spec.unconditional
        P = Blocking.parse("1|2,3|5|6,7,8")
        family = [t, [-a for a in t], [abs(a) for a in t]]
        colorings = [norm_quantization_coloring(spec, coeffs, 0.05, 8) for coeffs in family]
        for F in coarsenings(P, len(t)):
            assert len({c.of_blocking(list(F)) for c in colorings}) == 1

    @staticmethod
    def recolored_tuples(monkeypatch):
        calls = []
        coloring = analysis.norm_quantization_coloring

        def counted(spec, coeffs, *args, **kwargs):
            calls.append(tuple(coeffs))
            return coloring(spec, coeffs, *args, **kwargs)

        monkeypatch.setattr(analysis, "norm_quantization_coloring", counted)
        return calls

    def test_unconditional_space_recolors_each_sign_family_once(self, monkeypatch):
        spec = make_example_space(2.0, 3, [1.0, 1.5, 1.8])
        net = ScalarNet.grid(0.5, 2)
        result = nccb_stabilize(spec, 8, net, epsilon=0.1, quantum=0.05)
        calls = self.recolored_tuples(monkeypatch)
        assert verify_stabilization(spec, result, net)
        families = {tuple(map(abs, t)) for t in net.tuples}
        assert len(net.tuples) == 28 and len(families) == 10
        assert len(calls) == 10
        assert {tuple(map(abs, t)) for t in calls} == families

    def test_james_recolors_every_tuple(self, monkeypatch):
        net = ScalarNet.grid(0.5, 2)
        result = nccb_stabilize(James(), 8, net, epsilon=0.1, quantum=0.05)
        assert len(result.blocking) >= net.max_len
        calls = self.recolored_tuples(monkeypatch)
        assert verify_stabilization(James(), result, net)
        assert calls == [tuple(t) for t in net.tuples]

    @pytest.mark.parametrize(
        "spec, blocking",
        [(James(), "1|3|5"), (Interleave(Lp(2.0), James(), "max"), "2|3|4")],
        ids=["james", "interleave-with-james"],
    )
    def test_conditional_family_member_is_checked(self, spec, blocking):
        # (1, 1) is monochromatic over these blockings and (1, -1) is not;
        # folding them into one sign family would pass the result
        result = hand_built_result(blocking, 5)
        assert verify_stabilization(spec, result, ScalarNet.of([(1.0, 1.0)]))
        assert not verify_stabilization(spec, result, ScalarNet.of([(1.0, 1.0), (1.0, -1.0)]))

    def test_unconditional_later_family_is_checked(self):
        spec = make_example_space(2.0, 3, [1.0, 1.5, 1.8])
        # blocks 1 and 2 lie in the l_1 segment, block 3 in the next one
        result = hand_built_result("1|2|3", 3)
        assert verify_stabilization(spec, result, ScalarNet.of([(1.0,), (-1.0,)]))
        assert not verify_stabilization(spec, result, ScalarNet.of([(1.0,), (-1.0,), (-0.5, 1.0)]))


class TestTolerances:
    @pytest.mark.parametrize("quantum", [0.0, -0.05, math.nan, math.inf])
    def test_quantum_must_be_positive_and_finite(self, quantum):
        with pytest.raises(ValueError, match="quantum"):
            norm_quantization_coloring(Lp(2.0), (1.0,), quantum, 4)

    @pytest.mark.parametrize("epsilon", [-1.0, math.nan, math.inf])
    def test_goodness_epsilon_must_be_finite_and_nonnegative(self, epsilon):
        with pytest.raises(ValueError, match="epsilon"):
            goodness_test(Lp(2.0), lp_units(6), ScalarNet.of([(1.0,)]), epsilon=epsilon)

    def test_goodness_epsilon_zero_is_allowed(self):
        report = goodness_test(Lp(2.0), lp_units(6), ScalarNet.of([(1.0,)]), epsilon=0.0)
        assert report.verdict == VERDICT_GOOD

    @pytest.mark.parametrize(
        "epsilon, quantum",
        [(math.nan, 0.05), (math.inf, 0.05), (-0.1, 0.05), (0.1, math.nan), (0.1, math.inf), (0.1, 0.0)],
    )
    def test_stabilize_rejects_before_any_search(self, monkeypatch, epsilon, quantum):
        def no_search(*args, **kwargs):
            raise AssertionError("searched with an invalid tolerance")

        monkeypatch.setattr(analysis, "milliken_taylor_search", no_search)
        # no net tuple fits M = 1, so without the up-front check nothing is colored
        with pytest.raises(ValueError, match="epsilon" if quantum == 0.05 else "quantum"):
            nccb_stabilize(Lp(2.0), 1, ScalarNet.of([(1.0, 1.0)]), epsilon=epsilon, quantum=quantum)


class TestKrivine:
    def test_lp_exact(self):
        for p in (1.0, 2.0, 3.0):
            report = krivine_p_estimate(Lp(p), 16)
            assert report.p_estimate == pytest.approx(p, abs=0.01)
            assert report.r_squared > 0.999

    def test_c0_infinite(self):
        assert krivine_p_estimate(C0(), 16).p_estimate == math.inf

    def test_example_space_approaches_p_along_segments(self):
        spec = make_example_space(2.0, 3, [1.0, 1.5, 1.8])
        inside_second = krivine_p_estimate(spec, 12, start=3).p_estimate
        inside_third = krivine_p_estimate(spec, 12, start=100).p_estimate
        assert inside_second == pytest.approx(1.5, abs=0.01)
        assert inside_third == pytest.approx(1.8, abs=0.01)
        assert abs(inside_third - 2.0) < abs(inside_second - 2.0)

    def test_max_n_validation(self):
        with pytest.raises(ValueError):
            krivine_p_estimate(Lp(2.0), 3)


class TestExampleSpaceVerification:
    def test_passes(self):
        report = verify_example_space(2.0, [1.0, 1.5, 1.8], trials=150, seed=3)
        assert report.passed
        assert not report.sandwich_failures
        assert all(ok for _, ok in report.type_checks)

    def test_zero_trials_vacuous(self):
        report = verify_example_space(2.0, [1.0, 1.5], trials=0)
        assert report.vacuous
        assert report.passed
