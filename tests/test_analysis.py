"""Goodness verdicts, spreading estimates, equivalence constants,
extraction, stabilization, and the Krivine slope estimator."""

import dataclasses
import itertools
import json
import math
import re
import statistics
from random import Random

import pytest
from hypothesis import given, settings, strategies as st

from banachkit import analysis, combinatorics
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
    combine,
    interleave_array,
    nccb_from_blocking,
    tree_from_array,
)
from banachkit.combinatorics import (
    Blocking,
    FiniteSet,
    _START,
    _class_step,
    _coarsening_colors,
    coarsenings,
    constant_coloring,
    milliken_taylor_search,
)
from banachkit.spaces import (
    C0,
    Interleave,
    InvalidVectorError,
    James,
    Lp,
    LpSum,
    SparseVector,
    combination_norm,
    make_example_space,
    norm,
    type_p_witness,
)

from draw_oracle import RandomOverridingRandom, draw_mismatches, oracle_random_block_tuple
from stabilize_oracle import STABILIZE_CASES, oracle_nccb_stabilize, stabilize_mismatches


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

    @pytest.mark.parametrize("step", [math.nan, math.inf, 0.0, -0.5])
    def test_non_finite_or_non_positive_step_rejected(self, step):
        with pytest.raises(ValueError, match="out of range"):
            ScalarNet.grid(step=step)

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

    def test_sequence_reference_rejects_extra_coefficients(self):
        # successive supports take the kernel, overlapping ones combine
        for seq in (lp_units(2), [SparseVector({1: 1.0, 2: 1.0}), SparseVector({2: 1.0})]):
            ref = SequenceReference(Lp(1.0), seq)
            assert ref.coeff_norm([1.0, -1.0]) == norm(Lp(1.0), combine(seq, [1.0, -1.0], [1, 2]))
            with pytest.raises(ValueError, match="3 coefficients for 2 reference vectors"):
                ref.coeff_norm([1.0, 1.0, 1.0])

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

    @pytest.mark.parametrize("p", [0.0, 0.5, -1.0, math.nan])
    def test_reference_exponent_outside_one_to_inf_rejected(self, p):
        with pytest.raises(ValueError, match="outside"):
            LpReference(p, 2)

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

    @pytest.mark.parametrize("target_len", [0, -1])
    def test_target_len_below_one_rejected(self, target_len):
        with pytest.raises(ValueError, match="target_len must be >= 1"):
            brunel_sucheston_extract(Lp(2.0), lp_units(4), ScalarNet.grid(0.5, 2), target_len=target_len)

    def test_colors_stay_in_range_for_coefficients_past_one(self, monkeypatch):
        # ||3 y_i + 3 y_j|| = 3 sqrt 2 lands in cell 8 at eps 1/2: the color
        # count must follow sum |a_i|, not the tuple length
        declared = []
        real = analysis.ramsey_search

        def checked(coloring, k, L):
            declared.append(coloring.colors)
            for subset in itertools.combinations(range(1, coloring.ground + 1), k):
                assert coloring.fn(FiniteSet(subset)) in range(coloring.colors)
            return real(coloring, k, L)

        monkeypatch.setattr(analysis, "ramsey_search", checked)
        brunel_sucheston_extract(Lp(2.0), lp_units(6), ScalarNet.of([(3.0, -3.0), (2.5,)]), target_len=4)
        assert declared == [14, 12]

    @pytest.mark.parametrize("schedule, message", [
        (None, "extraction step m=1023 with eps=1.1125369292536007e-308 and coefficients [1.0, 1.0]"),
        ([0.5, 0.0], "extraction step m=2 with eps=0.0 and coefficients [1.0, 1.0]"),
        ([0.5, math.nan], "extraction step m=2 with eps=nan and coefficients [1.0, 1.0]"),
    ])
    def test_an_infinite_count_of_colors_is_refused(self, schedule, message):
        net = ScalarNet.of([(1.0, 1.0)] * 1100)
        with pytest.raises(ValueError, match=re.escape(message) + " gives no finite count of colors"):
            brunel_sucheston_extract(Lp(2.0), lp_units(4), net, eps_schedule=schedule, target_len=2)

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

    def test_ground_too_small_for_the_longest_tuples_is_incomplete(self):
        # two singletons cannot carry the length-3 tuples of the net
        result = nccb_stabilize(Lp(2.0), 2, ScalarNet.grid(1.0, 3), epsilon=0.1, quantum=0.05)
        assert not result.complete
        assert result.blocking == Blocking.singletons(2)
        skipped = [step for step in result.steps if len(step.coeffs) == 3]
        assert skipped
        assert all((step.found, step.color, step.nodes_explored) == (False, None, 0) for step in skipped)
        assert all(step.found for step in result.steps if len(step.coeffs) < 3)

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


class TestWindows:
    @pytest.mark.parametrize("K, H", [(0, 2), (-1, 2), (1, -1)])
    def test_goodness_window_must_start_at_one(self, K, H):
        with pytest.raises(ValueError, match="K >= 1 and H >= 0"):
            goodness_test(Lp(2.0), lp_units(6), ScalarNet.of([(1.0,)]), K=K, H=H)

    @pytest.mark.parametrize("horizons, H", [([1, 2], -2), ([0, 2], 3), ([-1], None)])
    def test_spreading_horizons_and_window_are_checked(self, horizons, H):
        with pytest.raises(ValueError, match="H >= 0 and every horizon >= 1"):
            spreading_model_estimate(Lp(2.0), lp_units(6), ScalarNet.of([(1.0,)]), horizons, H=H)

    def test_zero_width_window_is_allowed(self):
        report = goodness_test(Lp(2.0), lp_units(6), ScalarNet.of([(1.0,), (1.0, 1.0)]), K=1, H=0)
        assert [r.feasible for r in report.records] == [True, False]
        assert report.verdict == VERDICT_INCONCLUSIVE


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

    @pytest.mark.parametrize("start", [0, -5])
    def test_start_validation(self, start):
        with pytest.raises(ValueError, match="start must be >= 1"):
            krivine_p_estimate(Lp(2.0), 8, start=start)


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

    def test_negative_trials_rejected(self):
        with pytest.raises(ValueError, match="trials"):
            verify_example_space(2.0, [1.0, 1.5], trials=-5)

    def test_too_short_space_rejected_before_drawing(self, monkeypatch):
        def no_draw(*args, **kwargs):
            raise AssertionError("drew a tuple in a space too short for it")

        monkeypatch.setattr(analysis, "_draw_block_tuple", no_draw)
        # make_example_space(2, 1, [1]) has the single segment l_1^2
        with pytest.raises(ValueError, match="total dimension 2"):
            verify_example_space(2.0, [1.0], trials=10)

    @pytest.mark.parametrize("max_n, max_block", [(1, 1), (1, 3), (2, 2)])
    def test_reach_is_the_largest_drawn_index(self, max_n, max_block):
        # a space as long as the reach holds every draw and some draw ends
        # on its last index; one index shorter, that draw leaves the space
        reach = analysis._block_tuple_reach(max_n, max_block)
        fits = LpSum(p=2.0, ps=(1.0,), ns=(reach,))
        rng = Random(0)
        tops = [random_block_tuple(fits, rng, max_n, max_block)[-1].max_index() for _ in range(2000)]
        assert max(tops) == reach
        short = LpSum(p=2.0, ps=(1.0,), ns=(reach - 1,))
        rng = Random(0)
        with pytest.raises(InvalidVectorError, match="outside the declared segments"):
            for _ in range(2000):
                random_block_tuple(short, rng, max_n, max_block)


# ---------------------------------------------------------------------------
# Differential tests: the sandwich check and its random block tuples against
# the SparseVector / combine path they replaced, copied as the oracle (the
# draw's into draw_oracle.py, which golden_hashes.py runs too).
# ---------------------------------------------------------------------------


def oracle_verify_example_space(p, ps, trials, seed=0, tol=1e-9):
    spec = make_example_space(p, len(ps), ps)
    rng = Random(seed)
    failures = []
    for _ in range(max(trials, 0)):
        seq = oracle_random_block_tuple(spec, rng)
        n = len(seq)
        coeffs = [rng.uniform(-1.0, 1.0) for _ in range(n)]
        value = spec.norm(combine(seq, coeffs, range(1, n + 1)))
        power_sum = sum(abs(a) ** spec.p for a in coeffs)
        s0 = spec.segment_of(seq[0].min_index()).s
        cap = n ** (spec.p / spec.ps[s0 - 1] - 1.0) * power_sum
        mid = value ** spec.p
        if not (power_sum <= mid + tol and mid <= cap + tol):
            failures.append(
                {
                    "blocks": [list(v.support()) for v in seq],
                    "vectors": [v.to_pairs() for v in seq],
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
    return analysis.ExampleSpaceReport(
        passed=passed,
        trials=max(trials, 0),
        sandwich_failures=tuple(failures),
        type_checks=type_checks,
        ns=spec.ns,
        vacuous=trials <= 0,
    )


# (p, ps): the default space, a shorter one, and two with other exponents;
# the second segment of the last is 513 long, its third about 3.8e14
EXAMPLE_PARAMETERS = [
    (2.0, (1.0, 1.5, 1.8)),
    (2.0, (1.0, 1.5)),
    (1.5, (1.0, 1.2)),
    (1.8, (1.2, 1.5, 1.7)),
]


def report_bytes(report):
    return json.dumps(report.to_doc(), sort_keys=True, allow_nan=False)


class TestSandwichAgainstVectorPath:
    @settings(max_examples=30, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        parameters=st.sampled_from(EXAMPLE_PARAMETERS),
        tol=st.sampled_from((1e-9, 0.0, -1e-3)),
    )
    def test_report_is_byte_identical(self, seed, parameters, tol):
        p, ps = parameters
        report = verify_example_space(p, ps, 120, seed=seed, tol=tol)
        assert report_bytes(report) == report_bytes(oracle_verify_example_space(p, ps, 120, seed=seed, tol=tol))

    @pytest.mark.parametrize("parameters", EXAMPLE_PARAMETERS)
    def test_failure_records_are_byte_identical(self, parameters):
        # a negative tolerance makes some trials fail, so records are compared
        p, ps = parameters
        report = verify_example_space(p, ps, 400, seed=7, tol=-1e-3)
        assert report.sandwich_failures and not report.passed
        assert report_bytes(report) == report_bytes(oracle_verify_example_space(p, ps, 400, seed=7, tol=-1e-3))

    @settings(max_examples=40, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        parameters=st.sampled_from(EXAMPLE_PARAMETERS),
        max_n=st.integers(1, 5),
        # past 5, sample's set size grows with k; the pool branch must hold
        max_block=st.integers(1, 30),
        constant_coefficients=st.booleans(),
        rng_class=st.sampled_from((Random, RandomOverridingRandom)),
    )
    def test_random_block_tuple_matches(self, seed, parameters, max_n, max_block, constant_coefficients, rng_class):
        spec = make_example_space(parameters[0], len(parameters[1]), parameters[1])
        assert draw_mismatches(spec, seed, max_n, max_block, constant_coefficients, rng_class) == []

    @pytest.mark.parametrize("max_n, max_block", [(0, 5), (4, 0)])
    def test_empty_shape_rejected(self, max_n, max_block):
        with pytest.raises(ValueError, match="max_n and max_block must be >= 1"):
            random_block_tuple(make_example_space(2.0, 2, [1.0, 1.5]), Random(0), max_n, max_block)


# ---------------------------------------------------------------------------
# Differential tests: norm-quantization colorings memoized by block class
# against the memo-free coloring they replaced, copied here as the oracle.
# ---------------------------------------------------------------------------


def oracle_quantization_coloring(spec, coeffs, quantum):
    coeffs = tuple(float(c) for c in coeffs)
    coords_cache = {}

    def nccb_coordinates(block):
        key = block.elements
        if key not in coords_cache:
            indicator = SparseVector.indicator(key)
            coords_cache[key] = spec.coordinates(indicator.scale(1.0 / spec.norm(indicator)))
        return coords_cache[key]

    def fn(blocks):
        parts = [nccb_coordinates(b) if a != 0.0 else () for a, b in zip(coeffs, blocks)]
        value = combination_norm(spec, coeffs, parts)
        return int(math.floor(round(value, 12) / quantum))

    return fn


CLASS_SPACES = {
    "lp1": Lp(1.0),
    "lp1.5": Lp(1.5),
    "lp2": Lp(2.0),
    "lpinf": Lp(math.inf),
    "c0": C0(),
    "example": make_example_space(2.0, 3, [1.0, 1.5, 1.8]),
    # segments {1, 2}, {3, 4, 5}, {6..10}: blocks of {1..10} cross them
    "lp_sum-crossing": LpSum(2.0, (1.0, 1.5, 1.8), (2, 3, 5)),
    "interleave-lp-c0": Interleave(Lp(1.5), C0(), "sum"),
    "interleave-lp-james": Interleave(Lp(2.0), James(), "max"),
    "james": James(),
}


@st.composite
def blockings_of_ten(draw, arity):
    """A blocking of ``arity`` blocks, drawn from the subsets of {1..10}."""
    elements = sorted(draw(st.lists(st.integers(1, 10), min_size=arity, max_size=10, unique=True)))
    cuts = sorted(draw(st.permutations(range(1, len(elements))))[: arity - 1])
    bounds = [0, *cuts, len(elements)]
    return tuple(FiniteSet(elements[a:b]) for a, b in zip(bounds, bounds[1:]))


coloring_coefficient = st.one_of(
    st.sampled_from((0.0, -0.0, 1.0, -1.0, 0.5, -0.5)),
    st.floats(min_value=-1.0, max_value=1.0, allow_nan=False),
)


@st.composite
def coloring_cases(draw):
    """Colorings of one arity (coefficients, quantum) and blockings to color."""
    arity = draw(st.integers(1, 3))
    colorings = draw(
        st.lists(
            st.tuples(
                st.lists(coloring_coefficient, min_size=arity, max_size=arity),
                st.sampled_from((0.05, 0.1, 0.3, 1.0)),
            ),
            min_size=1,
            max_size=4,
        )
    )
    blockings = draw(st.lists(blockings_of_ten(arity), min_size=1, max_size=12))
    return colorings, blockings


class TestColoringClassMemo:
    @pytest.mark.parametrize("name", sorted(CLASS_SPACES))
    @settings(max_examples=40, deadline=None)
    @given(case=coloring_cases())
    def test_colors_match_the_memo_free_coloring(self, name, case):
        spec = CLASS_SPACES[name]
        colorings, blockings = case
        cache = {}  # shared by every coloring, whatever its coefficients and quantum
        for coeffs, quantum in colorings:
            coloring = norm_quantization_coloring(spec, coeffs, quantum, 10, cache=cache)
            oracle = oracle_quantization_coloring(spec, coeffs, quantum)
            for blocks in blockings + blockings:  # the second pass hits the memo
                assert coloring.of_blocking(blocks) == oracle(blocks)

    @pytest.mark.parametrize("name", sorted(CLASS_SPACES))
    @settings(max_examples=25, deadline=None)
    @given(case=coloring_cases())
    def test_blocks_share_a_class_exactly_when_their_coordinates_are_equal(self, name, case):
        spec = CLASS_SPACES[name]
        colorings, blockings = case
        cache = {}
        for coeffs, quantum in colorings:
            coloring = norm_quantization_coloring(spec, coeffs, quantum, 10, cache=cache)
            for blocks in blockings:
                coloring.of_blocking(blocks)
        classes, _ = cache[None]
        measured = [elements for elements in cache if elements is not None]
        for elements in measured:
            indicator = SparseVector.indicator(elements)
            coords = spec.coordinates(indicator.scale(1.0 / spec.norm(indicator)))
            assert list(classes[cache[elements]]) == coords
        # one stored list per class, and every class has a block
        assert len(set(classes)) == len(classes)
        assert {cache[elements] for elements in measured} == set(range(len(classes)))

    def test_zero_coefficient_blocks_are_never_normalized(self):
        spec = LpSum(2.0, (1.0, 1.5, 1.8), (2, 3, 5))
        near, far = FiniteSet([2]), FiniteSet([spec.total_dim])
        cache = {}
        coloring = norm_quantization_coloring(spec, (1.0, 0.0), 0.05, spec.total_dim, cache=cache)
        # the cache records every block the coloring measures
        assert coloring.of_blocking([FiniteSet([1]), far]) == coloring.of_blocking([FiniteSet([1]), near])
        assert far.elements not in cache and near.elements not in cache
        norm_quantization_coloring(spec, (1.0, 1.0), 0.05, spec.total_dim, cache=cache).of_blocking(
            [FiniteSet([1]), far]
        )
        assert far.elements in cache

    def test_example_space_runs_the_kernel_once_per_class_tuple(self, monkeypatch):
        spec = make_example_space(2.0, 3, [1.0, 1.5, 1.8])
        net = ScalarNet.grid(0.5, 2)
        kernel_calls = [0]
        real_kernel = analysis.combination_norm

        def counted_kernel(*args):
            kernel_calls[0] += 1
            return real_kernel(*args)

        colorings = []  # per coloring: class tuples seen, kernel calls made
        real_coloring = analysis.norm_quantization_coloring

        def recorded(spec, coeffs, *args, **kwargs):
            coloring = real_coloring(spec, coeffs, *args, **kwargs)
            seen, calls = set(), [0]
            colorings.append((seen, calls))
            coordinates = kwargs["cache"][None][0]  # of each class id

            # the search and verify color class tuples through classes.color
            def color(key):
                # the blocks' coordinate lists, None under a zero coefficient
                seen.add(tuple(coordinates[cid] if cid >= 0 else None for cid in key))
                before = kernel_calls[0]
                value = coloring.classes.color(key)
                calls[0] += kernel_calls[0] - before
                return value

            return dataclasses.replace(coloring, classes=dataclasses.replace(coloring.classes, color=color))

        monkeypatch.setattr(analysis, "combination_norm", counted_kernel)
        monkeypatch.setattr(analysis, "norm_quantization_coloring", recorded)
        result = nccb_stabilize(spec, 8, net, epsilon=0.1, quantum=0.05)
        assert verify_stabilization(spec, result, net)
        assert result.blocking.encode() == "3|4|5|6|7|8"
        assert len(colorings) == 10 + 10  # one per sign family, in the search and in verify
        for seen, calls in colorings:
            assert calls[0] == len(seen)
        assert kernel_calls[0] == sum(len(seen) for seen, _ in colorings)

    @pytest.mark.parametrize(
        "spec, shared, apart",
        [
            (Lp(1.5), [(1, 2), (4, 5), (9, 10)], [(1,), (1, 2, 3)]),
            (C0(), [(1, 2), (6, 7)], [(1,), (3, 4, 5)]),
            (make_example_space(2.0, 3, [1.0, 1.5, 1.8]), [(3, 4), (5, 6), (60, 61)], [(1, 2), (2, 3), (67, 68)]),
            (LpSum(2.0, (1.0, 1.5, 1.8), (2, 3, 5)), [(3, 4), (4, 5)], [(2, 3), (5, 6), (6, 7)]),
            (Interleave(Lp(1.5), C0(), "sum"), [(1, 2), (2, 3), (5, 6)], [(1, 3), (2, 4)]),
            # equal sizes at different positions: James reads the gaps and positions
            (James(), [], [(1, 2), (4, 5), (7, 8)]),
            (Interleave(Lp(2.0), James(), "max"), [], [(1, 2), (3, 4)]),
        ],
        ids=["lp", "c0", "example", "lp_sum-crossing", "interleave-lp-c0", "james", "interleave-lp-james"],
    )
    def test_class_sharing(self, spec, shared, apart):
        # the blocks in ``shared`` have one class; every block in ``apart`` has its own
        cache = {}
        ground = max(elements[-1] for elements in shared + apart)  # inside each space
        coloring = norm_quantization_coloring(spec, (1.0,), 0.05, ground, cache=cache)
        for elements in shared + apart:
            coloring.of_blocking([FiniteSet(elements)])
        assert len({cache[elements] for elements in shared}) == len(shared[:1])
        ids = [cache[elements] for elements in shared[:1] + apart]
        assert len(set(ids)) == len(ids)

    @pytest.mark.parametrize("spec", [Lp(1.0), Lp(1.5), Lp(2.0), Lp(math.inf), C0()])
    @settings(max_examples=40, deadline=None)
    @given(
        entries=st.dictionaries(
            st.integers(1, 40), st.floats(min_value=-1e6, max_value=1e6, allow_nan=False), max_size=8
        )
    )
    def test_value_only_coordinates_keep_the_norm(self, spec, entries):
        v = SparseVector(entries)
        coords = spec.coordinates(v)
        assert coords == [(None, c) for c in v.entries.values()]
        assert spec.norm(v) == spec.coordinate_norm(coords)


# ---------------------------------------------------------------------------
# Differential tests: coarsening families colored once per distinct class
# tuple, walked by _class_step, against the coarsenings enumeration.
# ---------------------------------------------------------------------------

# segments {1, 2}, {3, 4, 5}, {6, 7, 8}: sets past 8 leave the space
SHORT_LP_SUM = LpSum(2.0, (1.0, 1.5, 1.8), (2, 3, 3))


def enumerating(coloring):
    """The coloring without its classes: the search and verify enumerate."""
    return dataclasses.replace(coloring, classes=None)


def walking(coloring):
    """The coloring with an ``fn`` that fails: only the class walk can answer."""

    def fn(blocks):
        raise AssertionError("enumerated a coarsening")

    return dataclasses.replace(coloring, fn=fn)


def outcome(run):
    try:
        return run()
    except InvalidVectorError as exc:
        return str(exc)


@st.composite
def walk_cases(draw):
    """A blocking P of {1..10}, arity k, witness length L, coefficients, quantum."""
    k = draw(st.integers(1, 3))
    P = Blocking(draw(blockings_of_ten(draw(st.integers(k, 7)))))
    L = draw(st.integers(k, len(P)))
    coeffs = draw(st.lists(coloring_coefficient, min_size=k, max_size=k))
    return P, k, L, coeffs, draw(st.sampled_from((0.05, 0.1, 0.3, 1.0)))


def oracle_verify_stabilization(spec, result, net):
    P = result.blocking
    checked = set()
    cache = {}
    for coeffs in net.tuples:
        n = len(coeffs)
        family = analysis._sign_free(coeffs) if spec.unconditional else tuple(coeffs)
        if len(P) < n or family in checked:
            continue
        checked.add(family)
        coloring = norm_quantization_coloring(spec, coeffs, result.quantum, result.ground, cache=cache)
        seen = {coloring.of_blocking(list(F)) for F in coarsenings(P, n)}
        if len(seen) > 1:
            return False
    return True


class TestClassTupleWalk:
    @pytest.mark.parametrize("name", sorted(CLASS_SPACES))
    @settings(max_examples=30, deadline=None)
    @given(pairs=st.lists(blockings_of_ten(2), min_size=2, max_size=40))
    def test_union_class_is_a_function_of_the_part_classes(self, name, pairs):
        classes = norm_quantization_coloring(CLASS_SPACES[name], (1.0,), 0.05, 10).classes
        union_of = {}
        for A, B in pairs:
            parts = (classes.of(0, A.elements), classes.of(0, B.elements))
            union = classes.of(0, A.elements + B.elements)
            assert union_of.setdefault(parts, union) == union
            assert classes.merge(0, *parts, A.elements, B.elements) == union

    @pytest.mark.parametrize("name", sorted(CLASS_SPACES))
    @settings(max_examples=30, deadline=None)
    @given(case=walk_cases())
    def test_coarsening_colors_match_the_enumeration(self, name, case):
        P, k, _, coeffs, quantum = case
        spec = CLASS_SPACES[name]
        oracle = norm_quantization_coloring(spec, coeffs, quantum, 10)
        expected = {oracle.of_blocking(F) for F in coarsenings(P, k)}
        coloring = walking(norm_quantization_coloring(spec, coeffs, quantum, 10))
        assert _coarsening_colors(coloring, P, k) == expected

    @pytest.mark.parametrize("name", sorted(CLASS_SPACES))
    @settings(max_examples=30, deadline=None)
    @given(case=walk_cases())
    def test_search_certificates_match_the_enumeration(self, name, case):
        P, k, L, coeffs, quantum = case
        spec = CLASS_SPACES[name]
        coloring = norm_quantization_coloring(spec, coeffs, quantum, 10)
        walked = milliken_taylor_search(walking(coloring), P, k, L)
        oracle = norm_quantization_coloring(spec, coeffs, quantum, 10)
        expected = milliken_taylor_search(enumerating(oracle), P, k, L)
        assert (walked.found, walked.witness, walked.color, walked.nodes_explored) == (
            expected.found, expected.witness, expected.color, expected.nodes_explored,
        )

    @pytest.mark.parametrize("name", sorted(CLASS_SPACES) + ["short-lp_sum"])
    @settings(max_examples=20, deadline=None)
    @given(case=walk_cases(), step=st.sampled_from((0.5, 1.0)))
    def test_verify_matches_the_enumerating_verify(self, name, case, step):
        P, _, _, _, quantum = case
        spec = CLASS_SPACES.get(name, SHORT_LP_SUM)
        result = StabilizationResult(
            blocking=P, steps=(), complete=True, epsilon=0.1, quantum=quantum, ground=10
        )
        net = ScalarNet.grid(step, 3)
        assert outcome(lambda: verify_stabilization(spec, result, net)) == outcome(
            lambda: oracle_verify_stabilization(spec, result, net)
        )

    @pytest.mark.parametrize("name", sorted(CLASS_SPACES))
    @settings(max_examples=30, deadline=None)
    @given(
        case=walk_cases(),
        coeffs=st.lists(st.floats(min_value=-10.0, max_value=10.0, allow_nan=False), min_size=3, max_size=3),
    )
    def test_colors_lie_in_the_declared_range(self, name, case, coeffs):
        P, k, _, _, quantum = case
        coloring = norm_quantization_coloring(CLASS_SPACES[name], coeffs[:k], quantum, 10)
        assert {coloring.of_blocking(F) for F in coarsenings(P, k)} <= set(range(coloring.colors))


# ---------------------------------------------------------------------------
# Differential tests: nccb_stabilize, which shares one coloring per sign
# family and one class walk per zero pattern, against the loop of one fresh
# coloring per tuple (stabilize_oracle.py, which golden_hashes.py runs too).
# ---------------------------------------------------------------------------


@st.composite
def stabilize_runs(draw):
    """M <= 10, a quantum, and a ``ScalarNet.of`` net of tuples drawn from a
    few bases with signs flipped, so that tuples hold zeros, repeat, and come
    from sign families and zero patterns that interleave."""
    bases = draw(
        st.lists(st.lists(st.sampled_from((0.0, 0.25, 0.5, 1.0)), min_size=1, max_size=3), min_size=1, max_size=4)
    )
    picks = draw(
        st.lists(
            st.tuples(st.sampled_from(bases), st.lists(st.booleans(), min_size=3, max_size=3)),
            min_size=1,
            max_size=8,
        )
    )
    net = ScalarNet.of([[-c if flip else c for c, flip in zip(base, flips)] for base, flips in picks])
    return draw(st.integers(1, 10)), net, draw(st.sampled_from((0.05, 0.1, 0.3)))


def counted_class_steps(monkeypatch):
    """A list whose length counts the ``_class_step`` calls made from here on."""
    calls = []

    def counted(*args):
        calls.append(None)
        return _class_step(*args)

    monkeypatch.setattr(combinatorics, "_class_step", counted)
    return calls


class TestStabilizationSharing:
    @pytest.mark.parametrize("name", sorted(CLASS_SPACES))
    @settings(max_examples=15, deadline=None)
    @given(run=stabilize_runs())
    def test_result_matches_the_fresh_coloring_oracle(self, name, run):
        M, net, quantum = run
        # the whole StabilizationResult, or the error, is the oracle's
        assert stabilize_mismatches(CLASS_SPACES[name], M, net, quantum) == []

    @pytest.mark.parametrize("name", sorted(STABILIZE_CASES))
    def test_fixed_cases_match_the_oracle(self, name):
        assert stabilize_mismatches(*STABILIZE_CASES[name]) == []

    @pytest.mark.parametrize("name", sorted(CLASS_SPACES))
    @settings(max_examples=20, deadline=None)
    @given(case=walk_cases())
    def test_step_memo_gives_what_class_step_gives(self, name, case):
        P, k, _, coeffs, quantum = case
        classes = norm_quantization_coloring(CLASS_SPACES[name], coeffs, quantum, 10).classes
        shared = dataclasses.replace(classes, steps={})
        # as in nccb_stabilize, searches of one blocking go to shorter L, so
        # each block comes back with less room after it
        for L in range(len(P), k - 1, -1):
            memo_states = fresh_states = _START
            for room, block in zip(range(L - 1, -1, -1), P):
                memo_states, memo_finals = shared.step(k, memo_states, block.elements, room)
                fresh_states, fresh_finals = _class_step(classes, k, fresh_states, block.elements, room)
                assert (memo_states, memo_finals) == (fresh_states, fresh_finals)

    def test_a_coloring_built_alone_searches_with_no_step_memo(self, monkeypatch):
        coloring = norm_quantization_coloring(make_example_space(2.0, 3, [1.0, 1.5, 1.8]), (1.0, -0.5), 0.05, 8)
        assert coloring.classes.steps is None
        calls = counted_class_steps(monkeypatch)
        first = milliken_taylor_search(coloring, Blocking.singletons(8), 2, 6)
        # one class step per node, again on the second search
        assert len(calls) == first.nodes_explored
        assert milliken_taylor_search(coloring, Blocking.singletons(8), 2, 6) == first
        assert len(calls) == 2 * first.nodes_explored

    @pytest.mark.parametrize(
        "tuples, memoized",
        [
            # one zero pattern, two sign families, one of them twice
            ([(1.0, -0.5), (0.5, 0.5), (-1.0, 0.5)], True),
            # no zero pattern repeats: no step memo
            ([(1.0, -0.5), (0.0, 0.5), (0.5, 0.0), (1.0,)], False),
        ],
    )
    def test_only_a_repeated_zero_pattern_memoizes_its_walk(self, monkeypatch, tuples, memoized):
        spec, net = make_example_space(2.0, 3, [1.0, 1.5, 1.8]), ScalarNet.of(tuples)
        memos = []
        search = analysis.milliken_taylor_search

        def recorded(coloring, *args, **kwargs):
            memos.append(coloring.classes.steps)
            return search(coloring, *args, **kwargs)

        monkeypatch.setattr(analysis, "milliken_taylor_search", recorded)
        calls = counted_class_steps(monkeypatch)
        result = nccb_stabilize(spec, 9, net, 0.1, 0.05)
        shared = len(calls)
        # the oracle searches through combinatorics, not recorded
        assert oracle_nccb_stabilize(spec, 9, net, 0.1, 0.05) == result
        fresh = len(calls) - shared
        assert [memo is not None for memo in memos] == [memoized] * len(memos)
        assert shared < fresh if memoized else shared == fresh


# ---------------------------------------------------------------------------
# Total colorings: a norm-quantization coloring refuses a ground set past a
# finite space when it is built, and the search and verify refuse a P past
# the coloring's ground set.
# ---------------------------------------------------------------------------

# the largest ground set each space takes: SHORT_LP_SUM has 8 coordinates
GROUND_LIMITS = {
    "lp_sum": (SHORT_LP_SUM, 8),
    "interleave-short-a": (Interleave(SHORT_LP_SUM, Lp(2.0), "max"), 16),  # odd index 17 is a's 9th
    "interleave-short-b": (Interleave(Lp(2.0), SHORT_LP_SUM, "sum"), 17),  # even index 18 is b's 9th
}


class TestTotalColorings:
    @pytest.mark.parametrize("name", sorted(GROUND_LIMITS))
    def test_a_ground_set_past_a_finite_space_is_refused_when_built(self, name):
        spec, limit = GROUND_LIMITS[name]
        coloring = norm_quantization_coloring(spec, (1.0, 0.0), 0.1, limit)
        assert coloring.ground == limit
        with pytest.raises(InvalidVectorError, match="index 9 outside the declared segments"):
            norm_quantization_coloring(spec, (1.0, 0.0), 0.1, limit + 1)

    @pytest.mark.parametrize("name", sorted(GROUND_LIMITS))
    def test_the_probe_refuses_exactly_what_the_whole_ground_set_would(self, name):
        spec, _ = GROUND_LIMITS[name]
        for ground in range(1, 41):
            whole = outcome(lambda: spec.coordinates(SparseVector.indicator(range(1, ground + 1))))
            built = outcome(lambda: norm_quantization_coloring(spec, (1.0,), 0.1, ground))
            assert isinstance(whole, str) == isinstance(built, str), ground

    def test_the_probe_does_not_grow_with_the_ground_set(self, monkeypatch):
        measured = []
        real = SparseVector.indicator.__func__

        def recorded(cls, indices):
            vector = real(cls, indices)
            measured.append(len(vector))
            return vector

        monkeypatch.setattr(SparseVector, "indicator", classmethod(recorded))
        norm_quantization_coloring(Lp(2.0), (1.0,), 0.05, 10**8)
        norm_quantization_coloring(Lp(2.0), (1.0,), 0.05, 1)
        assert measured == [2, 1]

    @pytest.mark.parametrize("quantum, coeffs", [(1e-320, (1.0, 1.0)), (0.1, (1e308, 1e308)), (0.1, (math.nan,))])
    def test_an_infinite_count_of_cells_is_refused(self, quantum, coeffs):
        with pytest.raises(ValueError, match="give no finite count of colors"):
            norm_quantization_coloring(Lp(2.0), coeffs, quantum, 4)

    def test_the_color_count_bounds_every_norm(self):
        assert norm_quantization_coloring(Lp(2.0), (10.0, -10.0), 0.1, 4).colors == 202
        assert norm_quantization_coloring(Lp(2.0), (0.0, 0.25), 0.1, 4).colors == 5

    @pytest.mark.parametrize(
        "coloring",
        [
            norm_quantization_coloring(Lp(2.0), (1.0, 1.0), 0.1, 5),
            constant_coloring(5, kind="blocking", arity=2),
        ],
        ids=["norm-quant", "constant"],
    )
    def test_the_search_refuses_a_P_past_the_ground_set(self, coloring):
        with pytest.raises(ValueError, match=r"P reaches index 6, past the ground set \{1\.\.5\}"):
            milliken_taylor_search(coloring, Blocking.singletons(6), 2, 3)
        assert milliken_taylor_search(coloring, Blocking.singletons(5), 2, 3).found

    def test_the_verify_refuses_a_P_past_the_ground_set(self):
        coloring = norm_quantization_coloring(Lp(2.0), (1.0, 1.0), 0.1, 5)
        with pytest.raises(ValueError, match="P reaches index 6"):
            _coarsening_colors(coloring, Blocking.parse("1|2,3|6"), 2)
        result = StabilizationResult(
            blocking=Blocking.singletons(6), steps=(), complete=True, epsilon=0.1, quantum=0.1, ground=5
        )
        with pytest.raises(ValueError, match="P reaches index 6"):
            verify_stabilization(Lp(2.0), result, ScalarNet.grid(0.5, 2))


# ---------------------------------------------------------------------------
# Differential test: the Krivine estimate through the kernel against the
# prefix-sum SparseVector path it replaced, copied here as the oracle.
# ---------------------------------------------------------------------------


def oracle_krivine_p_estimate(spec, max_n, start=1):
    if max_n < 4:
        raise ValueError("need max_n >= 4 for a meaningful fit")
    blocking = Blocking([FiniteSet([start + i]) for i in range(max_n)])
    ys = nccb_from_blocking(spec, blocking)
    norms = []
    total = SparseVector()
    for v in ys:
        total = total + v
        norms.append(spec.norm(total))
    xs = [math.log(n) for n in range(1, max_n + 1)]
    logs = [math.log(max(v, 1e-300)) for v in norms]
    monotone = all(b >= a - 1e-12 for a, b in zip(norms, norms[1:]))
    if max(logs) - min(logs) < 1e-12:
        return analysis.KrivineReport(math.inf, 0.0, 1.0, tuple(norms), monotone, start, max_n)
    slope = statistics.linear_regression(xs, logs).slope
    try:
        r_squared = statistics.correlation(xs, logs) ** 2
    except statistics.StatisticsError:
        r_squared = 1.0
    p = math.inf if slope <= 1e-12 else 1.0 / slope
    return analysis.KrivineReport(p, slope, r_squared, tuple(norms), monotone, start, max_n)


KRIVINE_SPACES = [
    Lp(1.0),
    Lp(1.5),
    Lp(2.0),
    Lp(3.0),
    Lp(math.inf),
    C0(),
    make_example_space(2.0, 3, [1.0, 1.5, 1.8]),
    LpSum(2.0, (1.0, 1.5, 1.8), (2, 3, 5)),
    Interleave(Lp(1.0), Lp(2.0), "max"),
    Interleave(LpSum(2.0, (1.0, 1.5), (2, 40)), C0(), "sum"),
    Interleave(Lp(1.0), James(), "max"),
    James(),
]


class TestKrivineAgainstVectorPath:
    @settings(max_examples=60, deadline=None)
    @given(
        spec=st.sampled_from(KRIVINE_SPACES),
        max_n=st.integers(4, 24),
        start=st.integers(1, 80),
    )
    def test_report_is_identical(self, spec, max_n, start):
        outcomes = []
        for estimate in (krivine_p_estimate, oracle_krivine_p_estimate):
            try:
                outcomes.append(estimate(spec, max_n, start=start))
            except InvalidVectorError as exc:  # singletons past a short LpSum
                outcomes.append(str(exc))
        report, expected = outcomes
        assert report == expected
        if not isinstance(report, str):
            assert report_bytes(report) == report_bytes(expected)
