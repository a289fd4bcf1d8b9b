"""Norm values, segment bookkeeping, and norm axioms for every space kind."""

import json
import math
from random import Random

import pytest
from hypothesis import given, settings, strategies as st

from banachkit.spaces import (
    C0,
    Interleave,
    InvalidSpecError,
    InvalidVectorError,
    James,
    Lp,
    LpSum,
    SparseVector,
    make_example_space,
    norm,
    segment_of,
    space_from_doc,
    type_p_witness,
)

from conftest import james_norm_bruteforce, lpsum_norm_direct, random_sparse_vector


def units(*indices):
    return SparseVector({i: 1.0 for i in indices})


class TestSparseVector:
    def test_drops_zero_coefficients(self):
        v = SparseVector({1: 0.0, 2: 1.0})
        assert v.support() == (2,)

    def test_rejects_bad_indices(self):
        with pytest.raises(InvalidVectorError):
            SparseVector({0: 1.0})
        with pytest.raises(InvalidVectorError):
            SparseVector({-3: 1.0})

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_rejects_non_finite_coefficients(self, bad):
        with pytest.raises(InvalidVectorError, match="not finite"):
            SparseVector({1: 1.0, 2: bad})
        with pytest.raises(InvalidVectorError):
            SparseVector.parse(f"1:{bad}")

    def test_rejects_overflowing_arithmetic(self):
        big = SparseVector({1: 1e308})
        with pytest.raises(InvalidVectorError):
            big + big
        with pytest.raises(InvalidVectorError):
            big.scale(10.0)
        with pytest.raises(InvalidVectorError):
            SparseVector([(1, 1e308), (1, 1e308)])

    def test_arithmetic(self):
        v = SparseVector({1: 1.0, 2: -2.0})
        w = SparseVector({2: 2.0, 5: 1.0})
        assert (v + w).support() == (1, 5)
        assert v.scale(2.0).get(2) == -4.0
        assert (v - v).is_zero()

    def test_parse_format_roundtrip(self):
        v = SparseVector({1: 1.0, 3: -0.5, 9: 0.1})
        assert SparseVector.parse(v.format()) == v
        assert SparseVector.parse("1:1,2:1") == units(1, 2)
        assert SparseVector.parse("") == SparseVector()

    def test_pairs_roundtrip_exact(self):
        rng = Random(7)
        for _ in range(50):
            v = random_sparse_vector(rng)
            assert SparseVector.from_pairs(v.to_pairs()) == v


class TestLpAndC0:
    def test_l2_unit_pair(self):
        assert norm(Lp(2.0), units(1, 2)) == pytest.approx(math.sqrt(2), abs=1e-12)

    def test_c0_scaled_unit(self):
        assert norm(C0(), SparseVector({5: 3.0})) == 3.0

    def test_linf_matches_c0(self):
        rng = Random(3)
        inf_spec = Lp(math.inf)
        for _ in range(100):
            v = random_sparse_vector(rng)
            assert norm(inf_spec, v) == norm(C0(), v)

    def test_empty_vector_norm_zero(self):
        for spec in (Lp(1.0), Lp(2.0), Lp(math.inf), C0(), James()):
            assert norm(spec, SparseVector()) == 0.0

    def test_bad_exponent_rejected(self):
        with pytest.raises(InvalidSpecError):
            Lp(0.5)


class TestLpSum:
    spec = LpSum(p=2.0, ps=(1.0, 1.5), ns=(2, 17))

    def test_segment_one_pair(self):
        # both indices in the first segment, an l_1 piece
        assert norm(self.spec, units(1, 2)) == pytest.approx(2.0, abs=1e-12)

    def test_segment_of(self):
        assert (segment_of(self.spec, 2).s, segment_of(self.spec, 2).offset) == (1, 2)
        assert (segment_of(self.spec, 3).s, segment_of(self.spec, 3).offset) == (2, 1)
        assert (segment_of(self.spec, 19).s, segment_of(self.spec, 19).offset) == (2, 17)

    def test_segment_of_out_of_range(self):
        with pytest.raises(InvalidVectorError):
            segment_of(self.spec, 20)
        with pytest.raises(InvalidVectorError):
            segment_of(self.spec, 0)

    def test_norm_against_direct_evaluation(self):
        rng = Random(11)
        for _ in range(200):
            v = random_sparse_vector(rng, max_index=19)
            assert norm(self.spec, v) == pytest.approx(lpsum_norm_direct(self.spec, v), abs=1e-12)

    def test_degenerate_inner_exponents_collapse_to_lp(self):
        degenerate = LpSum(p=2.0, ps=(2.0, 2.0, 2.0), ns=(3, 4, 5))
        rng = Random(13)
        for _ in range(100):
            v = random_sparse_vector(rng, max_index=12)
            assert norm(degenerate, v) == pytest.approx(norm(Lp(2.0), v), abs=1e-12)

    def test_support_past_segments_rejected(self):
        with pytest.raises(InvalidVectorError):
            norm(self.spec, units(20))

    def test_validation(self):
        with pytest.raises(InvalidSpecError):
            LpSum(p=2.0, ps=(1.0,), ns=(2, 3))
        with pytest.raises(InvalidSpecError):
            LpSum(p=2.0, ps=(1.5, 1.0), ns=(2, 3))
        with pytest.raises(InvalidSpecError):
            LpSum(p=2.0, ps=(1.0, 2.5), ns=(2, 3))
        with pytest.raises(InvalidSpecError):
            LpSum(p=1.0, ps=(1.0,), ns=(2,))


class TestMakeExampleSpace:
    def test_dimensions(self):
        spec = make_example_space(2.0, 3, [1.0, 1.5, 1.8])
        # exponents p*p_s/(p-p_s) are 2, 6, 18
        assert spec.ns == (1 ** 2 + 1, 2 ** 6 + 1, 3 ** 18 + 1)
        assert spec.ns[1] == 65

    def test_type_p_witness_by_construction(self):
        spec = make_example_space(2.0, 3, [1.0, 1.5, 1.8])
        for s in (1, 2, 3):
            assert type_p_witness(spec, s, float(s))

    def test_type_p_trivial_cases(self):
        assert not type_p_witness(LpSum(2.0, (1.0,), (1,)), 1, 1.0)
        assert type_p_witness(LpSum(2.0, (1.0,), (2,)), 1, 1.0)  # 2 > sqrt(2)

    def test_validation(self):
        with pytest.raises(InvalidSpecError):
            make_example_space(3.0, 1, [1.0])
        with pytest.raises(InvalidSpecError):
            make_example_space(2.0, 2, [1.5, 1.0])
        with pytest.raises(InvalidSpecError):
            make_example_space(2.0, 2, [1.0, 2.0])


class TestJames:
    def test_unit_pair_difference(self):
        # frozen from the brute-force oracle: optimal tuple is (1, 3, 4)
        v = SparseVector({1: 1.0, 3: -1.0})
        expected = james_norm_bruteforce(v)
        assert expected == pytest.approx(math.sqrt(5), abs=1e-12)
        assert norm(James(), v) == pytest.approx(expected, abs=1e-12)

    def test_summing_vectors_normalized(self):
        for k in (1, 2, 5, 11):
            s_k = SparseVector.indicator(range(1, k + 1))
            assert norm(James(), s_k) == pytest.approx(1.0, abs=1e-12)

    def test_dp_matches_bruteforce(self):
        rng = Random(5)
        for _ in range(150):
            v = random_sparse_vector(rng, max_index=10, max_entries=6)
            assert norm(James(), v) == pytest.approx(james_norm_bruteforce(v), abs=1e-12)

    def test_staircase_gap_independence(self):
        rng = Random(9)
        spec = James()
        for _ in range(40):
            n = rng.randint(1, 4)
            coeffs = [rng.uniform(-1, 1) or 0.3 for _ in range(n)]
            values = []
            for _ in range(5):
                ks = sorted(rng.sample(range(1, 40), n))
                v = SparseVector()
                for a, k in zip(coeffs, ks):
                    v = v + SparseVector.indicator(range(1, k + 1)).scale(a)
                values.append(norm(spec, v))
            assert max(values) - min(values) <= 1e-9


def _spec_strategy():
    return st.sampled_from(
        [
            Lp(1.0),
            Lp(1.5),
            Lp(2.0),
            Lp(3.0),
            Lp(math.inf),
            C0(),
            LpSum(2.0, (1.0, 1.5), (3, 30)),
            Interleave(Lp(1.0), Lp(2.0), "max"),
            Interleave(Lp(1.0), Lp(2.0), "sum"),
            James(),
        ]
    )


def _vector_strategy(max_index=20):
    return st.dictionaries(
        st.integers(min_value=1, max_value=max_index),
        st.floats(min_value=-4, max_value=4, allow_nan=False),
        min_size=0,
        max_size=6,
    ).map(SparseVector)


class TestNormAxioms:
    @settings(max_examples=150, deadline=None)
    @given(spec=_spec_strategy(), v=_vector_strategy(), c=st.floats(min_value=-3, max_value=3, allow_nan=False))
    def test_absolute_homogeneity(self, spec, v, c):
        lhs = norm(spec, v.scale(c))
        rhs = abs(c) * norm(spec, v)
        assert lhs == pytest.approx(rhs, rel=1e-9, abs=1e-9)

    @settings(max_examples=150, deadline=None)
    @given(spec=_spec_strategy(), v=_vector_strategy(), w=_vector_strategy())
    def test_triangle_inequality(self, spec, v, w):
        assert norm(spec, v + w) <= norm(spec, v) + norm(spec, w) + 1e-9

    @settings(max_examples=80, deadline=None)
    @given(spec=_spec_strategy(), v=_vector_strategy())
    def test_positive_definite(self, spec, v):
        value = norm(spec, v)
        assert value >= 0.0
        if not v.is_zero():
            assert value > 0.0


class TestMonotoneBasis:
    @settings(max_examples=100, deadline=None)
    @given(
        spec=st.sampled_from([Lp(1.0), Lp(2.0), Lp(math.inf), C0(), LpSum(2.0, (1.0, 1.5), (3, 30))]),
        v=_vector_strategy(),
        cut=st.integers(min_value=1, max_value=20),
    )
    def test_prefix_truncation_never_grows(self, spec, v, cut):
        prefix = SparseVector({i: c for i, c in v.entries.items() if i <= cut})
        assert norm(spec, prefix) <= norm(spec, v) + 1e-12


class TestInterleave:
    def test_split_and_combine(self):
        spec = Interleave(Lp(1.0), Lp(2.0), "max")
        v = SparseVector({1: 1.0, 2: 2.0, 3: 1.0, 6: 2.0})
        odd, even = spec.split(v)
        assert odd.support() == (1, 2)  # densely reindexed from 1, 3
        assert even.support() == (1, 3)  # from 2, 6
        assert norm(spec, v) == max(2.0, math.sqrt(8.0))

    def test_sum_combiner(self):
        spec = Interleave(Lp(1.0), Lp(2.0), "sum")
        assert norm(spec, units(1, 2)) == 2.0

    def test_nesting_rejected(self):
        inner = Interleave(Lp(1.0), Lp(2.0), "max")
        with pytest.raises(InvalidSpecError):
            Interleave(inner, Lp(2.0), "max")

    def test_bad_outer_rejected(self):
        with pytest.raises(InvalidSpecError):
            Interleave(Lp(1.0), Lp(2.0), "min")


class TestSerialization:
    def test_roundtrip_every_kind(self):
        specs = [
            Lp(2.0),
            Lp(math.inf),
            C0(),
            LpSum(2.0, (1.0, 1.5, 1.8), (2, 65, 387420490)),
            Interleave(Lp(1.0), Lp(2.0), "max"),
            James(),
        ]
        for spec in specs:
            doc = spec.to_doc()
            assert space_from_doc(json.loads(json.dumps(doc))) == spec

    def test_infinite_p_serializes_portably(self):
        assert Lp(math.inf).to_doc() == {"kind": "lp", "p": "inf"}
        assert space_from_doc({"kind": "lp", "p": "inf"}) == Lp(math.inf)

    def test_unknown_kind_rejected(self):
        with pytest.raises(InvalidSpecError):
            space_from_doc({"kind": "tsirelson"})
