"""Norm values, segment bookkeeping, and norm axioms for every space kind."""

import dataclasses
import json
import math
import re
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
    _sum_left,
    type_p_witness,
)
from banachkit.analysis import LpReference

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

    @pytest.mark.parametrize(
        "pairs, pair",
        [
            (["12"], "'12'"),
            ([[1.5, 1], [2.9, 1]], "[1.5, 1]"),
            ([[1, 1.0], [True, False], [3, True]], "[True, False]"),
            ([[3, True]], "[3, True]"),
            ([(1,)], "(1,)"),
            ([[1, 2, 3]], "[1, 2, 3]"),
            ([["1", "2"]], "['1', '2']"),
            ([[1, None]], "[1, None]"),
        ],
    )
    def test_from_pairs_converts_nothing(self, pairs, pair):
        with pytest.raises(InvalidVectorError, match=r"^" + re.escape(f"{pair} is not an [index, coefficient] pair")):
            SparseVector.from_pairs(pairs)

    @pytest.mark.parametrize("coeff", [10**400, -(10**400)])
    def test_from_pairs_refuses_an_int_coefficient_past_the_float_range(self, coeff):
        with pytest.raises(InvalidVectorError, match=r"^coefficient at index 1 is past the float range$"):
            SparseVector.from_pairs([[1, coeff]])

    def test_from_pairs_takes_int_and_float_pairs(self):
        assert SparseVector.from_pairs([[1, 2], (3, -0.5)]) == SparseVector({1: 2.0, 3: -0.5})
        assert SparseVector.from_pairs(iter([(2, 1)])) == SparseVector.unit(2)

    def test_bool_index_is_refused(self):
        with pytest.raises(InvalidVectorError, match="index True is not a positive integer"):
            SparseVector({True: 1.0})


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

    @pytest.mark.parametrize("p", [1.0, 1.5])
    def test_powers_add_left_to_right(self, p):
        # the powers are 1.0, 1e-16, 1e-16: added left to right the small
        # ones vanish, while a compensated sum (Python 3.12's) keeps them
        tiny = 1e-16 ** (1.0 / p)
        v = SparseVector({1: 1.0, 2: tiny, 3: -tiny})
        assert norm(Lp(p), v) == 1.0
        assert LpReference(p, 3).coeff_norm([1.0, tiny, -tiny]) == 1.0
        assert _sum_left([1.0, 1e-16, 1e-16]) == 1.0


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

    @settings(max_examples=200, deadline=None)
    @given(ns=st.lists(st.integers(1, 6), min_size=1, max_size=5), data=st.data())
    def test_segment_keys_match_per_index_lookup(self, ns, data):
        # small segments and index sets over the whole line, so lists lie in
        # one segment, straddle one or more joints, or reach past the end
        spec = LpSum(p=2.0, ps=(1.0,) * len(ns), ns=tuple(ns))
        total = spec.total_dim
        indices = sorted(data.draw(st.sets(st.integers(1, total + 3), max_size=8)))
        past = [i for i in indices if i > total]
        if not past:
            assert spec.segment_keys(indices) == [spec.segment_of(i).s - 1 for i in indices]
            return
        with pytest.raises(InvalidVectorError) as raised:
            spec.segment_of(past[0])
        with pytest.raises(InvalidVectorError) as keyed:
            spec.segment_keys(indices)
        assert str(keyed.value) == str(raised.value)

    def test_validation(self):
        with pytest.raises(InvalidSpecError):
            LpSum(p=2.0, ps=(1.0,), ns=(2, 3))
        with pytest.raises(InvalidSpecError):
            LpSum(p=2.0, ps=(1.5, 1.0), ns=(2, 3))
        with pytest.raises(InvalidSpecError):
            LpSum(p=2.0, ps=(1.0, 2.5), ns=(2, 3))
        with pytest.raises(InvalidSpecError):
            LpSum(p=1.0, ps=(1.0,), ns=(2,))
        with pytest.raises(InvalidSpecError, match="segment dimensions must be integers"):
            LpSum(p=2.0, ps=(1.0,), ns=(2.5,))
        for n in (True, math.inf, math.nan, "3", None):
            with pytest.raises(InvalidSpecError, match="segment dimensions must be integers"):
                LpSum(p=2.0, ps=(1.0,), ns=(n,))
        assert LpSum(p=2.0, ps=(1.0,), ns=(2.0,)).ns == (2,)
        assert type(LpSum(p=2.0, ps=(1.0,), ns=(2.0,)).ns[0]) is int

    def test_nan_inner_exponent_rejected(self):
        with pytest.raises(InvalidSpecError, match=r"inner exponents must lie in \[1, p\]"):
            LpSum(p=2.0, ps=(math.nan,), ns=(3,))


class TestMakeExampleSpace:
    def test_dimensions(self):
        spec = make_example_space(2.0, 3, [1.0, 1.5, 1.8])
        # exponents p*p_s/(p-p_s) are 2, 6, 18
        assert spec.ns == (1 ** 2 + 1, 2 ** 6 + 1, 3 ** 18 + 1)
        assert spec.ns[1] == 65

    @pytest.mark.parametrize(
        "ps",
        [
            [1.0, 1.5, 1.8],
            [1.0, 1.5],
            # n_4 = 4**38 + 1 exceeds 4**(2*1.9/0.1), yet in floats
            # n_4 ** (1/1.9) comes out below 4.0 * n_4 ** 0.5
            [1.0, 1.5, 1.8, 1.9],
            [1.0, 1.5, 1.8, 1.9, 1.95],
        ],
    )
    def test_type_p_witness_by_construction(self, ps):
        spec = make_example_space(2.0, len(ps), ps)
        for s in range(1, len(ps) + 1):
            assert type_p_witness(spec, s, float(s))

    def test_type_p_witness_is_strict_at_the_threshold(self):
        # n_s = 4**38 exactly is not beyond the bound; the float comparison said so too
        spec = LpSum(2.0, (1.0, 1.5, 1.8, 1.9), (2, 65, 3**18 + 1, 4**38))
        assert not type_p_witness(spec, 4, 4.0)
        assert type_p_witness(spec, 4, 3.999)

    def test_type_p_witness_past_the_float_range(self):
        # C = 1.5 is not an integer, so the comparison is not made in integers,
        # and n_2 = 10**1204 has no float: logarithms decide, as n_2 > 1.5**3998
        assert type_p_witness(LpSum(2, (1, 1.999), (2, 10**1204)), 2, 1.5)
        assert not type_p_witness(LpSum(2, (1, 1.999), (2, 10**1204)), 2, 1e200)
        assert type_p_witness(LpSum(2, (1, 1.999), (2, 10**1204)), 2, -1.0)

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

    @pytest.mark.parametrize("ps", [[math.nan], [1.0, math.nan]])
    def test_nan_inner_exponent_rejected(self, ps):
        with pytest.raises(InvalidSpecError, match=r"inner exponents must lie in \[1, p\)"):
            make_example_space(2.0, len(ps), ps)


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
    @pytest.mark.parametrize(
        "spec",
        [
            Lp(2.0),
            Lp(math.inf),
            C0(),
            LpSum(2.0, (1.0, 1.5, 1.8), (2, 65, 387420490)),
            Interleave(Lp(1.0), Lp(2.0), "max"),
            Interleave(James(), Lp(math.inf), "sum"),
            James(),
        ],
        ids=lambda spec: json.dumps(spec.to_doc()),
    )
    def test_roundtrip_every_kind(self, spec):
        """The document is ``kind`` plus the ``init`` fields; a required field
        may not be left out, one with a default may, and no other may be added."""
        doc = spec.to_doc()
        init = [f for f in dataclasses.fields(spec) if f.init]
        assert list(doc) == ["kind", *(f.name for f in init)]
        assert space_from_doc(json.loads(json.dumps(doc))) == spec
        for f in init:
            rest = {k: v for k, v in doc.items() if k != f.name}
            if f.default is dataclasses.MISSING:
                with pytest.raises(InvalidSpecError, match=f"^{doc['kind']} space document has no '{f.name}'$"):
                    space_from_doc(rest)
            else:
                assert space_from_doc(rest) == dataclasses.replace(spec, **{f.name: f.default})
        with pytest.raises(InvalidSpecError, match=f"^{doc['kind']} space document has an unknown field 'extra'$"):
            space_from_doc({**doc, "extra": 1})

    def test_infinite_p_serializes_portably(self):
        assert Lp(math.inf).to_doc() == {"kind": "lp", "p": "inf"}
        assert space_from_doc({"kind": "lp", "p": "inf"}) == Lp(math.inf)

    def test_unknown_kind_rejected(self):
        with pytest.raises(InvalidSpecError):
            space_from_doc({"kind": "tsirelson"})

    @pytest.mark.parametrize(
        "doc, message",
        [
            ({"kind": "lp", "p": 2, "extra": 1}, "lp space document has an unknown field 'extra'"),
            ({"kind": "c0", "p": 2}, "c0 space document has an unknown field 'p'"),
            ({"kind": "lp_sum", "p": 2, "ps": [1], "ns": [2], "n": 3}, "lp_sum space document has an unknown field 'n'"),
            ({"kind": "james", "p": 2}, "james space document has an unknown field 'p'"),
            (
                {"kind": "interleave", "a": {"kind": "c0"}, "b": {"kind": "c0"}, "inner": "max"},
                "interleave space document has an unknown field 'inner'",
            ),
            (
                {"kind": "interleave", "a": {"kind": "c0"}, "b": {"kind": "lp", "p": 2, "q": 1}},
                "lp space document has an unknown field 'q'",
            ),
        ],
    )
    def test_unknown_field_rejected(self, doc, message):
        with pytest.raises(InvalidSpecError, match=f"^{message}$"):
            space_from_doc(doc)

    @pytest.mark.parametrize("doc", [{}, 3])
    def test_document_without_kind_rejected(self, doc):
        with pytest.raises(InvalidSpecError, match=f"space document {doc!r} has no 'kind'"):
            space_from_doc(doc)

    @pytest.mark.parametrize(
        "doc",
        [
            {"kind": "lp", "p": None},
            {"kind": "lp_sum", "p": 2, "ps": 3, "ns": [2]},
            {"kind": "lp_sum", "p": 2, "ps": [1], "ns": 2},
            {"kind": "lp_sum", "p": {}, "ps": [1], "ns": [2]},
        ],
    )
    def test_field_of_the_wrong_type_rejected(self, doc):
        with pytest.raises(InvalidSpecError, match=f"{doc['kind']} space document has a field of the wrong type"):
            space_from_doc(doc)


# ---------------------------------------------------------------------------
# Differential test: every kind's norm against the per-kind entry points it
# replaced (the items view for Lp, C0 and James, coordinates for LpSum, the
# split for Interleave), copied here as the oracle.
# ---------------------------------------------------------------------------


def oracle_norm(spec, v):
    if isinstance(spec, LpSum):
        return spec.coordinate_norm(spec.coordinates(v))
    if isinstance(spec, Interleave):
        odd, even = spec.split(v)
        return spec._outer(oracle_norm(spec.a, odd), oracle_norm(spec.b, even))
    return spec.coordinate_norm(v._entries.items())


NORM_BATTERY = [
    Lp(1.0),
    Lp(1.5),
    Lp(2.0),
    Lp(math.inf),
    C0(),
    James(),
    LpSum(2.0, (1.0, 1.5), (3, 4)),
    LpSum(1.5, (1.0, 1.2, 1.4), (2, 3, 40)),
    Interleave(Lp(1.0), Lp(2.0), "max"),
    Interleave(LpSum(2.0, (1.0, 1.5), (4, 12)), James(), "sum"),
    Interleave(James(), LpSum(1.5, (1.0, 1.5), (6, 10)), "max"),
    Interleave(C0(), Lp(math.inf), "sum"),
]


def outcome(fn):
    try:
        return fn()
    except ValueError as exc:
        return type(exc), str(exc)


@pytest.mark.parametrize("spec", NORM_BATTERY, ids=lambda spec: json.dumps(spec.to_doc()))
def test_norm_matches_the_per_kind_entry_points(spec):
    rng = Random(7)
    vectors = [SparseVector()] + [random_sparse_vector(rng, max_index=30) for _ in range(300)]
    vectors += [random_sparse_vector(rng, max_index=8) for _ in range(300)]
    vectors += [SparseVector({i: 10.0 ** rng.randint(-200, 200) for i in (1, 2, 5)}) for _ in range(20)]
    for v in vectors:
        # the same value bit for bit, or the same error past an LpSum's segments
        assert outcome(lambda: spec.norm(v)) == outcome(lambda: oracle_norm(spec, v))
