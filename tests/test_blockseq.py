"""Block sequences, NCCB construction, and trees built from arrays."""

import math
from random import Random

import pytest
from hypothesis import given, settings, strategies as st

from banachkit.blockseq import (
    BlockArray,
    BlockSequence,
    InvalidBlockSequenceError,
    block_sums,
    branch,
    combine,
    interleave_array,
    merge_blocking,
    nccb_from_blocking,
    nccb_of_sequence,
    subsequence_tree,
    tree_from_array,
)
from banachkit.combinatorics import Blocking, FiniteSet, InvalidBlockingError, coarsenings, is_blocking
from banachkit.spaces import Lp, LpSum, SparseVector, norm


def unit(i):
    return SparseVector.unit(i)


def unit_seq(n, start=1, stride=1):
    return BlockSequence([unit(start + stride * i) for i in range(n)])


class TestBlockSequence:
    def test_rejects_overlapping_supports(self):
        with pytest.raises(InvalidBlockSequenceError):
            BlockSequence([SparseVector({1: 1.0, 3: 1.0}), unit(2)])

    def test_rejects_zero_vectors(self):
        with pytest.raises(InvalidBlockSequenceError):
            BlockSequence([SparseVector()])

    def test_support_blocking(self):
        seq = BlockSequence([SparseVector({1: 1.0, 2: -1.0}), unit(4)])
        assert seq.support_blocking().encode() == "1,2|4"


class TestNccb:
    def test_l2_pair(self):
        seq = nccb_from_blocking(Lp(2.0), Blocking.parse("1,2"))
        expected = SparseVector({1: 1 / math.sqrt(2), 2: 1 / math.sqrt(2)})
        assert seq[0] == expected

    def test_l1_second_block(self):
        seq = nccb_from_blocking(Lp(1.0), Blocking.parse("1|2,3"))
        assert seq[1] == SparseVector({2: 0.5, 3: 0.5})

    def test_lpsum_in_segment_divisor(self):
        spec = LpSum(2.0, (1.0, 1.5), (2, 17))
        seq = nccb_from_blocking(spec, Blocking.parse("3,4,5"))
        # block inside segment 2: divisor |E|^(1/p_s) = 3^(1/1.5)
        assert seq[0].get(3) == pytest.approx(3 ** (-1 / 1.5), abs=1e-12)

    def test_normalized_within_1e12(self):
        rng = Random(2)
        specs = [Lp(1.0), Lp(2.0), Lp(math.inf), LpSum(2.0, (1.0, 1.5), (4, 40))]
        for _ in range(60):
            spec = rng.choice(specs)
            cursor = 1
            blocks = []
            for _ in range(rng.randint(1, 4)):
                size = rng.randint(1, 4)
                blocks.append(range(cursor, cursor + size))
                cursor += size + rng.randint(0, 3)
            seq = nccb_from_blocking(spec, Blocking(blocks))
            for v in seq:
                assert abs(norm(spec, v) - 1.0) <= 1e-12

    def test_nccb_of_block_sums_collapses(self):
        # NCCB over unnormalized block sums equals NCCB over the merged blocking
        rng = Random(6)
        specs = [Lp(1.0), Lp(2.0), LpSum(2.0, (1.0, 1.5), (4, 60))]
        for _ in range(40):
            spec = rng.choice(specs)
            m = rng.randint(3, 6)
            P = Blocking([range(2 * i + 1, 2 * i + 1 + rng.randint(1, 2)) for i in range(m)])
            options = coarsenings(Blocking.singletons(m), rng.randint(1, m))
            E = options[rng.randrange(len(options))]
            direct = nccb_of_sequence(spec, list(block_sums(P)), E)
            merged = nccb_from_blocking(spec, merge_blocking(P, E))
            assert len(direct) == len(merged)
            for a, b in zip(direct, merged):
                assert a.support() == b.support()
                for i in a.support():
                    assert a.get(i) == pytest.approx(b.get(i), abs=1e-12)


class TestCombine:
    seq = unit_seq(6)

    def test_single(self):
        assert combine(self.seq, [1.0], [1]) == unit(1)

    def test_zero_coefficients(self):
        assert combine(self.seq, [0.0, 0.0], [1, 3]).is_zero()

    def test_disjoint_union(self):
        v = combine(self.seq, [1.0, -2.0], [2, 5])
        assert v == SparseVector({2: 1.0, 5: -2.0})

    def test_position_validation(self):
        with pytest.raises(InvalidBlockSequenceError):
            combine(self.seq, [1.0, 1.0], [3, 2])
        with pytest.raises(InvalidBlockSequenceError):
            combine(self.seq, [1.0], [7])
        with pytest.raises(InvalidBlockSequenceError):
            combine(self.seq, [1.0, 1.0], [1])


class TestSubsequenceTree:
    def test_first_level_is_the_sequence(self):
        seq = unit_seq(5)
        tree = subsequence_tree(seq, depth=1, width=5)
        assert [tree.node((k,)) for k in range(1, 6)] == list(seq)

    def test_node_is_max_of_index_set(self):
        seq = unit_seq(8)
        tree = subsequence_tree(seq, depth=2, width=4)
        assert tree.node((2, 5)) == seq[4]

    def test_branches_are_subsequences(self):
        seq = unit_seq(10)
        tree = subsequence_tree(seq, depth=3, width=3)
        b = branch(tree, (1, 2, 3))
        assert list(b) == list(seq[:3])
        b2 = branch(tree, (2, 4, 6))
        assert list(b2) == [seq[1], seq[3], seq[5]]

    def test_truncation_flag(self):
        tree = subsequence_tree(unit_seq(3), depth=2, width=5)
        assert tree.truncated


class TestTreeFromArray:
    def test_constant_rows_give_subsequences(self):
        seq = unit_seq(12)
        arr = BlockArray([seq] * 4)
        tree = tree_from_array(arr, depth=4, width=2)
        b = branch(tree, (1, 2, 3, 4))
        supports = [v.min_index() for v in b]
        assert supports == sorted(supports)
        members = set(seq)
        assert all(v in members for v in b)

    def test_levels_follow_rows(self):
        odd = unit_seq(10, start=1, stride=2)
        even = unit_seq(10, start=2, stride=2)
        arr = interleave_array(odd, even, m=1, rows=4)
        tree = tree_from_array(arr, depth=4, width=2)
        b = branch(tree, (1, 2, 3, 4))
        parities = [v.min_index() % 2 for v in b]
        assert parities == [1, 0, 1, 0]

    def test_repetition_pattern_rows(self):
        # rows repeating each source sequence n times: A, B, B, C, C, C
        a = unit_seq(12, start=1, stride=3)
        b = unit_seq(12, start=2, stride=3)
        c = unit_seq(12, start=3, stride=3)
        arr = BlockArray([a, b, b, c, c, c])
        tree = tree_from_array(arr, depth=6, width=2)
        br = branch(tree, (1, 2, 3, 4, 5, 6))
        residues = [v.min_index() % 3 for v in br]
        assert residues == [1, 2, 2, 0, 0, 0]

    def test_least_admissible_successor(self):
        seq = unit_seq(6)
        arr = BlockArray([seq, seq])
        tree = tree_from_array(arr, depth=2, width=2)
        # successors of the node holding e_2 start at e_3, the least past it
        assert tree.node((2,)) == seq[1]
        assert tree.node((2, 3)) == seq[2]

    def test_row_exhaustion_flags_truncation(self):
        arr = BlockArray([unit_seq(3), unit_seq(3)])
        tree = tree_from_array(arr, depth=2, width=3)
        assert tree.truncated

    def test_branches_satisfy_block_invariant(self):
        odd = unit_seq(12, start=1, stride=2)
        even = unit_seq(12, start=2, stride=2)
        arr = interleave_array(odd, even, m=2, rows=6)
        tree = tree_from_array(arr, depth=6, width=2)
        for last in ((1, 2, 3, 4, 5, 6), (1, 2, 3, 4, 5, 7), (2, 3, 4, 5, 6, 7)):
            b = branch(tree, last)
            assert is_blocking(list(b.support_blocking()))


class TestInterleaveArray:
    def test_alternating(self):
        y = unit_seq(4, start=1, stride=2)
        z = unit_seq(4, start=2, stride=2)
        arr = interleave_array(y, z, m=1, rows=5)
        assert [r is y for r in arr.rows] == [True, False, True, False, True]

    def test_pairs(self):
        y = unit_seq(4, start=1, stride=2)
        z = unit_seq(4, start=2, stride=2)
        arr = interleave_array(y, z, m=2, rows=6)
        assert [r is y for r in arr.rows] == [True, True, False, False, True, True]

    def test_equal_sequences_constant(self):
        y = unit_seq(4)
        arr = interleave_array(y, y, m=2, rows=4)
        assert all(r is y for r in arr.rows)


class TestSerialization:
    def test_tree_doc_breadth_first(self):
        tree = subsequence_tree(unit_seq(6), depth=2, width=2)
        doc = tree.to_doc()
        depths = [len(key) for key, _ in doc["nodes"]]
        assert depths == sorted(depths)
        assert doc["depth"] == 2 and doc["width"] == 2
        first_key, first_vec = doc["nodes"][0]
        assert first_key == [1] and first_vec == [[1, 1.0]]

    def test_sequence_doc(self):
        seq = unit_seq(3)
        assert seq.to_doc() == [[[1, 1.0]], [[2, 1.0]], [[3, 1.0]]]


class TestBranchErrors:
    def test_missing_node(self):
        tree = subsequence_tree(unit_seq(6), depth=2, width=2)
        with pytest.raises(InvalidBlockSequenceError):
            branch(tree, (1, 9))

    def test_non_increasing_path(self):
        tree = subsequence_tree(unit_seq(6), depth=2, width=2)
        with pytest.raises(InvalidBlockSequenceError):
            branch(tree, (2, 2))


@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_every_materialized_branch_is_a_block_sequence(data):
    rng = Random(data.draw(st.integers(0, 10**6)))
    seq = unit_seq(14)
    depth = rng.randint(1, 4)
    width = rng.randint(1, 3)
    tree = subsequence_tree(seq, depth=depth, width=width)
    path = []
    node = ()
    for _ in range(depth):
        children = tree.children(node)
        if not children:
            break
        node = children[rng.randrange(len(children))]
        path = list(node)
    if path:
        b = branch(tree, path)
        assert isinstance(b, BlockSequence)


# ---------------------------------------------------------------------------
# Differential test: merge_blocking against the loop it replaced, copied here
# as the oracle.
# ---------------------------------------------------------------------------


def oracle_merge_blocking(P, E):
    merged = []
    for block in E:
        elements = ()
        for k in block:
            if k < 1 or k > len(P):
                raise InvalidBlockingError(f"position {k} outside 1..{len(P)}")
            elements += P[k - 1].elements
        merged.append(FiniteSet(elements))
    return Blocking(merged)


def test_merge_blocking_matches_the_replaced_loop():
    rng = Random(11)
    for _ in range(300):
        m = rng.randint(1, 6)
        P = Blocking([range(3 * i + 1, 3 * i + 1 + rng.randint(1, 3)) for i in range(m)])
        # positions up to m + 2, so some fall outside P
        E = rng.choice(coarsenings(Blocking.singletons(m + 2), rng.randint(1, m + 2)))
        try:
            expected = oracle_merge_blocking(P, E)
        except InvalidBlockingError:
            with pytest.raises(InvalidBlockingError):
                merge_blocking(P, E)
        else:
            assert merge_blocking(P, E) == expected
