"""Blocking operations and the three monochromatic searches."""

import os
import subprocess
import sys
from dataclasses import replace
from functools import partial
from itertools import combinations, islice
from pathlib import Path
from random import Random

import pytest
from hypothesis import given, settings, strategies as st

from banachkit import combinatorics
from banachkit.combinatorics import (
    Blocking,
    Coloring,
    FiniteSet,
    InvalidBlockingError,
    SearchCertificate,
    _TABLE_LIMIT,
    _arity_tuples,
    _subsets_from,
    coarsen_by_indices,
    coarsenings,
    coloring_table_lines,
    constant_coloring,
    diagonal,
    finite_unions,
    hindman_search,
    is_blocking,
    is_coarser,
    milliken_taylor_search,
    min_parity_coloring,
    ramsey_search,
    size_parity_coloring,
    table_coloring,
    verify_hindman_certificate,
    verify_milliken_taylor_certificate,
    verify_ramsey_certificate,
)

from conftest import count_coarsenings_bruteforce
from subset_oracle import sorted_subsets, subset_order_mismatches


def B(text):
    return Blocking.parse(text)


class TestBlockingBasics:
    def test_is_blocking(self):
        assert is_blocking([FiniteSet([1]), FiniteSet([2]), FiniteSet([3])])
        assert not is_blocking([FiniteSet([1, 3]), FiniteSet([2])])
        assert is_blocking([FiniteSet([1, 2]), FiniteSet([4, 7])])

    def test_constructor_validates(self):
        with pytest.raises(InvalidBlockingError):
            B("1,3|2")
        with pytest.raises(InvalidBlockingError):
            FiniteSet([])

    def test_encode_parse_roundtrip(self):
        b = B("1,2|4|7,8,9")
        assert Blocking.parse(b.encode()) == b
        assert b.encode() == "1,2|4|7,8,9"

    def test_is_coarser(self):
        assert is_coarser(B("1,2|4"), B("1|2|4"))
        assert is_coarser(B("1,3"), B("1|2|3"))
        assert not is_coarser(B("1,2"), B("1|3"))

    def test_coarser_need_not_exhaust(self):
        assert is_coarser(B("2|5"), B("1|2|3|5"))

    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_coarser_transitive(self, data):
        rng = Random(data.draw(st.integers(0, 10**6)))
        m = rng.randint(3, 7)
        E = Blocking.singletons(m)
        level_f = coarsenings(E, rng.randint(2, m))
        F = level_f[rng.randrange(len(level_f))]
        level_g = coarsenings(F, rng.randint(1, len(F)))
        G = level_g[rng.randrange(len(level_g))]
        assert is_coarser(F, E)
        assert is_coarser(G, F)
        assert is_coarser(G, E)


class TestCoarsenings:
    def test_three_singletons_length_two(self):
        result = coarsenings(Blocking.singletons(3), 2)
        assert len(result) == 5
        assert [c.encode() for c in result] == ["1|2", "1|2,3", "1|3", "1,2|3", "2|3"]

    def test_full_length_is_identity(self):
        P = Blocking.singletons(3)
        assert coarsenings(P, 3) == [P]

    def test_two_singletons_length_one(self):
        result = coarsenings(Blocking.singletons(2), 1)
        assert [c.encode() for c in result] == ["1", "1,2", "2"]

    def test_out_of_range_lengths(self):
        P = Blocking.singletons(3)
        assert coarsenings(P, 0) == []
        assert coarsenings(P, 4) == []

    def test_counts_match_bruteforce(self):
        for n in range(1, 6):
            P = B("|".join(f"{2*i+1},{2*i+2}" for i in range(n)))
            for k in range(1, n + 1):
                assert len(coarsenings(P, k)) == count_coarsenings_bruteforce(n, k)

    def test_every_result_is_coarser_and_right_length(self):
        P = B("1|3,4|6|9")
        for k in range(1, 5):
            for Q in coarsenings(P, k):
                assert len(Q) == k
                assert is_coarser(Q, P)

    def test_coarsen_by_indices(self):
        P = Blocking.singletons(4)
        assert coarsen_by_indices(P, [(1, 3), (4,)]).encode() == "1,3|4"
        with pytest.raises(InvalidBlockingError):
            coarsen_by_indices(P, [(1, 5)])


class TestFiniteUnions:
    def test_pair(self):
        result = finite_unions(B("1|2"))
        assert {u.encode() for u in result} == {"1", "2", "1,2"}

    def test_count_three_blocks(self):
        assert len(finite_unions(B("1|3|5"))) == 7

    def test_single_block(self):
        assert [u.encode() for u in finite_unions(B("1,2"))] == ["1,2"]


def sum_parity_coloring(ground):
    return Coloring(kind="set", colors=2, ground=ground, fn=lambda E: sum(E.elements) % 2, name="sum-parity")


class TestRamseySearch:
    def test_sum_parity_witness(self):
        c = sum_parity_coloring(6)
        cert = ramsey_search(c, 2, 3)
        assert cert.found
        assert cert.witness.elements == (1, 3, 5)
        assert cert.color == 0
        assert verify_ramsey_certificate(c, 2, cert)

    def test_constant_coloring_first_lex(self):
        c = constant_coloring(8, 1)
        assert c.colors == 2
        cert = ramsey_search(c, 2, 4)
        assert cert.witness.elements == (1, 2, 3, 4)

    def test_constant_coloring_rejects_a_negative_color(self):
        with pytest.raises(ValueError, match="constant color must be >= 0"):
            constant_coloring(8, -1)

    def test_adjacency_coloring(self):
        def adjacency(ground):
            return Coloring(
                kind="set", colors=2, ground=ground,
                fn=lambda E: 1 if E.elements[0] + 1 == E.elements[1] else 0,
                name="adjacent",
            )

        # brute force over all 3-subsets of {1..4}: each contains an adjacent
        # and a non-adjacent pair, so the finite ground set is too small
        assert not ramsey_search(adjacency(4), 2, 3).found
        cert = ramsey_search(adjacency(5), 2, 3)
        assert cert.found
        assert cert.witness.elements == (1, 3, 5)
        assert verify_ramsey_certificate(adjacency(5), 2, cert)

    def test_not_found_reports_nodes(self):
        c = sum_parity_coloring(4)
        cert = ramsey_search(c, 2, 4)
        assert not cert.found
        assert cert.witness is None
        assert cert.nodes_explored > 0


class TestHindmanSearch:
    def test_min_parity(self):
        c = min_parity_coloring(10)
        cert = hindman_search(c, 10, 3)
        assert cert.found
        assert cert.witness.encode() == "1|3|5"
        assert cert.color == 1
        assert verify_hindman_certificate(c, cert)

    def test_constant(self):
        cert = hindman_search(constant_coloring(3), 3, 3)
        assert cert.witness.encode() == "1|2|3"

    def test_size_parity(self):
        c = size_parity_coloring(4)
        cert = hindman_search(c, 4, 2)
        assert cert.found
        assert cert.witness.encode() == "1,2|3,4"
        assert cert.color == 0
        assert verify_hindman_certificate(c, cert)

    def test_not_found_at_small_ground(self):
        # distinct sizes force distinct colors once unions get long
        c = Coloring(kind="set", colors=5, ground=4, fn=lambda E: len(E), name="size")
        cert = hindman_search(c, 4, 2)
        assert not cert.found
        assert cert.nodes_explored > 0


class TestMillikenTaylorSearch:
    def test_reduces_to_hindman_at_arity_one(self):
        rng = Random(42)
        for _ in range(10):
            m = rng.randint(3, 7)
            table = {}
            for E in finite_unions(Blocking.singletons(m)):
                table[E.encode()] = rng.randint(0, 1)
            set_coloring = table_coloring(table, kind="set", ground=m)
            blocking_coloring = Coloring(
                kind="blocking", colors=2, ground=m,
                fn=lambda blocks: table[blocks[0].encode()], arity=1, name="induced",
            )
            L = rng.randint(1, 3)
            h = hindman_search(set_coloring, m, L)
            mt = milliken_taylor_search(blocking_coloring, Blocking.singletons(m), 1, L)
            assert h.found == mt.found
            if h.found:
                assert h.witness == mt.witness
                assert h.color == mt.color

    def test_constant_returns_p_itself(self):
        P = B("1|2,3|5")
        cert = milliken_taylor_search(
            constant_coloring(5, kind="blocking", arity=2), P, 2, 3
        )
        assert cert.found
        assert cert.witness == P

    def test_first_min_parity(self):
        c = Coloring(
            kind="blocking", colors=2, ground=6,
            fn=lambda blocks: blocks[0].min() % 2, arity=2, name="first-min-parity",
        )
        cert = milliken_taylor_search(c, Blocking.singletons(6), 2, 3)
        assert cert.found
        assert cert.witness.encode() == "1|3|4"
        assert verify_milliken_taylor_certificate(c, 2, cert)

    def test_matches_exhaustive_oracle(self):
        # brute force: scan <P>^L directly for a monochromatic witness
        rng = Random(17)
        for _ in range(8):
            m = rng.randint(3, 6)
            P = Blocking.singletons(m)
            table = {}
            for pair in coarsenings(P, 2):
                table[pair.encode()] = rng.randint(0, 1)
            c = Coloring(
                kind="blocking", colors=2, ground=m,
                fn=lambda blocks: table[Blocking(blocks).encode()], arity=2, name="table",
            )
            L = 3
            expected = None
            for Q in coarsenings(P, L):
                colors = {c.of_blocking(list(F)) for F in coarsenings(Q, 2)}
                if len(colors) == 1:
                    expected = Q
                    break
            cert = milliken_taylor_search(c, P, 2, L)
            assert cert.found == (expected is not None)
            if expected is not None:
                assert cert.witness == expected

    def test_min_based_colorings_reduce_to_ramsey(self):
        # colorings that depend only on the block minima stabilize exactly
        # when the corresponding k-subset coloring does
        rng = Random(23)
        for _ in range(8):
            m = rng.randint(4, 7)
            table = {}
            for i in range(1, m + 1):
                for j in range(i + 1, m + 1):
                    table[(i, j)] = rng.randint(0, 1)
            set_coloring = Coloring(
                kind="set", colors=2, ground=m, fn=lambda E: table[E.elements], name="pairs",
            )
            blocking_coloring = Coloring(
                kind="blocking", colors=2, ground=m,
                fn=lambda blocks: table[(blocks[0].min(), blocks[1].min())],
                arity=2, name="min-induced",
            )
            r = ramsey_search(set_coloring, 2, 3)
            mt = milliken_taylor_search(blocking_coloring, Blocking.singletons(m), 2, 3)
            assert r.found == mt.found
            if r.found:
                assert r.color == mt.color
                minima = FiniteSet([blk.min() for blk in mt.witness])
                mins_cert = type(r)(True, minima, mt.color, 0)
                assert verify_ramsey_certificate(set_coloring, 2, mins_cert)


class TestDiagonal:
    def test_all_equal(self):
        P = B("1|2|4,5")
        assert diagonal([P, P, P]) == P

    def test_mixed_levels(self):
        fine = B("1|2|3")
        coarse = B("1|2,3")
        assert diagonal([fine, coarse]) == B("1|2,3")

    def test_single_entry(self):
        assert diagonal([B("1,2|3")]) == B("1,2")

    def test_rejects_non_nested(self):
        with pytest.raises(InvalidBlockingError):
            diagonal([B("1|2"), B("1,3|4")])

    def test_rejects_too_short(self):
        with pytest.raises(InvalidBlockingError):
            diagonal([B("1|2"), B("1,2")])


class TestColoringTables:
    def test_roundtrip_through_lines(self, tmp_path):
        c = min_parity_coloring(5)
        objects = finite_unions(Blocking.singletons(3))
        lines = coloring_table_lines(objects, c)
        path = tmp_path / "table.txt"
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        from banachkit.combinatorics import load_coloring_table

        loaded = load_coloring_table(str(path), kind="set", ground=5)
        for E in objects:
            assert loaded.of_set(E) == c.of_set(E)

    def test_missing_entry_raises(self):
        c = table_coloring({"1": 0}, kind="set", ground=3)
        with pytest.raises(KeyError):
            c.of_set(FiniteSet([2]))

    def test_blocking_encoding(self):
        c = table_coloring({"1,2|4": 3}, kind="blocking", ground=4, arity=2)
        assert c.of_blocking([FiniteSet([1, 2]), FiniteSet([4])]) == 3


class TestArityChecks:
    def test_search_rejects_coloring_of_another_arity(self):
        for arity in (1, 3):
            c = constant_coloring(4, kind="blocking", arity=arity)
            with pytest.raises(ValueError, match="arity"):
                milliken_taylor_search(c, Blocking.singletons(4), 2, 3)

    def test_verify_rejects_coloring_of_another_arity(self):
        cert = milliken_taylor_search(
            constant_coloring(4, kind="blocking", arity=2), Blocking.singletons(4), 2, 3
        )
        with pytest.raises(ValueError, match="arity"):
            verify_milliken_taylor_certificate(constant_coloring(4, kind="blocking", arity=1), 2, cert)

    def test_unspecified_arity_is_accepted(self):
        c = constant_coloring(4, kind="blocking")
        cert = milliken_taylor_search(c, Blocking.singletons(4), 2, 3)
        assert verify_milliken_taylor_certificate(c, 2, cert)


def verifier_case(search):
    """A verifier bound to its coloring, the certificate the search found, and
    the same witness with one set changed so that an object it generates
    takes the other color."""
    if search == "ramsey":
        c = sum_parity_coloring(6)  # witness 1,3,5 of color 0; {1, 4} has color 1
        return partial(verify_ramsey_certificate, c, 2), ramsey_search(c, 2, 3), FiniteSet([1, 3, 4])
    if search == "hindman":
        c = min_parity_coloring(10)  # witness 1|3|5 of color 1; {4} has color 0
        return partial(verify_hindman_certificate, c), hindman_search(c, 10, 3), B("1|3|4")
    c = Coloring(  # witness 1|3|4 of color 1; the coarsening 2|4 has color 0
        kind="blocking", colors=2, ground=6,
        fn=lambda blocks: blocks[0].min() % 2, arity=2, name="first-min-parity",
    )
    cert = milliken_taylor_search(c, Blocking.singletons(6), 2, 3)
    return partial(verify_milliken_taylor_certificate, c, 2), cert, B("1|2|4")


TAMPERINGS = {
    "wrong-color": lambda cert, changed: replace(cert, color=1 - cert.color),
    "one-set-changed": lambda cert, changed: replace(cert, witness=changed),
    "not-found": lambda cert, changed: replace(cert, found=False),
}


@pytest.mark.parametrize("tampering", sorted(TAMPERINGS))
@pytest.mark.parametrize("search", ["ramsey", "hindman", "milliken"])
def test_verifier_rejects_a_tampered_certificate(search, tampering):
    verify, cert, changed = verifier_case(search)
    assert verify(cert) is True
    assert verify(TAMPERINGS[tampering](cert, changed)) is False


# ---------------------------------------------------------------------------
# Differential tests: the table-driven enumeration against the recursive
# enumeration it replaced, copied here as the oracle.
# ---------------------------------------------------------------------------


def oracle_subsets_lex(elements):
    for i, first in enumerate(elements):
        yield (first,)
        for rest in oracle_subsets_lex(elements[i + 1 :]):
            yield (first,) + rest


def oracle_coarsenings(P, k):
    n = len(P)
    if k < 1 or k > n:
        return []
    results = []

    def extend(chosen, lo):
        if len(chosen) == k:
            results.append(coarsen_by_indices(P, chosen))
            return
        remaining = k - len(chosen)
        for subset in oracle_subsets_lex(tuple(range(lo, n + 1))):
            if n - subset[-1] >= remaining - 1:
                extend(chosen + [subset], subset[-1] + 1)

    extend([], 1)
    return results


def oracle_arity_tuples_with_last(j, k):
    def extend(chosen, lo):
        if len(chosen) == k - 1:
            for last in oracle_subsets_lex(tuple(range(lo, j + 1))):
                if last[-1] == j:
                    yield chosen + (last,)
            return
        for subset in oracle_subsets_lex(tuple(range(lo, j + 1))):
            if subset[-1] < j:
                yield from extend(chosen + (subset,), subset[-1] + 1)

    yield from extend((), 1)


def oracle_milliken_taylor_search(coloring, P, k, L):
    n = len(P)
    nodes = 0
    best = []

    def blocks_of(index_sets):
        out = []
        for indices in index_sets:
            merged = ()
            for i in indices:
                merged += P[i - 1].elements
            out.append(FiniteSet(merged))
        return out

    def extend(chosen, target, lo):
        nonlocal nodes
        if len(chosen) == L:
            best.append(SearchCertificate(True, Blocking(blocks_of(chosen)), target, nodes))
            return True
        for subset in oracle_subsets_lex(tuple(range(lo, n + 1))):
            if n - subset[-1] < L - len(chosen) - 1:
                continue
            nodes += 1
            candidate = chosen + [subset]
            j = len(candidate)
            new_target = target
            ok = True
            if j >= k:
                for meta in oracle_arity_tuples_with_last(j, k):
                    index_sets = []
                    for meta_set in meta:
                        merged = ()
                        for mi in meta_set:
                            merged += candidate[mi - 1]
                        index_sets.append(merged)
                    c = coloring.of_blocking(blocks_of(index_sets))
                    if new_target is None:
                        new_target = c
                    elif c != new_target:
                        ok = False
                        break
            if ok and extend(candidate, new_target, subset[-1] + 1):
                return True
        return False

    if extend([], None, 1):
        return best[0]
    return SearchCertificate(False, None, None, nodes)


def oracle_ramsey_search(coloring, k, L):
    M = coloring.ground
    nodes = 0

    def color_of(subset):
        return coloring.of_set(FiniteSet(subset))

    best = []

    def extend(chosen, target):
        nonlocal nodes
        if len(chosen) == L:
            best.append(
                SearchCertificate(True, FiniteSet(chosen), target, nodes)
            )
            return True
        lo = chosen[-1] + 1 if chosen else 1
        for candidate in range(lo, M + 1):
            if M - candidate < L - len(chosen) - 1:
                break
            nodes += 1
            extended = chosen + (candidate,)
            new_target = target
            ok = True
            if len(extended) >= k:
                for prefix in combinations(extended[:-1], k - 1):
                    c = color_of(tuple(sorted(prefix + (candidate,))))
                    if new_target is None:
                        new_target = c
                    elif c != new_target:
                        ok = False
                        break
            if ok and extend(extended, new_target):
                return True
        return False

    if extend((), None):
        return best[0]
    return SearchCertificate(False, None, None, nodes)


def oracle_hindman_search(coloring, M, L):
    nodes = 0
    best = []

    def extend(chosen, unions, target, lo):
        nonlocal nodes
        if len(chosen) == L:
            best.append(SearchCertificate(True, Blocking(chosen), target, nodes))
            return True
        for subset in oracle_subsets_lex(tuple(range(lo, M + 1))):
            if M - subset[-1] < L - len(chosen) - 1:
                continue
            nodes += 1
            block = FiniteSet(subset)
            new_target = target
            new_unions = []
            ok = True
            for u in [block] + [u.union(block) for u in unions]:
                c = coloring.of_set(u)
                if new_target is None:
                    new_target = c
                elif c != new_target:
                    ok = False
                    break
                new_unions.append(u)
            if ok and extend(chosen + [block], unions + new_unions, new_target, subset[-1] + 1):
                return True
        return False

    if extend([], [], None, 1):
        return best[0]
    return SearchCertificate(False, None, None, nodes)


@st.composite
def blockings(draw, max_ground=8):
    """A blocking inside {1..max_ground}: each element is skipped, joins the
    current block, or starts a new one."""
    blocks = []
    for e in range(1, max_ground + 1):
        move = draw(st.sampled_from(("skip", "join", "new")))
        if move == "new" or (move == "join" and not blocks):
            blocks.append([e])
        elif move == "join":
            blocks[-1].append(e)
    return Blocking(blocks or [[1]])


def random_blocking_coloring(rng, P, k, colors):
    """A table over <P>^k, either on whole encodings or on block minima
    (the second kind leaves monochromatic witnesses more often)."""
    if rng.random() < 0.5:
        table = {F.encode(): rng.randrange(colors) for F in oracle_coarsenings(P, k)}
        return table_coloring(table, kind="blocking", ground=P[-1].max(), colors=colors, arity=k)
    minima = {}

    def fn(blocks):
        key = tuple(b.min() for b in blocks)
        if key not in minima:
            minima[key] = rng.randrange(colors)
        return minima[key]

    return Coloring(kind="blocking", colors=colors, ground=P[-1].max(), fn=fn, arity=k)


def lazy_set_coloring(M, seed, colors, by_min_and_size):
    """A set coloring that draws each color the first time its key is
    queried, so its colors, and the certificate, follow the query order."""
    rng = Random(seed)
    table = {}

    def fn(E):
        key = (E.min(), len(E) % 2) if by_min_and_size else E.elements
        if key not in table:
            table[key] = rng.randrange(colors)
        return table[key]

    return Coloring(kind="set", colors=colors, ground=M, fn=fn)


def same_certificate(a, b):
    return (a.found, a.witness, a.color, a.nodes_explored) == (b.found, b.witness, b.color, b.nodes_explored)


class TestEnumerationAgainstRecursiveOracle:
    def test_subset_tables(self):
        # every ground set {lo..n} with n < 16, against the recursion and the
        # sorted combinations
        assert _TABLE_LIMIT == 1 << 15
        for n in range(0, 16):
            for lo in range(1, n + 2):
                got = list(_subsets_from(lo, n))
                assert got == list(oracle_subsets_lex(tuple(range(lo, n + 1))))
                assert got == sorted_subsets(lo, n)

    @pytest.mark.parametrize("lo, n, count", [(1, 16, None), (9, 16, None), (1, 40, 20000), (17, 40, 20000)])
    def test_subset_walks(self, lo, n, count):
        assert not isinstance(_subsets_from(lo, n), tuple)
        assert subset_order_mismatches(lo, n, count) == []
        assert list(islice(_subsets_from(lo, n), count)) == list(
            islice(oracle_subsets_lex(tuple(range(lo, n + 1))), count)
        )

    def test_arity_tables(self):
        for j in range(1, 13):
            for k in range(1, min(j, 3) + 1):
                assert list(_arity_tuples(j, k)) == list(oracle_arity_tuples_with_last(j, k))

    def test_large_ground_sets_are_enumerated_lazily(self):
        metas = _arity_tuples(40, 2)
        assert not isinstance(metas, tuple)
        assert list(islice(metas, 3)) == list(islice(oracle_arity_tuples_with_last(40, 2), 3))
        cert = hindman_search(constant_coloring(40), 40, 3)
        assert (cert.witness.encode(), cert.nodes_explored) == ("1|2|3", 3)

    def test_a_search_keeps_no_subset_enumeration(self):
        # in a fresh child, so that no earlier test has built anything the
        # search could reuse; tables of every subset of {1..14} and of
        # {1..15}, which this search would read from, hold about 5 MB
        child = (
            "import tracemalloc\n"
            "from banachkit.combinatorics import constant_coloring, hindman_search\n"
            "tracemalloc.start()\n"
            "cert = hindman_search(constant_coloring(16), 16, 3)\n"
            "print(cert.witness.encode(), cert.nodes_explored, tracemalloc.get_traced_memory()[0])\n"
        )
        src = str(Path(combinatorics.__file__).resolve().parent.parent)
        done = subprocess.run(
            [sys.executable, "-c", child],
            capture_output=True, text=True, timeout=60, env={**os.environ, "PYTHONPATH": src},
        )
        witness, nodes, held = done.stdout.split()
        assert (witness, nodes) == ("1|2|3", "3")
        assert int(held) < 64 * 1024

    @settings(max_examples=80, deadline=None)
    @given(P=blockings())
    def test_coarsenings_and_finite_unions(self, P):
        for k in range(0, len(P) + 2):
            got = [F.encode() for F in coarsenings(P, k)]
            assert got == [F.encode() for F in oracle_coarsenings(P, k)]
        unions = [FiniteSet(sum((P[i - 1].elements for i in s), ())) for s in oracle_subsets_lex(range(1, len(P) + 1))]
        assert finite_unions(P) == unions

    @settings(max_examples=120, deadline=None)
    @given(P=blockings(), data=st.data())
    def test_milliken_taylor_search(self, P, data):
        k = data.draw(st.integers(1, min(3, len(P))))
        L = data.draw(st.integers(k, len(P)))
        seed = data.draw(st.integers(0, 2**32 - 1))
        colors = data.draw(st.integers(1, 3))
        coloring = random_blocking_coloring(Random(seed), P, k, colors)
        expected = oracle_milliken_taylor_search(coloring, P, k, L)
        assert same_certificate(milliken_taylor_search(coloring, P, k, L), expected)

    # Each side gets its own lazy coloring from the same seed: the i-th new
    # key queried draws the i-th color, so a changed query order shows.

    @settings(max_examples=120, deadline=None)
    @given(data=st.data())
    def test_hindman_search(self, data):
        M = data.draw(st.integers(1, 8))
        L = data.draw(st.integers(1, 4))
        args = (M, data.draw(st.integers(0, 2**32 - 1)), data.draw(st.integers(1, 3)), data.draw(st.booleans()))
        expected = oracle_hindman_search(lazy_set_coloring(*args), M, L)
        assert same_certificate(hindman_search(lazy_set_coloring(*args), M, L), expected)

    def test_hindman_search_seed_sweep(self):
        # the same 300 cases on every run, whatever hypothesis draws; about
        # one in seven changes its certificate if the unions are queried in
        # another order
        for seed in range(300):
            rng = Random(seed)
            M, L = rng.randint(1, 8), rng.randint(1, 4)
            args = (M, seed, rng.randint(1, 3), rng.random() < 0.5)
            expected = oracle_hindman_search(lazy_set_coloring(*args), M, L)
            assert same_certificate(hindman_search(lazy_set_coloring(*args), M, L), expected), seed

    @settings(max_examples=120, deadline=None)
    @given(data=st.data())
    def test_ramsey_search(self, data):
        M = data.draw(st.integers(1, 9))
        k = data.draw(st.integers(1, 3))
        L = data.draw(st.integers(k, k + 3))
        args = (M, data.draw(st.integers(0, 2**32 - 1)), data.draw(st.integers(1, 3)), data.draw(st.booleans()))
        expected = oracle_ramsey_search(lazy_set_coloring(*args), k, L)
        assert same_certificate(ramsey_search(lazy_set_coloring(*args), k, L), expected)


# ---------------------------------------------------------------------------
# Differential test: table lookups against the per-kind functions they
# replaced, copied here as the oracle.
# ---------------------------------------------------------------------------


def oracle_table_fn(table, kind):
    def fn_set(E):
        key = E.encode()
        if key not in table:
            raise KeyError(f"coloring table has no entry for set {key}")
        return table[key]

    def fn_blocking(blocks):
        key = Blocking(blocks).encode()
        if key not in table:
            raise KeyError(f"coloring table has no entry for blocking {key}")
        return table[key]

    return fn_set if kind == "set" else fn_blocking


def lookup(fn, obj):
    try:
        return fn(obj)
    except KeyError as exc:
        return str(exc)


def test_table_lookups_match_the_replaced_functions():
    sets = [FiniteSet(E) for r in (1, 2) for E in combinations(range(1, 6), r)]
    set_table = {E.encode(): i % 3 for i, E in enumerate(sets) if i % 4}
    coloring = table_coloring(set_table, kind="set", ground=5)
    oracle = oracle_table_fn(set_table, "set")
    assert [lookup(coloring.fn, E) for E in sets] == [lookup(oracle, E) for E in sets]
    assert "'coloring table has no entry for set 1'" in [lookup(oracle, E) for E in sets]

    blockings = coarsenings(Blocking.singletons(5), 2)
    blocking_table = {F.encode(): i % 2 for i, F in enumerate(blockings) if i % 3}
    coloring = table_coloring(blocking_table, kind="blocking", ground=5, arity=2)
    oracle = oracle_table_fn(blocking_table, "blocking")
    tuples = [tuple(F) for F in blockings]
    assert [lookup(coloring.fn, F) for F in tuples] == [lookup(oracle, F) for F in tuples]
    assert "'coloring table has no entry for blocking 1|2'" in [lookup(oracle, F) for F in tuples]
