"""Game protocol, sampled asymptotic constants, and branch extraction."""

import json
import math
from random import Random

import pytest
from hypothesis import given, settings, strategies as st

from banachkit import games
from banachkit.analysis import LpReference, ScalarNet, equivalence_constant
from banachkit.blockseq import (
    BlockSequence,
    interleave_array,
    subsequence_tree,
    tree_from_array,
)
from banachkit.games import (
    ProtocolViolationError,
    Strategy,
    asymptotic_lp_verdict,
    good_branch_extract,
    play,
    stabilized_constant,
    strategy_from_name,
    subspace_constant,
    subspace_tail,
    vector_nccb,
    vector_net,
    vector_unit,
)
from banachkit.spaces import Interleave, James, Lp, LpSum, SparseVector, make_example_space, norm


def unit(i):
    return SparseVector.unit(i)


def interleave_space():
    return Interleave(Lp(1.0), Lp(2.0), "max")


class TestPlay:
    def test_unit_player_outcome(self):
        t = play(Lp(2.0), subspace_tail(1), vector_unit(), 4)
        assert [m for m, _ in t.moves] == [1, 2, 3, 4]
        assert [y.support() for _, y in t.moves] == [(1,), (2,), (3,), (4,)]
        outcome = t.outcome
        assert len(outcome) == 4

    def test_constant_cutoff_leaves_play_free(self):
        t = play(Lp(2.0), subspace_constant(1), vector_nccb(2), 3)
        for m, y in t.moves:
            assert m == 1
            assert y.min_index() >= 1
            assert abs(norm(Lp(2.0), y) - 1.0) <= 1e-9

    def test_negative_rounds_rejected_before_play(self):
        def never(history, *args):
            raise AssertionError("played with a negative round count")

        with pytest.raises(ValueError, match="rounds must be >= 0"):
            play(
                Lp(2.0),
                Strategy("subspace-player", "never", never),
                Strategy("vector-player", "never", never),
                -2,
            )

    def test_zero_rounds_give_an_empty_transcript(self):
        t = play(Lp(2.0), subspace_tail(1), vector_unit(), 0)
        assert t.moves == ()

    def test_cutoffs_respected(self):
        t = play(Lp(2.0), subspace_constant(5), vector_unit(), 2)
        assert all(y.min_index() >= 5 for _, y in t.moves)

    def test_outcome_is_equivalent_to_lp(self):
        t = play(Lp(2.0), subspace_tail(3), vector_unit(), 3)
        report = equivalence_constant(Lp(2.0), list(t.outcome), LpReference(2.0, 3))
        assert report.constant <= 1 + 1e-9

    def test_cutoffs_past_segments_tighten_the_outcome(self):
        spec = make_example_space(2.0, 3, [1.0, 1.5, 1.8])
        t = play(spec, subspace_constant(68), vector_unit(), 3)  # segment 3 starts at 68
        report = equivalence_constant(spec, list(t.outcome), LpReference(2.0, 3))
        assert report.constant <= 3 ** (1 / 1.8 - 1 / 2) + 1e-9

    def test_vector_player_violations_are_named(self):
        before_cutoff = Strategy("vector-player", "bad", lambda r, c, s: unit(1))
        with pytest.raises(ProtocolViolationError) as err:
            play(Lp(2.0), subspace_constant(5), before_cutoff, 1)
        assert err.value.offender == "vector-player"

        unnormalized = Strategy("vector-player", "big", lambda r, c, s: SparseVector({c: 2.0}))
        with pytest.raises(ProtocolViolationError) as err:
            play(Lp(2.0), subspace_constant(1), unnormalized, 1)
        assert err.value.offender == "vector-player"

        stuck = Strategy("vector-player", "stuck", lambda r, c, s: unit(max(c, 1)))
        with pytest.raises(ProtocolViolationError) as err:
            play(Lp(2.0), subspace_constant(2), stuck, 2)
        assert err.value.offender == "vector-player"
        assert "after the previous" in str(err.value)

    def test_subspace_player_violations_are_named(self):
        bad_cutoff = Strategy("subspace-player", "zero", lambda r, s: 0)
        with pytest.raises(ProtocolViolationError) as err:
            play(Lp(2.0), bad_cutoff, vector_unit(), 1)
        assert err.value.offender == "subspace-player"

    def test_wrong_role_rejected(self):
        with pytest.raises(ProtocolViolationError):
            play(Lp(2.0), vector_unit(), vector_unit(), 1)

    def test_transcript_serializes(self):
        t = play(Lp(2.0), subspace_tail(1), vector_unit(), 2)
        doc = t.to_doc()
        assert len(doc["moves"]) == 2 and len(doc["outcome"]) == 2

    def test_net_player_moves_are_legal(self):
        from banachkit.games import vector_net

        for pick in (0, 3, 11):
            t = play(Lp(2.0), subspace_tail(1), vector_net(pick=pick), 3)
            for _, y in t.moves:
                assert abs(norm(Lp(2.0), y) - 1.0) <= 1e-9

    @pytest.mark.parametrize(
        "make, message",
        [
            (lambda: vector_nccb(0), "nccb width must be >= 1, got 0"),
            (lambda: vector_nccb(-2), "nccb width must be >= 1, got -2"),
            (lambda: vector_net(window=0), "net window 0 is shorter than every tuple"),
            (lambda: vector_net(window=-1, pick=0), "net window -1 is shorter than every tuple"),
            (lambda: vector_net(ScalarNet.grid(step=1.0, max_len=2), window=0), "net window 0"),
        ],
    )
    def test_degenerate_vector_players_rejected_when_built(self, make, message):
        with pytest.raises(ValueError, match=message):
            make()

    @pytest.mark.parametrize(
        "make, message",
        [
            (lambda: subspace_tail(-1), "tail lead must be >= 0, got -1"),
            (lambda: subspace_tail(-3), "tail lead must be >= 0, got -3"),
            (lambda: subspace_constant(0), "constant cutoff m must be >= 1, got 0"),
            (lambda: subspace_constant(-2), "constant cutoff m must be >= 1, got -2"),
            (lambda: strategy_from_name("tail:-3", "subspace-player"), "tail lead must be >= 0"),
            (lambda: strategy_from_name("constant:0", "subspace-player"), "constant cutoff m must be >= 1"),
        ],
    )
    def test_degenerate_subspace_players_rejected_when_built(self, make, message):
        with pytest.raises(ValueError, match=message):
            make()

    def test_zero_tail_lead_is_legal(self):
        tail = strategy_from_name("tail:0", "subspace-player")
        t = play(Lp(2.0), tail, vector_unit(), 3)
        # the first cutoff is 1; each later one is the last support, already played past
        assert [m for m, _ in t.moves] == [1, 1, 2]
        assert [y.support() for _, y in t.moves] == [(1,), (2,), (3,)]

    def test_strategy_registry(self):
        assert strategy_from_name("constant:4", "subspace-player").name == "constant:4"
        assert strategy_from_name("tail:2", "subspace-player").name == "tail:2"
        assert strategy_from_name("unit", "vector-player").name == "unit"
        assert strategy_from_name("nccb:3", "vector-player").name == "nccb:3"
        assert strategy_from_name("net:6:2", "vector-player").name == "net:6:2"
        assert strategy_from_name("net", "vector-player").name == "net:8:0"
        with pytest.raises(ValueError):
            strategy_from_name("alphabeta", "vector-player")

    @pytest.mark.parametrize(
        "text, role, bad",
        [
            ("constant:x", "subspace-player", "x"),
            ("tail: ", "subspace-player", " "),
            ("nccb:2.0", "vector-player", "2.0"),
            ("net:8:z", "vector-player", "z"),
        ],
    )
    def test_non_integer_parameter_names_role_strategy_and_parameter(self, text, role, bad):
        with pytest.raises(ValueError) as info:
            strategy_from_name(text, role)
        assert str(info.value) == f"{role} strategy {text!r}: parameter {bad!r} is not an integer"

    @pytest.mark.parametrize(
        "text, message",
        [
            ("unit:7", "vector-player strategy 'unit:7' takes no parameter"),
            ("net:1:2:3", "vector-player strategy 'net:1:2:3' takes at most two parameters"),
            # parameters are positional: the 3 of net::3 is the pick, not the window
            ("net::3", "vector-player strategy 'net::3' has an empty parameter"),
            ("net:3:", "vector-player strategy 'net:3:' has an empty parameter"),
            ("net::", "vector-player strategy 'net::' has an empty parameter"),
        ],
    )
    def test_parameter_the_strategy_does_not_take_is_refused(self, text, message):
        with pytest.raises(ValueError) as info:
            strategy_from_name(text, "vector-player")
        assert str(info.value) == message


class TestStabilizedConstant:
    def test_lp_is_isometric_at_every_cutoff(self):
        for N in (1, 10, 100):
            report = stabilized_constant(Lp(2.0), 2.0, 3, N, window=16, samples=20)
            assert report.constant == pytest.approx(1.0, abs=1e-9)
            assert report.N == N

    def test_interleave_pair_certificate(self):
        spec = interleave_space()
        for N in (1, 5, 20):
            report = stabilized_constant(spec, 2.0, 2, N, window=16, samples=20)
            assert report.constant >= math.sqrt(2) - 1e-6

    def test_certificate_reproduces_constant(self):
        spec = interleave_space()
        report = stabilized_constant(spec, 2.0, 2, 3, window=12, samples=15)
        again = equivalence_constant(
            spec, list(report.certificate), LpReference(2.0, 2), net=report.net
        )
        assert again.constant == pytest.approx(report.constant, abs=1e-9)

    def test_empty_window_rejected(self):
        with pytest.raises(ValueError):
            stabilized_constant(Lp(2.0), 2.0, 4, 1, window=2, samples=5)

    @pytest.mark.parametrize(
        "n, window, samples, message",
        [(0, 8, 5, "n must be >= 1"), (2, -1, 5, "window must be >= 0"), (2, 8, -1, "samples must be >= 0")],
    )
    def test_counts_rejected_before_sampling(self, monkeypatch, n, window, samples, message):
        def no_pool(*args, **kwargs):
            raise AssertionError("sampled with an invalid count")

        monkeypatch.setattr(games, "_tuple_pool", no_pool)
        with pytest.raises(ValueError, match=message):
            stabilized_constant(Lp(2.0), 2.0, n, 3, window=window, samples=samples)


class TestAsymptoticVerdict:
    def test_lp_consistent(self):
        verdict = asymptotic_lp_verdict(Lp(2.0), 2.0, 2, [1, 10, 100], epsilon=0.01, samples=20)
        assert verdict.verdict == "consistent-with-stabilized-1-asymptotic-lp"
        assert all(c == pytest.approx(1.0, abs=1e-9) for c in verdict.constants())

    def test_interleave_not_consistent(self):
        verdict = asymptotic_lp_verdict(
            interleave_space(), 2.0, 2, [1, 8, 20], epsilon=0.25, samples=20
        )
        assert verdict.verdict == "not-consistent"
        assert all(c >= math.sqrt(2) - 1e-6 for c in verdict.constants())

    def test_example_space_nonincreasing_to_segment_bound(self):
        spec = make_example_space(2.0, 3, [1.0, 1.5, 1.8])
        verdict = asymptotic_lp_verdict(spec, 2.0, 2, [1, 3, 68], epsilon=0.05, window=16, samples=20)
        constants = verdict.constants()
        assert all(b <= a + 1e-12 for a, b in zip(constants, constants[1:]))
        bound = 2 ** (1 / 1.8 - 1 / 2)
        assert constants[-1] <= bound + verdict.rows[-1].certificate_report.net_error + 1e-9
        assert verdict.empirical

    @pytest.mark.parametrize("epsilon", [-1.0, math.nan, math.inf])
    def test_epsilon_rejected_before_sampling(self, monkeypatch, epsilon):
        def no_pool(*args, **kwargs):
            raise AssertionError("sampled with an invalid epsilon")

        monkeypatch.setattr(games, "_tuple_pool", no_pool)
        with pytest.raises(ValueError, match="epsilon must be finite"):
            asymptotic_lp_verdict(Lp(2.0), 2.0, 2, [1, 3], epsilon=epsilon, samples=5)

    def test_negative_samples_rejected_before_sampling(self, monkeypatch):
        def no_pool(*args, **kwargs):
            raise AssertionError("sampled with a negative sample count")

        monkeypatch.setattr(games, "_tuple_pool", no_pool)
        with pytest.raises(ValueError, match="samples must be >= 0"):
            asymptotic_lp_verdict(Lp(2.0), 2.0, 2, [1, 3], epsilon=0.1, samples=-3)

    @pytest.mark.parametrize(
        "n, window, message",
        [(0, 24, "n must be >= 1"), (-2, 24, "n must be >= 1"), (2, -1, "window must be >= 0")],
    )
    def test_n_and_window_rejected_before_sampling(self, monkeypatch, n, window, message):
        def no_pool(*args, **kwargs):
            raise AssertionError("sampled with an invalid n or window")

        monkeypatch.setattr(games, "_tuple_pool", no_pool)
        with pytest.raises(ValueError, match=message):
            asymptotic_lp_verdict(Lp(2.0), 2.0, n, [1, 3], epsilon=0.1, window=window, samples=5)

    @pytest.mark.parametrize("schedule, low", [([0, 5], 0), ([5, -4], -4), ([3, 1, -1, 2], -1)])
    def test_cutoff_below_one_rejected_before_sampling(self, monkeypatch, schedule, low):
        def never(*args, **kwargs):
            raise AssertionError("built a reference or a pool for a cutoff below 1")

        monkeypatch.setattr(games, "LpReference", never)
        monkeypatch.setattr(games, "_tuple_pool", never)
        message = f"schedule cutoffs must be >= 1, got {low}"
        with pytest.raises(ValueError, match=message):
            asymptotic_lp_verdict(Lp(2.0), 2.0, 2, schedule, epsilon=0.1, samples=5)
        with pytest.raises(ValueError, match=message):
            stabilized_constant(Lp(2.0), 2.0, 2, low, samples=5)

    def test_reports_carry_pool_parameters(self):
        verdict = asymptotic_lp_verdict(Lp(1.0), 1.0, 2, [1, 4], epsilon=0.1, samples=10)
        for row in verdict.rows:
            assert row.pool_size > 0
            assert row.net.to_doc()["size"] > 0


class TestGoodBranchExtract:
    def test_lp_tree_certifies(self):
        tree = subsequence_tree([unit(i) for i in range(1, 25)], depth=8, width=3)
        result = good_branch_extract(tree, Lp(2.0), 2.0)
        assert result.complete
        assert result.certified
        assert result.goodness.verdict == "good-within-tolerance"
        assert len(result.branch) == 8

    def test_one_spreading_tree_certifies_at_every_epsilon(self):
        tree = subsequence_tree([unit(i) for i in range(1, 25)], depth=8, width=2)
        for rule in (lambda n: 1.0 / n, lambda n: 0.01, lambda n: 1e-6):
            result = good_branch_extract(tree, Lp(1.0), 1.0, eps_rule=rule)
            assert result.certified

    def test_interleave_tree_flags_failure(self):
        odd = BlockSequence([unit(2 * i - 1) for i in range(1, 30)])
        even = BlockSequence([unit(2 * i) for i in range(1, 30)])
        arr = interleave_array(odd, even, m=2, rows=8)
        tree = tree_from_array(arr, depth=8, width=2)
        result = good_branch_extract(tree, interleave_space(), 2.0)
        assert not result.certified
        assert result.goodness.verdict == "oscillating"
        assert result.metadata["cutoff_rule"] == "stabilized-constant-lead"

    def test_exhausted_tree_flags_partial(self):
        tree = subsequence_tree([unit(i) for i in range(1, 5)], depth=6, width=1)
        result = good_branch_extract(tree, Lp(2.0), 2.0)
        assert not result.complete
        assert len(result.branch) < 6

    @pytest.mark.parametrize(
        "p, kwargs, message",
        [
            (0.5, {}, "exponent p=0.5 outside"),
            (2.0, {"lead_max_n": 0}, "lead_max_n must be >= 1, got 0"),
            (2.0, {"lead_samples": -1}, "lead_samples must be >= 0, got -1"),
            (2.0, {"lead_window": -1}, "lead_window must be >= 0, got -1"),
        ],
    )
    def test_config_errors_raise_before_any_lead(self, monkeypatch, p, kwargs, message):
        def never(*args, **kwargs):
            raise AssertionError("sampled a lead with an invalid configuration")

        monkeypatch.setattr(games, "stabilized_constant", never)
        tree = subsequence_tree([unit(i) for i in range(1, 9)], depth=3, width=2)
        with pytest.raises(ValueError, match=message):
            good_branch_extract(tree, Lp(2.0), p, **kwargs)

    def test_window_too_short_for_the_tuples_raises(self):
        tree = subsequence_tree([unit(i) for i in range(1, 9)], depth=3, width=2)
        with pytest.raises(ValueError, match="cannot host block 2-tuples"):
            good_branch_extract(tree, Lp(2.0), 2.0, lead_window=0)

    def test_doubling_stops_where_a_finite_space_ends(self):
        spec = LpSum(2.0, (1.0, 1.5), (3, 4))
        tree = subsequence_tree([unit(i) for i in range(1, 8)], depth=3, width=2)
        result = good_branch_extract(tree, spec, 2.0)
        assert result.metadata["leads"] == {"1": None, "2": None, "3": None}
        assert not result.certified

    def test_example_space_branch_oscillation_shrinks(self):
        from banachkit.analysis import ScalarNet, goodness_test

        spec = make_example_space(2.0, 3, [1.0, 1.5, 1.8])
        tree = subsequence_tree([unit(i) for i in range(1, 41)], depth=12, width=3)
        result = good_branch_extract(tree, spec, 2.0)
        assert result.complete
        net = ScalarNet.grid(0.5, 2)
        early = goodness_test(spec, list(result.branch), net, K=1, H=5, epsilon=1e-9)
        late = goodness_test(spec, list(result.branch), net, K=7, H=5, epsilon=1e-9)
        assert late.max_oscillation() < early.max_oscillation()


# ---------------------------------------------------------------------------
# Differential tests: the one-cutoff constant, the vector players and the
# tuple pool against the bodies they replaced, copied here as the oracle.
# ---------------------------------------------------------------------------


def oracle_max_constant(spec, reference, pool, net, scans):
    """Worst tuple of ``pool``, the first in pool order to reach the maximum.

    ``scans`` keeps one scan per coordinate class for reuse: pool tuples
    whose blocks have the same ``spec.coordinates`` share one report.
    """
    best = None
    for seq in pool:
        # The scan reads ``seq`` only through ``CombinationNorm(spec, seq).parts``
        # (``unconditional`` is derived from it) and ``spec.norm(v)``, which is
        # ``coordinate_norm(coordinates(v))``.  A BlockSequence has successive
        # supports, so both are functions of this key and a class's tuples
        # get equal reports.  Every pool vector was normed when the pool was
        # built, so the key cannot raise.  The strict ``>`` below keeps the
        # certificate the first tuple in pool order to reach the maximum.
        key = tuple(tuple(spec.coordinates(v)) for v in seq)
        if key not in scans:
            scans[key] = equivalence_constant(spec, seq, reference, net=net)
        report = scans[key]
        if best is None or report.constant > best[0]:
            best = (report.constant, seq, report)
    return best


def oracle_stabilized_constant(spec, p, n, N, window=24, net=None, seed=0, samples=40):
    reference = LpReference(p, n)
    if net is None:
        net = ScalarNet.grid(step=0.25, max_len=n)
    pool = games._tuple_pool(spec, n, N, N + window, seed, samples)
    constant, certificate, report = oracle_max_constant(spec, reference, pool, net, {})
    return games.AsymptoticReport(
        n=n, N=N, constant=constant, certificate=certificate, certificate_report=report,
        window=window, seed=seed, samples=samples, pool_size=len(pool), net=net,
    )


def oracle_vector_net(window=8, pick=0):
    chosen_net = ScalarNet.grid(step=0.5, max_len=2)

    def rule(rounds, cutoff, spec):
        past = max((y.max_index() for _, y in rounds), default=0)
        j = max(cutoff, past + 1)
        candidates = [t for t in chosen_net.tuples if len(t) <= window]
        coeffs = candidates[pick % len(candidates)]
        v = SparseVector({j + i: c for i, c in enumerate(coeffs) if c != 0.0})
        return v.scale(1.0 / spec.norm(v))

    return Strategy("vector-player", f"net:{window}:{pick}", rule)


def oracle_structured_tuples(spec, n, lo, hi):
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


def oracle_random_tuples(spec, n, lo, hi, seed, count):
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


def doc_bytes(report):
    return json.dumps(report.to_doc(), sort_keys=True, allow_nan=False)


class TestAgainstReplacedBodies:
    SPACES = [
        Lp(2.0),
        Lp(1.0),
        interleave_space(),
        make_example_space(2.0, 3, [1.0, 1.5, 1.8]),
        Interleave(LpSum(2.0, (1.0, 1.5), (4, 40)), James(), "sum"),
    ]

    @pytest.mark.parametrize("spec", SPACES, ids=lambda spec: spec.to_doc()["kind"])
    def test_stabilized_constant_report_bytes(self, spec):
        for n, N, window, seed, samples in [
            (1, 1, 6, 0, 5), (2, 1, 8, 3, 10), (2, 5, 10, 11, 0), (3, 2, 9, 4, 6), (2, 30, 4, 1, 8),
        ]:
            args = (spec, 2.0, n, N)
            kwargs = dict(window=window, seed=seed, samples=samples)
            assert doc_bytes(stabilized_constant(*args, **kwargs)) == doc_bytes(
                oracle_stabilized_constant(*args, **kwargs)
            )
        net = ScalarNet.grid(step=1.0, max_len=2)
        assert doc_bytes(stabilized_constant(spec, 1.5, 2, 3, net=net, samples=4)) == doc_bytes(
            oracle_stabilized_constant(spec, 1.5, 2, 3, net=net, samples=4)
        )

    @settings(max_examples=150, deadline=None)
    @given(
        spec=st.sampled_from(SPACES),
        n=st.integers(1, 4),
        lo=st.integers(1, 5),
        window=st.integers(0, 12),
        seed=st.sampled_from([0, 1, 7, 42, 2**31 - 1]),
        samples=st.integers(0, 60),
    )
    def test_tuple_pool(self, spec, n, lo, window, seed, samples):
        hi = lo + window
        if window + 1 < n:
            with pytest.raises(ValueError, match="cannot host"):
                games._tuple_pool(spec, n, lo, hi, seed, samples)
            return
        expected = oracle_structured_tuples(spec, n, lo, hi) + oracle_random_tuples(spec, n, lo, hi, seed, samples)
        pool = games._tuple_pool(spec, n, lo, hi, seed, samples)
        assert [seq.to_doc() for seq in pool] == [seq.to_doc() for seq in expected]

    @pytest.mark.parametrize("window, pick", [(8, 0), (1, 3), (2, 7), (4, -2), (8, 1000)])
    def test_net_player_moves(self, window, pick):
        for spec in (Lp(2.0), interleave_space(), make_example_space(2.0, 3, [1.0, 1.5, 1.8])):
            played = play(spec, subspace_tail(2), vector_net(window=window, pick=pick), 5)
            expected = play(spec, subspace_tail(2), oracle_vector_net(window, pick), 5)
            assert played == expected
