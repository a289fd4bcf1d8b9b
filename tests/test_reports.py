"""Report documents derived from dataclass fields, against the hand-written ones.

Each result class used to spell out its ``to_doc`` field by field.  Those
bodies are copied here verbatim as oracles: ``parent_doc`` installs them on
the classes for one call, so a nested result is documented by its oracle
body too.  Every result below comes from a real run, on every space kind.
"""

from __future__ import annotations

import dataclasses
import json
import math

import pytest

from banachkit.analysis import (
    EquivalenceReport,
    ExampleSpaceReport,
    ExtractionResult,
    ExtractionStep,
    GoodnessRecord,
    GoodnessReport,
    KrivineReport,
    LpReference,
    ScalarNet,
    SequenceReference,
    SpreadingEstimate,
    SpreadingRecord,
    StabilizationResult,
    StabilizationStep,
    brunel_sucheston_extract,
    equivalence_constant,
    goodness_test,
    krivine_p_estimate,
    nccb_stabilize,
    norm_quantization_coloring,
    spreading_model_estimate,
    verify_example_space,
)
from banachkit.blockseq import nccb_from_blocking, subsequence_tree
from banachkit.combinatorics import (
    Blocking,
    FiniteSet,
    SearchCertificate,
    constant_coloring,
    hindman_search,
    milliken_taylor_search,
    min_parity_coloring,
    ramsey_search,
    size_parity_coloring,
)
from banachkit.games import (
    AsymptoticReport,
    AsymptoticVerdict,
    BranchExtraction,
    asymptotic_lp_verdict,
    good_branch_extract,
    play,
    stabilized_constant,
    subspace_constant,
    subspace_tail,
    vector_nccb,
    vector_unit,
)
from banachkit.spaces import C0, Interleave, James, Lp, LpSum, SparseVector

PARENT_TO_DOC = {}


def parent_body(cls):
    def register(body):
        PARENT_TO_DOC[cls] = body
        return body

    return register


@parent_body(GoodnessRecord)
def goodness_record_doc(self) -> dict:
    return {
        "coeffs": list(self.coeffs),
        "K": self.K,
        "H": self.H,
        "feasible": self.feasible,
        "sup": self.sup,
        "inf": self.inf,
        "oscillation": self.oscillation,
        "estimate": self.estimate,
        "evaluations": self.evaluations,
    }


@parent_body(GoodnessReport)
def goodness_report_doc(self) -> dict:
    return {
        "verdict": self.verdict,
        "epsilon": self.epsilon,
        "K": self.K,
        "H": self.H,
        "net": self.net.to_doc(),
        "max_oscillation": self.max_oscillation(),
        "diagnostics": list(self.diagnostics),
        "records": [r.to_doc() for r in self.records],
    }


@parent_body(SpreadingRecord)
def spreading_record_doc(self) -> dict:
    return {
        "coeffs": list(self.coeffs),
        "horizon": self.horizon,
        "H": self.H,
        "feasible": self.feasible,
        "estimate": self.estimate,
        "oscillation": self.oscillation,
    }


@parent_body(SpreadingEstimate)
def spreading_estimate_doc(self) -> dict:
    return {
        "horizons": list(self.horizons),
        "monotone_oscillation": self.monotone_oscillation,
        "fit_p": "inf" if self.fit_p == math.inf else self.fit_p,
        "records": [r.to_doc() for r in self.records],
    }


@parent_body(EquivalenceReport)
def equivalence_report_doc(self) -> dict:
    return {
        "lower": self.lower,
        "upper": self.upper,
        "constant": self.constant,
        "certificate_lower": list(self.certificate_lower),
        "certificate_upper": list(self.certificate_upper),
        "n": self.n,
        "net_step": self.net_step,
        "net_error": self.net_error,
        "reference": self.reference,
    }


@parent_body(ExtractionStep)
def extraction_step_doc(self) -> dict:
    return {
        "coeffs": list(self.coeffs),
        "epsilon": self.epsilon,
        "found": self.found,
        "selection": list(self.selection),
        "nodes_explored": self.nodes_explored,
    }


@parent_body(ExtractionResult)
def extraction_result_doc(self) -> dict:
    return {
        "indices": list(self.indices),
        "complete": self.complete,
        "certified": self.certified,
        "diagonalized": self.diagonalized,
        "steps": [s.to_doc() for s in self.steps],
        "goodness": self.goodness.to_doc(),
    }


@parent_body(StabilizationStep)
def stabilization_step_doc(self) -> dict:
    return {
        "coeffs": list(self.coeffs),
        "length": self.length,
        "found": self.found,
        "color": self.color,
        "nodes_explored": self.nodes_explored,
        "witness": self.witness.to_doc(),
    }


@parent_body(StabilizationResult)
def stabilization_result_doc(self) -> dict:
    return {
        "blocking": self.blocking.to_doc(),
        "complete": self.complete,
        "epsilon": self.epsilon,
        "quantum": self.quantum,
        "ground": self.ground,
        "steps": [s.to_doc() for s in self.steps],
    }


@parent_body(KrivineReport)
def krivine_report_doc(self) -> dict:
    return {
        "p_estimate": "inf" if self.p_estimate == math.inf else self.p_estimate,
        "slope": self.slope,
        "r_squared": self.r_squared,
        "norms": list(self.norms),
        "monotone": self.monotone,
        "start": self.start,
        "max_n": self.max_n,
    }


@parent_body(ExampleSpaceReport)
def example_space_report_doc(self) -> dict:
    return {
        "passed": self.passed,
        "trials": self.trials,
        "sandwich_failures": list(self.sandwich_failures),
        "type_checks": [[s, ok] for s, ok in self.type_checks],
        "ns": list(self.ns),
        "vacuous": self.vacuous,
    }


@parent_body(AsymptoticReport)
def asymptotic_report_doc(self) -> dict:
    return {
        "n": self.n,
        "N": self.N,
        "constant": self.constant,
        "certificate": self.certificate.to_doc(),
        "certificate_report": self.certificate_report.to_doc(),
        "window": self.window,
        "seed": self.seed,
        "samples": self.samples,
        "pool_size": self.pool_size,
        "net": self.net.to_doc(),
    }


@parent_body(AsymptoticVerdict)
def asymptotic_verdict_doc(self) -> dict:
    return {
        "p": "inf" if self.p == math.inf else self.p,
        "n": self.n,
        "epsilon": self.epsilon,
        "verdict": self.verdict,
        "empirical": self.empirical,
        "rows": [r.to_doc() for r in self.rows],
    }


@parent_body(BranchExtraction)
def branch_extraction_doc(self) -> dict:
    return {
        "path": list(self.path),
        "branch": self.branch.to_doc(),
        "complete": self.complete,
        "certified": self.certified,
        "goodness": self.goodness.to_doc(),
        "metadata": self.metadata,
    }


@parent_body(SearchCertificate)
def search_certificate_doc(self) -> dict:
    witness_doc: list | None = None
    if isinstance(self.witness, Blocking):
        witness_doc = self.witness.to_doc()
    elif isinstance(self.witness, FiniteSet):
        witness_doc = list(self.witness.elements)
    return {
        "found": self.found,
        "witness": witness_doc,
        "color": self.color,
        "nodes_explored": self.nodes_explored,
    }


def parent_doc(result) -> dict:
    with pytest.MonkeyPatch.context() as patch:
        for cls, body in PARENT_TO_DOC.items():
            patch.setattr(cls, "to_doc", body)
        return result.to_doc()


def dumped(doc: dict) -> str:
    return json.dumps(doc, sort_keys=True, allow_nan=False)


SPACES = {
    "lp": Lp(2.0),
    "lp-inf": Lp(math.inf),
    "c0": C0(),
    "lp_sum": LpSum(2.0, (1.0, 1.5), (2, 17)),
    "interleave": Interleave(Lp(1.0), Lp(2.0)),
    "james": James(),
}


def space_results(spec) -> list:
    seq = list(nccb_from_blocking(spec, Blocking.singletons(8)))
    net = ScalarNet.grid(step=1.0, max_len=2)
    spreading = spreading_model_estimate(spec, seq, net, [1, 2], H=3, fit_reference_p=True)
    krivine = krivine_p_estimate(spec, 6)
    verdict = asymptotic_lp_verdict(spec, math.inf, 2, [1, 3], 0.1, window=6, net=net, samples=4)
    return [
        goodness_test(spec, seq, net, K=1, H=4),
        # a window the sequence cannot host: infeasible records, a diagnostic
        goodness_test(spec, seq[:3], net, K=1, H=4),
        spreading,
        spreading_model_estimate(spec, seq, net, [1], H=2),
        dataclasses.replace(spreading, fit_p=math.inf),
        dataclasses.replace(spreading, fit_p=None),
        equivalence_constant(spec, seq, LpReference(2.0, 3)),
        equivalence_constant(spec, seq, LpReference(math.inf, 2), net_step=0.5),
        equivalence_constant(spec, seq, SequenceReference(Lp(1.0), seq[:2])),
        brunel_sucheston_extract(spec, seq, net, target_len=3),
        nccb_stabilize(spec, 6, net, epsilon=0.1, quantum=0.05),
        krivine,
        dataclasses.replace(krivine, p_estimate=math.inf),
        dataclasses.replace(krivine, p_estimate=None),
        stabilized_constant(spec, 2.0, 2, 1, window=6, net=net, samples=4),
        verdict,
        dataclasses.replace(verdict, p=2.0),
        dataclasses.replace(verdict, p=None),
        good_branch_extract(
            subsequence_tree(seq, depth=3, width=2), spec, 2.0, lead_samples=2, lead_window=4
        ),
        milliken_taylor_search(
            norm_quantization_coloring(spec, (1.0, -1.0), 0.05, 6), Blocking.singletons(6), 2, 3
        ),
    ]


def search_results() -> list:
    return [
        ramsey_search(min_parity_coloring(6), 2, 3),  # a FiniteSet witness
        ramsey_search(size_parity_coloring(3), 2, 3),  # no witness
        hindman_search(min_parity_coloring(8), 8, 3),  # a Blocking witness
        hindman_search(size_parity_coloring(3), 3, 3),
    ]


def example_space_results() -> list:
    return [
        verify_example_space(2.0, [1.0, 1.5], trials=30, seed=1),
        # a negative tolerance fails every trial: a report full of failures
        verify_example_space(2.0, [1.0, 1.5], trials=3, seed=1, tol=-1.0),
        verify_example_space(2.0, [1.0, 1.5], trials=0),
    ]


def assert_same_document(result) -> None:
    new, old = result.to_doc(), parent_doc(result)
    assert new == old
    assert dumped(new) == dumped(old)


@pytest.mark.parametrize("kind", sorted(SPACES))
def test_documents_match_the_field_by_field_bodies(kind):
    for result in space_results(SPACES[kind]):
        assert_same_document(result)


def test_search_certificate_documents_match():
    results = search_results()
    assert {type(r.witness) for r in results} == {FiniteSet, Blocking, type(None)}
    for result in results:
        assert_same_document(result)


def test_example_space_documents_match():
    results = example_space_results()
    assert results[0].sandwich_failures == () and results[1].sandwich_failures
    for result in results:
        assert_same_document(result)


def test_every_oracle_is_exercised():
    seen = set()

    def walk(result):
        seen.add(type(result))
        for f in dataclasses.fields(result):
            value = getattr(result, f.name)
            for item in value if isinstance(value, tuple) else (value,):
                if type(item) in PARENT_TO_DOC:
                    walk(item)

    for result in space_results(Lp(2.0)) + search_results() + example_space_results():
        walk(result)
    assert seen == set(PARENT_TO_DOC)


def test_exponents_are_the_only_fields_written_as_inf():
    seq = list(nccb_from_blocking(C0(), Blocking.singletons(6)))
    report = krivine_p_estimate(C0(), 6)
    assert report.to_doc()["p_estimate"] == "inf"
    # an infinite float in any other field stays a float, which JSON refuses
    doc = dataclasses.replace(report, slope=math.inf).to_doc()
    assert doc["slope"] == math.inf
    with pytest.raises(ValueError):
        dumped(doc)
    assert LpReference(math.inf, 2).describe()["p"] == "inf"
    goodness = goodness_test(C0(), seq, ScalarNet.of([(1.0,)]), K=1, H=2)
    assert dataclasses.replace(goodness, epsilon=math.inf).to_doc()["epsilon"] == math.inf


# ---------------------------------------------------------------------------
# Count bounds: every library refusal of a count below its least value, with
# its exact text.
# ---------------------------------------------------------------------------

def small_tree():
    return subsequence_tree([SparseVector.unit(i) for i in range(1, 5)], 2, 2)


COUNT_BOUND_REFUSALS = [
    (lambda: brunel_sucheston_extract(Lp(2.0), [], ScalarNet.of([(1.0,)]), target_len=0),
     "target_len must be >= 1, got 0"),
    (lambda: krivine_p_estimate(Lp(2.0), 6, start=0), "start must be >= 1, got 0"),
    (lambda: verify_example_space(2.0, [1.0], -1), "trials must be >= 0, got -1"),
    (lambda: constant_coloring(3, -1), "constant color must be >= 0, got -1"),
    (lambda: subspace_constant(0), "constant cutoff m must be >= 1, got 0"),
    (lambda: subspace_tail(-2), "tail lead must be >= 0, got -2"),
    (lambda: vector_nccb(0), "nccb width must be >= 1, got 0"),
    (lambda: play(Lp(2.0), subspace_tail(), vector_unit(), -1), "rounds must be >= 0, got -1"),
    (lambda: asymptotic_lp_verdict(Lp(2.0), 2.0, 2, [5, 0, 3], 0.1), "schedule cutoffs must be >= 1, got 0"),
    (lambda: asymptotic_lp_verdict(Lp(2.0), 2.0, 2, [1], 0.1, samples=-1), "samples must be >= 0, got -1"),
    (lambda: asymptotic_lp_verdict(Lp(2.0), 2.0, 0, [1], 0.1), "n must be >= 1, got 0"),
    (lambda: asymptotic_lp_verdict(Lp(2.0), 2.0, 2, [1], 0.1, window=-3), "window must be >= 0, got -3"),
    (lambda: good_branch_extract(small_tree(), Lp(2.0), 2.0, lead_samples=-1),
     "lead_samples must be >= 0, got -1"),
    (lambda: good_branch_extract(small_tree(), Lp(2.0), 2.0, lead_window=-1),
     "lead_window must be >= 0, got -1"),
    (lambda: good_branch_extract(small_tree(), Lp(2.0), 2.0, lead_max_n=0),
     "lead_max_n must be >= 1, got 0"),
]


@pytest.mark.parametrize(
    "call, message", COUNT_BOUND_REFUSALS, ids=[m.split(" must")[0] for _, m in COUNT_BOUND_REFUSALS]
)
def test_count_bound_refusals_keep_their_text(call, message):
    with pytest.raises(ValueError) as caught:
        call()
    assert str(caught.value) == message
