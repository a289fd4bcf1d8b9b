"""Per-layer spans and counts, recorded by wrapping banachkit from outside.

``install()`` replaces the public functions of ``spaces``, ``blockseq``,
``combinatorics``, ``analysis``, ``games`` and ``cli`` with wrappers.  The
modules import each other with ``from .x import y``, so a wrapper is bound
under every module attribute that holds the original function; norms are
patched on each space class.  Spans are kept in memory as flat arrays and
turned into self times (span minus child spans) after the run.
"""

from __future__ import annotations

import dataclasses
import time
from array import array

import banachkit
from banachkit import analysis, blockseq, cli, combinatorics, games, spaces

from metrics import NORM_KINDS

MODULES = (banachkit, spaces, combinatorics, blockseq, analysis, games, cli)
SPACE_CLASSES = dict(
    zip(NORM_KINDS, (spaces.Lp, spaces.LpSum, spaces.C0, spaces.Interleave, spaces.James))
)


class Tracer:
    """Spans in flat arrays (name, parent, start, end) plus plain counters."""

    def __init__(self):
        self.ids: dict[str, int] = {}
        self.span_name = array("H")
        self.parent = array("q")
        self.start = array("d")
        self.end = array("d")
        self.open = [-1]
        self.counts: dict[str, int] = {}
        self.scanned: set = set()

    def add(self, counter: str, amount: int = 1) -> None:
        self.counts[counter] = self.counts.get(counter, 0) + amount

    def span(self, name: str, fn):
        """``fn`` wrapped so that every call records one span called ``name``."""
        name_id = self.ids.setdefault(name, len(self.ids))
        span_name, parent, start, end, open_spans = (
            self.span_name, self.parent, self.start, self.end, self.open
        )
        clock = time.perf_counter

        def traced(*args, **kwargs):
            index = len(start)
            span_name.append(name_id)
            parent.append(open_spans[-1])
            end.append(0.0)
            open_spans.append(index)
            start.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                end[index] = clock()
                open_spans.pop()

        return traced

    def summary(self) -> tuple[dict[str, int], dict[str, float]]:
        """Span count and summed self time per span name."""
        duration = array("d", (e - s for s, e in zip(self.start, self.end)))
        children = array("d", bytes(8 * len(duration)))
        for index, parent in enumerate(self.parent):
            if parent >= 0:
                children[parent] += duration[index]
        names = list(self.ids)
        calls = dict.fromkeys(names, 0)
        self_s = dict.fromkeys(names, 0.0)
        for index, name_id in enumerate(self.span_name):
            name = names[name_id]
            calls[name] += 1
            self_s[name] += duration[index] - children[index]
        return calls, self_s


def _replace(original, replacement) -> None:
    for module in MODULES:
        for attr, value in list(vars(module).items()):
            if value is original:
                setattr(module, attr, replacement)


def install(tracer: Tracer) -> None:
    """Wrap every traced banachkit function and method with ``tracer``."""
    for kind, cls in SPACE_CLASSES.items():
        cls.norm = tracer.span(f"spaces.norm.{kind}", cls.norm)

    construct = spaces.SparseVector.__init__
    counts = tracer.counts
    counts["spaces.sparse_vector.constructs"] = 0

    # Counted, not spanned: a span per construction would cost more than most
    # constructions do.
    def counted_init(self, *args, **kwargs):
        counts["spaces.sparse_vector.constructs"] += 1
        construct(self, *args, **kwargs)

    spaces.SparseVector.__init__ = counted_init

    _replace(blockseq.combine, tracer.span("blockseq.combine", blockseq.combine))

    nccb = blockseq.nccb_from_blocking

    def counted_nccb(*args, **kwargs):
        tracer.add("blockseq.nccb_from_blocking.calls")
        return nccb(*args, **kwargs)

    _replace(nccb, counted_nccb)

    search = tracer.span("combinatorics.search", combinatorics.milliken_taylor_search)

    def traced_search(*args, **kwargs):
        cert = search(*args, **kwargs)
        tracer.add("combinatorics.search.found", int(cert.found))
        tracer.add("combinatorics.search.nodes", cert.nodes_explored)
        return cert

    _replace(combinatorics.milliken_taylor_search, traced_search)

    coarsen = tracer.span("combinatorics.coarsenings", combinatorics.coarsenings)

    def traced_coarsenings(*args, **kwargs):
        out = coarsen(*args, **kwargs)
        tracer.add("combinatorics.coarsenings.out", len(out))
        return out

    _replace(combinatorics.coarsenings, traced_coarsenings)

    make_coloring = analysis.norm_quantization_coloring

    def traced_coloring(*args, **kwargs):
        coloring = make_coloring(*args, **kwargs)
        return dataclasses.replace(coloring, fn=tracer.span("analysis.coloring", coloring.fn))

    _replace(make_coloring, traced_coloring)

    scan = tracer.span("analysis.equivalence", analysis.equivalence_constant)

    def traced_scan(spec, seq, *args, **kwargs):
        tracer.scanned.add(tuple(seq))
        return scan(spec, seq, *args, **kwargs)

    _replace(analysis.equivalence_constant, traced_scan)

    for name, fn in (
        ("analysis.goodness", analysis.goodness_test),
        ("analysis.stabilize", analysis.nccb_stabilize),
        ("analysis.verify", analysis.verify_stabilization),
        ("analysis.sandwich", analysis.verify_example_space),
    ):
        _replace(fn, tracer.span(name, fn))

    verdict_fn = tracer.span("games.asymptotic", games.asymptotic_lp_verdict)

    def traced_verdict(*args, **kwargs):
        verdict = verdict_fn(*args, **kwargs)
        tracer.add("games.pool.size", max(row.pool_size for row in verdict.rows))
        return verdict

    _replace(games.asymptotic_lp_verdict, traced_verdict)


def layer_metrics(tracer: Tracer, report_bytes: int) -> dict[str, float]:
    """Every per-layer metric of one traced invocation except ``trace.overhead_s``."""
    calls, self_s = tracer.summary()
    counts = tracer.counts

    def ratio(part: float, whole: float) -> float:
        return part / whole if whole else 0.0

    metrics = {
        f"spaces.norm.calls.{kind}": calls[f"spaces.norm.{kind}"] for kind in NORM_KINDS
    }
    metrics["spaces.norm.self_s"] = sum(self_s[f"spaces.norm.{kind}"] for kind in NORM_KINDS)
    metrics["spaces.sparse_vector.constructs"] = counts["spaces.sparse_vector.constructs"]
    metrics["blockseq.combine.calls"] = calls["blockseq.combine"]
    metrics["blockseq.combine.self_s"] = self_s["blockseq.combine"]
    metrics["blockseq.nccb_from_blocking.calls"] = counts.get("blockseq.nccb_from_blocking.calls", 0)
    searches = calls["combinatorics.search"]
    metrics["combinatorics.search.calls"] = searches
    metrics["combinatorics.search.found_ratio"] = ratio(counts.get("combinatorics.search.found", 0), searches)
    metrics["combinatorics.search.nodes"] = counts.get("combinatorics.search.nodes", 0)
    metrics["combinatorics.search.self_s"] = self_s["combinatorics.search"]
    metrics["combinatorics.coarsenings.out"] = counts.get("combinatorics.coarsenings.out", 0)
    metrics["combinatorics.coarsenings.self_s"] = self_s["combinatorics.coarsenings"]
    metrics["analysis.coloring.evals"] = calls.get("analysis.coloring", 0)
    metrics["analysis.coloring.self_s"] = self_s.get("analysis.coloring", 0.0)
    scans = calls["analysis.equivalence"]
    metrics["analysis.equivalence.scans"] = scans
    metrics["analysis.equivalence.distinct_ratio"] = ratio(len(tracer.scanned), scans)
    metrics["analysis.equivalence.self_s"] = self_s["analysis.equivalence"]
    for layer in ("goodness", "stabilize", "verify", "sandwich"):
        metrics[f"analysis.{layer}.self_s"] = self_s[f"analysis.{layer}"]
    metrics["games.asymptotic.self_s"] = self_s["games.asymptotic"]
    metrics["games.pool.size"] = counts.get("games.pool.size", 0)
    metrics["cli.self_s"] = self_s["cli"]
    metrics["cli.report_bytes"] = report_bytes
    return metrics
