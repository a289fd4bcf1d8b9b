"""Names, units and directions of the benchmark's metrics.

BENCHMARK.json at the repository root lists the same metrics; the smoke test
keeps the two in step.
"""

END_TO_END = (("wall_s", "s"), ("setup_s", "s"), ("peak_rss_mb", "MB"))

# Space kinds, in the order of their norm-call counters.
NORM_KINDS = ("lp", "lp_sum", "c0", "interleave", "james")

# Per-layer metric names, their units and which way is better.  Names ending
# in ``self_s`` (and ``trace.overhead_s``) are times; every other metric is a
# count of work and must repeat exactly for the same code and seed.
LAYER_METRICS = (
    *((f"spaces.norm.calls.{kind}", "count", "lower") for kind in NORM_KINDS),
    ("spaces.norm.self_s", "s", "lower"),
    ("spaces.sparse_vector.constructs", "count", "lower"),
    ("blockseq.combine.calls", "count", "lower"),
    ("blockseq.combine.self_s", "s", "lower"),
    ("blockseq.nccb_from_blocking.calls", "count", "lower"),
    ("combinatorics.search.calls", "count", "lower"),
    ("combinatorics.search.found_ratio", "ratio", "higher"),
    ("combinatorics.search.nodes", "count", "lower"),
    ("combinatorics.search.self_s", "s", "lower"),
    ("combinatorics.coarsenings.out", "count", "lower"),
    ("combinatorics.coarsenings.self_s", "s", "lower"),
    ("analysis.coloring.evals", "count", "lower"),
    ("analysis.coloring.self_s", "s", "lower"),
    ("analysis.equivalence.scans", "count", "lower"),
    ("analysis.equivalence.distinct_ratio", "ratio", "higher"),
    ("analysis.equivalence.self_s", "s", "lower"),
    ("analysis.goodness.self_s", "s", "lower"),
    ("analysis.stabilize.self_s", "s", "lower"),
    ("analysis.verify.self_s", "s", "lower"),
    ("analysis.sandwich.self_s", "s", "lower"),
    ("games.asymptotic.self_s", "s", "lower"),
    ("games.pool.size", "count", "lower"),
    ("cli.self_s", "s", "lower"),
    ("cli.report_bytes", "bytes", "lower"),
    ("trace.overhead_s", "s", "lower"),
)


def is_time(metric: str) -> bool:
    return metric.endswith("_s")
