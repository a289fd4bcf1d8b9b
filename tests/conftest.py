"""Shared brute-force oracles, independent of the production code paths."""

from __future__ import annotations

import itertools
import math
import os
from random import Random

from hypothesis import settings

from banachkit.spaces import LpSum, SparseVector

# Under CI (GitHub Actions sets CI) every @given test draws the same examples
# on every run, so a red run replays exactly; local runs keep drawing new ones.
settings.register_profile("ci", derandomize=True)
if os.environ.get("CI"):
    settings.load_profile("ci")


def james_norm_bruteforce(v: SparseVector) -> float:
    """Supremum over ALL increasing index tuples (m >= 2) of the square-sum
    of consecutive coordinate differences, indices drawn from 1..max(supp)+1.

    Plain enumeration; only usable for small supports.
    """
    if v.is_zero():
        return 0.0
    top_index = v.max_index() + 1
    indices = list(range(1, top_index + 1))
    best = 0.0
    for m in range(2, len(indices) + 1):
        for tup in itertools.combinations(indices, m):
            total = sum(
                (v.get(tup[i + 1]) - v.get(tup[i])) ** 2 for i in range(m - 1)
            )
            best = max(best, total)
    return math.sqrt(best)


def lpsum_norm_direct(spec: LpSum, v: SparseVector) -> float:
    """Literal nested-sum evaluation of the LpSum norm.

    Walks the segments by explicit cumulative bounds instead of reusing the
    production segment lookup.
    """
    bounds = []
    lo = 1
    for n in spec.ns:
        bounds.append((lo, lo + n - 1))
        lo += n
    total = 0.0
    for s, (a, b) in enumerate(bounds):
        inner = 0.0
        for index, coeff in v.entries.items():
            if a <= index <= b:
                inner += abs(coeff) ** spec.ps[s]
        if inner:
            total += inner ** (spec.p / spec.ps[s])
    return total ** (1.0 / spec.p)


def count_coarsenings_bruteforce(num_blocks: int, k: int) -> int:
    """Count length-k coarsenings of a blocking with ``num_blocks`` blocks.

    Enumerates every labeling of block indices by {unused, 1..k} and keeps
    those where all k labels occur and the nonzero labels are nondecreasing
    along the index line (so the labeled groups are successively
    increasing).  Completely independent of the recursive generator.
    """
    count = 0
    for labels in itertools.product(range(k + 1), repeat=num_blocks):
        used = set(labels) - {0}
        if used != set(range(1, k + 1)):
            continue
        nonzero = [l for l in labels if l != 0]
        if all(x <= y for x, y in zip(nonzero, nonzero[1:])):
            # labels must be exactly 1..k in order of first appearance
            count += 1
    return count


def random_sparse_vector(rng: Random, max_index: int = 30, max_entries: int = 6) -> SparseVector:
    size = rng.randint(1, max_entries)
    indices = rng.sample(range(1, max_index + 1), size)
    return SparseVector({i: rng.uniform(-3.0, 3.0) or 1.0 for i in indices})
