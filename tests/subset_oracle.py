"""Nonempty subsets in lexicographic order of sorted tuples, from ``combinations``.

``sorted_subsets_prefix`` gives the first entries of that order, sorting the
``itertools.combinations`` of only as many top elements as it needs, so it
reaches ground sets far too large to enumerate.  ``subset_order_mismatches``
compares ``combinatorics._subsets_from`` with it on one ground set.  Needs
only the standard library and banachkit, so both the pytest suite and
``golden_hashes.py`` import it; pytest does not collect this file, since its
name does not start with ``test_``.
"""

from itertools import combinations, islice

from banachkit.combinatorics import _subsets_from


def sorted_subsets(lo, n):
    """Every nonempty subset of {lo..n} as a sorted tuple, in sorted order."""
    return sorted(c for r in range(1, n - lo + 2) for c in combinations(range(lo, n + 1), r))


def sorted_subsets_prefix(lo, n, count):
    """The first ``count`` entries of ``sorted_subsets(lo, n)``.

    With t the bit length of ``count`` (2^t > count) and top = n - t, the
    order begins with the chains (lo..j) for j up to top, then
    (lo..top) + r for each r in ``sorted_subsets(top + 1, n)``: at least
    ``count`` entries.
    """
    t = min(count.bit_length(), n - lo + 1)
    head = tuple(range(lo, n - t + 1))
    chains = [head[:j] for j in range(1, len(head) + 1)]
    return (chains + [head + r for r in sorted_subsets(n - t + 1, n)])[:count]


def subset_order_mismatches(lo, n, count=None):
    """Descriptions of where the first ``count`` (default: all) subsets that
    ``_subsets_from(lo, n)`` gives differ from the sorted combinations."""
    if count is None:
        # one entry past the end, to see an extra one
        want = sorted_subsets(lo, n)
        got = list(islice(_subsets_from(lo, n), len(want) + 1))
    else:
        want = sorted_subsets_prefix(lo, n, count)
        got = list(islice(_subsets_from(lo, n), count))
    if got == want:
        return []
    at = next((i for i, (a, b) in enumerate(zip(got, want)) if a != b), min(len(got), len(want)))
    return [
        f"subsets of {{{lo}..{n}}}: entry {at} is {got[at] if at < len(got) else 'missing'}, "
        f"expected {want[at] if at < len(want) else 'none'}"
    ]
