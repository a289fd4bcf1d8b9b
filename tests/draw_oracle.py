"""The random block-tuple draw as the public ``Random`` methods make it.

``oracle_random_block_tuple`` is the ``randint`` / ``choice`` / ``sample`` /
``uniform`` and ``SparseVector`` path that ``analysis.random_block_tuple``
replaced, kept as its oracle.  ``draw_mismatches`` compares the two on one
seed and shape.  Needs only the standard library and banachkit, so both the
pytest suite and ``golden_hashes.py`` import it; pytest does not collect
this file, since its name does not start with ``test_``.
"""

from random import Random

from banachkit.analysis import random_block_tuple
from banachkit.blockseq import BlockSequence
from banachkit.spaces import InvalidVectorError, SparseVector


class RandomOverridingRandom(Random):
    """A ``Random`` whose one override is ``random()``.

    ``Random`` then draws its integers through ``_randbelow_without_getrandbits``,
    which calls this ``random()``, so the integer draws differ from the base
    class's.
    """

    def random(self):
        return super().random() ** 2


def oracle_random_block_tuple(spec, rng, max_n=4, max_block=5, constant_coefficients=False):
    n = rng.randint(1, max_n)
    total = spec.total_dim
    joints = [1] + [hi + 1 for _, hi in (spec.segment_range(s) for s in range(1, len(spec.ns)))]
    budget = n * (max_block + 10) + 5
    anchors = [j for j in joints if j + budget <= total] or [1]
    if rng.random() < 0.5:
        cursor = rng.choice(anchors)
        cursor = max(1, cursor - rng.randint(0, 3))
    else:
        cursor = rng.randint(1, max(1, total - budget))
    vectors = []
    for _ in range(n):
        size = rng.randint(1, max_block)
        window = sorted(rng.sample(range(cursor, cursor + size + 6), size))
        if constant_coefficients:
            v = SparseVector.indicator(window)
        else:
            coeffs = [rng.uniform(-1.0, 1.0) or 0.5 for _ in window]
            v = SparseVector({i: c for i, c in zip(window, coeffs)})
        magnitude = spec.norm(v)
        vectors.append(v.scale(1.0 / magnitude))
        cursor = max(window) + 1 + rng.randint(0, 4)
    return BlockSequence(vectors)


def draw_mismatches(spec, seed, max_n, max_block, constant_coefficients, rng_class=Random, draws=5):
    """Descriptions of the draws, out of ``draws`` successive ones from
    ``rng_class(seed)``, where ``random_block_tuple`` and the oracle give
    other vectors, other errors or other generator states."""
    rng, oracle_rng = rng_class(seed), rng_class(seed)
    mismatches = []
    for k in range(draws):
        outcomes = []
        for draw, source in ((random_block_tuple, rng), (oracle_random_block_tuple, oracle_rng)):
            try:
                outcomes.append([v.to_pairs() for v in draw(spec, source, max_n, max_block, constant_coefficients)])
            except InvalidVectorError as exc:  # a window past a short space
                outcomes.append(str(exc))
        where = f"{rng_class.__name__}({seed}) draw {k} at max_n={max_n}, max_block={max_block}"
        if outcomes[0] != outcomes[1]:
            mismatches.append(f"{where}: {outcomes[0]!r} != oracle {outcomes[1]!r}")
        if rng.getstate() != oracle_rng.getstate():
            mismatches.append(f"{where}: generator state differs from the oracle's")
    return mismatches
