"""The class-key contract of ``spaces._Space.class_key``, checked by drawing.

``CLASS_SPACES`` holds one space of each kind and shape that the class memos
meet; the pytest suite parametrizes over it too.  ``key_groups`` draws
seeded successive block tuples over {1..12} from a small value set, each
value likely to repeat the one before, so that keys collide, and groups the
distinct tuples by their per-position class keys; a tuple that leaves the
space has no key and is skipped.  ``class_key_mismatches`` requires every
group to give one outcome of ``combination_norm`` and of ``parts_norm``, a
value by ``float.hex`` or an error by type and message, for every tuple of
0.0, -0.0, +-1, 0.5, 1e-300 and +-1e300, equal values among them.  Needs
only the standard library, banachkit and ``kernel_oracle``, so both the
pytest suite and ``golden_hashes.py`` import it; pytest does not collect
this file, since its name does not start with ``test_``.
"""

import itertools
import math
from random import Random

from banachkit.spaces import (
    C0,
    Interleave,
    InvalidVectorError,
    James,
    Lp,
    LpSum,
    SparseVector,
    _scale,
    combination_norm,
    make_example_space,
)
from kernel_oracle import kernel_outcome

CLASS_SPACES = {
    "lp1": Lp(1.0),
    "lp1.5": Lp(1.5),
    "lp2": Lp(2.0),
    "lpinf": Lp(math.inf),
    "c0": C0(),
    "example": make_example_space(2.0, 3, [1.0, 1.5, 1.8]),
    # segments {1, 2}, {3, 4, 5}, {6..10}: blocks of {1..10} cross them
    "lp_sum-crossing": LpSum(2.0, (1.0, 1.5, 1.8), (2, 3, 5)),
    "interleave-lp-c0": Interleave(Lp(1.5), C0(), "sum"),
    "interleave-lp-james": Interleave(Lp(2.0), James(), "max"),
    "james": James(),
}

# coordinate values: 1e10 lets a 1e300 coefficient overflow, 1e-30 lets a
# 1e-300 one round to zero
VALUES = [1.0, -1.0, 0.5, 1e-30, 1e10]
COEFFICIENTS = [0.0, -0.0, 1.0, -1.0, 0.5, 1e-300, 1e300, -1e300]
GROUND = 12
# the seeds that the pytest suite and golden_hashes.py draw from
CLASS_KEY_SEEDS = range(4)


def draw_tuple(rng: Random) -> list[SparseVector]:
    """1 to 3 successive nonzero vectors of 1 to 3 coordinates each, in
    {1..GROUND}, with gaps of 0 to 2 indices before each."""
    vectors = []
    index = 0
    value = rng.choice(VALUES)
    for _ in range(rng.randint(1, 3)):
        entries = {}
        for _ in range(rng.randint(1, 3)):
            index += 1 + rng.choice((0, 0, 1, 2))
            if rng.random() < 0.3:
                value = rng.choice(VALUES)
            entries[index] = value
        vectors.append(SparseVector(entries))
    return vectors if index <= GROUND else draw_tuple(rng)


def key_groups(spec, seed: int, draws: int) -> dict[tuple, list[list[list]]]:
    """The distinct coordinate lists of the drawn tuples, by their class keys.

    Tuples with equal coordinates are measured alike by construction, so
    only a key that is coarser than the coordinates, as James's, gives a
    group more than one member."""
    rng = Random(seed)
    groups: dict[tuple, list[list[list]]] = {}
    for _ in range(draws):
        try:
            parts = [spec.coordinates(v) for v in draw_tuple(rng)]
        except InvalidVectorError:
            continue  # past an LpSum's segments
        members = groups.setdefault(tuple(spec.class_key(part) for part in parts), [])
        if parts not in members:
            members.append(parts)
    return groups


def outcomes(spec, parts) -> list:
    """``combination_norm`` and ``parts_norm`` of ``parts`` under every
    tuple of ``COEFFICIENTS``, each as ``kernel_outcome`` gives it."""
    tops = [_scale(part) for part in parts]
    return [
        (kernel_outcome(combination_norm, spec, coeffs, parts), kernel_outcome(spec.parts_norm, coeffs, parts, tops))
        for coeffs in itertools.product(COEFFICIENTS, repeat=len(parts))
    ]


def class_key_mismatches(spec, seed: int, draws: int = 2000) -> list[str]:
    """Descriptions of the key groups, out of ``draws`` tuples from
    ``Random(seed)``, whose members give other norms or other errors; one
    line per group at most."""
    out = []
    for key, members in key_groups(spec, seed, draws).items():
        if len(members) > 1:
            want = outcomes(spec, members[0])
            for parts in members[1:]:
                if outcomes(spec, parts) != want:
                    out.append(f"class key {key!r} of {spec!r}: {members[0]!r} and {parts!r} differ")
                    break
    return out
