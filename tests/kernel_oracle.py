"""The l_p combination norm from a product list, as the scaled kernel replaced it.

``oracle_combination_norm`` is the product-list ``spaces.combination_norm``
and ``oracle_coordinate_norm`` the ``Lp.coordinate_norm`` formula that
``Lp.parts_norm`` (``spaces._lp_parts_norm``) replaced, copied verbatim
apart from calling each other by these names; they are its oracle.
``kernel_outcome`` is a value as ``float.hex`` or an error as its type and
message, so outcomes compare exactly.  ``kernel_mismatches`` draws cases
from one seed: exponents 1, 1.25, 1.5, 2, 3 and inf; coefficients 0.0,
-0.0, +-1e-300, +-1e300, subnormals, NaN and +-inf among ordinary ones; and
parts, some empty, whose magnitudes differ by up to 1e600.  Needs only the
standard library and banachkit, so both the pytest suite and
``golden_hashes.py`` import it; pytest does not collect this file, since
its name does not start with ``test_``.
"""

import math
from random import Random

from banachkit.spaces import INF, InvalidVectorError, Lp

EXPONENTS = [1.0, 1.25, 1.5, 2.0, 3.0, math.inf]
SPECIAL_COEFFICIENTS = [0.0, -0.0, 1e-300, -1e-300, 1e300, -1e300, 5e-324, -2.5e-310, math.nan, math.inf, -math.inf]
# nonzero finite part values: coordinates never hold zero or non-finite ones
SPECIAL_VALUES = [1e-300, -1e300, 5e-324, -2.2250738585072014e-308, 1e-310, 1.0, -0.5, 3.0]


def _reject_coefficient(coeff: float) -> bool:
    """Raise for a NaN or infinite coefficient; typed ``bool`` to sit in a filter."""
    raise InvalidVectorError(f"coefficient {coeff!r} is not finite")


def _scale(coords) -> float:
    """The largest magnitude among the values of ``coords``; 0.0 if there are none."""
    top = 0.0
    for _, c in coords:
        c = abs(c)
        if c > top:
            top = c
    return top


def oracle_coordinate_norm(self, coords) -> float:
    if not coords:
        return 0.0
    if self.p == INF:
        return _scale(coords)
    # the sums run left to right, as in _sum_left, written out for speed
    total = 0.0
    if self.p == 1.0:
        for _, c in coords:
            total += abs(c)
        return total
    # factor out the largest magnitude so powers of tiny or huge
    # coefficients cannot underflow or overflow
    scale = _scale(coords)
    if self.p == 2.0:
        for _, c in coords:
            total += (c / scale) ** 2
        return scale * math.sqrt(total)
    p = self.p
    for _, c in coords:
        total += abs(c / scale) ** p
    return scale * total ** (1.0 / p)


def oracle_combination_norm(spec, coeffs, parts) -> float:
    return oracle_coordinate_norm(
        spec,
        [
            (key, x)
            for a, part in zip(coeffs, parts)
            if a != 0.0
            for key, c in part
            if (x := a * c) != 0.0 and (-INF < x < INF or _reject_coefficient(x))
        ],
    )


def kernel_outcome(norm, *args):
    """``norm(*args)`` as ``float.hex``, or the error it raises as (type, message)."""
    try:
        return norm(*args).hex()
    except (InvalidVectorError, ArithmeticError) as exc:
        return type(exc).__name__, str(exc)


def draw_case(rng: Random):
    """(p, coeffs, parts) for one kernel case."""
    p = rng.choice(EXPONENTS)
    parts = []
    for _ in range(rng.randint(1, 4)):
        # a part's magnitude: tiny, huge or ordinary, so parts differ by up to 1e600
        magnitude = rng.choice([1e-300, 1.0, 1e300])
        values = []
        for _ in range(rng.choice([0, 1, 1, 2, 3])):
            if rng.random() < 0.3:
                values.append(rng.choice(SPECIAL_VALUES))
            else:
                values.append(rng.choice([-1.0, 1.0]) * rng.uniform(0.5, 2.0) * magnitude)
        parts.append([(None, c) for c in values if c != 0.0])
    coeffs = tuple(
        rng.choice(SPECIAL_COEFFICIENTS) if rng.random() < 0.3 else rng.choice([-1.0, 1.0]) * 2.0 ** rng.randint(-3, 3)
        for _ in parts
    )
    return p, coeffs, parts


def kernel_mismatches(seed: int, draws: int = 250) -> list[str]:
    """Descriptions of the cases, out of ``draws`` from ``Random(seed)``, where
    ``Lp.parts_norm`` and the product list, or ``Lp.coordinate_norm`` and its
    old formula on the first part, give other values or other errors; one
    line per case at most."""
    rng = Random(seed)
    out = []
    for _ in range(draws):
        p, coeffs, parts = draw_case(rng)
        spec = Lp(p)
        got = (
            kernel_outcome(spec.parts_norm, coeffs, parts, [_scale(part) for part in parts]),
            kernel_outcome(spec.coordinate_norm, parts[0]),
        )
        want = (
            kernel_outcome(oracle_combination_norm, spec, coeffs, parts),
            kernel_outcome(oracle_coordinate_norm, spec, parts[0]),
        )
        if got != want:
            out.append(f"kernel p={p} coeffs={coeffs} parts={parts}: {got!r}, oracle {want!r}")
    return out
