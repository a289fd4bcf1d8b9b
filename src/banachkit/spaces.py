"""Exact norms on finitely supported coefficient sequences.

Five concrete space kinds are supported:

* ``Lp(p)``      -- classical l_p for 1 <= p <= inf (p = inf is the max norm),
* ``C0``         -- c_0, which agrees with Lp(inf) on finitely supported vectors,
* ``LpSum``      -- the l_p sum of finite dimensional pieces l_{p_s}^{n_s},
                    with the pieces laid out consecutively on the index line,
* ``Interleave`` -- two spaces woven together on odd/even indices and combined
                    with an outer max or sum (scaffolding for oscillation demos),
* ``James``      -- the quasi-reflexive space whose norm is a supremum of
                    square sums of consecutive coordinate differences.

All vectors are sparse maps from positive integer indices to real
coefficients; all norms are pure functions of (spec, vector).
"""

from __future__ import annotations

import math
import sys
from bisect import bisect_left
from dataclasses import MISSING, dataclass, field, fields
from typing import TYPE_CHECKING, Iterable, Mapping, Sequence

if TYPE_CHECKING:
    from fractions import Fraction

__all__ = [
    "SparseVector",
    "SpaceSpec",
    "Lp",
    "C0",
    "LpSum",
    "Interleave",
    "James",
    "SegmentIndex",
    "norm",
    "combination_norm",
    "segment_of",
    "make_example_space",
    "type_p_witness",
    "space_from_doc",
]

INF = math.inf


class InvalidSpecError(ValueError):
    """A space description violates its structural constraints."""


class InvalidVectorError(ValueError):
    """A vector is malformed or incompatible with the given space."""


class _PairFormError(InvalidVectorError):
    """An item given to ``SparseVector.from_pairs`` is not an index-coefficient pair."""


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


# ---------------------------------------------------------------------------
# Sparse vectors
# ---------------------------------------------------------------------------


class SparseVector:
    """Finitely supported real sequence indexed by positive integers.

    Zero coefficients are never stored, so ``support()`` is exactly the set
    of indices carrying mass.  Instances are immutable by convention: all
    arithmetic returns fresh vectors.
    """

    __slots__ = ("_entries",)

    def __init__(self, entries: Mapping[int, float] | Iterable[tuple[int, float]] = ()):
        items = entries.items() if isinstance(entries, (dict, Mapping)) else entries
        data: dict[int, float] = {}
        for index, coeff in items:
            if type(index) is not int or index < 1:  # not isinstance: a bool is an int
                raise InvalidVectorError(f"index {index!r} is not a positive integer")
            coeff = float(coeff)
            if coeff != 0.0:
                total = data.get(index, 0.0) + coeff
                if not -INF < total < INF:
                    _reject_coefficient(total)
                if total != 0.0:
                    data[index] = total
                else:
                    del data[index]
        self._entries = {i: data[i] for i in sorted(data)}

    @classmethod
    def unit(cls, index: int) -> "SparseVector":
        return cls({index: 1.0})

    @classmethod
    def indicator(cls, indices: Iterable[int]) -> "SparseVector":
        return cls({i: 1.0 for i in indices})

    @property
    def entries(self) -> dict[int, float]:
        return dict(self._entries)

    def support(self) -> tuple[int, ...]:
        return tuple(self._entries)

    def is_zero(self) -> bool:
        return not self._entries

    def min_index(self) -> int:
        if not self._entries:
            raise InvalidVectorError("zero vector has no support")
        return next(iter(self._entries))

    def max_index(self) -> int:
        if not self._entries:
            raise InvalidVectorError("zero vector has no support")
        return next(reversed(self._entries))

    def get(self, index: int) -> float:
        return self._entries.get(index, 0.0)

    def scale(self, factor: float) -> "SparseVector":
        # the indices are valid and in order already, so of the constructor's
        # steps only the products' conversion, zero drop and check are left
        out = SparseVector.__new__(SparseVector)
        out._entries = {
            i: x
            for i, c in self._entries.items()
            if (x := float(factor * c)) != 0.0 and (-INF < x < INF or _reject_coefficient(x))
        }
        return out

    def __add__(self, other: "SparseVector") -> "SparseVector":
        data = dict(self._entries)
        for i, c in other._entries.items():
            data[i] = data.get(i, 0.0) + c
        return SparseVector(data)

    def __sub__(self, other: "SparseVector") -> "SparseVector":
        return self + other.scale(-1.0)

    def __rmul__(self, factor: float) -> "SparseVector":
        return self.scale(factor)

    def __eq__(self, other: object) -> bool:
        return isinstance(other, SparseVector) and self._entries == other._entries

    def __hash__(self) -> int:
        return hash(tuple(self._entries.items()))

    def __len__(self) -> int:
        return len(self._entries)

    def __repr__(self) -> str:
        return f"SparseVector({self.format()!r})"

    # -- serialization ------------------------------------------------------

    def to_pairs(self) -> list[list[float]]:
        return [[i, c] for i, c in self._entries.items()]

    @classmethod
    def from_pairs(cls, pairs: Iterable[Sequence[float]]) -> "SparseVector":
        """The vector of ``[index, coefficient]`` pairs, as ``to_pairs`` writes them.

        Each pair is a two-item list or tuple of an ``int`` index and an
        ``int`` or ``float`` coefficient, neither a ``bool``.  Nothing is
        converted: anything else raises ``InvalidVectorError`` naming the pair,
        and an ``int`` coefficient past the float range one naming its index.
        """
        pairs = list(pairs)
        for pair in pairs:
            # type(), not isinstance(): a bool is an int
            if type(pair) not in (list, tuple) or tuple(map(type, pair)) not in ((int, int), (int, float)):
                raise _PairFormError(f"{pair!r} is not an [index, coefficient] pair of numbers")
            try:
                float(pair[1])
            except OverflowError:
                raise InvalidVectorError(f"coefficient at index {pair[0]} is past the float range") from None
        return cls(pairs)

    def format(self) -> str:
        """Render as ``index:coefficient`` pairs joined by commas."""
        return ",".join(f"{i}:{c!r}" for i, c in self._entries.items())

    @classmethod
    def parse(cls, text: str) -> "SparseVector":
        text = text.strip()
        if not text:
            return cls()
        pairs = []
        for chunk in text.split(","):
            index, _, coeff = chunk.partition(":")
            try:
                pairs.append((int(index), float(coeff)))
            except ValueError as exc:
                raise InvalidVectorError(f"bad vector entry {chunk!r}") from exc
        return cls(pairs)


# ---------------------------------------------------------------------------
# Space specifications
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SegmentIndex:
    """Position of a coordinate inside an LpSum: summand number and offset."""

    s: int
    offset: int


def _float_exponent(q: float) -> float:
    """``float(q)``, refusing a bool, which ``float`` would read as 0 or 1."""
    if isinstance(q, bool):
        raise InvalidSpecError(f"exponent {q} is not a number")
    return float(q)


def _check_exponent(p: float) -> float:
    p = _float_exponent(p)
    if not (1.0 <= p <= INF):
        raise InvalidSpecError(f"exponent p={p} outside [1, inf]")
    return p


# Coordinates: every kind measures a vector through one formula,
# ``coordinate_norm``, applied to its nonzero coordinates as (key, value)
# pairs, and every kind's ``norm(v)`` is ``coordinate_norm(coordinates(v))``.
# The key is whatever the formula needs besides the value: ``None`` for Lp
# and C0, whose formulas read values only, the index for James, an LpSum
# segment; ``coordinates(v)`` computes the keys once.  Coordinates arrive in
# index order, so an LpSum's keys never decrease and it sums each segment as
# one run of equal keys.  Vectors with equal coordinate lists are
# interchangeable for every norm computed from them
# (``norm_quantization_coloring`` relies on it).  For vectors with
# successively increasing supports, the concatenated coordinates are those
# of their sum, so a combination can be measured from its parts without
# building it (``combination_norm``).


class _Space:
    """The norm and coordinate protocol shared by the five space kinds."""

    # Sign flips of the coordinates never change the norm.
    unconditional = True

    def coordinates(self, v: SparseVector) -> list[tuple[object, float]]:
        """Nonzero coordinates of ``v``, keyed for ``coordinate_norm``, in index order.

        A list, not a tuple: short-lived tuples of many lengths would fill
        the interpreter's per-length tuple free lists and hold on to memory.
        """
        return [(None, c) for c in v._entries.values()]

    def coordinate_norm(self, coords) -> float:
        """The norm of the vector whose nonzero coordinates are ``coords``, in
        index order; ``LpSum`` sums each segment as one run of equal keys."""
        raise NotImplementedError

    def parts_norm(self, coeffs, parts, tops) -> float:
        """``combination_norm(self, coeffs, parts)``, where ``tops[i]`` is the
        largest magnitude in ``parts[i]``; ``Lp`` scales by them."""
        return combination_norm(self, coeffs, parts)

    def norm(self, v: SparseVector) -> float:
        return self.coordinate_norm(self.coordinates(v))

    def to_doc(self) -> dict:
        """The space document: ``kind``, then each ``init`` field in declaration
        order, a space as its document, a tuple as a list, p = inf as ``"inf"``."""
        doc = {"kind": self.kind}
        for name in (f.name for f in fields(self) if f.init):
            v = getattr(self, name)
            doc[name] = v.to_doc() if isinstance(v, _Space) else list(v) if isinstance(v, tuple) else _p_doc(v)
        return doc


def _lp_parts_norm(spec: Lp, coeffs, parts, tops) -> float:
    """``combination_norm(spec, coeffs, parts)`` for ``Lp``, scaled from ``tops``
    without a product list; ``Lp.parts_norm`` and, on one part, ``Lp.coordinate_norm``.

    Exact: round-to-nearest is monotone and odd, so whenever the right side
    is finite, max_j |fl(a * c_j)| = fl(|a| * max_j |c_j|).  The scale the
    product list would take, its largest magnitude, is then
    max_i fl(|coeffs[i]| * tops[i]): one multiply per part.  Each product is
    formed as the product list forms it, and a zero product adds exactly 0.0
    to a finite-p sum, so dropping zeros, and the parts of zero
    coefficients, changes nothing.  A non-finite product makes the scale
    inf, and a NaN one the total NaN; then, and when the scale is 0, the
    product list is built after all, and it raises on the first non-finite
    product as before.  p = inf keeps the product list: its norm is the
    scale, which cannot see a NaN without a pass over the products.
    """
    p = spec.p
    scale = 0.0
    for a, top in zip(coeffs, tops):
        if (m := abs(a) * top) > scale:
            scale = m
    if p == INF or not 0.0 < scale < INF:
        return combination_norm(spec, coeffs, parts)
    # the sums run left to right, as in _sum_left, written out for speed
    total = 0.0
    if p == 1.0:
        for a, part in zip(coeffs, parts):
            if a:
                for _, c in part:
                    total += abs(a * c)
        value = total
    # divided by the scale, powers of tiny or huge coefficients cannot
    # underflow or overflow
    elif p == 2.0:
        for a, part in zip(coeffs, parts):
            if a:
                for _, c in part:
                    total += (a * c / scale) ** 2
        value = scale * math.sqrt(total)
    else:
        for a, part in zip(coeffs, parts):
            if a:
                for _, c in part:
                    total += abs(a * c / scale) ** p
        value = scale * total ** (1.0 / p)
    return value if total == total else combination_norm(spec, coeffs, parts)


@dataclass(frozen=True)
class Lp(_Space):
    kind = "lp"
    p: float

    def __post_init__(self):
        object.__setattr__(self, "p", _check_exponent(self.p))

    parts_norm = _lp_parts_norm

    def coordinate_norm(self, coords) -> float:
        if not coords:
            return 0.0
        if self.p == INF:
            return _scale(coords)
        # multiplying by 1.0 is exact; called by name, so that parts_norm is
        # entered by combination norms only
        return _lp_parts_norm(self, (1.0,), (coords,), (_scale(coords),))


@dataclass(frozen=True)
class C0(_Space):
    kind = "c0"

    def coordinate_norm(self, coords) -> float:
        return _scale(coords)


@dataclass(frozen=True)
class LpSum(_Space):
    """l_p sum of the finite dimensional spaces l_{p_s}^{n_s}.

    Segment ``s`` (1-based) occupies the consecutive index range
    ``n_1 + ... + n_{s-1} + 1`` through ``n_1 + ... + n_s``.  The norm of a
    vector with coefficients ``b_l`` is

        ( sum_s ( sum_{l in segment s} |b_l|^{p_s} )^{p/p_s} )^{1/p}.

    The inner exponents may equal ``p`` (the degenerate case collapses to
    plain l_p), but may not exceed it.  A coordinate's key is its 0-based
    segment number.
    """

    kind = "lp_sum"
    p: float
    ps: tuple[float, ...]
    ns: tuple[int, ...]
    _cumulative: tuple[int, ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        p = _float_exponent(self.p)
        if not (1.0 < p < INF):
            raise InvalidSpecError(f"outer exponent p={p} must lie in (1, inf)")
        ps = tuple(_float_exponent(q) for q in self.ps)
        # an int, or a float without fractional part (not inf or NaN); not a bool
        if not all(type(n) is int or type(n) is float and n.is_integer() for n in self.ns):
            raise InvalidSpecError(f"segment dimensions must be integers, got {list(self.ns)}")
        ns = tuple(int(n) for n in self.ns)
        if len(ps) != len(ns) or not ps:
            raise InvalidSpecError("ps and ns must be nonempty lists of equal length")
        if any(not (1.0 <= q <= p) for q in ps):
            raise InvalidSpecError("inner exponents must lie in [1, p]")
        if any(b < a for a, b in zip(ps, ps[1:])):
            raise InvalidSpecError("inner exponents must be nondecreasing")
        if any(n < 1 for n in ns):
            raise InvalidSpecError("segment dimensions must be >= 1")
        object.__setattr__(self, "p", p)
        object.__setattr__(self, "ps", ps)
        object.__setattr__(self, "ns", ns)
        cumulative = []
        total = 0
        for n in ns:
            total += n
            cumulative.append(total)
        object.__setattr__(self, "_cumulative", tuple(cumulative))

    @property
    def total_dim(self) -> int:
        return self._cumulative[-1]

    def segment_of(self, index: int) -> SegmentIndex:
        if index < 1 or index > self.total_dim:
            raise InvalidVectorError(
                f"index {index} outside the declared segments (1..{self.total_dim})"
            )
        s = bisect_left(self._cumulative, index)
        previous = self._cumulative[s - 1] if s > 0 else 0
        return SegmentIndex(s=s + 1, offset=index - previous)

    def segment_range(self, s: int) -> tuple[int, int]:
        """Inclusive index range (lo, hi) of segment ``s``."""
        if s < 1 or s > len(self.ns):
            raise InvalidSpecError(f"segment {s} does not exist")
        lo = (self._cumulative[s - 2] if s >= 2 else 0) + 1
        return lo, self._cumulative[s - 1]

    def segment_keys(self, indices: Sequence[int]) -> list[int]:
        """The coordinate keys of the increasing positive ``indices``; raises past the segments."""
        if not indices:
            return []
        cumulative = self._cumulative
        if indices[-1] > cumulative[-1]:
            # segment_of raises for the first index past the segments
            self.segment_of(next(i for i in indices if i > cumulative[-1]))
        s = bisect_left(cumulative, indices[0])
        if indices[-1] <= cumulative[s]:
            # increasing indices between the first one and segment s's end
            return [s] * len(indices)
        return [bisect_left(cumulative, i) for i in indices]

    def coordinates(self, v: SparseVector) -> list[tuple[int, float]]:
        return list(zip(self.segment_keys(v.support()), v._entries.values()))

    def coordinate_norm(self, coords) -> float:
        if not coords:
            return 0.0
        p, ps = self.p, self.ps
        scale = _scale(coords)
        # one pass: a segment's mass joins the total when its run of keys ends
        total = mass = 0.0
        key = coords[0][0]
        q = ps[key]
        for s, coeff in coords:
            if s != key:
                if s < key:
                    raise InvalidVectorError(f"coordinate keys out of index order: segment {s} after {key}")
                total += mass ** (p / q)
                key, q, mass = s, ps[s], 0.0
            mass += abs(coeff / scale) ** q
        total += mass ** (p / q)
        return scale * total ** (1.0 / p)


@dataclass(frozen=True)
class Interleave(_Space):
    """Two spaces carried on the odd and even indices respectively.

    The odd coordinates 1, 3, 5, ... are reindexed densely as 1, 2, 3, ...
    and measured in ``a``; likewise the even coordinates in ``b``.  The two
    inner norms are combined with ``max`` or ``sum``.  Not part of any of the
    concrete constructions above; this is the minimal carrier for block
    sequences whose combination norms oscillate by parity.  A coordinate's
    key is (parity, key in that part); ``coordinates`` lists the odd ones
    first, then the even ones, so concatenating the coordinates of
    successive blocks still keeps each part in index order.
    """

    kind = "interleave"
    a: SpaceSpec
    b: SpaceSpec
    outer: str = "max"

    def __post_init__(self):
        if self.outer not in ("max", "sum"):
            raise InvalidSpecError(f"outer combiner must be 'max' or 'sum', got {self.outer!r}")
        if isinstance(self.a, Interleave) or isinstance(self.b, Interleave):
            raise InvalidSpecError("interleave components must not themselves interleave")

    @property
    def unconditional(self) -> bool:
        return self.a.unconditional and self.b.unconditional

    def split(self, v: SparseVector) -> tuple[SparseVector, SparseVector]:
        odd = {}
        even = {}
        for index, coeff in v._entries.items():
            if index % 2 == 1:
                odd[(index + 1) // 2] = coeff
            else:
                even[index // 2] = coeff
        return SparseVector(odd), SparseVector(even)

    def coordinates(self, v: SparseVector) -> list[tuple[tuple[bool, object], float]]:
        odd, even = self.split(v)
        return [((False, k), c) for k, c in self.a.coordinates(odd)] + [
            ((True, k), c) for k, c in self.b.coordinates(even)
        ]

    def coordinate_norm(self, coords) -> float:
        na = self.a.coordinate_norm([(k, c) for (even, k), c in coords if not even])
        nb = self.b.coordinate_norm([(k, c) for (even, k), c in coords if even])
        return self._outer(na, nb)

    def _outer(self, na: float, nb: float) -> float:
        return max(na, nb) if self.outer == "max" else na + nb


@dataclass(frozen=True)
class James(_Space):
    """James space norm on finitely supported vectors.

    ||x|| = sup over increasing index tuples p_1 < ... < p_m (m >= 2, drawn
    from 1 .. max(supp(x)) + 1) of

        ( sum_{i=1}^{m-1} (x_{p_{i+1}} - x_{p_i})^2 )^{1/2}

    where coordinates off the support count as zero.  The index one past the
    support carries the closing zero, so the summing vectors
    s_k = e_1 + ... + e_k have norm exactly 1.  No cyclic term, no 1/sqrt(2).

    Allowing the tuple to visit zero coordinates in gaps of the support is
    required for the triangle inequality (restricting to the support breaks
    subadditivity, e.g. against e_1 + e_3 perturbed at index 2).  A
    coordinate's key is its index.  The norm is conditional: flipping the
    sign of one coordinate changes the differences.
    """

    kind = "james"
    unconditional = False

    def coordinates(self, v: SparseVector) -> list[tuple[int, float]]:
        return list(v._entries.items())

    def _candidates(self, coords) -> list[float]:
        # Consecutive equal values are interchangeable for the supremum, so
        # compress runs: keep one representative per maximal constant run of
        # the coordinate profile on 1 .. max(supp)+1.
        values: list[float] = []
        previous_index = 0
        for index, coeff in coords:
            if index > previous_index + 1 and (not values or values[-1] != 0.0):
                values.append(0.0)
            if not values or values[-1] != coeff:
                values.append(coeff)
            previous_index = index
        if not values or values[-1] != 0.0:
            values.append(0.0)  # the closing coordinate past the support
        return values

    def coordinate_norm(self, coords) -> float:
        if not coords:
            return 0.0
        scale = _scale(coords)
        values = [c / scale for c in self._candidates(coords)]
        n = len(values)
        # best[j] = max over tuples ending at j of the accumulated square sum
        best = [0.0] * n
        top = 0.0
        for j in range(1, n):
            b = 0.0
            for i in range(j):
                gain = best[i] + (values[j] - values[i]) ** 2
                if gain > b:
                    b = gain
            best[j] = b
            if b > top:
                top = b
        return scale * math.sqrt(top)


SpaceSpec = Lp | C0 | LpSum | Interleave | James


# ---------------------------------------------------------------------------
# Operations
# ---------------------------------------------------------------------------


def _sum_left(terms: Iterable[float]) -> float:
    """The float sum of ``terms``, added left to right.

    From Python 3.12 on, ``sum`` compensates float rounding, so its value,
    and every report built on it, would depend on the interpreter.
    """
    total = 0.0
    for x in terms:
        total += x
    return total


def norm(spec: SpaceSpec, v: SparseVector) -> float:
    """Norm of ``v`` in the space described by ``spec``."""
    return spec.norm(v)


def combination_norm(
    spec: SpaceSpec, coeffs: Iterable[float], parts: Iterable[Sequence[tuple[object, float]]]
) -> float:
    """||sum_i coeffs[i] * v_i|| from ``parts[i] = spec.coordinates(v_i)``.

    The vectors must have successively increasing supports, so the
    combination's coordinates are the products ``a * c`` in the parts' order
    and no two of them add up.  The products, the dropped zeros, the
    rejection of non-finite values and the norm formula are the float
    operations that building the combination and calling ``spec.norm`` would
    run, so the result is bit-identical to that, without any SparseVector.
    """
    return spec.coordinate_norm(
        [
            (key, x)
            for a, part in zip(coeffs, parts)
            if a != 0.0
            for key, c in part
            if (x := a * c) != 0.0 and (-INF < x < INF or _reject_coefficient(x))
        ]
    )


def segment_of(spec: LpSum, index: int) -> SegmentIndex:
    """Locate a global coordinate index inside an LpSum's segments."""
    if not isinstance(spec, LpSum):
        raise InvalidSpecError("segment_of requires an LpSum spec")
    return spec.segment_of(index)


def _type_exponent(p: float, p_s: float) -> Fraction:
    """p*p_s / (p - p_s) for p_s < p, exact from the decimal text of the inputs."""
    from fractions import Fraction  # on use: a slow import that few commands need

    p, p_s = Fraction(str(p)), Fraction(str(p_s))
    return p * p_s / (p - p_s)


def _example_dimension(p: float, p_s: float, s: int) -> int:
    """Least integer strictly greater than s^(p*p_s / (p - p_s)).

    The exponent is computed as an exact rational from the decimal text of
    the inputs, so integer exponents (the usual case in experiments) give
    exact integer thresholds instead of float-rounded ones.  Before any power
    is taken, e * log10(s) refuses an n_s of more digits than a report prints
    (Python's default limit, 4300) or a float threshold past the float range.
    """
    exponent = _type_exponent(p, p_s)
    integer = exponent.denominator == 1
    if float(exponent) * math.log10(s) < (4300 if integer else math.log10(sys.float_info.max)):
        return s ** int(exponent) + 1 if integer else math.floor(s ** float(exponent)) + 1
    raise InvalidSpecError(
        f"segment {s} with inner exponent {p_s!r}: n_{s}, the least integer above {s}^({exponent}), "
        + ("has more than 4300 digits" if integer else "is past the float range")
    )


def make_example_space(p: float, num_segments: int, ps: Iterable[float]) -> LpSum:
    """Build the LpSum whose segment dimensions defeat type p.

    Requires 1 < p <= 2 and inner exponents strictly increasing inside
    [1, p).  Segment ``s`` gets dimension n_s = least integer exceeding
    s^(p*p_s/(p-p_s)), which makes ``type_p_witness`` true at C = s for
    every segment.  Where that exponent is an integer, n_s and the witness
    are both computed in integers, so there it holds exactly.
    """
    p = float(p)
    if not (1.0 < p <= 2.0):
        raise InvalidSpecError(f"p={p} must satisfy 1 < p <= 2")
    ps = tuple(float(q) for q in ps)
    if len(ps) != num_segments:
        raise InvalidSpecError(f"expected {num_segments} inner exponents, got {len(ps)}")
    if any(not (1.0 <= q < p) for q in ps):
        raise InvalidSpecError("inner exponents must lie in [1, p)")
    if any(b <= a for a, b in zip(ps, ps[1:])):
        raise InvalidSpecError("inner exponents must be strictly increasing")
    ns = tuple(_example_dimension(p, q, s) for s, q in enumerate(ps, start=1))
    return LpSum(p=p, ps=ps, ns=ns)


def type_p_witness(spec: LpSum, s: int, C: float) -> bool:
    """True iff segment ``s`` defeats the type-p inequality at constant ``C``.

    The inequality compares the two norms of the all-ones vector on segment
    s: it fails exactly when n_s^{1/p_s} > C * n_s^{1/p}, that is, for
    p_s < p and C > 0, when n_s > C^e with e = p*p_s/(p - p_s).  As in
    ``make_example_space``, e is read as a rational from the decimal text;
    when e and C are integers the comparison is made in integers, else in
    floats, or in logarithms for an n_s past the float range.
    """
    if not isinstance(spec, LpSum):
        raise InvalidSpecError("type_p_witness requires an LpSum spec")
    if s < 1 or s > len(spec.ns):
        raise InvalidSpecError(f"segment {s} does not exist")
    n_s, p_s = spec.ns[s - 1], spec.ps[s - 1]
    if p_s < spec.p and C > 0 and float(C).is_integer():
        exponent = _type_exponent(spec.p, p_s)
        if exponent.denominator == 1:
            return n_s > int(C) ** int(exponent)
    try:
        return n_s ** (1.0 / p_s) > C * n_s ** (1.0 / spec.p)
    except OverflowError:
        # n_s (or C) is past the float range, where logarithms still are
        return C <= 0 or math.log(n_s) / p_s > math.log(C) + math.log(n_s) / spec.p


# ---------------------------------------------------------------------------
# Serialization
# ---------------------------------------------------------------------------


def _p_doc(p: float | None) -> float | str | None:
    """An exponent as reports write it: JSON has no infinity, so p = inf is
    the string ``"inf"``, which ``float`` reads back."""
    return "inf" if p == INF else p


# Each kind's class, by the ``kind`` its documents carry
_KINDS = {cls.kind: cls for cls in SpaceSpec.__args__}


def space_from_doc(doc: dict) -> SpaceSpec:
    """Inverse of ``spec.to_doc()``; round-trips exactly.  The document holds
    ``kind`` and the ``init`` fields of its class: an unknown field, or a
    missing one without a default, is refused; the constructor checks values."""
    try:
        kind = doc["kind"]
    except (TypeError, KeyError) as exc:
        raise InvalidSpecError(f"space document {doc!r} has no 'kind'") from exc
    cls = _KINDS.get(kind) if isinstance(kind, str) else None
    if cls is None:
        raise InvalidSpecError(f"unknown space kind {kind!r}")
    init = {f.name: f for f in fields(cls) if f.init}
    for name in doc:
        if name != "kind" and name not in init:
            raise InvalidSpecError(f"{kind} space document has an unknown field {name!r}")
    values = {}
    for name, f in init.items():
        if name in doc:
            values[name] = _part(doc, name) if f.type == "SpaceSpec" else doc[name]
        elif f.default is MISSING:
            raise InvalidSpecError(f"{kind} space document has no {name!r}")
    try:
        return cls(**values)
    except TypeError as exc:
        raise InvalidSpecError(f"{kind} space document has a field of the wrong type: {exc}") from exc


def _part(doc: dict, field: str) -> SpaceSpec:
    """The space in field ``field`` of an interleave document; a part that is
    not a space document is refused naming the interleave and the field."""
    part = doc[field]
    if not isinstance(part, dict) or "kind" not in part:
        raise InvalidSpecError(
            f"interleave space document field {field!r}: space document {part!r} has no 'kind'"
        )
    return space_from_doc(part)
