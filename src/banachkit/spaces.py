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
from bisect import bisect_left
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Iterable, Mapping, Sequence

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


def _reject_coefficient(coeff: float) -> bool:
    """Raise for a NaN or infinite coefficient; typed ``bool`` to sit in a filter."""
    raise InvalidVectorError(f"coefficient {coeff!r} is not finite")


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
            if not isinstance(index, int) or index < 1:
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
        return SparseVector({i: factor * c for i, c in self._entries.items()})

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
    def from_pairs(cls, pairs: Iterable[Iterable[float]]) -> "SparseVector":
        return cls([(int(i), float(c)) for i, c in pairs])

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


def _check_exponent(p: float) -> float:
    p = float(p)
    if not (1.0 <= p <= INF):
        raise InvalidSpecError(f"exponent p={p} outside [1, inf]")
    return p


# Coordinates: every kind measures a vector through one formula,
# ``coordinate_norm``, applied to its nonzero coordinates as (key, value)
# pairs.  The key is whatever the formula needs besides the value (the index,
# or an LpSum segment); ``coordinates(v)`` computes the keys once.  For
# vectors with successively increasing supports, the concatenated coordinates
# are those of their sum, so a combination can be measured from its parts
# without building it (``combination_norm``).


class _Space:
    """The norm and coordinate protocol shared by the five space kinds."""

    # Sign flips of the coordinates never change the norm.
    unconditional = True

    def coordinates(self, v: SparseVector) -> list[tuple[object, float]]:
        """Nonzero coordinates of ``v``, keyed for ``coordinate_norm``, in index order.

        A list, not a tuple: short-lived tuples of many lengths would fill
        the interpreter's per-length tuple free lists and hold on to memory.
        """
        return list(v._entries.items())

    def coordinate_norm(self, coords) -> float:
        """The norm of the vector whose nonzero coordinates are ``coords``."""
        raise NotImplementedError

    def norm(self, v: SparseVector) -> float:
        # the entries view is these coordinates without the copy
        return self.coordinate_norm(v._entries.items())


@dataclass(frozen=True)
class Lp(_Space):
    p: float

    def __post_init__(self):
        object.__setattr__(self, "p", _check_exponent(self.p))

    def coordinate_norm(self, coords) -> float:
        if not coords:
            return 0.0
        if self.p == INF:
            return max(abs(c) for _, c in coords)
        if self.p == 1.0:
            return sum(abs(c) for _, c in coords)
        # factor out the largest magnitude so powers of tiny or huge
        # coefficients cannot underflow or overflow
        scale = max(abs(c) for _, c in coords)
        if self.p == 2.0:
            return scale * math.sqrt(sum((c / scale) ** 2 for _, c in coords))
        return scale * sum(abs(c / scale) ** self.p for _, c in coords) ** (1.0 / self.p)

    def to_doc(self) -> dict:
        return {"kind": "lp", "p": "inf" if self.p == INF else self.p}


@dataclass(frozen=True)
class C0(_Space):
    def coordinate_norm(self, coords) -> float:
        if not coords:
            return 0.0
        return max(abs(c) for _, c in coords)

    def to_doc(self) -> dict:
        return {"kind": "c0"}


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

    p: float
    ps: tuple[float, ...]
    ns: tuple[int, ...]
    _cumulative: tuple[int, ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        p = float(self.p)
        if not (1.0 < p < INF):
            raise InvalidSpecError(f"outer exponent p={p} must lie in (1, inf)")
        ps = tuple(float(q) for q in self.ps)
        ns = tuple(int(n) for n in self.ns)
        if len(ps) != len(ns) or not ps:
            raise InvalidSpecError("ps and ns must be nonempty lists of equal length")
        if any(q < 1.0 or q > p for q in ps):
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

    def coordinates(self, v: SparseVector) -> list[tuple[int, float]]:
        if not v.is_zero() and v.max_index() > self.total_dim:
            # segment_of raises for the first index past the segments
            self.segment_of(next(i for i in v._entries if i > self.total_dim))
        cumulative = self._cumulative
        return [(bisect_left(cumulative, i), c) for i, c in v._entries.items()]

    def norm(self, v: SparseVector) -> float:
        return self.coordinate_norm(self.coordinates(v))

    def coordinate_norm(self, coords) -> float:
        if not coords:
            return 0.0
        p, ps = self.p, self.ps
        scale = max(abs(c) for _, c in coords)
        inner: dict[int, float] = {}
        for s, coeff in coords:
            inner[s] = inner.get(s, 0.0) + abs(coeff / scale) ** ps[s]
        total = 0.0
        for s, mass in inner.items():
            total += mass ** (p / ps[s])
        return scale * total ** (1.0 / p)

    def to_doc(self) -> dict:
        return {"kind": "lp_sum", "p": self.p, "ps": list(self.ps), "ns": list(self.ns)}


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

    a: "SpaceSpec"
    b: "SpaceSpec"
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

    def norm(self, v: SparseVector) -> float:
        odd, even = self.split(v)
        return self._outer(self.a.norm(odd), self.b.norm(even))

    def coordinate_norm(self, coords) -> float:
        na = self.a.coordinate_norm([(k, c) for (even, k), c in coords if not even])
        nb = self.b.coordinate_norm([(k, c) for (even, k), c in coords if even])
        return self._outer(na, nb)

    def _outer(self, na: float, nb: float) -> float:
        return max(na, nb) if self.outer == "max" else na + nb

    def to_doc(self) -> dict:
        return {"kind": "interleave", "a": self.a.to_doc(), "b": self.b.to_doc(), "outer": self.outer}


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

    unconditional = False

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
        scale = max(abs(c) for _, c in coords)
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

    def to_doc(self) -> dict:
        return {"kind": "james"}


SpaceSpec = Lp | C0 | LpSum | Interleave | James


# ---------------------------------------------------------------------------
# Operations
# ---------------------------------------------------------------------------


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


def _example_dimension(p: float, p_s: float, s: int) -> int:
    """Least integer strictly greater than s^(p*p_s / (p - p_s)).

    The exponent is computed as an exact rational from the decimal text of
    the inputs, so integer exponents (the usual case in experiments) give
    exact integer thresholds instead of float-rounded ones.
    """
    exponent = (
        Fraction(str(p)) * Fraction(str(p_s)) / (Fraction(str(p)) - Fraction(str(p_s)))
    )
    if exponent.denominator == 1:
        return s ** int(exponent) + 1
    return math.floor(s ** float(exponent)) + 1


def make_example_space(p: float, num_segments: int, ps: Iterable[float]) -> LpSum:
    """Build the LpSum whose segment dimensions defeat type p.

    Requires 1 < p <= 2 and inner exponents strictly increasing inside
    [1, p).  Segment ``s`` gets dimension n_s = least integer exceeding
    s^(p*p_s/(p-p_s)), which makes ``type_p_witness`` true at C = s for
    every segment.
    """
    p = float(p)
    if not (1.0 < p <= 2.0):
        raise InvalidSpecError(f"p={p} must satisfy 1 < p <= 2")
    ps = tuple(float(q) for q in ps)
    if len(ps) != num_segments:
        raise InvalidSpecError(f"expected {num_segments} inner exponents, got {len(ps)}")
    if any(q < 1.0 or q >= p for q in ps):
        raise InvalidSpecError("inner exponents must lie in [1, p)")
    if any(b <= a for a, b in zip(ps, ps[1:])):
        raise InvalidSpecError("inner exponents must be strictly increasing")
    ns = tuple(_example_dimension(p, q, s) for s, q in enumerate(ps, start=1))
    return LpSum(p=p, ps=ps, ns=ns)


def type_p_witness(spec: LpSum, s: int, C: float) -> bool:
    """True iff segment ``s`` defeats the type-p inequality at constant ``C``.

    The inequality compares the two norms of the all-ones vector on segment
    s: it fails exactly when n_s^{1/p_s} > C * n_s^{1/p}.
    """
    if not isinstance(spec, LpSum):
        raise InvalidSpecError("type_p_witness requires an LpSum spec")
    if s < 1 or s > len(spec.ns):
        raise InvalidSpecError(f"segment {s} does not exist")
    n_s = spec.ns[s - 1]
    return n_s ** (1.0 / spec.ps[s - 1]) > C * n_s ** (1.0 / spec.p)


# ---------------------------------------------------------------------------
# Serialization
# ---------------------------------------------------------------------------


def _parse_p(raw) -> float:
    if raw in ("inf", "Infinity"):
        return INF
    return float(raw)


def space_from_doc(doc: dict) -> SpaceSpec:
    """Inverse of ``spec.to_doc()``; round-trips exactly."""
    try:
        kind = doc["kind"]
    except (TypeError, KeyError) as exc:
        raise InvalidSpecError(f"space document {doc!r} has no 'kind'") from exc
    if kind == "lp":
        return Lp(p=_parse_p(doc["p"]))
    if kind == "c0":
        return C0()
    if kind == "lp_sum":
        return LpSum(p=float(doc["p"]), ps=tuple(doc["ps"]), ns=tuple(doc["ns"]))
    if kind == "interleave":
        return Interleave(
            a=space_from_doc(doc["a"]),
            b=space_from_doc(doc["b"]),
            outer=doc.get("outer", "max"),
        )
    if kind == "james":
        return James()
    raise InvalidSpecError(f"unknown space kind {kind!r}")
