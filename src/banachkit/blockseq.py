"""Block basic sequences, constant-coefficient blocks, and block trees.

A block sequence is a finite list of sparse vectors whose supports are
successively increasing.  The NCCB construction turns a blocking (E_i) into
the normalized constant-coefficient sequence

    y_i = (sum_{k in E_i} e_k) / || sum_{k in E_i} e_k ||.

Trees are finite truncations: every paper-infinite object here (rows,
trees, branches) carries explicit depth/width/length parameters, and
exhaustion of a row during tree construction is flagged rather than
silently absorbed.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from typing import Iterable, Iterator, Sequence

from .combinatorics import Blocking, FiniteSet, coarsen_by_indices
from .spaces import InvalidVectorError, SparseVector, SpaceSpec, _scale

__all__ = [
    "BlockSequence",
    "BlockArray",
    "BlockTree",
    "nccb_from_blocking",
    "block_sums",
    "nccb_of_sequence",
    "merge_blocking",
    "combine",
    "CombinationNorm",
    "subsequence_tree",
    "tree_from_array",
    "interleave_array",
    "branch",
]

NCCB_NORM_TOL = 1e-12


class InvalidBlockSequenceError(ValueError):
    """Vector list violates the successively-increasing support invariant."""


@dataclass(frozen=True)
class BlockSequence:
    """Finite list of sparse vectors with successively increasing supports."""

    vectors: tuple[SparseVector, ...]

    def __init__(self, vectors: Sequence[SparseVector]):
        vecs = tuple(vectors)
        for v in vecs:
            if v.is_zero():
                raise InvalidBlockSequenceError("block sequences cannot contain zero vectors")
        for a, b in zip(vecs, vecs[1:]):
            if a.max_index() >= b.min_index():
                raise InvalidBlockSequenceError(
                    f"supports not successively increasing: {a.support()} then {b.support()}"
                )
        object.__setattr__(self, "vectors", vecs)

    def __len__(self) -> int:
        return len(self.vectors)

    def __iter__(self) -> Iterator[SparseVector]:
        return iter(self.vectors)

    def __getitem__(self, i):
        return self.vectors[i]

    def support_blocking(self) -> Blocking:
        return Blocking([FiniteSet(v.support()) for v in self.vectors])

    def to_doc(self) -> list:
        return [v.to_pairs() for v in self.vectors]


@dataclass(frozen=True)
class BlockArray:
    """Finite stack of rows, each row a block sequence (finite row truncations)."""

    rows: tuple[BlockSequence, ...]

    def __init__(self, rows: Sequence[BlockSequence]):
        object.__setattr__(self, "rows", tuple(rows))

    def __len__(self) -> int:
        return len(self.rows)

    def row(self, n: int) -> BlockSequence:
        """1-based row access."""
        return self.rows[n - 1]


@dataclass
class BlockTree:
    """Finite truncation of a block tree: node map from index sets to vectors.

    Nodes are keyed by strictly increasing integer tuples; the root is the
    empty tuple and carries no vector.  ``truncated`` records that some node
    could not receive its full complement of successors.
    """

    nodes: dict[tuple[int, ...], SparseVector]
    depth: int
    width: int
    truncated: bool = False
    meta: dict = field(default_factory=dict)

    def node(self, A: Sequence[int]) -> SparseVector:
        key = tuple(A)
        if key not in self.nodes:
            raise KeyError(f"no node at {key}")
        return self.nodes[key]

    def children(self, A: Sequence[int]) -> list[tuple[int, ...]]:
        key = tuple(A)
        lo = key[-1] if key else 0
        out = [k for k in self.nodes if len(k) == len(key) + 1 and k[: len(key)] == key and k[-1] > lo]
        return sorted(out)

    def to_doc(self) -> dict:
        ordered = sorted(self.nodes, key=lambda k: (len(k), k))  # breadth-first
        return {
            "depth": self.depth,
            "width": self.width,
            "truncated": self.truncated,
            "nodes": [[list(k), self.nodes[k].to_pairs()] for k in ordered],
        }


# ---------------------------------------------------------------------------
# NCCB construction
# ---------------------------------------------------------------------------


def nccb_from_blocking(spec: SpaceSpec, blocking: Blocking) -> BlockSequence:
    """Normalized constant-coefficient block sequence over a blocking.

    Each vector is the indicator of a block divided by its norm; the result
    is normalized to within 1e-12 in the given space.
    """
    vectors = []
    for block in blocking:
        indicator = SparseVector.indicator(block.elements)
        magnitude = spec.norm(indicator)
        if magnitude <= 0.0:
            raise InvalidBlockSequenceError(f"block {block} has zero norm in {spec}")
        y = indicator.scale(1.0 / magnitude)
        if abs(spec.norm(y) - 1.0) > NCCB_NORM_TOL:
            raise InvalidBlockSequenceError(f"normalization failed for block {block}")
        vectors.append(y)
    return BlockSequence(vectors)


def block_sums(blocking: Blocking) -> BlockSequence:
    """Unnormalized indicator sums over a blocking (the pre-NCCB sequence)."""
    return BlockSequence([SparseVector.indicator(b.elements) for b in blocking])


def nccb_of_sequence(spec: SpaceSpec, base: Sequence[SparseVector], E: Blocking) -> BlockSequence:
    """NCCB built over an existing sequence: z_i = (sum_{k in E_i} base_k) / ||.||.

    E blocks are 1-based positions into ``base``.  When ``base`` is itself a
    sequence of unnormalized block sums over a blocking P, this collapses to
    the NCCB over the merged blocking, which ``merge_blocking`` computes.
    """
    vectors = []
    for block in E:
        total = SparseVector()
        for k in block:
            if k < 1 or k > len(base):
                raise InvalidBlockSequenceError(f"position {k} outside 1..{len(base)}")
            total = total + base[k - 1]
        magnitude = spec.norm(total)
        if magnitude <= 0.0:
            raise InvalidBlockSequenceError(f"combined block at {block} has zero norm")
        vectors.append(total.scale(1.0 / magnitude))
    return BlockSequence(vectors)


def merge_blocking(P: Blocking, E: Blocking) -> Blocking:
    """Blocking whose i-th block is the union of P's blocks at positions E_i."""
    return coarsen_by_indices(P, [b.elements for b in E])


def combine(seq: Sequence[SparseVector], coeffs: Sequence[float], positions: Sequence[int]) -> SparseVector:
    """The combination sum_i coeffs[i] * seq[positions[i]] (positions 1-based).

    Positions must be strictly increasing and within the sequence.
    """
    if len(coeffs) != len(positions):
        raise InvalidBlockSequenceError(
            f"{len(coeffs)} coefficients for {len(positions)} positions"
        )
    if any(b <= a for a, b in zip(positions, positions[1:])):
        raise InvalidBlockSequenceError(f"positions {positions} not strictly increasing")
    total = SparseVector()
    for a, k in zip(coeffs, positions):
        if k < 1 or k > len(seq):
            raise InvalidBlockSequenceError(f"position {k} outside 1..{len(seq)}")
        if a != 0.0:
            total = total + seq[k - 1].scale(a)
    return total


class CombinationNorm:
    """The norms ``spec.norm(combine(seq, coeffs, positions))`` over one vector list.

    When the supports of ``seq`` are successively increasing (always so for
    a ``BlockSequence``; checked once here for a plain list), each vector's
    coordinates and largest magnitude are computed once and every call goes
    through ``spec.parts_norm``: ``combination_norm``'s value bit for bit, no
    SparseVector built (``spaces._lp_parts_norm`` says why scaling from the
    maxima is exact for ``Lp``).
    Otherwise, or when a vector does not fit the space, every call takes the
    ``combine`` path and so overlaps, and errors, behave exactly as there.

    Calls expect what callers of ``combine`` guarantee: as many coefficients
    as positions, positions strictly increasing inside 1..len(seq).
    ``unconditional`` tells whether flipping coefficient signs leaves every
    value unchanged, which holds for successive supports in an
    unconditional space.
    """

    def __init__(self, spec: SpaceSpec, seq: Sequence[SparseVector]):
        self.spec = spec
        self.seq = seq
        self.parts = self.tops = None
        if _successive(seq):
            try:
                self.parts = [spec.coordinates(v) for v in seq]
            except InvalidVectorError:
                pass  # the combine path raises it where a combination meets it
            else:
                self.tops = [_scale(part) for part in self.parts]
        self.unconditional = self.parts is not None and spec.unconditional
        self._extremes: dict = {}
        self._windows: dict = {}

    def __call__(self, coeffs: Sequence[float], positions: Sequence[int]) -> float:
        """The norm of ``sum_i coeffs[i] * seq[positions[i] - 1]``.

        A call with as many positions as vectors passes ``parts`` and
        ``tops`` themselves: strictly increasing positions inside 1..len(seq)
        are then exactly 1..len(seq).
        """
        parts, tops = self.parts, self.tops
        if parts is None:
            return self.spec.norm(combine(self.seq, coeffs, positions))
        if len(positions) != len(parts):
            parts = [parts[k - 1] for k in positions]
            tops = [tops[k - 1] for k in positions]
        return self.spec.parts_norm(coeffs, parts, tops)

    def window_extremes(self, coeffs: Sequence[float], K: int, H: int) -> tuple[float, float]:
        """(sup, inf) of the values over the increasing len(coeffs)-tuples of
        positions in [K, K + H], a window inside 1..len(seq).

        On the ``combine`` path every tuple is evaluated, otherwise only the
        first tuple of each distinct class tuple, in window order; a
        position's class is its coordinate list.  Results are memoized by
        (coefficients, K, H), with the sign-free key of the coefficients
        when ``unconditional``.
        """
        key = (_sign_free(coeffs) if self.unconditional else tuple(coeffs), K, H)
        extremes = self._extremes.get(key)
        if extremes is None:
            sup, inf = -math.inf, math.inf
            # Exact: parts_norm is a pure function of (coeffs, parts), tops being
            # the parts' maxima, so tuples of one class tuple give bit-identical
            # values; sup and inf update strictly and the caller sees no
            # positions, so a repeated value changes neither; and the first
            # tuple to raise is a class tuple's first, which the
            # representatives keep in window order.
            for ks in self._window(K, H, len(coeffs)):
                value = self(coeffs, ks)
                if value > sup:
                    sup = value
                if value < inf:
                    inf = value
            extremes = self._extremes[key] = (sup, inf)
        return extremes

    def _window(self, K: int, H: int, n: int) -> Iterable[tuple[int, ...]]:
        tuples = itertools.combinations(range(K, K + H + 1), n)
        if self.parts is None:
            return tuples
        reps = self._windows.get((K, H, n))
        if reps is None:
            table: dict = {}
            ids = {k: table.setdefault(tuple(self.parts[k - 1]), len(table)) for k in range(K, K + H + 1)}
            first: dict[tuple[int, ...], tuple[int, ...]] = {}
            for ks in tuples:
                first.setdefault(tuple([ids[k] for k in ks]), ks)
            reps = self._windows[K, H, n] = tuple(first.values())
        return reps


def _sign_free(coeffs: Sequence[float]) -> tuple[float, ...]:
    return tuple(map(abs, coeffs))


def _successive(seq: Sequence[SparseVector]) -> bool:
    if isinstance(seq, BlockSequence):
        return True
    last = 0
    for v in seq:
        if not v.is_zero():
            if v.min_index() <= last:
                return False
            last = v.max_index()
    return True


# ---------------------------------------------------------------------------
# Trees
# ---------------------------------------------------------------------------


def subsequence_tree(seq: Sequence[SparseVector], depth: int, width: int) -> BlockTree:
    """Tree of partial subsequences: the node at A holds seq[max A].

    Successors of a node at A are A + {max A + 1}, ..., A + {max A + width},
    truncated to the sequence length; branches read back as subsequences.
    """
    if depth < 1 or width < 1:
        raise InvalidBlockSequenceError("need depth >= 1 and width >= 1")
    if len(seq) < 1:
        raise InvalidBlockSequenceError("sequence too short for any tree")
    nodes: dict[tuple[int, ...], SparseVector] = {}
    truncated = False

    frontier: list[tuple[int, ...]] = [()]
    for _ in range(depth):
        next_frontier = []
        for A in frontier:
            lo = A[-1] if A else 0
            successors = [lo + j for j in range(1, width + 1) if lo + j <= len(seq)]
            if len(successors) < width:
                truncated = True
            for k in successors:
                key = A + (k,)
                nodes[key] = seq[k - 1]
                next_frontier.append(key)
        frontier = next_frontier
    return BlockTree(nodes=nodes, depth=depth, width=width, truncated=truncated)


def tree_from_array(arr: BlockArray, depth: int, width: int) -> BlockTree:
    """Block tree based on an array: successors of a level-n node are the
    first ``width`` vectors of row n+1 whose supports start past the node.

    The starting vector within the next row is the least admissible one.
    The root's successors are the first ``width`` vectors of row 1.  A row
    exhausting before ``width`` successors exist is flagged via
    ``truncated``.
    """
    if depth < 1 or width < 1:
        raise InvalidBlockSequenceError("need depth >= 1 and width >= 1")
    if len(arr) < depth:
        raise InvalidBlockSequenceError(f"array has {len(arr)} rows, tree needs {depth}")
    nodes: dict[tuple[int, ...], SparseVector] = {}
    truncated = False

    def successors_from(row: BlockSequence, past: int) -> list[SparseVector]:
        chosen = []
        for v in row:
            if v.min_index() > past:
                chosen.append(v)
                if len(chosen) == width:
                    break
        return chosen

    frontier: list[tuple[tuple[int, ...], int]] = [((), 0)]
    for level in range(1, depth + 1):
        row = arr.row(level)
        next_frontier = []
        for A, past in frontier:
            chosen = successors_from(row, past)
            if len(chosen) < width:
                truncated = True
            lo = A[-1] if A else 0
            for j, v in enumerate(chosen, start=1):
                key = A + (lo + j,)
                nodes[key] = v
                next_frontier.append((key, v.max_index()))
        frontier = next_frontier
    return BlockTree(nodes=nodes, depth=depth, width=width, truncated=truncated)


def interleave_array(y: Sequence[SparseVector], z: Sequence[SparseVector], m: int, rows: int) -> BlockArray:
    """Array alternating m rows of y with m rows of z, ``rows`` rows total."""
    if m < 1 or rows < 1:
        raise InvalidBlockSequenceError("need m >= 1 and rows >= 1")
    y_seq = y if isinstance(y, BlockSequence) else BlockSequence(list(y))
    z_seq = z if isinstance(z, BlockSequence) else BlockSequence(list(z))
    out = []
    for n in range(1, rows + 1):
        phase = ((n - 1) // m) % 2
        out.append(y_seq if phase == 0 else z_seq)
    return BlockArray(out)


def branch(tree: BlockTree, ks: Sequence[int]) -> BlockSequence:
    """The branch (x_{k_1}, x_{k_1,k_2}, ...) along strictly increasing ks."""
    if any(b <= a for a, b in zip(ks, ks[1:])):
        raise InvalidBlockSequenceError(f"branch path {ks} not strictly increasing")
    vectors = []
    path: tuple[int, ...] = ()
    for k in ks:
        path = path + (int(k),)
        if path not in tree.nodes:
            raise InvalidBlockSequenceError(f"tree has no node at {path}")
        vectors.append(tree.nodes[path])
    return BlockSequence(vectors)
