"""Blockings of naturals and finite monochromatic-structure searches.

A *blocking* is a finite list of finite sets of positive integers in which
each set lies entirely below the next.  A blocking F is *coarser* than E
when every block of F is a union of (not necessarily consecutive) blocks of
E; F need not use all of E's blocks.  Under this reading the length-1
coarsenings of the singleton blocking of {1..M} are exactly the nonempty
subsets of {1..M}, so Hindman's theorem is the arity-1 case of the
Milliken-Taylor theorem.  The two searches query unions in different orders,
so they give the same certificate only for colorings that are pure functions.

The searches are depth-first backtracking over a finite ground set with
incremental certificate checking: a partial witness is abandoned the moment
one generated object gets the wrong color.  ``found=False`` is an ordinary
outcome (the ground set may simply be too small) and is always reported
together with the number of explored nodes.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields
from functools import lru_cache
from itertools import combinations
from math import comb
from types import MappingProxyType
from typing import Callable, Iterable, Iterator, Mapping, Sequence

__all__ = [
    "FiniteSet",
    "Blocking",
    "BlockClasses",
    "Coloring",
    "SearchCertificate",
    "is_blocking",
    "is_coarser",
    "coarsenings",
    "finite_unions",
    "coarsen_by_indices",
    "ramsey_search",
    "hindman_search",
    "milliken_taylor_search",
    "diagonal",
    "verify_ramsey_certificate",
    "verify_hindman_certificate",
    "verify_milliken_taylor_certificate",
    "min_parity_coloring",
    "size_parity_coloring",
    "constant_coloring",
    "table_coloring",
    "load_coloring_table",
    "coloring_table_lines",
]


class InvalidBlockingError(ValueError):
    """Input violates blocking invariants (ordering, emptiness, nesting)."""


# ---------------------------------------------------------------------------
# Report documents
# ---------------------------------------------------------------------------

# Values that a report document holds as they are.
_PLAIN = frozenset({bool, int, float, str, type(None), dict})


def _doc(value):
    """``value`` as a JSON-ready document: scalars, ``None`` and dicts as
    they are, tuples and lists element by element, anything else through its
    own ``to_doc``."""
    kind = type(value)
    if kind in _PLAIN:
        return value
    if kind is tuple or kind is list:
        return [_doc(v) for v in value]
    return value.to_doc()


@lru_cache(maxsize=None)
def _field_names(cls: type) -> tuple[str, ...]:
    return tuple(f.name for f in fields(cls))


class _Report:
    """Base of the result dataclasses: the document maps each field's name
    to ``_doc`` of its value."""

    def to_doc(self) -> dict:
        return {name: _doc(getattr(self, name)) for name in _field_names(type(self))}


def _table(records, names: tuple[str, ...]) -> list[list]:
    """A CSV table: the header ``names``, then each record's attributes of
    those names, with a ``coeffs`` tuple written as its ``;``-joined reprs."""
    return [list(names)] + [
        [";".join(map(repr, r.coeffs)) if name == "coeffs" else getattr(r, name) for name in names]
        for r in records
    ]


def _check_at_least(name: str, value: int, least: int) -> None:
    """Refuse a count ``value`` below ``least``, naming it as ``name``."""
    if value < least:
        raise ValueError(f"{name} must be >= {least}, got {value}")


# ---------------------------------------------------------------------------
# Domain types
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class FiniteSet:
    """Nonempty finite set of positive integers, stored strictly increasing."""

    elements: tuple[int, ...]

    def __init__(self, elements: Iterable[int]):
        elems = tuple(sorted(set(int(e) for e in elements)))
        if not elems:
            raise InvalidBlockingError("finite sets must be nonempty")
        if elems[0] < 1:
            raise InvalidBlockingError("elements must be positive integers")
        object.__setattr__(self, "elements", elems)

    @classmethod
    def _trusted(cls, elements: tuple[int, ...]) -> "FiniteSet":
        """Wrap ``elements`` without re-sorting or re-checking them: the
        caller guarantees a nonempty, strictly increasing tuple of positive
        ints."""
        fs = object.__new__(cls)
        object.__setattr__(fs, "elements", elements)
        return fs

    def min(self) -> int:
        return self.elements[0]

    def max(self) -> int:
        return self.elements[-1]

    def union(self, other: "FiniteSet") -> "FiniteSet":
        return FiniteSet(self.elements + other.elements)

    def __contains__(self, element: int) -> bool:
        return element in self.elements

    def __iter__(self) -> Iterator[int]:
        return iter(self.elements)

    def __len__(self) -> int:
        return len(self.elements)

    def encode(self) -> str:
        return ",".join(str(e) for e in self.elements)

    def to_doc(self) -> list[int]:
        return list(self.elements)

    @classmethod
    def parse(cls, text: str) -> "FiniteSet":
        try:
            return cls(int(chunk) for chunk in text.split(","))
        except ValueError as exc:
            raise InvalidBlockingError(f"bad finite-set encoding {text!r}") from exc

    def __repr__(self) -> str:
        return "{" + self.encode() + "}"


@dataclass(frozen=True)
class Blocking:
    """Finite list of finite sets, each entirely below the next."""

    blocks: tuple[FiniteSet, ...]

    def __init__(self, blocks: Iterable[FiniteSet | Iterable[int]]):
        normalized = tuple(
            b if isinstance(b, FiniteSet) else FiniteSet(b) for b in blocks
        )
        if not is_blocking(normalized):
            raise InvalidBlockingError(f"blocks are not successively increasing: {normalized}")
        object.__setattr__(self, "blocks", normalized)

    @classmethod
    def _trusted(cls, blocks: tuple[FiniteSet, ...]) -> "Blocking":
        """Wrap ``blocks`` without re-checking them: the caller guarantees
        FiniteSets that are successively increasing."""
        blocking = object.__new__(cls)
        object.__setattr__(blocking, "blocks", blocks)
        return blocking

    @classmethod
    def singletons(cls, m: int) -> "Blocking":
        return cls([FiniteSet([i]) for i in range(1, m + 1)])

    def __len__(self) -> int:
        return len(self.blocks)

    def __iter__(self) -> Iterator[FiniteSet]:
        return iter(self.blocks)

    def __getitem__(self, i: int) -> FiniteSet:
        return self.blocks[i]

    def encode(self) -> str:
        return "|".join(b.encode() for b in self.blocks)

    @classmethod
    def parse(cls, text: str) -> "Blocking":
        return cls(FiniteSet.parse(chunk) for chunk in text.split("|"))

    def to_doc(self) -> list[list[int]]:
        return [list(b.elements) for b in self.blocks]

    def __repr__(self) -> str:
        return f"Blocking({self.encode()!r})"


@dataclass(frozen=True)
class BlockClasses:
    """Classes of sets that a blocking coloring's colors depend on alone.

    ``of(i, elements)`` is the class id of a set at position ``i`` of a
    blocking, or -1 where that position is never classed; ``color(key)`` is
    the color of every blocking whose blocks have the class ids ``key``.
    The union rule must hold: for A below B, the class of A u B at a
    position is a function of the classes of A and B there.  ``merge``
    memoizes it by (class, class), filled on first use from the concrete
    union, so coarsenings can be colored by class tuple without being
    listed.  ``steps``, when not ``None``, memoizes ``_class_step`` for
    walks that may revisit a path: colorings that share ``of``, ``merged``
    and ``steps`` walk alike and differ only in ``color``.
    """

    of: Callable[[int, tuple[int, ...]], int]
    color: Callable[[tuple[int, ...]], int]
    merged: dict = field(default_factory=lambda: {(-1, -1): -1})
    steps: dict | None = None

    def merge(self, i: int, a: int, b: int, a_elements: tuple[int, ...], b_elements: tuple[int, ...]) -> int:
        """The class at position ``i`` of A u B, A of class ``a`` below B of class ``b``."""
        union = self.merged.get((a, b))
        if union is None:
            union = self.merged[a, b] = self.of(i, a_elements + b_elements)
        return union

    def step(self, k: int, states: Mapping, block: tuple[int, ...], room: int) -> tuple[dict, set[tuple[int, ...]]]:
        """``_class_step`` of these classes, memoized in ``steps`` if there is one.

        The memo is keyed by the identity of ``states``.  That names the
        path exactly: a walk starts from ``_START``, which lives as long as
        the module, and goes on from states the memo returned and holds.
        """
        if self.steps is None:
            return _class_step(self, k, states, block, room)
        key = (id(states), block, k, room)
        found = self.steps.get(key)
        if found is None:
            found = self.steps[key] = _class_step(self, k, states, block, room)
        return found


@dataclass(frozen=True)
class Coloring:
    """Total coloring of finite sets or of length-k blockings in {1..M}.

    ``kind`` is ``"set"`` (domain: nonempty subsets, or k-subsets for the
    Ramsey search) or ``"blocking"`` (domain: length-``arity`` blockings),
    in {1..ground}.  ``fn`` must be deterministic and total on the domain,
    with values in ``range(colors)``: a coloring that cannot be refuses to
    be built (only a table coloring raises on a missing entry).  Each
    search queries it in a fixed order, which the differential tests pin, so a
    coloring built lazily as it is queried still gives reproducible results.
    A blocking coloring may carry ``classes``: the Milliken-Taylor search then
    colors each distinct class tuple of a coarsening family once instead of
    querying ``fn`` on every coarsening.
    """

    kind: str
    colors: int
    ground: int
    fn: Callable
    arity: int | None = None
    name: str = "anonymous"
    classes: BlockClasses | None = None

    def __post_init__(self):
        if self.kind not in ("set", "blocking"):
            raise ValueError(f"unknown coloring kind {self.kind!r}")
        if self.colors < 1 or self.ground < 1:
            raise ValueError("need colors >= 1 and ground >= 1")

    def of_set(self, E: FiniteSet) -> int:
        if self.kind != "set":
            raise ValueError(f"coloring {self.name!r} does not color sets")
        return self.fn(E)

    def of_blocking(self, blocks: Sequence[FiniteSet]) -> int:
        if self.kind != "blocking":
            raise ValueError(f"coloring {self.name!r} does not color blockings")
        return self.fn(tuple(blocks))


@dataclass(frozen=True)
class SearchCertificate(_Report):
    """Outcome of a monochromatic-structure search.

    When ``found``, re-evaluating the coloring on every object generated
    from ``witness`` yields exactly ``color``; the verify_* functions do the
    exhaustive re-check.  ``nodes_explored`` counts extension attempts of the
    backtracking search, so a ``found=False`` answer is visibly the result of
    a completed finite search rather than silence.
    """

    found: bool
    witness: Blocking | FiniteSet | None
    color: int | None
    nodes_explored: int


# ---------------------------------------------------------------------------
# Blocking operations
# ---------------------------------------------------------------------------


def is_blocking(blocks: Sequence[FiniteSet]) -> bool:
    """True iff consecutive blocks satisfy max(E_i) < min(E_{i+1})."""
    return all(a.max() < b.min() for a, b in zip(blocks, blocks[1:]))


def is_coarser(F: Blocking, E: Blocking) -> bool:
    """True iff every block of F is a union of blocks of E."""
    for f in F:
        covered: set[int] = set()
        for e in E:
            if set(e.elements) & set(f.elements):
                covered |= set(e.elements)
        if covered != set(f.elements):
            return False
    return True


# Arity tuples of at most this many entries come from tables built once and
# kept for the life of the process; larger ones are enumerated lazily.
_TABLE_LIMIT = 1 << 15


def _subsets_from(lo: int, n: int) -> Iterator[tuple[int, ...]]:
    """Nonempty subsets of {lo..n} in lexicographic order of sorted tuples, lazily.

    The next subset extends the current one by its last element plus one,
    or, when that element is n, drops it and advances the one before.
    """
    if lo > n:
        return
    subset = [lo]
    while True:
        yield tuple(subset)
        if subset[-1] < n:
            subset.append(subset[-1] + 1)
        else:
            subset.pop()
            if not subset:
                return
            subset[-1] += 1


class _Unions(dict):
    """Union of P's blocks at sorted 1-based indices, built once per index tuple."""

    def __init__(self, P: Blocking):
        super().__init__()
        self.parts = [b.elements for b in P.blocks]

    def __missing__(self, indices: tuple[int, ...]) -> FiniteSet:
        merged: tuple[int, ...] = ()
        for i in indices:
            merged += self.parts[i - 1]
        # P's blocks are successively increasing, so merged is sorted
        fs = self[indices] = FiniteSet._trusted(merged)
        return fs


def coarsen_by_indices(P: Blocking, index_sets: Sequence[Sequence[int]]) -> Blocking:
    """Blocking whose j-th block is the union of P's blocks at the j-th index set.

    Index sets are 1-based into P's block list and must be successively
    increasing, which is exactly the condition for the result to be a
    blocking coarser than P.
    """
    blocks = []
    for indices in index_sets:
        merged: tuple[int, ...] = ()
        for i in indices:
            if i < 1 or i > len(P):
                raise InvalidBlockingError(f"block index {i} outside 1..{len(P)}")
            merged += P[i - 1].elements
        blocks.append(FiniteSet(merged))
    return Blocking(blocks)


def _index_tuples(n: int, k: int, lo: int = 1) -> Iterator[tuple[tuple[int, ...], ...]]:
    """k successively increasing nonempty subsets of {lo..n}, in lexicographic order.

    Each set is drawn from {lo..n - k + 1}, which leaves room above it for
    the k - 1 sets still to come.
    """
    for subset in _subsets_from(lo, n - k + 1):
        head = (subset,)
        if k == 1:
            yield head
        else:
            for rest in _index_tuples(n, k - 1, subset[-1] + 1):
                yield head + rest


def coarsenings(P: Blocking, k: int) -> list[Blocking]:
    """All length-k blockings coarser than P, in lexicographic order.

    A coarsening is determined by k successively increasing nonempty sets of
    block indices; indices may be skipped and merged sets may skip over
    unused blocks.  The order is lexicographic on the sequence of sorted
    index sets, which makes golden tests stable.  k = 0 or k > len(P) gives
    the empty list.
    """
    if k < 1:
        return []
    union_at = _Unions(P).__getitem__
    return [Blocking._trusted(tuple(map(union_at, sets))) for sets in _index_tuples(len(P), k)]


def finite_unions(Q: Blocking) -> list[FiniteSet]:
    """All unions of nonempty subsets of Q's blocks (2^len - 1 sets)."""
    unions = _Unions(Q)
    return [unions[indices] for indices in _subsets_from(1, len(Q))]


def diagonal(nested: Sequence[Blocking]) -> Blocking:
    """Blocking whose m-th block is the m-th block of ``nested[m]`` (1-based).

    Requires each blocking to be coarser than its predecessor and long
    enough to supply its diagonal block; the assembled diagonal must itself
    be a valid blocking.
    """
    if not nested:
        raise InvalidBlockingError("diagonal of an empty list")
    for m in range(len(nested) - 1):
        if not is_coarser(nested[m + 1], nested[m]):
            raise InvalidBlockingError(f"nested[{m + 1}] is not coarser than nested[{m}]")
    blocks = []
    for m, blocking in enumerate(nested, start=1):
        if len(blocking) < m:
            raise InvalidBlockingError(f"nested[{m}] has fewer than {m} blocks")
        blocks.append(blocking[m - 1])
    if not is_blocking(blocks):
        raise InvalidBlockingError("diagonal blocks are not successively increasing")
    return Blocking(blocks)


# ---------------------------------------------------------------------------
# Searches
# ---------------------------------------------------------------------------


def _search(
    n: int,
    L: int,
    candidates: Callable[[int, int], Iterable[tuple[int, ...]]],
    colors: Callable[[tuple[tuple[int, ...], ...]], Iterable[int]],
    witness: Callable[[tuple[tuple[int, ...], ...]], Blocking | FiniteSet],
) -> SearchCertificate:
    """Depth-first search for L successively increasing sets in {1..n}.

    ``candidates(lo, hi)`` gives the sets that may come next, inside
    {lo..hi}, in the order they are tried; ``hi`` leaves room above for the
    sets still to come.  ``colors(chosen)`` yields, in query order, the
    colors of the objects completed by the last set of ``chosen``; a branch is
    pruned at the first color unlike the first color on its path.  Calls come
    in depth-first order, so ``colors`` may keep state for the current path,
    cut back to the depth of ``chosen`` on each call.  The first path of
    length L is ``witness(chosen)``.
    """
    nodes = 0

    def extend(chosen: tuple[tuple[int, ...], ...], target: int | None, lo: int) -> SearchCertificate | None:
        nonlocal nodes
        if len(chosen) == L:
            return SearchCertificate(True, witness(chosen), target, nodes)
        # sets above max(subset) must still host the remaining sets
        for subset in candidates(lo, n - (L - len(chosen) - 1)):
            nodes += 1
            extended = chosen + (subset,)
            new_target = target
            for c in colors(extended):
                if new_target is None:
                    new_target = c
                elif c != new_target:
                    break
            else:
                if (cert := extend(extended, new_target, subset[-1] + 1)) is not None:
                    return cert
        return None

    cert = extend((), None, 1)
    # deleting extend breaks its closure's cycle, freeing memos and coloring caches now
    del extend
    return cert if cert is not None else SearchCertificate(False, None, None, nodes)


def ramsey_search(coloring: Coloring, k: int, L: int) -> SearchCertificate:
    """Exhaustive search for an L-subset of {1..M} monochromatic on k-subsets.

    Depth-first over increasing element choices, pruning as soon as a newly
    completed k-subset disagrees with the established color.  Complete
    within the coloring's ground set: found=False means no witness exists
    there.
    """
    if coloring.kind != "set":
        raise ValueError("ramsey_search needs a set coloring")
    if L < k or k < 1:
        raise ValueError(f"need 1 <= k <= L, got k={k}, L={L}")
    M = coloring.ground

    def colors(chosen: tuple[tuple[int, ...], ...]) -> Iterator[int]:
        # the k-subsets completed by the new element, in combinations order
        for prefix in combinations([e for (e,) in chosen[:-1]], k - 1):
            yield coloring.of_set(FiniteSet(prefix + chosen[-1]))

    return _search(
        M, L, lambda lo, hi: ((e,) for e in range(lo, hi + 1)), colors,
        lambda chosen: FiniteSet(e for (e,) in chosen),
    )


def hindman_search(coloring: Coloring, M: int, L: int) -> SearchCertificate:
    """Search for a length-L blocking in {1..M} with monochromatic finite unions.

    Blocks are chosen in lexicographic order (as sorted element tuples);
    when a block is appended, every union involving it is checked against
    the color established by the very first union, and the branch is pruned
    on the first mismatch.
    """
    if coloring.kind != "set":
        raise ValueError("hindman_search needs a set coloring")
    if L < 1:
        raise ValueError("need L >= 1")
    # unions of the current path's blocks in creation order: the j-th block
    # adds itself and its union with each earlier union, so the first j - 1
    # blocks own the first 2^(j-1) - 1 entries
    unions: list[FiniteSet] = []

    def colors(chosen: tuple[tuple[int, ...], ...]) -> Iterator[int]:
        del unions[(1 << (len(chosen) - 1)) - 1 :]
        earlier = len(unions)
        block = FiniteSet._trusted(chosen[-1])
        unions.append(block)
        yield coloring.of_set(block)
        for i in range(earlier):
            unions.append(unions[i].union(block))
            yield coloring.of_set(unions[-1])

    return _search(M, L, _subsets_from, colors, Blocking)


def _arity_tuples_with_last(j: int, k: int) -> Iterator[tuple[tuple[int, ...], ...]]:
    """All k-tuples of index sets over {1..j} whose last set contains j.

    Index sets are successively increasing; these are exactly the length-k
    coarsenings of a j-block prefix that involve block j.
    """
    return (index_sets for index_sets in _index_tuples(j, k) if index_sets[-1][-1] == j)


@lru_cache(maxsize=None)
def _arity_table(j: int, k: int) -> tuple[tuple[tuple[int, ...], ...], ...]:
    return tuple(_arity_tuples_with_last(j, k))


def _arity_tuples(j: int, k: int) -> Iterable[tuple[tuple[int, ...], ...]]:
    """``_arity_tuples_with_last(j, k)``, from a table built once per (j, k)."""
    # a used set U of the j - 1 lower indices, split into k - 1 sets and the
    # start of the last one: C(j-1, k-1) 2^(j-k) tuples
    if comb(j - 1, k - 1) << (j - k) > _TABLE_LIMIT:
        return _arity_tuples_with_last(j, k)
    return _arity_table(j, k)


# the states before the first block: no set started
_START: Mapping = MappingProxyType({(): ()})


def _class_step(
    classes: BlockClasses, k: int, states: Mapping, block: tuple[int, ...], room: int
) -> tuple[dict, set[tuple[int, ...]]]:
    """Extend the class tuples of length-k coarsenings by one more block.

    A state is the tuple of class ids of the sets started so far, the last
    one still open, and maps to the elements of the open set that first
    reached it.  ``block`` is skipped, joins the open set, or starts the next
    set.  A state completes only if the ``room`` blocks still to come can
    start its missing sets; no set is classed for one that cannot, as no
    coarsening colors it.  Returns the new states and the class tuples of
    the coarsenings whose last set gained ``block``.
    """
    following: dict = {}
    finals: set[tuple[int, ...]] = set()
    for started, elements in states.items():
        s = len(started)
        if k - s <= room:
            following.setdefault(started, elements)
            if s:
                i = s - 1  # the open set's position
                joined = started[:i] + (classes.merge(i, started[i], classes.of(i, block), elements, block),)
                following.setdefault(joined, elements + block)
                if s == k:
                    finals.add(joined)
        if s < k and k - s - 1 <= room:
            begun = started + (classes.of(s, block),)
            following.setdefault(begun, block)
            if s + 1 == k:
                finals.add(begun)
    return following, finals


def _coarsening_colors(coloring: Coloring, P: Blocking, k: int) -> set[int]:
    """The colors of the length-k coarsenings of P, for a coloring with ``classes``.

    P must lie in the ground set; its blocks walk through ``_class_step``
    and each distinct class tuple is colored once.
    """
    _check_ground(coloring, P)
    states: Mapping = _START
    keys: set[tuple[int, ...]] = set()
    for room, block in zip(range(len(P) - 1, -1, -1), P):
        states, finals = _class_step(coloring.classes, k, states, block.elements, room)
        keys |= finals
    return {coloring.classes.color(key) for key in keys}


def _check_arity(coloring: Coloring, k: int) -> None:
    if coloring.arity is not None and coloring.arity != k:
        raise ValueError(
            f"coloring {coloring.name!r} has arity {coloring.arity}, "
            f"but the search colors length-{k} blockings"
        )


def _check_ground(coloring: Coloring, P: Blocking) -> None:
    if len(P) and P[-1].max() > coloring.ground:
        raise ValueError(f"P reaches index {P[-1].max()}, past the ground set {{1..{coloring.ground}}}")


def milliken_taylor_search(coloring: Coloring, P: Blocking, k: int, L: int) -> SearchCertificate:
    """Search for Q coarser than P, length L, with coloring constant on <Q>^k.

    The witness is assembled block by block as successively increasing sets
    of P-block indices; each time a block is added, every length-k
    coarsening of the partial witness that uses the new block is recolored,
    and the branch is pruned on the first mismatch.  With k = 1 and P the
    singleton blocking this finds the Hindman search's certificate when the
    coloring is a pure function; it queries unions in lexicographic order of
    their index sets, where the Hindman search goes in creation order.

    P must lie in the coloring's ground set.  A coloring with ``classes`` is
    colored once per distinct class tuple of the new coarsenings, found by
    ``classes.step`` from the states of the path above.  The node outcome
    does not depend on query order: at depth k the one coarsening sets the
    color, deeper every color must equal it.  So the certificate is the one
    the enumeration gives.
    """
    if coloring.kind != "blocking":
        raise ValueError("milliken_taylor_search needs a blocking coloring")
    if L < k or k < 1:
        raise ValueError(f"need 1 <= k <= L, got k={k}, L={L}")
    _check_arity(coloring, k)
    _check_ground(coloring, P)
    n = len(P)
    unions = _Unions(P)
    classes = coloring.classes
    # class-tuple states after each block of the current path
    path = [_START]

    def colors(chosen: tuple[tuple[int, ...], ...]) -> Iterator[int]:
        if classes is not None:
            del path[len(chosen) :]
            states, finals = classes.step(k, path[-1], unions[chosen[-1]].elements, L - len(chosen))
            path.append(states)
            yield from {classes.color(key) for key in finals}
            return
        if len(chosen) < k:
            return
        for meta in _arity_tuples(len(chosen), k):
            # meta indexes into chosen; expand twice
            blocks = []
            for meta_set in meta:
                merged: tuple[int, ...] = ()
                for mi in meta_set:
                    merged += chosen[mi - 1]
                blocks.append(unions[merged])
            yield coloring.of_blocking(blocks)

    return _search(
        n, L, _subsets_from, colors,
        lambda chosen: Blocking._trusted(tuple(unions[s] for s in chosen)),
    )


# ---------------------------------------------------------------------------
# Certificate verification (exhaustive, search-independent)
# ---------------------------------------------------------------------------


def verify_ramsey_certificate(coloring: Coloring, k: int, cert: SearchCertificate) -> bool:
    if not cert.found or not isinstance(cert.witness, FiniteSet):
        return False
    return all(
        coloring.of_set(FiniteSet(subset)) == cert.color
        for subset in combinations(cert.witness.elements, k)
    )


def verify_hindman_certificate(coloring: Coloring, cert: SearchCertificate) -> bool:
    if not cert.found or not isinstance(cert.witness, Blocking):
        return False
    return all(coloring.of_set(u) == cert.color for u in finite_unions(cert.witness))


def verify_milliken_taylor_certificate(coloring: Coloring, k: int, cert: SearchCertificate) -> bool:
    _check_arity(coloring, k)
    if not cert.found or not isinstance(cert.witness, Blocking):
        return False
    return all(
        coloring.of_blocking(list(F)) == cert.color for F in coarsenings(cert.witness, k)
    )


# ---------------------------------------------------------------------------
# Built-in colorings and table files
# ---------------------------------------------------------------------------


def min_parity_coloring(ground: int) -> Coloring:
    return Coloring(
        kind="set", colors=2, ground=ground, fn=lambda E: E.min() % 2, name="min-parity"
    )


def size_parity_coloring(ground: int) -> Coloring:
    return Coloring(
        kind="set", colors=2, ground=ground, fn=lambda E: len(E) % 2, name="size-parity"
    )


def constant_coloring(ground: int, value: int = 0, kind: str = "set", arity: int | None = None) -> Coloring:
    _check_at_least("constant color", value, 0)
    fn = (lambda E: value) if kind == "set" else (lambda blocks: value)
    return Coloring(
        kind=kind, colors=value + 1, ground=ground, fn=fn, arity=arity, name="constant"
    )


def table_coloring(
    table: dict[str, int], kind: str, ground: int, colors: int | None = None, arity: int | None = None
) -> Coloring:
    """Coloring backed by canonical-encoding lookup; raises on missing keys."""

    def fn(obj) -> int:
        key = (obj if kind == "set" else Blocking(obj)).encode()
        if key not in table:
            raise KeyError(f"coloring table has no entry for {kind} {key}")
        return table[key]

    r = colors if colors is not None else max(table.values(), default=0) + 1
    return Coloring(
        kind=kind,
        colors=max(r, 1),
        ground=ground,
        fn=fn,
        arity=arity,
        name="table",
    )


def load_coloring_table(path: str, kind: str, ground: int, arity: int | None = None) -> Coloring:
    """Read ``<encoding> <color>`` lines; '#' starts a comment."""
    table: dict[str, int] = {}
    with open(path, "r", encoding="utf-8") as handle:
        for line in handle:
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            encoding, _, color = line.rpartition(" ")
            if not encoding:
                raise ValueError(f"bad coloring table line {line!r}")
            table[encoding.strip()] = int(color)
    return table_coloring(table, kind=kind, ground=ground, arity=arity)


def coloring_table_lines(objects: Iterable[FiniteSet | Blocking], coloring: Coloring) -> list[str]:
    lines = []
    for obj in objects:
        if isinstance(obj, Blocking):
            lines.append(f"{obj.encode()} {coloring.of_blocking(list(obj))}")
        else:
            lines.append(f"{obj.encode()} {coloring.of_set(obj)}")
    return lines
