"""Blockings of naturals and finite monochromatic-structure searches.

A *blocking* is a finite list of finite sets of positive integers in which
each set lies entirely below the next.  A blocking F is *coarser* than E
when every block of F is a union of (not necessarily consecutive) blocks of
E; F need not use all of E's blocks.  Under this reading the length-1
coarsenings of the singleton blocking of {1..M} are exactly the nonempty
subsets of {1..M}, which is what makes the Hindman search the arity-1 case
of the Milliken-Taylor search.

The searches are depth-first backtracking over a finite ground set with
incremental certificate checking: a partial witness is abandoned the moment
one generated object gets the wrong color.  ``found=False`` is an ordinary
outcome (the ground set may simply be too small) and is always reported
together with the number of explored nodes.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations
from math import comb
from typing import Callable, Iterable, Iterator, Sequence

__all__ = [
    "FiniteSet",
    "Blocking",
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
class Coloring:
    """Total coloring of finite sets or of length-k blockings in {1..M}.

    ``kind`` is ``"set"`` (domain: nonempty subsets, or k-subsets for the
    Ramsey search) or ``"blocking"`` (domain: length-``arity`` blockings).
    ``fn`` must be deterministic and total on the relevant domain.
    """

    kind: str
    colors: int
    ground: int
    fn: Callable
    arity: int | None = None
    name: str = "anonymous"

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
class SearchCertificate:
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

    def to_doc(self) -> dict:
        witness_doc: list | None = None
        if isinstance(self.witness, Blocking):
            witness_doc = self.witness.to_doc()
        elif isinstance(self.witness, FiniteSet):
            witness_doc = list(self.witness.elements)
        return {
            "found": self.found,
            "witness": witness_doc,
            "color": self.color,
            "nodes_explored": self.nodes_explored,
        }


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


def _subsets_lex(elements: Sequence[int]) -> Iterator[tuple[int, ...]]:
    """Nonempty subsets of ``elements`` in lexicographic order of sorted tuples."""
    for i, first in enumerate(elements):
        yield (first,)
        for rest in _subsets_lex(elements[i + 1 :]):
            yield (first,) + rest


# Enumeration tables with at most this many entries are built once and kept
# for the life of the process; larger ones are enumerated lazily, because a
# search that succeeds early may consume only a few of their entries.
_TABLE_LIMIT = 1 << 15


@lru_cache(maxsize=None)
def _subset_table(n: int) -> tuple[tuple[int, ...], ...]:
    """Nonempty subsets of {1..n} in lexicographic order.

    The subsets of {lo..n} are exactly its last 2^(n-lo+1) - 1 entries, in
    the same order, so one table serves every ``lo``.
    """
    return tuple(_subsets_lex(range(1, n + 1)))


def _subsets_from(lo: int, n: int) -> Iterable[tuple[int, ...]]:
    """Nonempty subsets of {lo..n} in lexicographic order of sorted tuples."""
    if lo > n:
        return ()
    if (1 << n) > _TABLE_LIMIT:
        return _subsets_lex(range(lo, n + 1))
    table = _subset_table(n)
    return table[len(table) + 1 - (1 << (n - lo + 1)) :]


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


def coarsenings(P: Blocking, k: int) -> list[Blocking]:
    """All length-k blockings coarser than P, in lexicographic order.

    A coarsening is determined by k successively increasing nonempty sets of
    block indices; indices may be skipped and merged sets may skip over
    unused blocks.  The order is lexicographic on the sequence of sorted
    index sets, which makes golden tests stable.  k = 0 or k > len(P) gives
    the empty list.
    """
    n = len(P)
    if k < 1 or k > n:
        return []
    unions = _Unions(P)
    results: list[Blocking] = []

    def extend(chosen: tuple[FiniteSet, ...], lo: int) -> None:
        remaining = k - len(chosen)
        for subset in _subsets_from(lo, n):
            # blocks above max(subset) must still host the remaining sets
            if n - subset[-1] >= remaining - 1:
                blocks = chosen + (unions[subset],)
                if remaining == 1:
                    results.append(Blocking._trusted(blocks))
                else:
                    extend(blocks, subset[-1] + 1)

    extend((), 1)
    # extend reaches itself through its closure; deleting the name breaks
    # that cycle, so the memo is freed now rather than by the cycle collector
    del extend
    return results


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
    nodes = 0

    def color_of(subset: tuple[int, ...]) -> int:
        return coloring.of_set(FiniteSet(subset))

    best: list[SearchCertificate] = []

    def extend(chosen: tuple[int, ...], target: int | None) -> bool:
        nonlocal nodes
        if len(chosen) == L:
            best.append(
                SearchCertificate(True, FiniteSet(chosen), target, nodes)
            )
            return True
        lo = chosen[-1] + 1 if chosen else 1
        for candidate in range(lo, M + 1):
            if M - candidate < L - len(chosen) - 1:
                break
            nodes += 1
            extended = chosen + (candidate,)
            new_target = target
            ok = True
            if len(extended) >= k:
                for prefix in combinations(extended[:-1], k - 1):
                    c = color_of(tuple(sorted(prefix + (candidate,))))
                    if new_target is None:
                        new_target = c
                    elif c != new_target:
                        ok = False
                        break
            if ok and extend(extended, new_target):
                return True
        return False

    if extend((), None):
        return best[0]
    return SearchCertificate(False, None, None, nodes)


def _unions_with(block: FiniteSet, earlier_unions: Sequence[FiniteSet]) -> Iterator[FiniteSet]:
    """The new finite unions created by appending ``block``."""
    yield block
    for u in earlier_unions:
        yield u.union(block)


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
    nodes = 0
    best: list[SearchCertificate] = []

    def extend(chosen: list[FiniteSet], unions: list[FiniteSet], target: int | None, lo: int) -> bool:
        nonlocal nodes
        if len(chosen) == L:
            best.append(SearchCertificate(True, Blocking(chosen), target, nodes))
            return True
        for subset in _subsets_from(lo, M):
            if M - subset[-1] < L - len(chosen) - 1:
                continue
            nodes += 1
            block = FiniteSet._trusted(subset)
            new_target = target
            new_unions = []
            ok = True
            for u in _unions_with(block, unions):
                c = coloring.of_set(u)
                if new_target is None:
                    new_target = c
                elif c != new_target:
                    ok = False
                    break
                new_unions.append(u)
            if ok and extend(chosen + [block], unions + new_unions, new_target, subset[-1] + 1):
                return True
        return False

    if extend([], [], None, 1):
        return best[0]
    return SearchCertificate(False, None, None, nodes)


def _arity_tuples_with_last(j: int, k: int) -> Iterator[tuple[tuple[int, ...], ...]]:
    """All k-tuples of index sets over {1..j} whose last set contains j.

    Index sets are successively increasing; these are exactly the length-k
    coarsenings of a j-block prefix that involve block j.
    """
    def extend(chosen: tuple[tuple[int, ...], ...], lo: int) -> Iterator[tuple[tuple[int, ...], ...]]:
        if len(chosen) == k - 1:
            for last in _subsets_from(lo, j):
                if last[-1] == j:
                    yield chosen + (last,)
            return
        for subset in _subsets_from(lo, j):
            if subset[-1] < j:
                yield from extend(chosen + (subset,), subset[-1] + 1)

    yield from extend((), 1)


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


def _check_arity(coloring: Coloring, k: int) -> None:
    if coloring.arity is not None and coloring.arity != k:
        raise ValueError(
            f"coloring {coloring.name!r} has arity {coloring.arity}, "
            f"but the search colors length-{k} blockings"
        )


def milliken_taylor_search(coloring: Coloring, P: Blocking, k: int, L: int) -> SearchCertificate:
    """Search for Q coarser than P, length L, with coloring constant on <Q>^k.

    The witness is assembled block by block as successively increasing sets
    of P-block indices; each time a block is added, every length-k
    coarsening of the partial witness that uses the new block is recolored,
    and the branch is pruned on the first mismatch.  With k = 1 and P the
    singleton blocking this reduces exactly to the Hindman search.
    """
    if coloring.kind != "blocking":
        raise ValueError("milliken_taylor_search needs a blocking coloring")
    if L < k or k < 1:
        raise ValueError(f"need 1 <= k <= L, got k={k}, L={L}")
    _check_arity(coloring, k)
    n = len(P)
    unions = _Unions(P)
    nodes = 0
    best: list[SearchCertificate] = []

    def extend(chosen: list[tuple[int, ...]], target: int | None, lo: int) -> bool:
        nonlocal nodes
        if len(chosen) == L:
            witness = Blocking._trusted(tuple(unions[s] for s in chosen))
            best.append(SearchCertificate(True, witness, target, nodes))
            return True
        for subset in _subsets_from(lo, n):
            if n - subset[-1] < L - len(chosen) - 1:
                continue
            nodes += 1
            candidate = chosen + [subset]
            j = len(candidate)
            new_target = target
            ok = True
            if j >= k:
                for meta in _arity_tuples(j, k):
                    # meta indexes into the candidate prefix; expand twice
                    blocks = []
                    for meta_set in meta:
                        merged: tuple[int, ...] = ()
                        for mi in meta_set:
                            merged += candidate[mi - 1]
                        blocks.append(unions[merged])
                    c = coloring.of_blocking(blocks)
                    if new_target is None:
                        new_target = c
                    elif c != new_target:
                        ok = False
                        break
            if ok and extend(candidate, new_target, subset[-1] + 1):
                return True
        return False

    found = extend([], None, 1)
    # as in coarsenings: free the memo and the coloring's caches now
    del extend
    return best[0] if found else SearchCertificate(False, None, None, nodes)


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
    fn = (lambda E: value) if kind == "set" else (lambda blocks: value)
    return Coloring(
        kind=kind, colors=max(value + 1, 1), ground=ground, fn=fn, arity=arity, name="constant"
    )


def table_coloring(
    table: dict[str, int], kind: str, ground: int, colors: int | None = None, arity: int | None = None
) -> Coloring:
    """Coloring backed by canonical-encoding lookup; raises on missing keys."""

    def fn_set(E: FiniteSet) -> int:
        key = E.encode()
        if key not in table:
            raise KeyError(f"coloring table has no entry for set {key}")
        return table[key]

    def fn_blocking(blocks: tuple[FiniteSet, ...]) -> int:
        key = Blocking(blocks).encode()
        if key not in table:
            raise KeyError(f"coloring table has no entry for blocking {key}")
        return table[key]

    r = colors if colors is not None else max(table.values(), default=0) + 1
    return Coloring(
        kind=kind,
        colors=max(r, 1),
        ground=ground,
        fn=fn_set if kind == "set" else fn_blocking,
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
