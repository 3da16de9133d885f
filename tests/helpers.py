"""Helpers shared by the test modules."""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from itertools import combinations
from typing import Iterable, Iterator

from ordersize.core import unrank_combination, vertex_set


def iter_combinations_from(rank: int, count: int, n: int, k: int) -> Iterator[tuple[int, ...]]:
    """Yield ``count`` consecutive lexicographic k-combinations starting at rank."""
    if count <= 0:
        return
    cur = list(unrank_combination(rank, n, k))
    yield tuple(cur)
    for _ in range(count - 1):
        # lexicographic successor
        i = k - 1
        while i >= 0 and cur[i] == n - k + i:
            i -= 1
        if i < 0:
            return
        cur[i] += 1
        for j in range(i + 1, k):
            cur[j] = cur[j - 1] + 1
        yield tuple(cur)


@dataclass(frozen=True)
class FrozensetOrderedGraph:
    """The ordered graph as it was stored before rows: a frozenset of pairs.

    Kept as the oracle of ``ordersize.core.OrderedGraph``; every method is the
    pair-set version, with ``adj`` derived from the pairs.
    """

    n: int
    edges: frozenset[tuple[int, int]]

    def __init__(self, n: int, edges: Iterable[Iterable[int]] = ()):
        canon = set()
        for e in edges:
            a, b = sorted(int(v) for v in e)
            if a == b:
                raise ValueError("self-loops are not allowed")
            if a < 0 or b >= n:
                raise ValueError(f"edge ({a}, {b}) out of range [0, {n})")
            canon.add((a, b))
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "edges", frozenset(canon))

    @cached_property
    def adj(self) -> tuple[int, ...]:
        rows = [0] * self.n
        for a, b in self.edges:
            rows[a] |= 1 << b
            rows[b] |= 1 << a
        return tuple(rows)

    def has_edge(self, a: int, b: int) -> bool:
        if a == b:
            return False
        return (min(a, b), max(a, b)) in self.edges

    def complement(self) -> "FrozensetOrderedGraph":
        return FrozensetOrderedGraph(
            self.n,
            (p for p in combinations(range(self.n), 2) if p not in self.edges),
        )

    def induced(self, subset: Iterable[int]) -> "FrozensetOrderedGraph":
        s = vertex_set(subset, self.n)
        relabel = {v: i for i, v in enumerate(s)}
        kept = [
            (relabel[a], relabel[b])
            for a, b in self.edges
            if a in relabel and b in relabel
        ]
        return FrozensetOrderedGraph(len(s), kept)

    def is_clique(self, subset: Iterable[int]) -> bool:
        s = vertex_set(subset, self.n)
        return all(self.has_edge(a, b) for a, b in combinations(s, 2))

    def is_independent(self, subset: Iterable[int]) -> bool:
        s = vertex_set(subset, self.n)
        return all(not self.has_edge(a, b) for a, b in combinations(s, 2))

    def to_json_obj(self) -> dict:
        return {"n": self.n, "edges": sorted([list(e) for e in self.edges])}
