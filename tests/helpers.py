"""Helpers shared by the test modules."""

from __future__ import annotations

from typing import Iterator

from ordersize.core import unrank_combination


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
