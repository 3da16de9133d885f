"""Seeded randomness with bit-exact replay.

All randomized procedures in this package draw from :class:`SeededRNG`.
The generator is Mersenne Twister via ``random.Random.getrandbits`` (the one
primitive CPython guarantees stable across versions); every distribution on
top of it (ranges, sampling) is implemented here so that a recorded
seed replays the exact same stream anywhere.
"""

from __future__ import annotations

import hashlib
import random
from typing import Callable, Iterable, Sequence


class SeededRNG:
    """Deterministic RNG; same seed, same call sequence, same outputs."""

    def __init__(self, seed: int):
        self.seed = int(seed)
        self._mt = random.Random(self.seed)

    def bits(self, k: int) -> int:
        return self._mt.getrandbits(k)

    def randrange(self, n: int) -> int:
        """Uniform integer in [0, n), by rejection from the next power of two."""
        if n <= 0:
            raise ValueError("randrange needs n >= 1")
        k = (n - 1).bit_length() or 1
        while True:
            x = self._mt.getrandbits(k)
            if x < n:
                return x

    def randint(self, lo: int, hi: int) -> int:
        """Uniform integer in [lo, hi], inclusive."""
        return lo + self.randrange(hi - lo + 1)

    def coin(self) -> int:
        return self._mt.getrandbits(1)

    def chance(self, num: int, den: int) -> bool:
        """True with probability num/den."""
        return self.randrange(den) < num

    def sample(self, population: Sequence[int] | int, k: int) -> list:
        """k distinct elements, as a partial Fisher-Yates; order randomized."""
        pool = list(range(population)) if isinstance(population, int) else list(population)
        size = len(pool)
        if k > size:
            raise ValueError("sample larger than population")
        getrandbits = self._mt.getrandbits
        for i in range(k):
            # randrange(size - i), inlined: the same draws, so the same stream
            span = size - i
            width = (span - 1).bit_length() or 1
            x = getrandbits(width)
            while x >= span:
                x = getrandbits(width)
            j = i + x
            pool[i], pool[j] = pool[j], pool[i]
        return pool[:k]

    def sorted_sample(self, population: Sequence[int] | int, k: int) -> tuple[int, ...]:
        return tuple(sorted(self.sample(population, k)))

    def subseed(self, *tags: int | str) -> int:
        """Derived seed for an independent child stream, stable in the tags."""
        h = hashlib.blake2b(digest_size=8)
        h.update(str(self.seed).encode())
        for t in tags:
            h.update(b"/")
            h.update(str(t).encode())
        return int.from_bytes(h.digest(), "big")

    def spawn(self, *tags: int | str) -> "SeededRNG":
        return SeededRNG(self.subseed(*tags))


def keyed_coloring(seed: int, palette: int = 2) -> Callable[[Iterable[int]], int]:
    """Deterministic pseudo-random coloring of integer tuples.

    The color of a tuple is a pure function of (seed, tuple), so colorings over
    vertex ranges far too large to tabulate can still be queried consistently.
    """
    key = (seed & 0xFFFFFFFFFFFFFFFF).to_bytes(8, "big")

    def color(t: Iterable[int]) -> int:
        h = hashlib.blake2b(key=key, digest_size=8)
        h.update(",".join(str(x) for x in t).encode())
        return int.from_bytes(h.digest(), "big") % palette

    return color
