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
from itertools import repeat
from typing import Callable, Iterable, Iterator, Sequence

from .errors import at_least


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

    def randranges(self, n: int, count: int) -> list[int]:
        """The draws of ``count`` calls of ``randrange(n)``, in order.

        Every ``getrandbits`` call takes its own words of the stream, so the
        draws are made in bulk and the rejected ones refilled; a refill asks
        for no more draws than are still missing, so none is left over.
        """
        if n <= 0:
            raise ValueError("randrange needs n >= 1")
        if count < 0:
            raise ValueError("randranges needs count >= 0")
        width = (n - 1).bit_length() or 1
        getrandbits = self._mt.getrandbits
        out: list[int] = []
        while len(out) < count:
            out += [x for x in map(getrandbits, repeat(width, count - len(out))) if x < n]
        return out

    def randint(self, lo: int, hi: int) -> int:
        """Uniform integer in [lo, hi], inclusive."""
        return lo + self.randrange(hi - lo + 1)

    def coin(self) -> int:
        return self._mt.getrandbits(1)

    def sample(self, population: Sequence[int] | int, k: int) -> list:
        """k distinct elements, as a partial Fisher-Yates; order randomized.

        Step i swaps position i with i + randrange(size - i). It is one draw
        of the step loop that ``sorted_samples`` runs, left unsorted.
        """
        if k < 0:
            raise ValueError("sample size must be nonnegative")
        whole = isinstance(population, int)
        if k > (population if whole else len(population)):
            raise ValueError("sample larger than population")
        pool = list(range(population)) if whole else list(population)
        return next(self._draws(pool, k, 1, False))

    def sorted_sample(self, population: Sequence[int] | int, k: int) -> tuple[int, ...]:
        return tuple(sorted(self.sample(population, k)))

    def sorted_samples(self, n: int, k: int, count: int) -> Iterator[tuple[int, ...]]:
        """The subsets ``count`` calls of ``sorted_sample(n, k)`` would draw.

        The arguments are checked at the call, before any draw. The steps
        and the ``list(range(n))`` each draw copies are built once per
        stream, and the draws are made lazily, one per subset taken: a draw
        made on this generator between two subsets lands in the stream where
        it lands between two ``sorted_sample`` calls.
        """
        if k < 0:
            raise ValueError("sample size must be nonnegative")
        if k > n:
            raise ValueError("sample larger than population")
        if count < 0:
            raise ValueError("sorted_samples needs count >= 0")
        return self._draws(list(range(n)), k, count, True)

    def _draws(self, template: list, k: int, count: int, ordered: bool) -> Iterator:
        """``count`` partial Fisher-Yates draws of k elements of a copy of
        ``template``: the k-prefix, sorted into a tuple when ``ordered``."""
        size = len(template)
        steps = [(i, size - i, (size - i - 1).bit_length() or 1) for i in range(k)]
        getrandbits = self._mt.getrandbits
        for _ in repeat(None, count):
            pool = template.copy()
            for i, span, width in steps:
                # randrange(span), inlined: the same draws, so the same stream
                x = getrandbits(width)
                while x >= span:
                    x = getrandbits(width)
                j = i + x
                pool[i], pool[j] = pool[j], pool[i]
            del pool[k:]
            if ordered:
                pool.sort()
                pool = tuple(pool)
            yield pool

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
    The key is the elements' ``str`` forms joined by commas, one format per length.
    """
    at_least(1, palette=palette)
    keyed = hashlib.blake2b(key=(seed & 0xFFFFFFFFFFFFFFFF).to_bytes(8, "big"), digest_size=8)
    formats: dict[int, str] = {}

    def color(t: Iterable[int]) -> int:
        t = tuple(t)
        fmt = formats.get(len(t))
        if fmt is None:
            fmt = formats[len(t)] = ",".join(["%s"] * len(t))
        h = keyed.copy()  # the keyed state, set up once per coloring
        h.update((fmt % t).encode())
        return int.from_bytes(h.digest(), "big") % palette

    return color
