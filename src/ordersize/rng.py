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
from typing import Callable, Iterable, Sequence


class SeededRNG:
    """Deterministic RNG; same seed, same call sequence, same outputs."""

    def __init__(self, seed: int):
        self.seed = int(seed)
        self._mt = random.Random(self.seed)
        # draw plan of the last (size, k) sampled: (size, k, steps, template)
        self._plan: tuple | None = None

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

    def chance(self, num: int, den: int) -> bool:
        """True with probability num/den."""
        return self.randrange(den) < num

    def sample(self, population: Sequence[int] | int, k: int) -> list:
        """k distinct elements, as a partial Fisher-Yates; order randomized.

        Step i swaps position i with i + randrange(size - i). The steps and,
        for an int population, the ``list(range(size))`` to copy are kept for
        the last (size, k), which a sampled scan asks for on every draw.
        """
        if k < 0:
            raise ValueError("sample size must be nonnegative")
        whole = isinstance(population, int)
        size = population if whole else len(population)
        if k > size:
            raise ValueError("sample larger than population")
        plan = self._plan
        if plan is None or plan[0] != size or plan[1] != k or (whole and plan[3] is None):
            steps = tuple((i, size - i, (size - i - 1).bit_length() or 1) for i in range(k))
            plan = self._plan = (size, k, steps, list(range(size)) if whole else None)
        pool = plan[3].copy() if whole else list(population)
        getrandbits = self._mt.getrandbits
        for i, span, width in plan[2]:
            # randrange(span), inlined: the same draws, so the same stream
            x = getrandbits(width)
            while x >= span:
                x = getrandbits(width)
            j = i + x
            pool[i], pool[j] = pool[j], pool[i]
        del pool[k:]
        return pool

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
    keyed = hashlib.blake2b(key=(seed & 0xFFFFFFFFFFFFFFFF).to_bytes(8, "big"), digest_size=8)

    def color(t: Iterable[int]) -> int:
        h = keyed.copy()  # the keyed state, set up once per coloring
        h.update(",".join(map(str, t)).encode())
        return int.from_bytes(h.digest(), "big") % palette

    return color
