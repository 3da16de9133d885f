"""Synthetic blow-up families with prescribed type densities.

These builders produce 3-graphs whose disjoint parts realize exact 0/1
densities per triple type; they serve as round-trip fixtures for the
structure finder and as the direct-count side of the blow-up edge formulas.
"""

from __future__ import annotations

from itertools import combinations, product

from .core import Hypergraph

# The triple types, read by the structure finder and by build_pair_family. A
# spec names the three sets of a triple, each by its side (A, or B of a pair)
# and the rank of its index among the triple's, in vertex order: "B0A1B1" is
# d(B_i, A_j, B_j) for i < j. Table order is the order of the constants.
FAMILY_TYPES = {"a": "A0A1A1", "b": "A0A0A1", "c": "A0A1A2", "d": "A0A0A0"}
PAIR_TYPES = {
    "a1": "A0A1B1", "a2": "B0A1B1", "b1": "A0B0A1", "b2": "A0B0B1",
    "c1": "A0A1B2", "c2": "A0B1A2", "c3": "A0B1B2", "c4": "B0A1A2",
    "c5": "B0A1B2", "c6": "B0B1A2", "c7": "A0A1A2", "c8": "B0B1B2",
}


def build_type_family(
    part_sizes: list[int], a: int, b: int, c: int, d: int
) -> tuple[Hypergraph, list[tuple[int, ...]]]:
    """Blow-up with per-type densities: for part indices p <= q <= s of a
    triple, the triple is an edge per a (p < q = s), b (p = q < s),
    c (p < q < s), or d (p = q = s). Each kept type adds its whole block."""
    for v in (a, b, c, d):
        if v not in (0, 1):
            raise ValueError("type densities must be 0 or 1")
    if any(size < 0 for size in part_sizes):
        raise ValueError("part sizes must be nonnegative")
    parts: list[tuple[int, ...]] = []
    start = 0
    for size in part_sizes:
        parts.append(tuple(range(start, start + size)))
        start += size
    edges: list[tuple[int, ...]] = []
    for p, pp in enumerate(parts):
        if d:
            edges.extend(combinations(pp, 3))
        for q, pq in enumerate(parts[p + 1:], p + 1):
            if a:
                edges.extend((u, v, w) for u in pp for v, w in combinations(pq, 2))
            if b:
                edges.extend((u, v, w) for u, v in combinations(pp, 2) for w in pq)
            if c:
                for ps in parts[q + 1:]:
                    edges.extend(product(pp, pq, ps))
    return Hypergraph._from_edges(3, start, edges), parts


def build_pair_family(
    num_pairs: int,
    part_size: int,
    a1: int,
    a2: int,
    b1: int,
    b2: int,
    cs: tuple[int, int, int, int, int, int],
    c7: int = 0,
    c8: int = 0,
) -> tuple[Hypergraph, list[tuple[int, ...]], list[tuple[int, ...]]]:
    """Blow-up over paired parts A_1, B_1, ..., A_m, B_m.

    Triples meeting a set twice span no edges. Every other triple of sets
    is one of the ``PAIR_TYPES`` and carries the density given for that type
    (``cs`` holds c1..c6). Each kept triple of sets adds the product of the
    three sets.
    """
    if len(cs) != 6:
        raise ValueError("cs must hold six densities c1..c6")
    densities = (a1, a2, b1, b2, *cs, c7, c8)  # in PAIR_TYPES order
    if any(v not in (0, 1) for v in densities):
        raise ValueError("type densities must be 0 or 1")
    # each spec keyed by its side letters and the index ranks of its last two sets
    keep = {(t[0], t[2], t[4], int(t[3]), int(t[5])): v for t, v in zip(PAIR_TYPES.values(), densities)}
    if num_pairs < 0 or part_size < 0:
        raise ValueError("pair and part counts must be nonnegative")
    a_parts: list[tuple[int, ...]] = []
    b_parts: list[tuple[int, ...]] = []
    labeled: list[tuple[int, str, tuple[int, ...]]] = []  # the sets in vertex order
    start = 0
    for idx in range(num_pairs):
        a_parts.append(tuple(range(start, start + part_size)))
        start += part_size
        b_parts.append(tuple(range(start, start + part_size)))
        start += part_size
        labeled += [(idx, "A", a_parts[-1]), (idx, "B", b_parts[-1])]
    edges: list[tuple[int, ...]] = []
    for (i1, k1, s1), (i2, k2, s2), (i3, k3, s3) in combinations(labeled, 3):
        r2 = i2 != i1  # indices ascend in vertex order, so ranks do too
        if keep[k1, k2, k3, r2, r2 + (i3 != i2)]:
            edges.extend(product(s1, s2, s3))
    return Hypergraph._from_edges(3, start, edges), a_parts, b_parts
