"""Synthetic blow-up families with prescribed type densities.

These builders produce 3-graphs whose disjoint parts realize exact 0/1
densities per triple type; they serve as round-trip fixtures for the
structure finder and as the direct-count side of the blow-up edge formulas.
"""

from __future__ import annotations

from itertools import combinations, product

from .core import Hypergraph


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

    Triples meeting a set twice span no edges. For indices i < j, the types
    (X, A_j, B_j) carry a1 (X = A_i) and a2 (X = B_i); (A_i, B_i, X) carry b1
    (X = A_j) and b2 (X = B_j). Distinct-index triples carry c1..c6 by the
    kind pattern AAB, ABA, ABB, BAA, BAB, BBA, and c7/c8 for AAA/BBB. Each
    kept triple of sets adds the product of the three sets.
    """
    if len(cs) != 6:
        raise ValueError("cs must hold six densities c1..c6")
    for v in (a1, a2, b1, b2, c7, c8) + tuple(cs):
        if v not in (0, 1):
            raise ValueError("type densities must be 0 or 1")
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
    c_by_kind = {
        ("A", "A", "B"): cs[0],
        ("A", "B", "A"): cs[1],
        ("A", "B", "B"): cs[2],
        ("B", "A", "A"): cs[3],
        ("B", "A", "B"): cs[4],
        ("B", "B", "A"): cs[5],
        ("A", "A", "A"): c7,
        ("B", "B", "B"): c8,
    }
    edges: list[tuple[int, ...]] = []
    for (i1, k1, s1), (i2, k2, s2), (i3, k3, s3) in combinations(labeled, 3):
        if i1 == i2:  # kinds must be (A, B); third has larger index
            keep = b1 if k3 == "A" else b2
        elif i2 == i3:  # third (smaller index) relates to the pair (A_j, B_j)
            keep = a1 if k1 == "A" else a2
        else:
            keep = c_by_kind[(k1, k2, k3)]
        if keep:
            edges.extend(product(s1, s2, s3))
    return Hypergraph._from_edges(3, start, edges), a_parts, b_parts
