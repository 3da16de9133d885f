"""Executable stepping-down on explicit colorings.

One reduction stage picks vertices greedily, left to right: after choosing
x_i, the remaining candidates are partitioned by their color vector over all
(q-1)-subsets of the chosen prefix that contain x_i, and the largest class
survives (ties to the lexicographically smallest vector). The surviving
class agrees on those colors, which is exactly what makes the original
coloring factor through the recorded lower-arity coloring chi.

Repeating the stage r-2 times reduces an r-coloring to a pair coloring. A
stage run under the reversed vertex order strips the first coordinate
instead of the last; r-k-1 forward stages followed by k-1 reversed stages
land the pair at positions (k, k+1). A stage works on vertex ids: a query
is a new subset's id tuple, built once, extended by the candidate's id (in
front of it in a reversed stage), and chi is keyed in ids as it is recorded;
transcript rows record positions in the stage's own order.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import combinations
from math import comb
from typing import Callable

from .core import Hypergraph
from .errors import FactorizationError, SearchFailed, at_least

ColorFn = Callable[[tuple[int, ...]], int]

DEFAULT_INTERMEDIATE_CAP = 64


@dataclass
class StepResult:
    """Outcome of one or more reduction stages.

    ``x`` is the chosen ordered subset (original vertex ids, ascending) and
    ``chi`` the recorded coloring of its ``arity``-subsets, total over all
    subsets (entries never pinned by a later vertex default to 0; they are
    exactly the ones no factorization constraint touches).
    """

    x: tuple[int, ...]
    arity: int
    chi: dict[tuple[int, ...], int]
    transcript: list[dict] = field(default_factory=list)
    k: int = 1

    def to_json_obj(self) -> dict:
        return {
            "x": list(self.x),
            "arity": self.arity,
            "k": self.k,
            "chi": [[list(s), c] for s, c in sorted(self.chi.items())],
            "transcript": self.transcript,
        }


def _wrap_coloring(coloring, n: int | None, r: int | None) -> tuple[ColorFn, int, int]:
    if isinstance(coloring, Hypergraph):
        h = coloring
        coloring, n, r = (lambda t: 1 if t in h.edges else 0), h.n, h.r
    elif n is None or r is None:
        raise ValueError("callable colorings need explicit n and r")
    if r < 3:
        raise ValueError("stepping down needs r >= 3")
    return coloring, n, r


def _reduce_stage(verts: list[int], lookup: ColorFn, q: int, want: int | None,
                  reverse: bool = False) -> tuple[list[int], dict, list[dict]]:
    """One greedy stage over the ascending vertex ids ``verts``, in forward or
    reversed order; returns (kept ids ascending, chi, rows). In a reversed
    stage the factorization strips the first coordinate.
    """
    order = verts[::-1] if reverse else verts
    candidates = list(range(len(order)))
    picked: list[int] = []  # the chosen ids, in stage order
    chi: dict[tuple[int, ...], int] = {}
    rows: list[dict] = []
    while candidates:
        x = candidates.pop(0)
        xid = order[x]
        picked.append(xid)
        row = {"step": len(picked), "vertex": x, "candidates": len(candidates)}
        rows.append(row)
        if want is not None and len(picked) >= want:
            break
        if len(picked) >= q - 1 and candidates:
            low = combinations(picked[:-1], q - 2)  # in stage order: descending ids if reversed
            new_subsets = [(xid, *s[::-1]) for s in low] if reverse else [(*s, xid) for s in low]
            groups: dict[tuple[int, ...], list[int]] = {}
            for y in candidates:
                vy = order[y]
                key = (tuple([lookup((vy, *ids)) for ids in new_subsets]) if reverse
                       else tuple([lookup((*ids, vy)) for ids in new_subsets]))
                groups.setdefault(key, []).append(y)
            best = max(groups, key=lambda kk: (len(groups[kk]), tuple(-c for c in kk)))
            chi.update(zip(new_subsets, best))
            candidates = groups[best]
            row["classes"] = len(groups)
            row["kept"] = len(candidates)
    for s in combinations(picked, q - 1):
        chi.setdefault(s[::-1] if reverse else s, 0)
    return (picked[::-1] if reverse else picked), chi, rows


def step_once(coloring, ell: int | None = None, *, n: int | None = None, r: int | None = None) -> StepResult:
    """Single reduction: an r-coloring factors through its first r-1
    coordinates on the chosen subset.

    With ``ell`` given, raises SearchFailed (carrying the achieved prefix)
    when the candidates run out early; with ``ell=None`` the stage runs to
    exhaustion. The factorization is re-verified over every increasing
    r-tuple of the result.
    """
    colorfn, n, r = _wrap_coloring(coloring, n, r)
    if ell is not None:
        at_least(1, ell=ell)
    chosen, chi, rows = _reduce_stage(list(range(n)), colorfn, r, ell)
    result = StepResult(tuple(chosen), r - 1, chi, [{"direction": "F", "rows": rows}])
    if ell is not None and len(chosen) < ell:
        raise SearchFailed(
            f"candidates exhausted after {len(chosen)} of {ell} vertices",
            reason="candidates exhausted",
            detail={"achieved": list(chosen), "result": result},
        )
    for tup in combinations(result.x, r):
        if colorfn(tup) != chi[tup[:-1]]:
            raise FactorizationError("stage postcondition failed", tup)
    return result


def _stage_caps(r: int, ell: int | None, n: int) -> list[int | None]:
    """Per-stage size caps, chained backwards from the final target.

    A stage with next-stage uniformity q and next-stage cap t cannot use more
    than 2^C(t-1, q-1) vertices, which is the guarantee threshold for the
    next stage; material beyond that is dead weight (and the chi tables
    would blow up on near-constant colorings). A cap >= n never binds, so
    each is cut to n, comparing the exponent before building the power.
    """
    stages = r - 2
    caps: list[int | None] = [None] * stages
    caps[-1] = ell
    for i in range(stages - 2, -1, -1):
        nxt = caps[i + 1]
        if nxt is None:
            caps[i] = min(DEFAULT_INTERMEDIATE_CAP, n)
        else:
            e = comb(nxt - 1, r - i - 2)
            caps[i] = n if e >= (n - 1).bit_length() else min(n, max(nxt, 2**e))
    return caps


def step_to_pairs(
    coloring,
    k: int = 1,
    ell: int | None = None,
    *,
    n: int | None = None,
    r: int | None = None,
) -> StepResult:
    """Full reduction to a pair coloring at positions (k, k+1).

    Applies r-k-1 forward stages (each strips the last coordinate) and then
    k-1 reversed stages (each strips the first); the order is restored after
    every reversed stage. The final factorization is verified over every
    increasing r-tuple of the result against the original coloring.
    """
    colorfn, n, r = _wrap_coloring(coloring, n, r)
    if not 1 <= k <= r - 1:
        raise ValueError(f"k={k} out of range [1, {r - 1}]")
    if ell is not None:
        at_least(1, ell=ell)
    schedule = ["F"] * (r - k - 1) + ["R"] * (k - 1)
    caps = _stage_caps(r, ell, n)
    verts = list(range(n))
    lookup: ColorFn = colorfn
    transcript: list[dict] = []
    for q, direction, cap in zip(range(r, 2, -1), schedule, caps):
        verts, chi, rows = _reduce_stage(verts, lookup, q, cap, direction == "R")
        transcript.append({"direction": direction, "uniformity": q, "kept": len(verts), "rows": rows})
        lookup = chi.__getitem__
    result = StepResult(tuple(verts), 2, chi, transcript, k=k)
    if ell is not None and len(verts) < ell:
        raise SearchFailed(
            f"stages exhausted at {len(verts)} of {ell} vertices",
            reason="candidates exhausted",
            detail={"achieved": list(verts), "result": result},
        )
    for tup in combinations(result.x, r):
        if colorfn(tup) != result.chi[(tup[k - 1], tup[k])]:
            raise FactorizationError("pair factorization postcondition failed", tup)
    return result
