"""Outcome kinds and canonical digests of job results.

A job's outcome is one of four kinds, kept apart on purpose: a result was
found, absence was proven by a completed search, the search gave up on its
budget, or the construction's precondition did not hold. The digest is a
prefix of the SHA-256 of a canonical JSON rendering of the kind plus the
payload (witness tuples, counts, reports), so a faster kernel must reproduce
it byte for byte.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass

FOUND = "found"
ABSENT = "absent"
BUDGET_EXHAUSTED = "budget_exhausted"
PRECONDITION_UNMET = "precondition_unmet"


@dataclass(frozen=True)
class Outcome:
    kind: str
    payload: object

    def canonical(self) -> str:
        return json.dumps({"kind": self.kind, "payload": self.payload},
                          sort_keys=True, separators=(",", ":"), default=str)

    def digest(self) -> str:
        """First 64 bits of the SHA-256, in hex; enough to notice any change."""
        return hashlib.sha256(self.canonical().encode()).hexdigest()[:16]


def from_exception(exc: BaseException) -> Outcome | None:
    """Outcome for the exceptions a bounded search may legitimately raise.

    Returns None for anything else, which the runner counts as a failure.
    """
    from ordersize.errors import BudgetExhausted, SearchFailed

    if isinstance(exc, BudgetExhausted):
        return Outcome(BUDGET_EXHAUSTED, {"error": type(exc).__name__})
    if isinstance(exc, SearchFailed) and "precondition" in exc.reason:
        return Outcome(PRECONDITION_UNMET, {"error": type(exc).__name__, "reason": exc.reason})
    return None
