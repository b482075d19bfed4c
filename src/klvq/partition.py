"""Partitions of N points into M subsets, and what the KL quantizer and the
k-means baseline share about them: the empty-subset repair rule, where they
differ only in the cost of a point in its own subset (KL to its
distribution, squared distance to its centroid), and alternate, the loop
both fits run, which stops at the first repeated assignment."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import DomainError, ParameterError
from .label_model import require_int, require_int_array


@dataclass(frozen=True)
class Partition:
    """Assignment of N points to M disjoint subsets (preimages of each index)."""

    assignment: np.ndarray
    M: int

    def __post_init__(self) -> None:
        assignment = require_int_array(self.assignment, "assignment")
        if assignment.ndim != 1 or assignment.shape[0] < 1:
            raise ParameterError(f"assignment must be a nonempty vector, got shape {assignment.shape}")
        if require_int(self.M, "M") < 1:
            raise ParameterError(f"M must be >= 1, got {self.M}")
        if assignment.min() < 0 or assignment.max() >= self.M:
            raise ParameterError(f"assignment indices must lie in [0, {self.M})")
        object.__setattr__(self, "assignment", assignment)

    @property
    def n(self) -> int:
        return self.assignment.shape[0]

    def subset_sizes(self) -> np.ndarray:
        return np.bincount(self.assignment, minlength=self.M)


def repair_empty(
    assignment: np.ndarray,
    M: int,
    own_cost: Callable[[np.ndarray], np.ndarray],
) -> np.ndarray:
    """Move the worst-fit points into empty subsets, one point per subset.

    Empty subsets are filled in ascending order, each with the point of
    largest own_cost(assignment) (a point's cost in its own subset), lowest
    point index on ties. Donors come only from subsets with at least two
    members. own_cost is called once, only if some subset is empty; with
    none, assignment itself is returned.

    A subset only shrinks until one of its points moves, and a moved point
    sits alone in its new subset, so a point that is not a donor never
    becomes one. The donors therefore leave in one fixed order, and one
    sort by (cost descending, index ascending) serves every empty subset.
    """
    sizes = np.bincount(assignment, minlength=M)
    empties = np.flatnonzero(sizes == 0)
    if empties.size == 0:
        return assignment
    assignment = assignment.copy()
    order = iter(np.argsort(-own_cost(assignment), kind="stable"))
    for target in empties:
        best = next((point for point in order if sizes[assignment[point]] >= 2), None)
        if best is None:
            raise DomainError("cannot repair empty subsets: fewer points than subsets")
        sizes[assignment[best]] -= 1
        assignment[best] = target
        sizes[target] += 1
    return assignment


def alternate(
    start: np.ndarray,
    step: Callable[[np.ndarray], tuple[np.ndarray, np.ndarray, float]],
    max_iters: int,
) -> tuple[list[float], np.ndarray, bool]:
    """The fit loop both quantizers run: (trace, assignment, converged).

    Each iteration calls step(assignment) on the assignment it starts from,
    which returns a proposed assignment, the repaired assignment the next
    iteration starts from, and the iteration's objective. The loop stops
    when a proposal equals the assignment its iteration started from
    (converged; that assignment is returned), when a repaired assignment
    repeats the start or an earlier one, or after max_iters iterations (not
    converged; the last repaired assignment is returned). step is
    deterministic, so after a repeat every iteration would only go round the
    same cycle again. Assignments are keyed by their int64 bytes.
    """
    trace: list[float] = []
    seen = {np.ascontiguousarray(start, dtype=np.int64).tobytes()}
    assignment = start
    for _ in range(max_iters):
        proposed, repaired, value = step(assignment)
        trace.append(value)
        if np.array_equal(proposed, assignment):
            return trace, assignment, True
        assignment = repaired
        key = np.ascontiguousarray(assignment, dtype=np.int64).tobytes()
        if key in seen:
            break
        seen.add(key)
    return trace, assignment, False
