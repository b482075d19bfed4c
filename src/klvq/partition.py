"""Partitions of N points into M subsets, and what the KL quantizer and the
k-means baseline share about them: the empty-subset repair rule, where they
differ only in the cost of a point in its own subset (KL to its
distribution, squared distance to its centroid), and the CycleLog with which
both fit loops replay a revisited assignment's cycle."""

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


class CycleLog:
    """The assignments that the iterations of a fit loop start from.

    Both fit loops are deterministic: what an iteration records and the
    assignment it hands on are functions of the assignment it starts from.
    So once iteration r starts from the assignment of an earlier iteration
    f, the loop is periodic from f on with period r - f, and every later
    iteration repeats the one at the same phase of the cycle. Each
    assignment is keyed once, by its int64 bytes.
    """

    def __init__(self) -> None:
        self._first: dict[bytes, int] = {}
        self._starts: dict[int, bytes] = {}

    def revisit(self, iteration: int, assignment: np.ndarray, max_iters: int) -> tuple[list[int], np.ndarray] | None:
        """Log assignment as the start of iteration; None unless an earlier
        iteration started from it. Then the earlier iteration that each of
        iterations iteration..max_iters-1 repeats, and the assignment the
        last of them hands on."""
        key = np.ascontiguousarray(assignment, dtype=np.int64).tobytes()
        first = self._first.setdefault(key, iteration)
        self._starts[iteration] = key
        if first == iteration:
            return None
        period = iteration - first
        phases = [first + (later - first) % period for later in range(iteration, max_iters + 1)]
        return phases[:-1], np.frombuffer(self._starts[phases[-1]], dtype=np.int64).copy()
