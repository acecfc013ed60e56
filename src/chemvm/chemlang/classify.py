"""Abstraction-step accounting.

Each unit operation is counted once, under the category of the dominant
(first) primitive of its machine expansion (`OP_SPECS`); operations that
expand to more than two primitives additionally increment the Composite
counter. Counts are grouped by the `reaction_step` marker (carried forward
over unmarked steps) and reported with a running cumulative total.
"""

from __future__ import annotations

from dataclasses import dataclass

from .ast import OP_SPECS, ChemProgram

__all__ = ["CATEGORIES", "StepHistogram", "classify_steps"]

CATEGORIES = ("AddMatter", "SubtractMatter", "AddEnergy", "SubtractEnergy", "Composite")

_PRIM_CATEGORY = {
    "AM": "AddMatter",
    "SM": "SubtractMatter",
    "AE": "AddEnergy",
    "SE": "SubtractEnergy",
}


@dataclass
class StepHistogram:
    # [(reaction_step marker, {category: count})], markers strictly increasing
    per_reaction_step: list[tuple[int, dict[str, int]]]
    cumulative: list[int]

    @property
    def total_ops(self) -> int:
        return self.cumulative[-1] if self.cumulative else 0


def classify_steps(prog: ChemProgram) -> StepHistogram:
    groups: list[tuple[int, dict[str, int], int]] = []  # (marker, counts, ops)
    marker = 1
    for op in prog.steps:
        if op.reaction_step is not None:
            marker = op.reaction_step
        if not groups or groups[-1][0] != marker:
            groups.append((marker, {c: 0 for c in CATEGORIES}, 0))
        m, counts, ops = groups[-1]
        prims = OP_SPECS[op.kind].primitives
        counts[_PRIM_CATEGORY[prims[0]]] += 1
        if len(prims) > 2:
            counts["Composite"] += 1
        groups[-1] = (m, counts, ops + 1)

    cumulative: list[int] = []
    running = 0
    for _, _, ops in groups:
        running += ops
        cumulative.append(running)
    return StepHistogram([(m, counts) for m, counts, _ in groups], cumulative)
