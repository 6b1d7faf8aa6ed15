"""Closure-aware precision and recall between two dependency sets.

A discovered dependency counts as correct when the truth set implies it, and
a true dependency counts as found when the discovered set implies it; exact
syntactic matches are not required since equivalent covers differ in form.
"""

from __future__ import annotations

from dataclasses import dataclass

from .fds import FdSet, implies


@dataclass(frozen=True)
class EvalMetrics:
    precision: float
    recall: float
    flags: tuple[str, ...] = ()

    def to_json(self) -> dict:
        doc = {"precision": self.precision, "recall": self.recall}
        if self.flags:
            doc["flags"] = list(self.flags)
        return doc


def evaluate(discovered: FdSet, truth: FdSet) -> EvalMetrics:
    """Precision and recall with closure-aware matching.

    Empty `discovered` reports precision 1 with a flag (nothing wrong was
    claimed); empty `truth` likewise pins recall at 1.
    """
    flags = []
    if len(discovered) == 0:
        precision = 1.0
        flags.append("empty-discovered")
    else:
        correct = sum(1 for d in discovered if implies(truth, d))
        precision = correct / len(discovered)
    if len(truth) == 0:
        recall = 1.0
        flags.append("empty-truth")
    else:
        found = sum(1 for t in truth if implies(discovered, t))
        recall = found / len(truth)
    return EvalMetrics(precision, recall, tuple(flags))
