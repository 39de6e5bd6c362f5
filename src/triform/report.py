"""Validation reports shared by all three dialect validators.

A schema is a list of (selector, shape) rules; validation records every
selected focus that fails its shape.  Reports order violations by rule
index and then by focus, so identical inputs always produce identical
reports.
"""

from __future__ import annotations

from typing import Collection, List, Tuple

from .model import Focus, focus_sort_key, frozen


@frozen
class Violation:
    rule_index: int
    focus: Focus


@frozen
class RuleStats:
    rule_index: int
    selected: int
    violations: int


@frozen
class ValidationReport:
    violations: List[Violation]
    stats: List[RuleStats]

    @property
    def valid(self) -> bool:
        return not self.violations

    def violated_rules(self) -> List[int]:
        return sorted({v.rule_index for v in self.violations})


def make_report(per_rule: List[Tuple[Collection, List[Focus]]]) -> ValidationReport:
    """Assemble a report from per-rule (selected, failing) pairs: the
    selected foci or raw elements, of which only the number is used, and
    the failing foci."""
    violations: List[Violation] = []
    stats: List[RuleStats] = []
    for idx, (selected, failing) in enumerate(per_rule):
        ordered = sorted(failing, key=focus_sort_key)
        violations.extend(Violation(idx, f) for f in ordered)
        stats.append(RuleStats(idx, len(selected), len(ordered)))
    return ValidationReport(violations, stats)
