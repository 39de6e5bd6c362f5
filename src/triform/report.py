"""Validation reports shared by all three dialect validators.

A schema is a list of (selector, shape) rules; validation records, per
rule, the number of selected elements and the raw elements failing the
shape, which is all a verdict or a three-way comparison
(:func:`first_divergence`) reads.  The violations and stats are derived
on first read: foci are built only then, ordered by rule index and then
by :func:`model.elem_sort_key`, so identical inputs always produce
identical reports.
"""

from __future__ import annotations

from typing import Collection, Dict, List, Optional, Sequence, Tuple

from .model import Elem, Focus, elem_focus, elem_sort_key, elems_to_foci, frozen, memo


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
    selected: List[int]  # per rule, the number of selected elements
    failing: List[Collection[Elem]]  # per rule, the raw elements failing its shape

    @property
    def valid(self) -> bool:
        return not any(self.failing)

    def violated_rules(self) -> List[int]:
        return [i for i, xs in enumerate(self.failing) if xs]

    @memo
    def violations(self) -> List[Violation]:
        return [Violation(i, f) for i, xs in enumerate(self.failing) for f in elems_to_foci(xs)]

    @memo
    def stats(self) -> List[RuleStats]:
        return [RuleStats(i, n, len(xs)) for i, (n, xs) in enumerate(zip(self.selected, self.failing))]


def make_report(per_rule: Sequence[Tuple[Collection[Elem], Collection[Elem]]]) -> ValidationReport:
    """A report from per-rule (selected, failing) raw elements; of the
    selected ones only the number is kept."""
    return ValidationReport([len(sel) for sel, _ in per_rule], [bad for _, bad in per_rule])


def first_divergence(reports: Dict[str, ValidationReport]) -> Optional[Tuple[int, Focus, str]]:
    """Where named reports of one rule-for-rule schema first differ, rule by
    rule on their raw failing sets: the first differing rule, its least
    element (:func:`elem_sort_key`) that not every report fails, as a focus,
    and the names of those that do fail it; None if they all agree."""
    for i, sets in enumerate(zip(*(r.failing for r in reports.values()))):
        if any(s != sets[0] for s in sets):
            x = min(set().union(*sets).difference(set(sets[0]).intersection(*sets)), key=elem_sort_key)
            return i, elem_focus(x), "violated only in " + ",".join(n for n, s in zip(reports, sets) if x in s)
    return None
