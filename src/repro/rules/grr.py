"""Graph Repairing Rules (GRRs) — the paper's core artefact.

A :class:`GraphRepairingRule` couples

* a **semantics** (incompleteness / conflict / redundancy),
* an **evidence pattern** whose matches locate candidate errors,
* for incompleteness rules, a **missing pattern** that shares variables with
  the evidence and describes what must additionally exist (its absence is the
  violation),
* a sequence of **repair operations** over the matched variables, and
* a **priority** used by the repair planner to order violations of different
  rules.

Construction performs full static validation: operation kinds must be legal
for the semantics, every variable an operation reads must be bound by the
evidence pattern (or introduced by an earlier ``ADD_NODE`` in the same rule),
and incompleteness rules must have a missing pattern overlapping the evidence.
The class also exposes *effect summaries* (which node/edge labels the rule can
add or remove) consumed by the rule-set analysis in :mod:`repro.analysis`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable

from repro.exceptions import InvalidRuleError
from repro.matching.pattern import Match, Pattern
from repro.rules.operations import (
    AddEdge,
    AddNode,
    DeleteEdge,
    DeleteNode,
    ExecutionContext,
    MergeNodes,
    OperationKind,
    RepairOperation,
    UpdateEdge,
    UpdateNode,
)
from repro.rules.semantics import Semantics, validate_operations_for_semantics


@dataclass
class RuleEffects:
    """Static summary of what a rule's repairs can do to the graph.

    Labels are concrete strings where the rule names them; the wildcard
    ``"*"`` stands for "some label we cannot determine statically" (e.g. a
    deleted node variable with no label constraint).
    """

    added_node_labels: set[str] = field(default_factory=set)
    added_edge_labels: set[str] = field(default_factory=set)
    removed_node_labels: set[str] = field(default_factory=set)
    removed_edge_labels: set[str] = field(default_factory=set)
    updated_node_labels: set[str] = field(default_factory=set)
    updated_edge_labels: set[str] = field(default_factory=set)

    @property
    def is_additive(self) -> bool:
        return bool(self.added_node_labels or self.added_edge_labels)

    @property
    def is_subtractive(self) -> bool:
        return bool(self.removed_node_labels or self.removed_edge_labels)


class GraphRepairingRule:
    """A single graph repairing rule.

    Parameters
    ----------
    name:
        Unique rule name (used in provenance, reports, and analysis).
    semantics:
        One of :class:`~repro.rules.semantics.Semantics`.
    pattern:
        The evidence pattern.
    operations:
        The repair operations, executed in order on each violation.
    missing:
        For incompleteness rules, the pattern that must be absent; it must
        share at least one node variable with ``pattern``.
    priority:
        Larger = repaired earlier when violations of several rules are
        pending (default 0).
    description:
        Free-text documentation shown in reports.
    """

    def __init__(self, name: str, semantics: Semantics, pattern: Pattern,
                 operations: Iterable[RepairOperation], missing: Pattern | None = None,
                 priority: int = 0, description: str = "") -> None:
        self.name = name
        self.semantics = semantics
        self.pattern = pattern
        self.missing = missing
        self.operations: tuple[RepairOperation, ...] = tuple(operations)
        self.priority = priority
        self.description = description
        self._validate()

    # ------------------------------------------------------------------
    # validation
    # ------------------------------------------------------------------

    def _validate(self) -> None:
        validate_operations_for_semantics(self.semantics, list(self.operations))

        if self.semantics is Semantics.INCOMPLETENESS:
            if self.missing is None:
                raise InvalidRuleError(
                    f"incompleteness rule {self.name!r} needs a missing pattern")
            shared = set(self.pattern.variables) & set(self.missing.variables)
            if not shared:
                raise InvalidRuleError(
                    f"rule {self.name!r}: the missing pattern must share at least one "
                    "variable with the evidence pattern")
        elif self.missing is not None:
            raise InvalidRuleError(
                f"{self.semantics.value} rule {self.name!r} must not have a missing "
                "pattern (only incompleteness rules are defined by an absent extension)")

        bound: set[str] = set(self.pattern.variables) | set(self.pattern.edge_variables)
        for operation in self.operations:
            unknown = operation.variables_read() - bound
            if unknown:
                raise InvalidRuleError(
                    f"rule {self.name!r}: operation {operation.describe()} reads "
                    f"unbound variable(s) {sorted(unknown)}")
            clash = operation.variables_introduced() & bound
            if clash:
                raise InvalidRuleError(
                    f"rule {self.name!r}: operation {operation.describe()} re-introduces "
                    f"already-bound variable(s) {sorted(clash)}")
            bound |= operation.variables_introduced()

    # ------------------------------------------------------------------
    # violation semantics
    # ------------------------------------------------------------------

    def is_violation(self, matcher, match: Match) -> bool:
        """Decide whether ``match`` constitutes a violation of this rule.

        ``matcher`` is any object providing ``exists_extension(pattern,
        bindings)`` (see :meth:`repro.matching.vf2.VF2Matcher.exists_extension`,
        to which :class:`repro.matching.matcher.Matcher` delegates).  For
        conflict and redundancy rules every pattern match is a violation; for
        incompleteness rules the match is a violation only if the missing
        pattern has *no* extension consistent with the shared variables.
        """
        if self.semantics is not Semantics.INCOMPLETENESS:
            return True
        assert self.missing is not None
        return not matcher.exists_extension(self.missing, match.node_bindings)

    def execute(self, graph, match: Match) -> ExecutionContext:
        """Apply the rule's operations to ``graph`` at ``match``.

        Returns the execution context (exposing ids of nodes created by
        ``ADD_NODE``).  The caller — the repair executor — is responsible for
        wrapping this in provenance and delta recording.
        """
        context = ExecutionContext(graph=graph, match=match)
        for operation in self.operations:
            operation.apply(context)
        return context

    # ------------------------------------------------------------------
    # static effect summaries (consumed by the analysis layer)
    # ------------------------------------------------------------------

    def _label_of_node_variable(self, variable: str) -> str:
        if variable in self.pattern.variables:
            label = self.pattern.node_variable(variable).label
            return label if label is not None else "*"
        return "*"

    def _label_of_edge_variable(self, variable: str) -> str:
        for edge in self.pattern.edges:
            if edge.variable == variable:
                return edge.label if edge.label is not None else "*"
        return "*"

    def effects(self) -> RuleEffects:
        """Aggregate the operations' effects, resolving variables to pattern labels."""
        effects = RuleEffects()
        for operation in self.operations:
            effects.added_node_labels |= operation.added_node_labels()
            effects.added_edge_labels |= operation.added_edge_labels()
            for variable in operation.removed_node_variables():
                effects.removed_node_labels.add(self._label_of_node_variable(variable))
            for variable in operation.removed_edge_variables():
                effects.removed_edge_labels.add(self._label_of_edge_variable(variable))
            if isinstance(operation, DeleteEdge) and operation.edge_variable is None:
                effects.removed_edge_labels.add(operation.label if operation.label else "*")
            if isinstance(operation, DeleteNode):
                # incident edges of a deleted node disappear too
                effects.removed_edge_labels.add("*")
            if isinstance(operation, MergeNodes):
                # merging can drop duplicate edges of any label incident to the merged node
                effects.removed_edge_labels.add("*")
                effects.updated_node_labels.add(self._label_of_node_variable(operation.keep))
            if isinstance(operation, UpdateNode):
                effects.updated_node_labels.add(self._label_of_node_variable(operation.variable))
            if isinstance(operation, UpdateEdge):
                effects.updated_edge_labels.add(self._label_of_edge_variable(operation.edge_variable))
        return effects

    def required_node_labels(self) -> set[str]:
        """Node labels the evidence pattern requires (wildcard variables excluded)."""
        return self.pattern.node_labels()

    def required_edge_labels(self) -> set[str]:
        """Edge labels the evidence pattern requires (wildcard edges excluded)."""
        return self.pattern.edge_labels()

    def forbidden_edge_labels(self) -> set[str]:
        """Edge labels whose *presence* the rule treats as part of the error.

        For incompleteness rules these are the labels of the missing pattern
        (adding them can satisfy the rule); returns the missing pattern's edge
        labels so the analysis can detect rules that repair each other.
        """
        if self.missing is None:
            return set()
        return self.missing.edge_labels()

    # ------------------------------------------------------------------
    # misc
    # ------------------------------------------------------------------

    @property
    def operation_kinds(self) -> list[OperationKind]:
        return [operation.kind for operation in self.operations]

    def describe(self) -> str:
        lines = [f"Rule {self.name!r} [{self.semantics.value}] priority={self.priority}"]
        if self.description:
            lines.append(f"  # {self.description}")
        lines.append(f"  evidence: {self.pattern.describe()}")
        if self.missing is not None:
            lines.append(f"  missing:  {self.missing.describe()}")
        for operation in self.operations:
            lines.append(f"  do: {operation.describe()}")
        return "\n".join(lines)

    def __repr__(self) -> str:
        return (f"GraphRepairingRule(name={self.name!r}, semantics={self.semantics.value}, "
                f"pattern={self.pattern.name!r}, operations={len(self.operations)})")


class RuleSet:
    """An ordered, name-indexed collection of rules.

    Keeps rules in insertion order (which the repair planner uses as the final
    tie-break) and enforces unique names.
    """

    def __init__(self, rules: Iterable[GraphRepairingRule] = (), name: str = "ruleset") -> None:
        self.name = name
        self._rules: dict[str, GraphRepairingRule] = {}
        for rule in rules:
            self.add(rule)

    def add(self, rule: GraphRepairingRule) -> None:
        if rule.name in self._rules:
            raise InvalidRuleError(f"duplicate rule name {rule.name!r}")
        self._rules[rule.name] = rule

    def remove(self, name: str) -> GraphRepairingRule:
        try:
            return self._rules.pop(name)
        except KeyError:
            raise InvalidRuleError(f"no rule named {name!r}") from None

    def get(self, name: str) -> GraphRepairingRule:
        try:
            return self._rules[name]
        except KeyError:
            raise InvalidRuleError(f"no rule named {name!r}") from None

    def __contains__(self, name: object) -> bool:
        return name in self._rules

    def __len__(self) -> int:
        return len(self._rules)

    def __iter__(self):
        return iter(list(self._rules.values()))

    def rules(self) -> list[GraphRepairingRule]:
        return list(self._rules.values())

    def names(self) -> list[str]:
        return list(self._rules.keys())

    def by_semantics(self, semantics: Semantics) -> list[GraphRepairingRule]:
        return [rule for rule in self._rules.values() if rule.semantics is semantics]

    def subset(self, names: Iterable[str], name: str | None = None) -> "RuleSet":
        return RuleSet((self.get(rule_name) for rule_name in names),
                       name=name or f"{self.name}-subset")

    def merged_with(self, other: "RuleSet", name: str | None = None) -> "RuleSet":
        merged = RuleSet(self.rules(), name=name or f"{self.name}+{other.name}")
        for rule in other:
            merged.add(rule)
        return merged

    def describe(self) -> str:
        header = f"RuleSet {self.name!r} ({len(self)} rules)"
        return "\n\n".join([header] + [rule.describe() for rule in self])

    def __repr__(self) -> str:
        return f"RuleSet(name={self.name!r}, rules={len(self)})"
