"""Graph patterns: the left-hand sides of graph repairing rules.

A :class:`Pattern` is a small graph whose nodes are *variables*.  Each
variable optionally constrains the label of the data node it binds to and can
carry unary property predicates; pattern edges constrain the predicate label
(and optionally carry an edge variable so repairs can refer to the matched
edge).  Cross-variable :class:`~repro.matching.predicates.Comparison`
constraints relate properties of different variables.

Matching semantics are those of graph dependencies in the literature:
**injective homomorphism** — distinct variables bind distinct data nodes, and
every pattern edge must be witnessed by a data edge with the required label.
A :class:`Match` records the binding of node variables to node ids and edge
variables to edge ids.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import product
from typing import Any, Iterable, Iterator, Mapping

from repro.exceptions import InvalidPatternError
from repro.graph.property_graph import PropertyGraph
from repro.matching.predicates import Comparison, PropertyPredicate

ANY_LABEL = None


@dataclass(frozen=True)
class PatternNode:
    """A node variable of a pattern.

    ``label=None`` matches any node label.  ``predicates`` must all hold on
    the bound node's properties.
    """

    variable: str
    label: str | None = ANY_LABEL
    predicates: tuple[PropertyPredicate, ...] = ()

    def matches(self, node) -> bool:
        """Label + unary-predicate check against a data :class:`~repro.graph.elements.Node`."""
        if self.label is not None and node.label != self.label:
            return False
        if not self.predicates:
            return True
        return all(predicate.evaluate(node.properties) for predicate in self.predicates)

    def describe(self) -> str:
        label = self.label if self.label is not None else "*"
        preds = ", ".join(p.describe() for p in self.predicates)
        preds = f" [{preds}]" if preds else ""
        return f"({self.variable}:{label}{preds})"


@dataclass(frozen=True)
class PatternEdge:
    """A directed edge constraint between two node variables.

    ``variable`` (optional) names the matched data edge so that repair
    operations and comparisons can refer to it.  ``label=None`` matches any
    predicate.
    """

    source: str
    target: str
    label: str | None = ANY_LABEL
    variable: str | None = None
    predicates: tuple[PropertyPredicate, ...] = ()

    def matches(self, edge) -> bool:
        """Label + unary-predicate check against a data :class:`~repro.graph.elements.Edge`."""
        if self.label is not None and edge.label != self.label:
            return False
        if not self.predicates:
            return True
        return all(predicate.evaluate(edge.properties) for predicate in self.predicates)

    def describe(self) -> str:
        label = self.label if self.label is not None else "*"
        name = f"{self.variable}:" if self.variable else ""
        return f"({self.source})-[{name}{label}]->({self.target})"


class Pattern:
    """A connected graph pattern over node variables.

    Parameters
    ----------
    nodes:
        The node variables.
    edges:
        The edge constraints between variables.
    comparisons:
        Cross-variable property constraints.
    name:
        Optional human-readable name (used in reports).

    Raises
    ------
    InvalidPatternError
        If the pattern is empty, references undeclared variables, repeats a
        variable name, or is not connected (disconnected patterns make
        matching a cartesian product — the paper's rules are connected, and
        requiring connectivity keeps the matcher's cost model honest).
    """

    def __init__(self, nodes: Iterable[PatternNode], edges: Iterable[PatternEdge] = (),
                 comparisons: Iterable[Comparison] = (), name: str = "pattern") -> None:
        self.name = name
        self.nodes: tuple[PatternNode, ...] = tuple(nodes)
        self.edges: tuple[PatternEdge, ...] = tuple(edges)
        self.comparisons: tuple[Comparison, ...] = tuple(comparisons)
        self._nodes_by_variable: dict[str, PatternNode] = {}
        self._edge_variables: set[str] = set()
        self._validate()

    # ------------------------------------------------------------------
    # validation
    # ------------------------------------------------------------------

    def _validate(self) -> None:
        if not self.nodes:
            raise InvalidPatternError("a pattern must have at least one node variable")
        for node in self.nodes:
            if node.variable in self._nodes_by_variable:
                raise InvalidPatternError(f"duplicate pattern variable {node.variable!r}")
            self._nodes_by_variable[node.variable] = node

        edge_variables = self._edge_variables
        for edge in self.edges:
            for endpoint in (edge.source, edge.target):
                if endpoint not in self._nodes_by_variable:
                    raise InvalidPatternError(
                        f"pattern edge references undeclared variable {endpoint!r}")
            if edge.variable is not None:
                if edge.variable in self._nodes_by_variable or edge.variable in edge_variables:
                    raise InvalidPatternError(
                        f"duplicate pattern variable {edge.variable!r}")
                edge_variables.add(edge.variable)

        for comparison in self.comparisons:
            for variable in comparison.variables():
                if (variable not in self._nodes_by_variable
                        and variable not in edge_variables):
                    raise InvalidPatternError(
                        f"comparison references undeclared variable {variable!r}")

        if len(self.nodes) > 1 and not self._is_connected():
            raise InvalidPatternError(
                f"pattern {self.name!r} is not connected; split it into separate rules")

    def _is_connected(self) -> bool:
        adjacency: dict[str, set[str]] = {node.variable: set() for node in self.nodes}
        for edge in self.edges:
            adjacency[edge.source].add(edge.target)
            adjacency[edge.target].add(edge.source)
        start = self.nodes[0].variable
        seen = {start}
        frontier = [start]
        while frontier:
            current = frontier.pop()
            for neighbor in adjacency[current]:
                if neighbor not in seen:
                    seen.add(neighbor)
                    frontier.append(neighbor)
        return len(seen) == len(self.nodes)

    # ------------------------------------------------------------------
    # accessors
    # ------------------------------------------------------------------

    @property
    def variables(self) -> list[str]:
        """Node variable names in declaration order."""
        return [node.variable for node in self.nodes]

    @property
    def edge_variables(self) -> list[str]:
        return [edge.variable for edge in self.edges if edge.variable is not None]

    def variable_positions(self) -> dict[str, int]:
        """Declaration index per node variable (cached) — the deterministic
        tie-break used by the cost planner's ordering."""
        positions = getattr(self, "_variable_positions", None)
        if positions is None:
            positions = {node.variable: index
                         for index, node in enumerate(self.nodes)}
            self._variable_positions = positions
        return positions

    def node_variable(self, variable: str) -> PatternNode:
        try:
            return self._nodes_by_variable[variable]
        except KeyError:
            raise InvalidPatternError(f"unknown pattern variable {variable!r}") from None

    def has_variable(self, variable: str) -> bool:
        return variable in self._nodes_by_variable or variable in self._edge_variables

    def edges_touching(self, variable: str) -> list[PatternEdge]:
        """Pattern edges incident to a node variable."""
        return [edge for edge in self.edges
                if edge.source == variable or edge.target == variable]

    def adjacent_variables(self, variable: str) -> set[str]:
        adjacent: set[str] = set()
        for edge in self.edges_touching(variable):
            adjacent.add(edge.source)
            adjacent.add(edge.target)
        adjacent.discard(variable)
        return adjacent

    def size(self) -> int:
        """Number of node variables plus edge constraints."""
        return len(self.nodes) + len(self.edges)

    def node_labels(self) -> set[str]:
        return {node.label for node in self.nodes if node.label is not None}

    def edge_labels(self) -> set[str]:
        return {edge.label for edge in self.edges if edge.label is not None}

    def describe(self) -> str:
        parts = [node.describe() for node in self.nodes]
        parts.extend(edge.describe() for edge in self.edges)
        parts.extend(comparison.describe() for comparison in self.comparisons)
        return f"Pattern {self.name!r}: " + ", ".join(parts)

    def __repr__(self) -> str:
        return (f"Pattern(name={self.name!r}, nodes={len(self.nodes)}, "
                f"edges={len(self.edges)}, comparisons={len(self.comparisons)})")

    # ------------------------------------------------------------------
    # verification of an assignment (used by the matcher and in tests)
    # ------------------------------------------------------------------

    def check_match(self, graph: PropertyGraph, assignment: Mapping[str, str]) -> bool:
        """True iff ``assignment`` (variable -> node id) extends to a complete,
        valid match.

        This is the semantic reference implementation: injectivity, label and
        predicate checks, a witnessing edge per pattern edge, and a choice of
        distinct witnesses for the edge variables under which all comparisons
        hold.
        The matchers are tested against it.
        """
        if not self._nodes_hold(graph, assignment):
            return False
        witnesses = [self._witnesses(graph, assignment, edge) for edge in self.edges]
        if not all(witnesses):
            return False
        variables = [edge.variable for edge in self.edges if edge.variable is not None]
        choices = [found for edge, found in zip(self.edges, witnesses)
                   if edge.variable is not None]
        # distinct edge variables bind distinct data edges, as in the matchers
        return any(
            len({edge.id for edge in choice}) == len(choice)
            and (not self.comparisons
                 or Match(pattern=self, node_bindings=dict(assignment),
                          edge_bindings={variable: edge.id
                                         for variable, edge in zip(variables, choice)},
                          ).satisfies_comparisons(graph))
            for choice in product(*choices))

    def _nodes_hold(self, graph: PropertyGraph, assignment: Mapping[str, str]) -> bool:
        """Every variable bound, injectively, to a node its label and
        predicates accept."""
        store = graph.node_store
        bound: set[str] = set()
        for node in self.nodes:
            node_id = assignment.get(node.variable)
            if node_id is None or node_id in bound:
                return False
            data = store.get(node_id)
            if data is None or not node.matches(data):
                return False
            bound.add(node_id)
        return True

    @staticmethod
    def _witnesses(graph: PropertyGraph, assignment: Mapping[str, str],
                   edge: PatternEdge) -> list:
        """The data edges that witness ``edge`` between its bound endpoints."""
        return [candidate for candidate in graph.edges_between(
                    assignment[edge.source], assignment[edge.target], edge.label)
                if edge.matches(candidate)]


@dataclass
class Match:
    """A binding of pattern variables to data elements.

    ``node_bindings`` maps node variables to node ids; ``edge_bindings`` maps
    edge variables to edge ids.  A match is hashable via :meth:`key` so that
    the repair engine can deduplicate and invalidate matches.
    """

    pattern: Pattern
    node_bindings: dict[str, str]
    edge_bindings: dict[str, str] = field(default_factory=dict)

    def key(self) -> tuple:
        """A hashable identity of the match (pattern name + sorted bindings)."""
        return (
            self.pattern.name,
            tuple(sorted(self.node_bindings.items())),
            tuple(sorted(self.edge_bindings.items())),
        )

    def node_id(self, variable: str) -> str:
        return self.node_bindings[variable]

    def edge_id(self, variable: str) -> str:
        return self.edge_bindings[variable]

    def bound_node_ids(self) -> set[str]:
        return set(self.node_bindings.values())

    def bound_edge_ids(self) -> set[str]:
        return set(self.edge_bindings.values())

    def touches(self, node_ids: set[str] | None = None,
                edge_ids: set[str] | None = None) -> bool:
        """True if the match binds any of the given node/edge ids."""
        if node_ids and any(bound in node_ids for bound in self.node_bindings.values()):
            return True
        if edge_ids and any(bound in edge_ids for bound in self.edge_bindings.values()):
            return True
        return False

    def is_valid(self, graph: PropertyGraph) -> bool:
        """Re-verify the match against the (possibly mutated) graph.

        The bound edges are the match: each must still exist, join its bound
        endpoints and satisfy its pattern edge, and the comparisons are
        evaluated over them.  A pattern edge without a bound variable only
        needs some witness.
        """
        pattern, nodes, bindings = self.pattern, self.node_bindings, self.edge_bindings
        edges = graph.edge_store
        free = []
        for pattern_edge in pattern.edges:
            edge_id = bindings.get(pattern_edge.variable)
            if edge_id is None:
                free.append(pattern_edge)
                continue
            edge = edges.get(edge_id)
            if (edge is None or edge.source != nodes.get(pattern_edge.source)
                    or edge.target != nodes.get(pattern_edge.target)
                    or not pattern_edge.matches(edge)):
                return False
        return (pattern._nodes_hold(graph, nodes)
                and all(pattern._witnesses(graph, nodes, pattern_edge)
                        for pattern_edge in free)
                and self.satisfies_comparisons(graph))

    def satisfies_comparisons(self, graph: PropertyGraph) -> bool:
        """Evaluate the pattern's cross-variable comparisons under this binding."""
        def lookup(variable: str) -> Mapping[str, Any]:
            if variable in self.edge_bindings:
                edge_id = self.edge_bindings[variable]
                return graph.edge(edge_id).properties if graph.has_edge(edge_id) else {}
            node_id = self.node_bindings.get(variable)
            if node_id is not None and graph.has_node(node_id):
                return graph.node(node_id).properties
            return {}

        return all(comparison.evaluate(lookup) for comparison in self.pattern.comparisons)

    def __repr__(self) -> str:
        bindings = ", ".join(f"{var}={node_id}" for var, node_id in sorted(self.node_bindings.items()))
        return f"Match({self.pattern.name}: {bindings})"


def pattern_from_graph(graph: PropertyGraph, name: str = "pattern",
                       keep_properties: bool = False) -> Pattern:
    """Lift a small concrete graph into a pattern (node ids become variables).

    Used by the analysis layer to turn witness graphs back into patterns, and
    by tests.  Property values become equality predicates only when
    ``keep_properties=True``.
    """
    from repro.matching.predicates import eq

    nodes = []
    for node in graph.nodes():
        predicates = tuple(eq(key, value) for key, value in sorted(node.properties.items())) \
            if keep_properties else ()
        nodes.append(PatternNode(variable=node.id, label=node.label, predicates=predicates))
    edges = [PatternEdge(source=edge.source, target=edge.target, label=edge.label)
             for edge in graph.edges()]
    return Pattern(nodes=nodes, edges=edges, name=name)


def pattern_to_graph(pattern: Pattern) -> PropertyGraph:
    """Materialise a pattern as a concrete graph (variables become node ids).

    Label-free variables get the placeholder label ``"*"``.  Used by the
    analysis layer to build canonical witness graphs.
    """
    graph = PropertyGraph(name=f"witness-{pattern.name}")
    for node in pattern.nodes:
        graph.add_node(node.label or "*", node_id=node.variable)
    for edge in pattern.edges:
        graph.add_edge(edge.source, edge.target, edge.label or "*")
    return graph
