"""Shared fixtures for the test suite.

Expensive fixtures (domain workloads) are session-scoped and deliberately
small; tests that mutate graphs must copy them first (the fixtures hand out
the shared instance).
"""

from __future__ import annotations

import pytest

from repro.datasets import build_workload, load_dataset
from repro.graph import PropertyGraph
from repro.matching import Pattern, PatternEdge, PatternNode, same_value
from repro.rules import knowledge_graph_rules


def pytest_configure(config):
    # a deprecated path must not creep back in: any DeprecationWarning fails
    # the run instead of scrolling past in the warnings summary
    config.addinivalue_line("filterwarnings", "error::DeprecationWarning")
    # ...except one third-party import: reporting a failing hypothesis test
    # imports libcst, whose TypedDict classes come from mypy_extensions and
    # warn at definition.  Promoted to an error, it ends the run with an
    # INTERNALERROR before the falsifying example is printed.  Later lines
    # take precedence, and the module regex names the defining module only.
    config.addinivalue_line(
        "filterwarnings",
        "ignore:mypy_extensions.TypedDict is deprecated:DeprecationWarning:"
        r"libcst\.metadata\.type_inference_provider")


@pytest.fixture
def empty_graph() -> PropertyGraph:
    return PropertyGraph(name="empty")


@pytest.fixture
def tiny_kg() -> PropertyGraph:
    """A hand-built miniature knowledge graph with one of each error class.

    Contents:
      * France / UK with Paris / London (``inCountry``), Paris is capital of France
      * Ada (born London, nationality UK, lives Paris — twice, duplicate edge)
      * Ada2 — a duplicate of Ada (same name, also born in London)
      * Bob (born Paris) with a *wrong* nationality (UK) and **no** second bornIn
      * Carol (born Paris) with no nationality at all (incompleteness)
    """
    graph = PropertyGraph(name="tiny-kg")
    france = graph.add_node("Country", {"name": "France"})
    uk = graph.add_node("Country", {"name": "UK"})
    paris = graph.add_node("City", {"name": "Paris"})
    london = graph.add_node("City", {"name": "London"})
    graph.add_edge(paris.id, france.id, "inCountry", {"confidence": 1.0})
    graph.add_edge(london.id, uk.id, "inCountry", {"confidence": 1.0})
    graph.add_edge(paris.id, france.id, "capitalOf", {"confidence": 1.0})

    ada = graph.add_node("Person", {"name": "Ada"})
    graph.add_edge(ada.id, london.id, "bornIn", {"confidence": 1.0})
    graph.add_edge(ada.id, uk.id, "nationality", {"confidence": 1.0})
    graph.add_edge(ada.id, paris.id, "livesIn", {"confidence": 1.0})
    graph.add_edge(ada.id, paris.id, "livesIn", {"confidence": 1.0})  # duplicate edge

    ada2 = graph.add_node("Person", {"name": "Ada"})  # duplicate entity
    graph.add_edge(ada2.id, london.id, "bornIn", {"confidence": 1.0})

    bob = graph.add_node("Person", {"name": "Bob"})
    graph.add_edge(bob.id, paris.id, "bornIn", {"confidence": 1.0})
    graph.add_edge(bob.id, uk.id, "nationality", {"confidence": 1.0})  # wrong country

    carol = graph.add_node("Person", {"name": "Carol"})
    graph.add_edge(carol.id, paris.id, "bornIn", {"confidence": 1.0})  # no nationality

    return graph


@pytest.fixture
def triangle_graph() -> PropertyGraph:
    """Three nodes A -> B -> C -> A with labels X, Y, Z and edge label r."""
    graph = PropertyGraph(name="triangle")
    a = graph.add_node("X")
    b = graph.add_node("Y")
    c = graph.add_node("Z")
    graph.add_edge(a.id, b.id, "r")
    graph.add_edge(b.id, c.id, "r")
    graph.add_edge(c.id, a.id, "r")
    return graph


@pytest.fixture
def duplicate_person_pattern() -> Pattern:
    """Two same-named persons born in the same city."""
    return Pattern(
        nodes=[PatternNode("a", "Person"), PatternNode("b", "Person"),
               PatternNode("c", "City")],
        edges=[PatternEdge("a", "c", "bornIn"), PatternEdge("b", "c", "bornIn")],
        comparisons=[same_value("a", "name", "b")],
        name="duplicate-person",
    )


@pytest.fixture
def kg_rules():
    return knowledge_graph_rules()


@pytest.fixture(scope="session")
def small_kg_dataset():
    """A small clean KG dataset (shared; do not mutate)."""
    return load_dataset("kg", scale=60, seed=7)


@pytest.fixture(scope="session")
def small_kg_workload():
    """A small corrupted KG workload (shared; copy before repairing in place)."""
    return build_workload("kg", scale=60, error_rate=0.08, seed=3)


@pytest.fixture(scope="session")
def small_movie_workload():
    return build_workload("movies", scale=50, error_rate=0.08, seed=3)


@pytest.fixture(scope="session")
def small_social_workload():
    return build_workload("social", scale=50, error_rate=0.08, seed=3)
