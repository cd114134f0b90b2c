"""A graph's id generators against the set-based generator they replaced.

The generators keep no entry per live element: they skip the ids the
graph's stores hold plus a small record of ids that left the graph.  The
reference below is the earlier generator, which remembered every id it ever
observed or generated in one set and which every graph fed each id it held.
Over random sequences of adds (generated and explicit ids), removals,
merges, reservations, session rollbacks, delta replays, copies, subgraphs
and snapshot round trips, both must hand out exactly the same ids, and no
generated id may have been held by, or reserved from, its graph before.
"""

from __future__ import annotations

import json

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.api import RepairConfig, RepairSession
from repro.datasets.registry import load_dataset
from repro.durability import codec
from repro.graph.delta import ChangeKind, recording, replay_delta
from repro.graph.property_graph import PropertyGraph
from repro.rules.grr import RuleSet


class SetIdGenerator:
    """The reference: every id observed or generated, in one set."""

    def __init__(self, prefix: str, observed=(), counter: int = 0) -> None:
        self.prefix = prefix
        self.counter = counter
        self.seen = set(observed)

    def observe(self, element_id: str) -> None:
        self.seen.add(element_id)

    def next(self) -> str:
        while True:
            candidate = f"{self.prefix}{self.counter}"
            self.counter += 1
            if candidate not in self.seen:
                self.seen.add(candidate)
                return candidate


class Model:
    """One graph, the reference generators it would have carried, and every
    id it has held or handed out by reservation."""

    def __init__(self, graph: PropertyGraph, counters=(0, 0)) -> None:
        prefix = f"{graph.id_namespace}:" if graph.id_namespace else ""
        self.graph = graph
        self.oracles = {
            "node": SetIdGenerator(f"{prefix}n", graph.node_store, counters[0]),
            "edge": SetIdGenerator(f"{prefix}e", graph.edge_store, counters[1]),
        }
        self.held = {"node": set(graph.node_store), "edge": set(graph.edge_store)}

    def expect_generated(self, kind: str, generated) -> None:
        expected = [self.oracles[kind].next() for _ in generated]
        assert list(generated) == expected
        assert not self.held[kind].intersection(generated)
        self.held[kind].update(generated)

    def observe(self, kind: str, element_id: str) -> None:
        self.oracles[kind].observe(element_id)
        self.held[kind].add(element_id)

    def check_counters(self) -> None:
        assert self.graph._node_ids.counter == self.oracles["node"].counter
        assert self.graph._edge_ids.counter == self.oracles["edge"].counter

    def observe_restored(self, delta) -> None:
        """Feed the reference the explicit ids a rollback or replay re-added."""
        for change in delta.changes:
            if change.kind is ChangeKind.ADD_NODE:
                self.observe("node", change.node_id)
            elif change.kind is ChangeKind.ADD_EDGE:
                self.observe("edge", change.edge_id)
            elif change.kind is ChangeKind.MERGE_NODES:
                for edge_id in change.details["added_edges"]:
                    self.observe("edge", edge_id)


def _pick(ids, index: int):
    ids = sorted(ids)
    return ids[index % len(ids)] if ids else None


def _explicit_id(model: Model, kind: str, number: int, style: str) -> str:
    prefix = model.oracles[kind].prefix
    return {"canonical": f"{prefix}{number}",
            "padded": f"{prefix}0{number}",
            "foreign": f"x{number}"}[style]


def mutate(model: Model, op) -> None:
    """Apply one mutation to the model's graph and check its fresh ids."""
    graph = model.graph
    name = op[0]
    if name == "add_node":
        _, explicit, number, style = op
        if explicit:
            node_id = _explicit_id(model, "node", number, style)
            if graph.has_node(node_id):
                return
            graph.add_node("L", node_id=node_id)
            model.observe("node", node_id)
        else:
            model.expect_generated("node", [graph.add_node("L").id])
    elif name == "add_edge":
        _, explicit, number, style, source, target = op
        source, target = _pick(graph.node_store, source), _pick(graph.node_store, target)
        if source is None:
            return
        if explicit:
            edge_id = _explicit_id(model, "edge", number, style)
            if graph.has_edge(edge_id):
                return
            graph.add_edge(source, target, "r", edge_id=edge_id)
            model.observe("edge", edge_id)
        else:
            model.expect_generated("edge", [graph.add_edge(source, target, "r").id])
    elif name == "remove_node":
        node_id = _pick(graph.node_store, op[1])
        if node_id is not None:
            graph.remove_node(node_id)
    elif name == "remove_edge":
        edge_id = _pick(graph.edge_store, op[1])
        if edge_id is not None:
            graph.remove_edge(edge_id)
    elif name == "merge":
        _, keep, merge, prefer_kept, drop_duplicates = op
        keep, merge = _pick(graph.node_store, keep), _pick(graph.node_store, merge)
        if keep is None or keep == merge:
            return
        with recording(graph) as recorder:
            graph.merge_nodes(keep, merge, prefer_kept_properties=prefer_kept,
                              drop_duplicate_edges=drop_duplicates)
        (change,) = recorder.drain().changes
        model.expect_generated("edge", change.details["added_edges"])
    elif name == "reserve":
        _, kind, count = op
        reserve = graph.reserve_node_ids if kind == "node" else graph.reserve_edge_ids
        model.expect_generated(kind, reserve(count))
    model.check_counters()


def run(model: Model, op) -> Model:
    """Apply one step, which may replace the graph; returns the model the
    sequence continues on."""
    graph = model.graph
    name = op[0]
    if name == "rollback":
        with RepairSession(graph, RuleSet([]), config=RepairConfig.naive()) as session:
            with session.transaction():
                for inner in op[1]:
                    mutate(model, inner)
            with recording(graph) as recorder:
                session.rollback()
        model.observe_restored(recorder.drain())
    elif name == "replay":
        target = Model(graph.copy())
        with recording(graph) as recorder:
            for inner in op[1]:
                mutate(model, inner)
        with recording(target.graph) as replayed:
            replay_delta(target.graph, recorder.drain())
        target.observe_restored(replayed.drain())
        target.check_counters()
        return target
    elif name == "copy":
        return Model(graph.copy())
    elif name == "subgraph":
        _, keep, namespace = op
        kept = [node_id for position, node_id in enumerate(sorted(graph.node_store))
                if keep >> (position % 16) & 1]
        return Model(graph.subgraph(kept, id_namespace=namespace))
    elif name == "snapshot":
        document = json.loads(json.dumps(codec.encode_graph(graph)))
        restored = codec.decode_graph(document)
        return Model(restored, counters=(model.oracles["node"].counter,
                                         model.oracles["edge"].counter))
    else:
        mutate(model, op)
    return model


_index = st.integers(min_value=0, max_value=40)
_number = st.integers(min_value=0, max_value=25)
_style = st.sampled_from(["canonical", "canonical", "padded", "foreign"])

mutations = st.one_of(
    st.tuples(st.just("add_node"), st.booleans(), _number, _style),
    st.tuples(st.just("add_edge"), st.booleans(), _number, _style, _index, _index),
    st.tuples(st.just("remove_node"), _index),
    st.tuples(st.just("remove_edge"), _index),
    st.tuples(st.just("merge"), _index, _index, st.booleans(), st.booleans()),
    st.tuples(st.just("reserve"), st.sampled_from(["node", "edge"]),
              st.integers(min_value=0, max_value=4)),
)
steps = st.one_of(
    mutations, mutations, mutations,
    st.tuples(st.just("rollback"), st.lists(mutations, max_size=6)),
    st.tuples(st.just("replay"), st.lists(mutations, max_size=6)),
    st.tuples(st.just("copy")),
    st.tuples(st.just("subgraph"), st.integers(min_value=0, max_value=0xFFFF),
              st.sampled_from([None, "s0"])),
    st.tuples(st.just("snapshot")),
)


@given(sequence=st.lists(steps, max_size=40))
@settings(max_examples=150, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
def test_generated_ids_equal_the_set_based_generator(sequence):
    model = Model(PropertyGraph())
    for step in sequence:
        model = run(model, step)
    # and the next fresh ids still agree
    model.expect_generated("node", [model.graph.add_node("L").id])
    source = model.graph.node_ids()[0]
    model.expect_generated("edge", [model.graph.add_edge(source, source, "r").id])


def test_generators_hold_no_entry_per_element():
    graph = load_dataset("kg", scale=300, seed=0).clean.copy()
    assert graph.num_nodes >= 300 and graph.num_edges > 0
    for generator, store in ((graph._node_ids, graph.node_store),
                             (graph._edge_ids, graph.edge_store)):
        assert generator.taken is store
        assert generator._retired == set()
        assert set(vars(generator)) == {"prefix", "taken", "_counter", "_retired"}
    # a removed generated id sits below the counter after a fresh add, and
    # an explicit id ahead of it is the only kind of id retire() records
    fresh = graph.add_node("Person")
    graph.remove_node(fresh.id)
    graph.add_node("Person", node_id="n999999")
    graph.remove_node("n999999")
    assert graph._node_ids._retired == {"n999999"}
