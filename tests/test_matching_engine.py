"""Unit tests for the candidate index, the VF2 matcher, and the matcher facade."""

from __future__ import annotations

import pytest

from repro.exceptions import MatchingError
from repro.graph import PropertyGraph
from repro.matching import (
    CandidateIndex,
    Matcher,
    MatcherConfig,
    Pattern,
    PatternEdge,
    PatternNode,
    VF2Matcher,
    different_value,
    naive_candidates,
    pattern_requirements,
    same_value,
)


@pytest.fixture
def born_in_pattern() -> Pattern:
    return Pattern(nodes=[PatternNode("p", "Person"), PatternNode("c", "City")],
                   edges=[PatternEdge("p", "c", "bornIn")], name="born-in")


class TestCandidateIndex:
    def test_label_buckets(self, tiny_kg):
        index = CandidateIndex(tiny_kg)
        assert index.label_count("Person") == 4
        assert index.label_count("City") == 2
        assert index.label_count(None) == tiny_kg.num_nodes
        assert index.nodes_with_label("Ghost") == set()

    def test_signature_pruning(self, tiny_kg, born_in_pattern):
        index = CandidateIndex(tiny_kg)
        candidates = index.candidates(born_in_pattern, "p")
        # every person has a bornIn edge, so all four qualify
        assert len(candidates) == 4
        requirements = pattern_requirements(born_in_pattern, "p")
        assert requirements[0]["bornIn"] == 1

    def test_index_agrees_with_naive_candidates(self, tiny_kg, born_in_pattern):
        index = CandidateIndex(tiny_kg)
        for variable in born_in_pattern.variables:
            assert sorted(index.candidates(born_in_pattern, variable)) == \
                sorted(naive_candidates(tiny_kg, born_in_pattern, variable))

    def test_incremental_maintenance_matches_rebuild(self, tiny_kg, born_in_pattern):
        graph = tiny_kg.copy()
        index = CandidateIndex(graph)
        index.attach()
        # a batch of mutations of every kind
        new_person = graph.add_node("Person", {"name": "Zed"})
        city = graph.nodes_with_label("City")[0]
        edge = graph.add_edge(new_person.id, city.id, "bornIn")
        graph.relabel_node(new_person.id, "Author")
        graph.relabel_node(new_person.id, "Person")
        graph.update_node(new_person.id, {"name": "Zed!"})
        graph.remove_edge(edge.id)
        graph.add_edge(new_person.id, city.id, "bornIn")
        person_to_remove = graph.nodes_with_label("Person")[0]
        graph.remove_node(person_to_remove.id)
        ada_ids = [node.id for node in graph.nodes_with_label("Person")
                   if node.get("name") == "Ada"]
        if len(ada_ids) >= 2:
            graph.merge_nodes(ada_ids[0], ada_ids[1])
        index.detach()

        fresh = CandidateIndex(graph)
        for variable in born_in_pattern.variables:
            assert sorted(index.candidates(born_in_pattern, variable)) == \
                sorted(fresh.candidates(born_in_pattern, variable))


class TestVF2Matcher:
    def test_all_matches_found(self, tiny_kg, born_in_pattern):
        matcher = VF2Matcher(graph=tiny_kg)
        matches = matcher.find_matches(born_in_pattern)
        assert len(matches) == 4  # Ada, Ada2, Bob, Carol

    def test_matches_satisfy_the_oracle(self, tiny_kg, duplicate_person_pattern):
        matcher = VF2Matcher(graph=tiny_kg)
        matches = matcher.find_matches(duplicate_person_pattern)
        assert matches
        for match in matches:
            assert duplicate_person_pattern.check_match(tiny_kg, match.node_bindings)

    def test_limit_truncates(self, tiny_kg, born_in_pattern):
        matcher = VF2Matcher(graph=tiny_kg)
        assert len(matcher.find_matches(born_in_pattern, limit=2)) == 2
        assert matcher.count(born_in_pattern, limit=3) == 3

    def test_seeded_search_restricts_results(self, tiny_kg, born_in_pattern):
        bob = next(node.id for node in tiny_kg.nodes_with_label("Person")
                   if node.get("name") == "Bob")
        matcher = VF2Matcher(graph=tiny_kg)
        matches = matcher.find_matches(born_in_pattern, seed={"p": bob})
        assert len(matches) == 1
        assert matches[0].node_id("p") == bob

    def test_seed_violating_label_yields_nothing(self, tiny_kg, born_in_pattern):
        country = tiny_kg.nodes_with_label("Country")[0]
        matcher = VF2Matcher(graph=tiny_kg)
        assert matcher.find_matches(born_in_pattern, seed={"p": country.id}) == []

    def test_seed_with_unknown_variable_raises(self, tiny_kg, born_in_pattern):
        matcher = VF2Matcher(graph=tiny_kg)
        with pytest.raises(MatchingError):
            matcher.find_matches(born_in_pattern, seed={"zzz": "n0"})

    def test_edge_variables_bind_distinct_edges(self, tiny_kg):
        pattern = Pattern(
            nodes=[PatternNode("p", "Person"), PatternNode("c", "City")],
            edges=[PatternEdge("p", "c", "livesIn", variable="e1"),
                   PatternEdge("p", "c", "livesIn", variable="e2")],
            name="dup-lives-in")
        matcher = VF2Matcher(graph=tiny_kg)
        matches = matcher.find_matches(pattern)
        # Ada has two livesIn edges to Paris: two orderings of (e1, e2)
        assert len(matches) == 2
        for match in matches:
            assert match.edge_id("e1") != match.edge_id("e2")

    def test_self_loop_pattern(self):
        graph = PropertyGraph()
        user = graph.add_node("User")
        other = graph.add_node("User")
        graph.add_edge(user.id, user.id, "follows")
        graph.add_edge(user.id, other.id, "follows")
        pattern = Pattern(nodes=[PatternNode("u", "User")],
                          edges=[PatternEdge("u", "u", "follows", variable="e")],
                          name="self-follow")
        matches = VF2Matcher(graph=graph).find_matches(pattern)
        assert len(matches) == 1
        assert matches[0].node_id("u") == user.id

    def test_comparison_pruning_correctness(self, tiny_kg):
        pattern = Pattern(
            nodes=[PatternNode("a", "Person"), PatternNode("b", "Person"),
                   PatternNode("c", "City")],
            edges=[PatternEdge("a", "c", "bornIn"), PatternEdge("b", "c", "bornIn")],
            comparisons=[different_value("a", "name", "b")],
            name="different-names")
        matches = VF2Matcher(graph=tiny_kg).find_matches(pattern)
        # Bob/Carol in Paris in both orders; Ada/Ada2 excluded (same name)
        assert len(matches) == 2

    def test_stats_are_collected(self, tiny_kg, born_in_pattern):
        matcher = VF2Matcher(graph=tiny_kg)
        matcher.find_matches(born_in_pattern)
        assert matcher.stats.matches_found == 4
        assert matcher.stats.nodes_tried > 0

    def test_existence_probes_record_hit_and_time(self, tiny_kg, born_in_pattern):
        """find_one / exists stop at the first match; the hit and the time
        spent must still reach the stats (a seeded and an unseeded probe)."""
        matcher = VF2Matcher(graph=tiny_kg, candidate_index=CandidateIndex(tiny_kg))
        person = next(iter(tiny_kg.node_ids_with_label("Person")))
        assert matcher.exists(born_in_pattern)
        assert matcher.stats.matches_found == 1
        first_elapsed = matcher.stats.elapsed_seconds
        assert first_elapsed > 0
        assert matcher.find_one(born_in_pattern, seed={"p": person}) is not None
        assert matcher.stats.matches_found == 2
        assert matcher.stats.elapsed_seconds > first_elapsed

    def test_fully_bound_probe_checks_edges_and_comparisons(self, tiny_kg):
        """A seed binding every node variable still binds edge variables to
        distinct witnesses, and fails where the parallel edges are missing."""
        pattern = Pattern(
            nodes=[PatternNode("p", "Person"), PatternNode("c", "City")],
            edges=[PatternEdge("p", "c", "livesIn", variable="e1"),
                   PatternEdge("p", "c", "livesIn", variable="e2")],
            name="dup-lives-in")
        matcher = VF2Matcher(graph=tiny_kg, candidate_index=CandidateIndex(tiny_kg))
        expected = matcher.find_matches(pattern)
        assert len(expected) == 2  # Ada's two parallel livesIn edges, both ways
        for match in expected:
            probed = matcher.find_matches(pattern, seed=match.node_bindings)
            assert {m.key() for m in probed} == {m.key() for m in expected}
        bob = next(node.id for node in tiny_kg.nodes()
                   if node.properties.get("name") == "Bob")
        paris = next(node.id for node in tiny_kg.nodes()
                     if node.properties.get("name") == "Paris")
        assert not matcher.exists(pattern, seed={"p": bob, "c": paris})


class TestMatcherConfigurations:
    @pytest.mark.parametrize("config", [
        MatcherConfig.naive(),
        MatcherConfig(use_candidate_index=True, use_decomposition=False),
        MatcherConfig(use_candidate_index=False, use_decomposition=True),
        MatcherConfig.optimized(),
    ], ids=["naive", "index-only", "decomposition-only", "optimized"])
    def test_all_configurations_agree(self, tiny_kg, duplicate_person_pattern, config):
        reference = Matcher(tiny_kg, MatcherConfig.naive())
        expected = {match.key() for match in reference.find_matches(duplicate_person_pattern)}
        matcher = Matcher(tiny_kg, config)
        actual = {match.key() for match in matcher.find_matches(duplicate_person_pattern)}
        assert actual == expected
        matcher.close()
        reference.close()

    def test_exists_extension_with_partial_bindings(self, tiny_kg):
        nationality = Pattern(nodes=[PatternNode("p", "Person"),
                                     PatternNode("k", "Country")],
                              edges=[PatternEdge("p", "k", "nationality")],
                              name="has-nationality")
        matcher = Matcher(tiny_kg)
        people: dict[str, str] = {}
        for node in tiny_kg.nodes_with_label("Person"):
            people.setdefault(node.get("name"), node.id)  # first Ada has a nationality
        assert matcher.exists_extension(nationality, {"p": people["Ada"]})
        assert not matcher.exists_extension(nationality, {"p": people["Carol"]})
        # bindings for variables the pattern does not declare are ignored
        assert matcher.exists_extension(nationality, {"p": people["Ada"], "other": "x"})
        matcher.close()

    def test_limit_is_per_call_only(self, tiny_kg, born_in_pattern):
        """No configured cap: the facade enumerates every match unless the
        call itself passes ``limit``."""
        with Matcher(tiny_kg, MatcherConfig.optimized()) as matcher:
            assert len(matcher.find_matches(born_in_pattern)) == 4
            assert len(matcher.find_matches(born_in_pattern, limit=1)) == 1
            assert matcher.count(born_in_pattern) == 4
            assert matcher.count(born_in_pattern, limit=2) == 2
            assert matcher.find_one(born_in_pattern) is not None
            assert matcher.exists(born_in_pattern)

    def test_context_manager_detaches_index(self, tiny_kg, born_in_pattern):
        with Matcher(tiny_kg, MatcherConfig.optimized()) as matcher:
            assert matcher.find_matches(born_in_pattern)
        # after close, further graph mutations must not break anything
        tiny_kg_copy = tiny_kg.copy()
        assert tiny_kg_copy.num_nodes == tiny_kg.num_nodes
