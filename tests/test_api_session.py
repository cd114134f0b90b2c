"""Tests for the ``repro.api`` package: RepairSession, RepairConfig, the
Repairer protocol, transactions, the repair drain, and events."""

from __future__ import annotations

import dataclasses
import re

import pytest

from repro.api import (
    CommitResult,
    FastBackend,
    GreedyBackend,
    NaiveBackend,
    RepairConfig,
    Repairer,
    RepairSession,
    SessionEvents,
    available_backends,
    build_backend,
    register_backend,
    repair_copy,
)
from repro.exceptions import SessionStateError
from repro.graph import ChangeRecorder, GraphDelta, PropertyGraph
from repro.matching.matcher import MatcherConfig
from repro.repair.events import MaintenanceEvent
from repro.repair.cost import CostModel
from repro.rules import knowledge_graph_rules


def _exactly_equal(graph: PropertyGraph, other: PropertyGraph) -> bool:
    """Structural equality plus id-for-id equality (rollback is exact)."""
    return (graph.structurally_equal(other)
            and sorted(graph.node_ids()) == sorted(other.node_ids())
            and sorted(graph.edge_ids()) == sorted(other.edge_ids()))


def _clustered_kg(clusters: int = 4) -> PropertyGraph:
    """A KG whose violations live in ``2 * clusters`` mutually disjoint regions.

    Each cluster contributes one incompleteness violation (a person with a
    missing nationality, in its own country/city neighbourhood) and one
    redundancy violation (a duplicated ``livesIn`` edge around a *different*
    city) — no two violation matches share a node, so no repair obsoletes
    another.
    """
    graph = PropertyGraph(name="clustered-kg")
    for i in range(clusters):
        country = graph.add_node("Country", {"name": f"Country{i}"})
        city = graph.add_node("City", {"name": f"City{i}"})
        graph.add_edge(city.id, country.id, "inCountry", {"confidence": 1.0})
        incomplete = graph.add_node("Person", {"name": f"NoNat{i}"})
        graph.add_edge(incomplete.id, city.id, "bornIn", {"confidence": 1.0})
        other_city = graph.add_node("City", {"name": f"Suburb{i}"})
        dweller = graph.add_node("Person", {"name": f"Dweller{i}"})
        graph.add_edge(dweller.id, other_city.id, "livesIn", {"confidence": 1.0})
        graph.add_edge(dweller.id, other_city.id, "livesIn", {"confidence": 1.0})
    return graph


# ---------------------------------------------------------------------------
# Repairer protocol and backend registry
# ---------------------------------------------------------------------------


class TestRepairerProtocol:
    @pytest.mark.parametrize("factory,config", [
        (FastBackend, RepairConfig.fast()),
        (NaiveBackend, RepairConfig.naive()),
        (GreedyBackend, RepairConfig.baseline()),
    ])
    def test_backends_satisfy_the_protocol(self, factory, config):
        backend = factory(config)
        assert isinstance(backend, Repairer)

    def test_build_backend_by_name(self):
        assert isinstance(build_backend(RepairConfig.fast()), FastBackend)
        assert isinstance(build_backend(RepairConfig.naive()), NaiveBackend)
        assert isinstance(build_backend(RepairConfig.baseline()), GreedyBackend)

    def test_fast_without_incremental_degrades_to_naive(self):
        config = RepairConfig.fast(use_incremental=False)
        assert isinstance(build_backend(config), NaiveBackend)

    def test_unknown_backend_rejected(self):
        with pytest.raises(ValueError, match="unknown repair method"):
            build_backend(RepairConfig.fast(backend="quantum"))

    def test_custom_backend_registration(self):
        class EchoBackend(NaiveBackend):
            name = "echo"

        register_backend("echo", EchoBackend)
        try:
            backend = build_backend(RepairConfig.fast(backend="echo"))
            assert isinstance(backend, EchoBackend)
            assert "echo" in available_backends()
        finally:
            from repro.api.backend import _BACKENDS

            _BACKENDS.pop("echo", None)

    def test_lifecycle_methods_work_standalone(self, tiny_kg, kg_rules):
        """plan/apply/maintain compose into a hand-rolled repair loop."""
        graph = tiny_kg.copy()
        backend = build_backend(RepairConfig.fast())
        backend.bind(graph, kg_rules)
        pending = backend.plan()
        assert pending
        outcome = backend.apply(pending[0])
        assert outcome.applied and outcome.delta
        event = backend.maintain(outcome.delta, source="commit")
        assert event.passes == 1
        backend.close()


# ---------------------------------------------------------------------------
# RepairConfig presets and builder
# ---------------------------------------------------------------------------


class TestRepairConfig:
    def test_presets(self):
        fast = RepairConfig.fast()
        assert fast.backend == "fast" and fast.use_incremental
        naive = RepairConfig.naive()
        assert naive.backend == "naive" and not naive.use_candidate_index
        baseline = RepairConfig.baseline()
        assert baseline.backend == "greedy"
        # the one remaining mapping: the re-detection loops' matcher config
        assert fast.to_matcher_config() == MatcherConfig.optimized()
        assert naive.to_matcher_config() == MatcherConfig.naive()

    def test_builder_chain(self):
        config = (RepairConfig.fast()
                  .with_budget(max_repairs=10, max_rounds=5)
                  .with_cost_model(CostModel(add_edge=2.0))
                  .with_options(check_consistency=True))
        assert config.max_repairs == 10 and config.max_rounds == 5
        assert config.cost_model.add_edge == 2.0
        assert config.check_consistency
        # builder steps return copies, the preset is untouched
        assert RepairConfig.fast().max_repairs is None

    def test_ablation_variants(self):
        """The five E5 variants, pinned field for field."""
        optimised = dict(backend="fast", use_candidate_index=True,
                         use_decomposition=True, use_incremental=True,
                         use_cost_planner=True)
        expected = {
            "none": {},
            "index": {"use_candidate_index": False},
            "decomposition": {"use_decomposition": False},
            "planner": {"use_cost_planner": False},
            "incremental": {"backend": "naive", "use_incremental": False},
        }
        for variant, changed in expected.items():
            assert RepairConfig.ablation(variant) \
                == RepairConfig(**{**optimised, **changed}), variant
        with pytest.raises(ValueError):
            RepairConfig.ablation("warp-drive")

    def test_fields(self):
        """One config, 13 knobs: a new field must be argued for here."""
        assert [field.name for field in dataclasses.fields(RepairConfig)] == [
            "backend", "use_candidate_index", "use_decomposition",
            "use_incremental", "use_cost_planner", "cost_model",
            "max_repairs", "workers", "parallel_inline",
            "min_partition_nodes", "max_rounds", "check_consistency",
            "require_consistency"]

    def test_matcher_config_fields(self):
        """The matching layer keeps only the three optimisation switches."""
        assert [field.name for field in dataclasses.fields(MatcherConfig)] == [
            "use_candidate_index", "use_decomposition", "use_cost_planner"]

    def test_removed_knobs_are_rejected(self):
        """The batched drain and the enumeration caps are gone, not ignored
        (docs/MIGRATION.md, "Batched drain and enumeration caps")."""
        with pytest.raises(TypeError):
            RepairConfig(batch_repairs=True)
        with pytest.raises(TypeError):
            RepairConfig(match_limit_per_rule=1)
        with pytest.raises(TypeError):
            MatcherConfig(time_budget=1.0)
        with pytest.raises(AttributeError):
            RepairConfig.fast().batched

    def test_sharded_has_one_fanout_path(self):
        """The worker pool is the only fan-out: there is no mode to pick."""
        with pytest.raises(TypeError):
            RepairConfig.sharded(workers=2, warm=True)

    def test_session_rejects_other_config_types(self, tiny_kg, kg_rules):
        with pytest.raises(TypeError, match="docs/MIGRATION.md"):
            RepairSession(tiny_kg.copy(), kg_rules, config=object())

    def test_session_keeps_the_given_config(self, tiny_kg, kg_rules):
        config = RepairConfig.naive(max_rounds=7)
        with RepairSession(tiny_kg.copy(), kg_rules, config=config) as session:
            assert session.config is config
        with RepairSession(tiny_kg.copy(), kg_rules, config=None) as session:
            assert session.config == RepairConfig.fast()

    def test_to_matcher_config_follows_each_switch(self):
        """Every matching knob reaches the matcher config on its own."""
        switches = ("use_candidate_index", "use_decomposition",
                    "use_cost_planner")
        for switch in switches:
            config = RepairConfig.fast(**{switch: False})
            matcher = config.to_matcher_config()
            for name in switches:
                assert getattr(matcher, name) is (name != switch), (switch, name)

    def test_one_config_class(self):
        """The packages re-export one class, and the backend registry
        carries no alias."""
        import importlib.util

        import repro
        import repro.repair
        import repro.repair.config

        assert repro.RepairConfig is RepairConfig
        assert repro.repair.RepairConfig is RepairConfig
        assert repro.repair.config.RepairConfig is RepairConfig
        assert importlib.util.find_spec("repro.api.config") is None
        assert "greedy-delete" not in available_backends()


# ---------------------------------------------------------------------------
# Session transactions
# ---------------------------------------------------------------------------


class TestSessionTransactions:
    def test_stage_then_commit_feeds_the_queue(self, tiny_kg, kg_rules):
        graph = tiny_kg.copy()
        with RepairSession(graph, kg_rules) as session:
            session.repair()
            assert session.violations() == []

            # a new person born in Paris without a nationality: one new
            # incompleteness violation once committed
            def edit(g):
                dave = g.add_node("Person", {"name": "Dave"})
                g.add_edge(dave.id, "n2", "bornIn", {"confidence": 1.0})

            delta = session.stage(edit)
            assert len(delta) == 2 and session.staged == 1
            result = session.commit()
            assert isinstance(result, CommitResult)
            assert result.maintenance.passes == 1
            assert result.discovered == 1
            assert session.staged == 0
            assert len(session.violations()) == 1

            report = session.repair()
            assert report.reached_fixpoint
            assert session.violations() == []

    def test_transaction_context_manager_stages(self, tiny_kg, kg_rules):
        graph = tiny_kg.copy()
        with RepairSession(graph, kg_rules) as session:
            session.repair()
            with session.transaction() as g:
                eve = g.add_node("Person", {"name": "Eve"})
                g.add_edge(eve.id, "n2", "bornIn", {"confidence": 1.0})
            assert session.staged == 1
            assert session.commit().discovered == 1

    def test_rollback_restores_pre_stage_graph_exactly(self, tiny_kg, kg_rules):
        graph = tiny_kg.copy()
        with RepairSession(graph, kg_rules) as session:
            session.repair()
            snapshot = graph.copy()
            pending_before = [v.key() for v in session.violations()]

            def messy_edit(g):
                extra = g.add_node("Person", {"name": "Mallory"})
                g.add_edge(extra.id, "n2", "bornIn", {"confidence": 1.0})
                g.remove_edge("e0")
                g.update_node("n0", {"name": "Francia"})
                g.merge_nodes("n2", "n3")

            session.stage(messy_edit)
            assert not graph.structurally_equal(snapshot)
            session.rollback()
            assert _exactly_equal(graph, snapshot)
            assert session.staged == 0
            # matcher state never saw the staged edits
            assert [v.key() for v in session.violations()] == pending_before
            # and the session is still fully functional
            assert session.repair().reached_fixpoint

    def test_failed_transaction_is_undone(self, tiny_kg, kg_rules):
        graph = tiny_kg.copy()
        with RepairSession(graph, kg_rules) as session:
            snapshot = graph.copy()
            with pytest.raises(RuntimeError, match="boom"):
                with session.transaction() as g:
                    g.add_node("Person", {"name": "Ghost"})
                    raise RuntimeError("boom")
            assert _exactly_equal(graph, snapshot)
            assert session.staged == 0

    def test_failed_stage_callable_is_undone(self, tiny_kg, kg_rules):
        graph = tiny_kg.copy()
        with RepairSession(graph, kg_rules) as session:
            snapshot = graph.copy()

            def exploding(g):
                g.add_node("Person", {"name": "Ghost"})
                raise RuntimeError("boom")

            with pytest.raises(RuntimeError, match="boom"):
                session.stage(exploding)
            assert _exactly_equal(graph, snapshot)
            assert session.staged == 0

    def test_transactions_do_not_nest(self, tiny_kg, kg_rules):
        """Overlapping recorders would double-record inner edits; nested
        entry must be rejected and the outer transaction stay intact."""
        graph = tiny_kg.copy()
        with RepairSession(graph, kg_rules) as session:
            snapshot = graph.copy()
            with session.transaction() as g:
                g.add_node("Person", {"name": "Outer"})
                with pytest.raises(SessionStateError, match="nest"):
                    session.stage(lambda gg: gg.add_node("Person",
                                                         {"name": "Inner"}))
                with pytest.raises(SessionStateError, match="nest"):
                    with session.transaction():
                        pass
            assert session.staged == 1
            session.rollback()
            assert _exactly_equal(graph, snapshot)
            # the guard resets: a fresh transaction works
            session.stage(lambda gg: gg.add_node("Person", {"name": "Again"}))
            session.rollback()
            assert _exactly_equal(graph, snapshot)

    def test_mutating_operations_illegal_mid_transaction(self, tiny_kg, kg_rules):
        """repair/commit/rollback inside an open transaction would bypass the
        staged-edits invariant (the live recorder would capture their
        mutations as user edits); all three must be rejected."""
        graph = tiny_kg.copy()
        with RepairSession(graph, kg_rules) as session:
            snapshot = graph.copy()
            with session.transaction() as g:
                g.add_node("Person", {"name": "MidTxn"})
                for operation in (session.repair, session.commit,
                                  session.rollback):
                    with pytest.raises(SessionStateError, match="transaction"):
                        operation()
            session.rollback()
            assert _exactly_equal(graph, snapshot)

    def test_repair_refuses_uncommitted_stage(self, tiny_kg, kg_rules):
        graph = tiny_kg.copy()
        with RepairSession(graph, kg_rules) as session:
            session.stage(lambda g: g.add_node("Person", {"name": "Zoe"}))
            with pytest.raises(SessionStateError, match="staged"):
                session.repair()
            session.rollback()
            session.repair()

    def test_stage_accepts_recorded_delta(self, tiny_kg, kg_rules):
        graph = tiny_kg.copy()
        with RepairSession(graph, kg_rules) as session:
            session.repair()
            # record an edit on a replica of the session's graph state, then
            # stage the recorded delta for real (ids replay verbatim, so the
            # delta must come from the same state)
            scratch = graph.copy()
            recorder = ChangeRecorder()
            scratch.add_listener(recorder)
            walt = scratch.add_node("Person", {"name": "Walt"})
            scratch.add_edge(walt.id, "n2", "bornIn", {"confidence": 1.0})
            recorded = recorder.drain()

            session.stage(recorded)
            assert session.commit().discovered == 1
            assert graph.has_node(walt.id)

    def test_empty_commit_and_rollback_are_noops(self, tiny_kg, kg_rules):
        with RepairSession(tiny_kg.copy(), kg_rules) as session:
            assert session.commit().maintenance.passes == 0
            assert not session.rollback()

    def test_closed_session_rejects_operations(self, tiny_kg, kg_rules):
        session = RepairSession(tiny_kg.copy(), kg_rules)
        session.close()
        assert session.closed
        with pytest.raises(SessionStateError, match="closed"):
            session.repair()
        with pytest.raises(SessionStateError, match="closed"):
            session.stage(lambda g: None)
        session.close()  # idempotent

    def test_committed_edit_can_recreate_a_repaired_violation(self, tiny_kg,
                                                              kg_rules):
        """A violation identity repaired once must become repairable again
        when an external (committed) edit re-introduces it."""
        graph = tiny_kg.copy()
        with RepairSession(graph, kg_rules) as session:
            first = session.repair()
            assert first.reached_fixpoint
            # undo one of the incompleteness repairs: delete the nationality
            # edges the session just added, recreating the original violations
            added = [edge.id for edge in graph.edges()
                     if edge.label == "nationality" and not edge.properties]
            assert added, "expected repair-added nationality edges"
            result = session.apply(
                lambda g: [g.remove_edge(edge_id) for edge_id in added])
            assert result.discovered == len(added)
            report = session.repair()
            assert report.reached_fixpoint
            assert report.remaining_violations == 0

    def test_stage_of_inapplicable_delta_is_fully_undone(self, tiny_kg, kg_rules):
        """A delta that fails mid-replay must leave no partial edits behind."""
        scratch = tiny_kg.copy()
        recorder = ChangeRecorder()
        scratch.add_listener(recorder)
        ghost = scratch.add_node("Person", {"name": "Ghost"})
        phantom = scratch.add_node("City", {"name": "Phantom"})
        scratch.add_edge(ghost.id, phantom.id, "bornIn")
        recorded = recorder.drain()
        # sabotage: drop the middle change so the edge's target is unknown
        del recorded.changes[1]

        graph = tiny_kg.copy()
        with RepairSession(graph, kg_rules) as session:
            snapshot = graph.copy()
            with pytest.raises(Exception):
                session.stage(recorded)
            assert _exactly_equal(graph, snapshot)
            assert session.staged == 0

    def test_apply_is_stage_plus_commit(self, tiny_kg, kg_rules):
        graph = tiny_kg.copy()
        with RepairSession(graph, kg_rules) as session:
            session.repair()

            def edit(g):
                trent = g.add_node("Person", {"name": "Trent"})
                g.add_edge(trent.id, "n2", "bornIn", {"confidence": 1.0})

            result = session.apply(edit)
            assert result.discovered == 1 and session.staged == 0


# ---------------------------------------------------------------------------
# The repair drain
# ---------------------------------------------------------------------------


class TestRepairDrain:
    def test_one_maintenance_pass_per_repair(self, kg_rules):
        """Eight independent violations: eight repairs, each maintained on
        its own before the next violation is popped."""
        with RepairSession(_clustered_kg(clusters=4), kg_rules) as session:
            report = session.repair()
        assert report.reached_fixpoint
        assert report.repairs_applied == 8
        assert report.matching_stats.maintenance_passes == report.repairs_applied


# ---------------------------------------------------------------------------
# Event hooks
# ---------------------------------------------------------------------------


class TestSessionEvents:
    def test_hooks_stream_progress(self, tiny_kg, kg_rules):
        seen_violations, applied, maintenance = [], [], []
        events = SessionEvents(
            on_violation=seen_violations.append,
            on_repair_applied=lambda violation, outcome: applied.append(
                (violation, outcome)),
            on_maintenance=maintenance.append,
        )
        graph = tiny_kg.copy()
        with RepairSession(graph, kg_rules, events=events) as session:
            report = session.repair()

        assert len(seen_violations) == report.violations_detected
        assert len(applied) == report.repairs_applied
        assert all(outcome.applied for _violation, outcome in applied)
        repair_passes = [e for e in maintenance if e.source == "repair"]
        assert len(repair_passes) == report.matching_stats.maintenance_passes

    def test_commit_fires_maintenance_event(self, tiny_kg, kg_rules):
        maintenance = []
        events = SessionEvents(on_maintenance=maintenance.append)
        graph = tiny_kg.copy()
        with RepairSession(graph, kg_rules, events=events) as session:
            session.repair()
            maintenance.clear()
            session.apply(lambda g: g.add_node("Person", {"name": "Nat"}))
        assert [e.source for e in maintenance] == ["commit"]

    def test_drain_maintenance_events(self, kg_rules):
        maintenance = []
        events = SessionEvents(on_maintenance=maintenance.append)
        with RepairSession(_clustered_kg(3), kg_rules,
                           events=events) as session:
            report = session.repair()
        assert len(maintenance) == report.repairs_applied == 6
        assert all(e.source == "repair" for e in maintenance)

    def test_maintenance_sources_are_documented(self, small_kg_workload):
        """Every ``MaintenanceEvent.source`` a fast, naive or sharded session
        emits (repair, then apply) is one ``MaintenanceEvent`` documents."""
        documented = set(re.findall(r'``"([a-z-]+)"``',
                                    MaintenanceEvent.__doc__))
        seen = set()
        events = SessionEvents(
            on_maintenance=lambda event: seen.add(event.source))
        workload = small_kg_workload
        for config in (RepairConfig.fast(), RepairConfig.naive(),
                       RepairConfig.sharded(workers=2, parallel_inline=True,
                                            min_partition_nodes=1)):
            graph = workload.dirty.copy()
            with RepairSession(graph, workload.rules, config=config,
                               events=events) as session:
                session.repair()
                session.apply(lambda g: g.add_node("Person", {"name": "late"}))
        assert seen == documented


# ---------------------------------------------------------------------------
# Entry points
# ---------------------------------------------------------------------------


class TestEntryPoints:
    def test_session_presets(self, tiny_kg, kg_rules):
        with RepairSession(tiny_kg.copy(), kg_rules,
                           config=RepairConfig.fast(max_repairs=3)) as session:
            assert session.config.backend == "fast"
            assert session.config.max_repairs == 3
            report = session.repair()
            assert report.repairs_applied == 3
        with pytest.raises(ValueError, match="unknown repair method"):
            RepairSession(tiny_kg.copy(), kg_rules,
                          config=RepairConfig(backend="quantum"))

    @pytest.mark.parametrize("preset", ["fast", "naive", "baseline"])
    def test_repair_copy_matches_session(self, tiny_kg, kg_rules, preset):
        """The one-shot entry point is a session on a copy: same graph, same
        report, input untouched."""
        config = getattr(RepairConfig, preset)()
        reference = tiny_kg.copy()
        with RepairSession(reference, kg_rules, config=config) as session:
            session_report = session.repair()

        before = tiny_kg.copy()
        repaired, report = repair_copy(tiny_kg, kg_rules, config)
        assert repaired.structurally_equal(reference)
        assert tiny_kg.structurally_equal(before)
        assert report.reached_fixpoint == session_report.reached_fixpoint
        assert report.repairs_applied == session_report.repairs_applied
        assert report.remaining_violations \
            == session_report.remaining_violations

    def test_max_repairs_budgets_each_repair_call(self, tiny_kg, kg_rules):
        """The budget is per repair() call on every backend — a session that
        hit the cap once must make progress on its next call."""
        with RepairSession(tiny_kg.copy(), kg_rules,
                           config=RepairConfig.fast(max_repairs=2)) as session:
            first = session.repair()
            assert first.repairs_applied == 2
            second = session.repair()
            assert second.repairs_applied > 2  # cumulative: later calls add more
            while not session.report.reached_fixpoint:
                session.repair()
            assert session.report.reached_fixpoint

    def test_session_accepts_plain_rule_list(self, tiny_kg):
        rules = list(knowledge_graph_rules())
        with RepairSession(tiny_kg.copy(), rules) as session:
            assert session.repair().reached_fixpoint
