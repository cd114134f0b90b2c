"""Unit tests for the shared utilities (ids, rng, timing)."""

from __future__ import annotations

import time

import pytest

from repro.utils import IdGenerator, SeededRNG, Stopwatch, TimingBreakdown, ensure_rng, timed
from repro.utils.rng import sample_without_replacement, weighted_choice, zipf_weights


class TestIdGenerator:
    def test_ids_are_unique_and_prefixed(self):
        generator = IdGenerator(prefix="n")
        ids = [generator.next() for _ in range(100)]
        assert len(set(ids)) == 100
        assert all(identifier.startswith("n") for identifier in ids)

    def test_taken_and_retired_ids_are_skipped(self):
        live = {"n0": None, "n2": None}
        generator = IdGenerator(prefix="n", taken=live)
        generator.retire("n1")
        assert generator.next() == "n3"
        assert generator._retired == set()

    def test_retire_keeps_only_ids_the_counter_can_reach(self):
        generator = IdGenerator(prefix="n")
        generator.reserve(5)
        for element_id in ("n3", "n05", "x9", "n", "n٣", "n7", "n12"):
            generator.retire(element_id)
        assert generator._retired == {"n7", "n12"}
        assert [generator.next() for _ in range(3)] == ["n5", "n6", "n8"]
        assert generator._retired == {"n12"}

    def test_callable_shorthand(self):
        generator = IdGenerator(prefix="e")
        assert generator() == "e0"


class TestRng:
    def test_ensure_rng_accepts_seed_rng_and_none(self):
        rng = ensure_rng(42)
        assert isinstance(rng, SeededRNG)
        assert ensure_rng(rng) is rng
        default = ensure_rng(None)
        assert default.random() == ensure_rng(None).random()  # deterministic default

    def test_same_seed_same_sequence(self):
        first = ensure_rng(7)
        second = ensure_rng(7)
        assert [first.random() for _ in range(5)] == [second.random() for _ in range(5)]

    def test_zipf_weights_are_decreasing(self):
        weights = zipf_weights(10, 1.0)
        assert len(weights) == 10
        assert all(earlier >= later for earlier, later in zip(weights, weights[1:]))
        assert zipf_weights(0) == []

    def test_weighted_choice_validates_input(self):
        rng = ensure_rng(0)
        with pytest.raises(ValueError):
            weighted_choice(rng, ["a"], [1.0, 2.0])
        with pytest.raises(ValueError):
            weighted_choice(rng, [], [])
        assert weighted_choice(rng, ["a", "b"], [0.0, 1.0]) == "b"

    def test_sample_without_replacement_caps_at_population(self):
        rng = ensure_rng(0)
        sample = sample_without_replacement(rng, range(3), 10)
        assert sorted(sample) == [0, 1, 2]


class TestTiming:
    def test_stopwatch_accumulates(self):
        watch = Stopwatch()
        with watch:
            time.sleep(0.001)
        first = watch.elapsed
        with watch:
            time.sleep(0.001)
        assert watch.elapsed > first
        watch.reset()
        assert watch.elapsed == 0.0

    def test_stopwatch_misuse_raises(self):
        watch = Stopwatch()
        with pytest.raises(RuntimeError):
            watch.stop()
        watch.start()
        with pytest.raises(RuntimeError):
            watch.start()

    def test_timing_breakdown_measure_and_merge(self):
        breakdown = TimingBreakdown()
        with breakdown.measure("phase-a"):
            time.sleep(0.001)
        breakdown.add("phase-b", 1.0)
        other = TimingBreakdown({"phase-b": 0.5, "phase-c": 0.25})
        merged = breakdown.merge(other)
        assert merged.get("phase-b") == pytest.approx(1.5)
        assert merged.get("phase-c") == pytest.approx(0.25)
        assert merged.total >= 1.75
        assert "phase-a" in merged.as_dict()

    def test_timed_context_manager(self):
        with timed() as elapsed:
            time.sleep(0.001)
        assert elapsed[0] > 0.0
