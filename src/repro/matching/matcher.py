"""High-level matching facade used by the repair engine and the experiments.

:class:`Matcher` bundles the configuration switches the paper's evaluation
ablates (candidate index on/off, decomposition on/off) behind a single object
so that callers — the detectors, the repairers, the benchmarks — never touch
the individual machinery.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Mapping

from repro.telemetry import TELEMETRY as _TELEMETRY
from repro.telemetry import observe as _observe
from repro.graph.property_graph import PropertyGraph
from repro.matching.index import CandidateIndex
from repro.matching.pattern import Match, Pattern
from repro.matching.vf2 import MatchingStats, VF2Matcher


@dataclass
class MatcherConfig:
    """Configuration of the matching layer.

    ``use_candidate_index`` and ``use_decomposition`` are the two matching
    optimisations ablated in experiment E5; ``use_cost_planner`` replaces the
    static decomposition order with a statistics-driven plan (it needs both
    of the others to act).  Enumeration is uncapped unless a call passes its
    own ``limit``.
    """

    use_candidate_index: bool = True
    use_decomposition: bool = True
    use_cost_planner: bool = True

    @classmethod
    def naive(cls) -> "MatcherConfig":
        """Everything off — the unoptimised configuration."""
        return cls(use_candidate_index=False, use_decomposition=False,
                   use_cost_planner=False)

    @classmethod
    def optimized(cls) -> "MatcherConfig":
        """Everything on — the paper's efficient configuration."""
        return cls(use_candidate_index=True, use_decomposition=True,
                   use_cost_planner=True)


@dataclass
class Matcher:
    """Pattern matching against one graph with a fixed configuration.

    The candidate index (when configured) is attached to the graph's change
    feed for the matcher's lifetime and detached by :meth:`close`: it reads
    label buckets and signatures live from the graph, so its value buckets
    must follow every mutation too.
    """

    graph: PropertyGraph
    config: MatcherConfig = field(default_factory=MatcherConfig)
    stats: MatchingStats = field(default_factory=MatchingStats)
    _index: CandidateIndex | None = field(default=None, repr=False)
    # One engine for the matcher's lifetime: compiled per-pattern search
    # plans are reused across queries and stats accumulate in one place.
    _engine: VF2Matcher | None = field(default=None, repr=False)

    def __post_init__(self) -> None:
        if self.config.use_candidate_index:
            self._index = CandidateIndex(self.graph)
            self._index.attach()
        engine = VF2Matcher(graph=self.graph, candidate_index=self._index,
                            use_decomposition=self.config.use_decomposition,
                            use_cost_planner=self.config.use_cost_planner)
        engine.stats = self.stats
        self._engine = engine

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------

    @property
    def candidate_index(self) -> CandidateIndex | None:
        return self._index

    def close(self) -> None:
        """Detach the candidate index from the graph's change feed."""
        if self._index is not None:
            self._index.detach()

    def __enter__(self) -> "Matcher":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------

    @staticmethod
    def _timed(phase: str, query, *args, **kwargs):
        """Run ``query``, observing its wall time as ``repro_match_seconds``
        under ``phase`` when telemetry is on (and timing nothing when off)."""
        if not _TELEMETRY.enabled:
            return query(*args, **kwargs)
        started = time.perf_counter()
        try:
            return query(*args, **kwargs)
        finally:
            _observe("repro_match_seconds", time.perf_counter() - started,
                     phase=phase)

    def find_matches(self, pattern: Pattern, seed: Mapping[str, str] | None = None,
                     limit: int | None = None) -> list[Match]:
        """All matches of ``pattern`` (at most ``limit`` when given)."""
        return self._timed("find-matches", self._engine.find_matches, pattern,
                           seed=seed, limit=limit)

    def find_one(self, pattern: Pattern, seed: Mapping[str, str] | None = None) -> Match | None:
        return self._timed("find-one", self._engine.find_one, pattern, seed=seed)

    def exists(self, pattern: Pattern, seed: Mapping[str, str] | None = None) -> bool:
        return self._timed("exists", self._engine.exists, pattern, seed=seed)

    def count(self, pattern: Pattern, limit: int | None = None) -> int:
        return self._timed("count", self._engine.count, pattern, limit=limit)

    def exists_extension(self, pattern: Pattern, bindings: Mapping[str, str]) -> bool:
        """Whether ``pattern`` has a match consistent with ``bindings``.

        See :meth:`VF2Matcher.exists_extension
        <repro.matching.vf2.VF2Matcher.exists_extension>`.
        """
        return self._engine.exists_extension(pattern, bindings)
