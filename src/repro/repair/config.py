"""The repair configuration.

One builder-style :class:`RepairConfig` carries every knob of a repair run.
The session, every backend, the fast core, the naive loop, the shard workers
and the static-analysis probes all read it directly.  The matching layer
keeps its own :class:`~repro.matching.matcher.MatcherConfig`;
:meth:`RepairConfig.to_matcher_config` is the one mapping between the two.

Usage::

    config = RepairConfig.fast()                       # preset
    config = RepairConfig.naive(max_rounds=20)         # preset + overrides
    config = (RepairConfig.fast()                      # builder chain
              .batched(max_batch=16)
              .with_budget(max_repairs=500)
              .with_options(check_consistency=True))
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from repro.matching.matcher import MatcherConfig
from repro.repair.cost import DEFAULT_COST_MODEL, CostModel


@dataclass
class RepairConfig:
    """Every knob of a repair session / run, in one builder-style dataclass.

    Backend selection and optimisation switches:

    * ``backend`` — ``"fast"`` (incremental GRR repair), ``"naive"``
      (full re-detection per round), ``"greedy"`` (the deletion baseline),
      or ``"sharded"`` (the fast algorithm fanned out over worker processes);
    * ``use_candidate_index`` / ``use_decomposition`` / ``use_incremental`` —
      the paper's three optimisations (E5 ablation); a fast backend with
      ``use_incremental=False`` degrades to the naive loop with an optimised
      matcher;
    * ``use_cost_planner`` — the statistics-driven match planner layered on
      top of decomposition (``ablation("planner")`` disables just it);
    * ``batch_repairs`` / ``max_batch`` — drain the violation queue in
      batches of region-independent violations maintained under one merged
      incremental pass (fast and sharded backends);
    * ``workers`` / ``parallel_inline`` / ``min_partition_nodes`` — the
      ``"sharded"`` backend's fan-out knobs (see :meth:`sharded` and
      :mod:`repro.parallel`).

    Budgets and ordering: ``cost_model`` orders pending violations (cheapest
    first within a priority tier); ``max_repairs`` caps the repairs of one
    ``repair()`` call and ``max_rounds`` the naive and greedy loops' rounds;
    ``match_limit_per_rule`` caps match enumeration per rule pattern during
    detection (None = unbounded).  ``check_consistency`` runs the static
    analysis before repairing; ``require_consistency`` escalates an
    *Inconsistent* verdict from a warning to an error.
    """

    backend: str = "fast"
    use_candidate_index: bool = True
    use_decomposition: bool = True
    use_incremental: bool = True
    use_cost_planner: bool = True
    batch_repairs: bool = False
    max_batch: int | None = None
    cost_model: CostModel = DEFAULT_COST_MODEL
    max_repairs: int | None = None
    match_limit_per_rule: int | None = None
    # -- "sharded" backend knobs ---------------------------------------
    #: worker processes (and shards) for the fan-out; <=1 degrades to the
    #: plain fast drain
    workers: int = 1
    #: run the worker pool inline (same protocol and serialized payloads,
    #: no processes) — for tests and for hosts where processes are
    #: unavailable
    parallel_inline: bool = False
    #: below this many nodes the fan-out is skipped (partition overhead
    #: would dominate any conceivable win)
    min_partition_nodes: int = 64
    max_rounds: int = 100
    check_consistency: bool = False
    require_consistency: bool = False

    # ------------------------------------------------------------------
    # presets
    # ------------------------------------------------------------------

    @classmethod
    def fast(cls, **overrides) -> "RepairConfig":
        """The paper's efficient configuration (all optimisations on)."""
        return cls(backend="fast").with_options(**overrides)

    @classmethod
    def naive(cls, **overrides) -> "RepairConfig":
        """The naive fixpoint loop (unoptimised matcher, full re-detection)."""
        return cls(backend="naive", use_candidate_index=False,
                   use_decomposition=False, use_incremental=False,
                   use_cost_planner=False).with_options(**overrides)

    @classmethod
    def baseline(cls, **overrides) -> "RepairConfig":
        """The greedy-deletion baseline (denial-constraint-style repair)."""
        return cls(backend="greedy").with_options(**overrides)

    @classmethod
    def sharded(cls, workers: int = 4, **overrides) -> "RepairConfig":
        """The sharded multi-process backend (:mod:`repro.parallel`).

        All of the fast backend's optimisations stay on; one repair pass
        fans out over ``workers`` shard processes and fans back in under a
        single incremental-maintenance pass.  ``workers=1`` degrades to the
        plain fast drain.  The session's worker pool keeps standing shard
        replicas across repair calls: spawn and per-shard detection are
        paid at the first fan-out, then committed deltas ship incrementally.
        """
        return cls(backend="sharded", workers=workers).with_options(**overrides)

    @classmethod
    def ablation(cls, disable: str) -> "RepairConfig":
        """The E5 ablation variants, by the name of the *disabled* part:
        ``disable`` ∈ {"none", "index", "decomposition", "planner",
        "incremental"}."""
        if disable == "none":
            return cls.fast()
        if disable == "index":
            return cls.fast(use_candidate_index=False)
        if disable == "decomposition":
            return cls.fast(use_decomposition=False)
        if disable == "planner":
            # Static decomposition order, everything else optimised: isolates
            # the cost-based planner's contribution.
            return cls.fast(use_cost_planner=False)
        if disable == "incremental":
            # No incremental maintenance: the naive loop, but with the
            # optimised matcher so only the maintenance strategy differs.
            return cls(backend="naive", use_incremental=False)
        raise ValueError(f"unknown ablation target {disable!r}")

    # ------------------------------------------------------------------
    # builder
    # ------------------------------------------------------------------

    def with_options(self, **overrides) -> "RepairConfig":
        """A copy with the given fields replaced (the generic builder step)."""
        return replace(self, **overrides) if overrides else self

    def with_cost_model(self, cost_model: CostModel) -> "RepairConfig":
        return replace(self, cost_model=cost_model)

    def with_budget(self, max_repairs: int | None = None,
                    max_rounds: int | None = None) -> "RepairConfig":
        """A copy with the given budgets set (omitted ones keep their value)."""
        config = self
        if max_repairs is not None:
            config = replace(config, max_repairs=max_repairs)
        if max_rounds is not None:
            config = replace(config, max_rounds=max_rounds)
        return config

    def batched(self, enabled: bool = True,
                max_batch: int | None = None) -> "RepairConfig":
        """A copy with batched queue draining toggled.

        An omitted ``max_batch`` keeps the current cap (same contract as
        :meth:`with_budget`).
        """
        config = replace(self, batch_repairs=enabled)
        if max_batch is not None:
            config = replace(config, max_batch=max_batch)
        return config

    def to_matcher_config(self) -> MatcherConfig:
        """The matching layer's configuration (for the re-detection loops)."""
        return MatcherConfig(use_candidate_index=self.use_candidate_index,
                             use_decomposition=self.use_decomposition,
                             use_cost_planner=self.use_cost_planner)
