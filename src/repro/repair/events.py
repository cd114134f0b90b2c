"""Progress-event surface of the repair machinery.

Callers that want to stream progress — rather than wait for the terminal
:class:`~repro.repair.report.RepairReport` — hand a :class:`RepairEvents`
(re-exported as ``repro.api.SessionEvents``) to a repairer or a
:class:`~repro.api.RepairSession`.  The three hooks fire at the natural
observation points of the plan/apply/maintain lifecycle:

* ``on_violation(violation)`` — a new violation entered the pending queue
  (initial detection, post-repair discovery, or a session commit);
* ``on_repair_applied(violation, outcome)`` — a repair was executed, with its
  :class:`~repro.repair.executor.ExecutionOutcome` (delta included);
* ``on_maintenance(event)`` — one incremental-maintenance pass finished, with
  a :class:`MaintenanceEvent` describing its work.

Hooks default to ``None`` (disabled) and must not mutate the graph or the
rule set; exceptions they raise propagate and abort the repair run.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable


@dataclass
class MaintenanceEvent:
    """One incremental-maintenance pass (or full re-detection round).

    ``source`` names the trigger: ``"repair"`` (after one applied repair),
    ``"commit"`` (a session commit of staged edits), ``"shard-merge"`` (one
    pass over every worker repair a sharded fan-out merged), or
    ``"detection"`` (a full re-detection round of a non-incremental backend).
    """

    source: str
    delta_changes: int = 0
    invalidated: int = 0
    discovered: int = 0
    seeded_searches: int = 0
    rechecked: int = 0
    passes: int = 1


@dataclass
class RepairEvents:
    """Optional progress hooks (all disabled by default)."""

    on_violation: Callable[[Any], None] | None = None
    on_repair_applied: Callable[[Any, Any], None] | None = None
    on_maintenance: Callable[[MaintenanceEvent], None] | None = None
