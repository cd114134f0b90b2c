"""``repro.api`` — the transactional, backend-pluggable public API.

The package centres on :class:`RepairSession`: open it once over a graph and
a rule set, keep matcher state alive across successive edits, stage / commit /
roll back transactions with batched delta maintenance, and stream progress
through :class:`SessionEvents`.  Behind the session sits the
:class:`Repairer` protocol (plan/apply/maintain lifecycle) with three bundled
backends — fast, naive, greedy — plus the lazily loaded sharded one, selected
by the builder-style :class:`RepairConfig` (defined in
:mod:`repro.repair.config`, re-exported here).  :func:`repair_copy` is the
one-shot form: it repairs a copy through a short-lived session.

``docs/MIGRATION.md`` lists the removed legacy entry points and their
replacements.
"""

from repro.api.backend import (
    FastBackend,
    GreedyBackend,
    NaiveBackend,
    Repairer,
    available_backends,
    build_backend,
    register_backend,
)
from repro.api.events import (
    CommitResult,
    CommittedDelta,
    MaintenanceEvent,
    SessionEvents,
)
from repro.api.session import RepairSession, repair_copy
from repro.repair.config import RepairConfig

__all__ = [
    "RepairSession",
    "repair_copy",
    "RepairConfig",
    "Repairer",
    "FastBackend",
    "NaiveBackend",
    "GreedyBackend",
    "build_backend",
    "register_backend",
    "available_backends",
    "SessionEvents",
    "MaintenanceEvent",
    "CommitResult",
    "CommittedDelta",
]
