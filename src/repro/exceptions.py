"""Exception hierarchy for the :mod:`repro` library.

Every error raised by the library derives from :class:`ReproError`, so that
callers embedding the repair engine can catch a single base class.  More
specific subclasses distinguish graph-level problems (missing nodes, invalid
mutations), pattern/rule definition problems, analysis failures, and repair
execution failures.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by the repro library."""


# ---------------------------------------------------------------------------
# Graph layer
# ---------------------------------------------------------------------------


class GraphError(ReproError):
    """Base class for property-graph errors."""


class NodeNotFoundError(GraphError, KeyError):
    """A node id was referenced that does not exist in the graph."""

    def __init__(self, node_id: object) -> None:
        super().__init__(f"node {node_id!r} does not exist")
        self.node_id = node_id


class EdgeNotFoundError(GraphError, KeyError):
    """An edge id was referenced that does not exist in the graph."""

    def __init__(self, edge_id: object) -> None:
        super().__init__(f"edge {edge_id!r} does not exist")
        self.edge_id = edge_id


class DuplicateElementError(GraphError, ValueError):
    """A node or edge with an already-used id was added to the graph."""


class GraphMutationError(GraphError):
    """A graph mutation could not be performed (e.g. merging a node into itself)."""


class SerializationError(GraphError):
    """Raised when a graph cannot be (de)serialised."""


# ---------------------------------------------------------------------------
# Pattern / matching layer
# ---------------------------------------------------------------------------


class PatternError(ReproError):
    """Base class for pattern-definition errors."""


class InvalidPatternError(PatternError, ValueError):
    """The pattern is structurally invalid (empty, disconnected, bad variable refs)."""


class MatchingError(ReproError):
    """Base class for errors raised while matching a pattern against a graph."""


# ---------------------------------------------------------------------------
# Rule layer
# ---------------------------------------------------------------------------


class RuleError(ReproError):
    """Base class for rule-definition errors."""


class InvalidRuleError(RuleError, ValueError):
    """The rule definition is invalid (unknown variables, illegal operation mix)."""


class RuleParseError(RuleError, ValueError):
    """The textual GRR DSL could not be parsed."""

    def __init__(self, message: str, line: int | None = None) -> None:
        location = f" (line {line})" if line is not None else ""
        super().__init__(f"{message}{location}")
        self.line = line


# ---------------------------------------------------------------------------
# Analysis layer
# ---------------------------------------------------------------------------


class AnalysisError(ReproError):
    """Base class for rule-set static-analysis errors."""


class InconsistentRuleSetError(AnalysisError):
    """Raised when an operation requires a consistent rule set but analysis says no."""

    def __init__(self, message: str, evidence: object = None) -> None:
        super().__init__(message)
        self.evidence = evidence


# ---------------------------------------------------------------------------
# Repair layer
# ---------------------------------------------------------------------------


class RepairError(ReproError):
    """Base class for errors raised during repair planning or execution."""


class RepairExecutionError(RepairError):
    """A repair operation failed to apply to the graph."""


class SessionStateError(RepairError):
    """A :class:`~repro.api.RepairSession` operation is illegal in the
    session's current state (e.g. repairing with uncommitted staged edits,
    or using a closed session)."""


# ---------------------------------------------------------------------------
# Parallel / service layer
# ---------------------------------------------------------------------------


class WorkerPoolError(RepairError):
    """A persistent worker pool failed beyond what supervision could heal.

    :class:`repro.parallel.pool.WorkerPool` supervises its workers — a
    crashed or hung worker is respawned and the in-flight shard command is
    retried once — so this error only escapes when recovery itself failed
    (a worker died twice in one barrier, a retry errored again, or no
    rebinder was available).  It is raised after the pool has been shut
    down: a pool that produced this error holds no live worker processes,
    and the caller's circuit breaker should count it as one failure before
    degrading to the sequential backend."""


class ServiceError(RepairError):
    """A :class:`repro.service.GraphRepairService` /
    :class:`repro.service.SessionManager` operation failed (unknown or
    duplicate session name, unroutable edit, closed service)."""


# ---------------------------------------------------------------------------
# Ingestion layer
# ---------------------------------------------------------------------------


class IngestError(RepairError):
    """An :mod:`repro.ingest` operation failed (unknown tenant, stopped
    scheduler, submission to a closed front)."""


class AdmissionError(IngestError):
    """A submission was refused by admission control.

    Raised (or used to resolve the submission's ack) when a tenant's edit
    queue is full under the ``"reject"`` policy, when a ``"block"``-policy
    submit timed out, when a queued edit was shed under ``"shed-oldest"``,
    or when the front shut down with the edit still queued.  ``reason`` is
    one of ``"full"``, ``"timeout"``, ``"shed"``, ``"shutdown"``.
    """

    def __init__(self, message: str, tenant: str = "", reason: str = "full") -> None:
        super().__init__(message)
        self.tenant = tenant
        self.reason = reason


# ---------------------------------------------------------------------------
# Durability layer
# ---------------------------------------------------------------------------


class DurabilityError(ReproError):
    """A durable-log operation failed: undecodable wire payload, corrupt WAL
    record or snapshot, unknown format version, an I/O failure during an
    append/fsync (e.g. ENOSPC), or a recovery that cannot proceed (no
    snapshot and no log).

    ``tenant`` and ``sequence`` carry the failing commit's context when
    known: a WAL append that dies under a committing call names the tenant
    and the global sequence whose acknowledgement it prevented."""

    def __init__(self, message: str, tenant: str = "", sequence: int = 0) -> None:
        super().__init__(message)
        self.tenant = tenant
        self.sequence = sequence


class ReplicationError(DurabilityError):
    """A changefeed-replication operation failed (protocol violation, the
    primary went away mid-stream, or a replica fell irrecoverably behind)."""


# ---------------------------------------------------------------------------
# Experiment / dataset layer
# ---------------------------------------------------------------------------


class DatasetError(ReproError):
    """Base class for dataset-generation errors."""


class ExperimentError(ReproError):
    """Base class for experiment-harness errors."""
