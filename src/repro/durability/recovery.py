"""Tenant durability: WAL-before-ack commit hooks, snapshots, recovery.

:class:`TenantDurability` is the sink a served tenant's changefeed drains
into.  It subscribes to the session's commit hook **ahead of every other
subscriber** (``on_commit(..., prepend=True)``): when a commit (or a repair)
publishes a record, the record is encoded, appended to the tenant's WAL, and
fsync'd *before* any replica sees it and before the committing call returns —
an acknowledged commit is a durable commit.

Sequence spaces: a session numbers its feed from 1 per session lifetime,
but a tenant's *log* spans restarts.  The sink therefore offsets every
session sequence by ``base_sequence`` — the global sequence the tenant's log
had when this session opened (0 for a fresh tenant, the recovered sequence
after :func:`recover`) — and every durable artefact (WAL records, snapshot
names, replication streams) speaks global sequences only.

Every ``snapshot_every`` records the sink snapshots the tenant graph (the
session lock is already held inside the commit hook, so the snapshot is a
consistent cut at an exact global sequence), prunes old snapshots, and
truncates the WAL segments that the oldest kept snapshot fully covers —
recovery cost stays bounded by one snapshot plus at most ``snapshot_every``
records of replay, or ``keep_snapshots × snapshot_every`` when the newest
snapshot is corrupt and recovery falls back to an older one.

:func:`recover` inverts the pipeline: newest intact snapshot, then exact
(id-preserving) replay of the WAL suffix, yielding a graph element-for-
element equal to the crashed tenant's last acknowledged state.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any

from repro import telemetry
from repro.exceptions import DurabilityError
from repro.telemetry.log import get_logger, warn_swallowed

_log = get_logger("durability")
from repro.graph.delta import replay_delta
from repro.graph.property_graph import PropertyGraph
from repro.durability import codec
from repro.durability.snapshot import (
    latest_snapshot,
    list_snapshots,
    prune_snapshots,
    snapshot_sequence,
    write_snapshot,
)
from repro.durability.wal import (
    DEFAULT_SEGMENT_BYTES,
    WriteAheadLog,
    list_segments,
)


@dataclass(frozen=True)
class DurabilityConfig:
    """How a service persists its tenants.

    ``dir`` is the root directory; each tenant owns the subdirectory
    ``<dir>/<tenant-name>/`` with its WAL segments and snapshots side by
    side.  ``fsync=False`` trades the crash guarantee for speed (tests,
    benchmarks measuring everything but the disk).
    """

    dir: str | Path
    #: records between snapshots (and therefore the bound on replay length)
    snapshot_every: int = 256
    #: WAL segment rotation threshold, bytes
    segment_bytes: int = DEFAULT_SEGMENT_BYTES
    #: fsync every WAL append and snapshot (the crash-safety contract)
    fsync: bool = True
    #: snapshots retained after pruning (min 2: corruption fallback)
    keep_snapshots: int = 2
    #: optional repro.testing.faults.FaultPlan wired into the live WAL
    #: (chaos tests: ENOSPC / torn-frame injection); recovery never
    #: injects — it must observe what the faults left behind
    fault_plan: object = field(default=None, compare=False, repr=False)

    def tenant_dir(self, name: str) -> Path:
        return Path(self.dir) / name


def has_tenant_state(config: DurabilityConfig, name: str) -> bool:
    """True when the tenant's directory holds any durable state."""
    directory = config.tenant_dir(name)
    return directory.is_dir() and (bool(list_segments(directory))
                                   or bool(list_snapshots(directory)))


@dataclass
class RecoveredTenant:
    """The outcome of one :func:`recover` call."""

    name: str
    graph: PropertyGraph
    #: global sequence of the last applied record (the restore point)
    sequence: int
    #: sequence of the snapshot recovery started from
    snapshot_sequence: int
    #: WAL records replayed on top of the snapshot
    records_replayed: int
    #: individual graph changes inside those records
    changes_replayed: int
    #: global sequence of the newest ``"repair"``-source record in the
    #: replayed tail (0 when the tail held none)
    last_repair_sequence: int = 0
    #: ``"commit"``-source records replayed after that repair — the edits a
    #: crash left unreconciled, which the ingest scheduler must treat as
    #: dirty when the tenant is restored
    pending_commit_records: int = 0

    @property
    def known_clean(self) -> bool:
        """True only when the replayed tail *proves* every commit was
        covered by a later repair.  A tenant whose tail is empty (the
        snapshot covered everything) is **not** known clean — the snapshot
        does not record repair coverage, so schedulers seeding from a
        restore must treat uncertainty as dirty.
        """
        return (self.records_replayed > 0
                and self.last_repair_sequence > 0
                and self.pending_commit_records == 0)

    def as_dict(self) -> dict[str, int]:
        return {"sequence": self.sequence,
                "snapshot_sequence": self.snapshot_sequence,
                "records_replayed": self.records_replayed,
                "changes_replayed": self.changes_replayed,
                "last_repair_sequence": self.last_repair_sequence,
                "pending_commit_records": self.pending_commit_records}


def recover(name: str, config: DurabilityConfig) -> RecoveredTenant:
    """Restore one tenant's graph from its snapshot + WAL suffix.

    The WAL is opened writer-style first, so a torn tail from the crash is
    truncated before replay.  Replay is the exact, id-preserving
    :func:`~repro.graph.delta.replay_delta` — merges re-execute their
    recorded outcomes — and the record sequences are checked dense, so a
    gap (a lost segment) fails recovery loudly instead of silently skipping
    history.
    """
    directory = config.tenant_dir(name)
    if not directory.is_dir():
        raise DurabilityError(f"no durable state for tenant {name!r} under "
                              f"{Path(config.dir)}")
    wal = WriteAheadLog(directory, segment_bytes=config.segment_bytes,
                        fsync=config.fsync)
    try:
        found = latest_snapshot(directory)
        if found is None:
            raise DurabilityError(
                f"tenant {name!r} has no intact snapshot under {directory}; "
                "the log alone cannot reconstruct the serving graph")
        graph, sequence, _path = found
        snapshot_seq = sequence
        records = 0
        changes = 0
        last_repair_seq = 0
        pending_commits = 0
        observing = telemetry.TELEMETRY.enabled
        with telemetry.span("durability.recover", tenant=name,
                            snapshot_sequence=snapshot_seq):
            for document in wal.records(after=sequence):
                record_seq, source, delta = codec.decode_record(document)
                if record_seq != sequence + 1:
                    raise DurabilityError(
                        f"gap in tenant {name!r} log: expected sequence "
                        f"{sequence + 1}, found {record_seq}")
                if observing:
                    started = time.perf_counter()
                replay_delta(graph, delta)
                if observing:
                    telemetry.observe("repro_recovery_replay_seconds",
                                      time.perf_counter() - started,
                                      tenant=name)
                    telemetry.inc("repro_recovery_records_total", tenant=name)
                    telemetry.inc("repro_recovery_changes_total", len(delta),
                                  tenant=name)
                sequence = record_seq
                records += 1
                changes += len(delta)
                if source == "repair":
                    last_repair_seq = record_seq
                    pending_commits = 0
                else:
                    pending_commits += 1
    finally:
        wal.close()
    graph.name = name
    return RecoveredTenant(name=name, graph=graph, sequence=sequence,
                           snapshot_sequence=snapshot_seq,
                           records_replayed=records, changes_replayed=changes,
                           last_repair_sequence=last_repair_seq,
                           pending_commit_records=pending_commits)


class TenantDurability:
    """The durable sink of one served tenant (see module docstring).

    Lifecycle: construct, :meth:`bootstrap` (fresh tenants — writes the
    opening snapshot) **or** pass ``base_sequence`` (restored tenants), then
    :meth:`attach` to the live session.  :meth:`close` detaches and releases
    the WAL handle; the durable state stays, ready for :func:`recover`.
    """

    def __init__(self, name: str, config: DurabilityConfig,
                 base_sequence: int = 0) -> None:
        self.name = name
        self.config = config
        self.directory = config.tenant_dir(name)
        self.base_sequence = base_sequence
        self.wal = WriteAheadLog(self.directory,
                                 segment_bytes=config.segment_bytes,
                                 fsync=config.fsync,
                                 fault_plan=config.fault_plan)
        self._session = None
        self._unsubscribe = None
        snapshots = list_snapshots(self.directory)
        self._last_snapshot_seq = (snapshot_sequence(snapshots[-1])
                                   if snapshots else 0)
        self._closed = False
        #: deterministic sink counters (asserted by tests and the
        #: ``recovery-kg`` benchmark scenario)
        self.records_appended = 0
        self.changes_appended = 0
        self.snapshots_written = 0
        self.segments_truncated = 0

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------

    def bootstrap(self, graph: PropertyGraph) -> None:
        """Write the opening snapshot of a *fresh* tenant (sequence 0).

        The WAL replays on top of a known floor; without this snapshot a
        crash before the first periodic snapshot would be unrecoverable.
        """
        if self.wal.last_sequence or list_snapshots(self.directory):
            raise DurabilityError(
                f"tenant {self.name!r} already has durable state under "
                f"{self.directory}; restore it instead of re-serving")
        write_snapshot(self.directory, graph, 0, fsync=self.config.fsync)
        self._last_snapshot_seq = 0

    def attach(self, session) -> None:
        """Hook the session's changefeed (ahead of every other subscriber)."""
        if self._session is not None:
            raise DurabilityError("already attached to a session")
        if session.last_sequence:
            raise DurabilityError(
                "the session already published records this sink never saw; "
                "attach durability before the first commit or repair")
        self._session = session
        self._unsubscribe = session.on_commit(self._on_commit, prepend=True)

    def close(self) -> None:
        """Detach from the session and release the WAL.  Idempotent."""
        if self._closed:
            return
        self._closed = True
        if self._unsubscribe is not None:
            try:
                self._unsubscribe()
            except Exception as exc:
                # the session may already be closed; the sink is shutting
                # down either way, so degrade with a breadcrumb, not a raise
                warn_swallowed(_log, "changefeed-unsubscribe-failed", exc=exc,
                               tenant=self.name,
                               sequence=self.global_sequence)
        self._unsubscribe = None
        self._session = None
        self.wal.close()

    @property
    def closed(self) -> bool:
        return self._closed

    # ------------------------------------------------------------------
    # the commit hook
    # ------------------------------------------------------------------

    @property
    def global_sequence(self) -> int:
        """Global sequence of the newest durable record."""
        return self.wal.last_sequence or self.base_sequence

    @property
    def last_snapshot_sequence(self) -> int:
        """Global sequence of the newest snapshot (the recovery floor)."""
        return self._last_snapshot_seq

    def _on_commit(self, record) -> None:
        """Append one committed record durably (runs under the session lock,
        on the committing thread, before the commit returns).

        An append failure — ENOSPC, a torn write, any I/O error — is
        re-raised as a :class:`DurabilityError` carrying this tenant's name
        and the failing global sequence.  Because this hook is *prepended*
        on the changefeed, the error propagates into the committing call
        itself: the commit fails loudly before its ack could ever resolve,
        and no later subscriber (replica feeds, the ingest front) observes
        a record that is not on disk.
        """
        global_seq = self.base_sequence + record.sequence
        observing = telemetry.TELEMETRY.enabled
        if observing:
            started = time.perf_counter()
        try:
            self.wal.append(codec.encode_record(global_seq, record.source,
                                                record.delta))
        except (DurabilityError, OSError) as exc:
            raise DurabilityError(
                f"tenant {self.name!r}: durable append of sequence "
                f"{global_seq} failed — the commit is NOT acknowledged: "
                f"{exc}", tenant=self.name, sequence=global_seq) from exc
        self.records_appended += 1
        self.changes_appended += len(record.delta)
        if observing:
            telemetry.observe("repro_wal_fsync_seconds",
                              time.perf_counter() - started, tenant=self.name)
            telemetry.inc("repro_wal_records_total", tenant=self.name)
            telemetry.inc("repro_wal_changes_total", len(record.delta),
                          tenant=self.name)
        if global_seq - self._last_snapshot_seq >= self.config.snapshot_every:
            self._snapshot(global_seq)

    def _snapshot(self, global_seq: int) -> None:
        """Snapshot the live graph at ``global_seq`` and truncate the log.

        Called with the session lock held (from inside the commit hook), so
        the graph is exactly the state the record at ``global_seq`` left."""
        observing = telemetry.TELEMETRY.enabled
        if observing:
            started = time.perf_counter()
        with telemetry.span("durability.snapshot", tenant=self.name,
                            sequence=global_seq):
            write_snapshot(self.directory, self._session.graph, global_seq,
                           fsync=self.config.fsync)
        self._last_snapshot_seq = global_seq
        self.snapshots_written += 1
        if observing:
            telemetry.observe("repro_snapshot_write_seconds",
                              time.perf_counter() - started, tenant=self.name)
            telemetry.inc("repro_snapshots_total", tenant=self.name)
            telemetry.gauge_set("repro_snapshot_sequence", global_seq,
                                tenant=self.name)
        prune_snapshots(self.directory, keep=self.config.keep_snapshots)
        # the floor is the oldest kept snapshot, not this one: when this one
        # turns out corrupt, recovery falls back to the older snapshot and
        # must find every record after it
        floor = snapshot_sequence(list_snapshots(self.directory)[0])
        self.segments_truncated += self.wal.truncate_through(floor)

    def stats(self) -> dict[str, Any]:
        return {"base_sequence": self.base_sequence,
                "global_sequence": self.global_sequence,
                "records_appended": self.records_appended,
                "changes_appended": self.changes_appended,
                "snapshots_written": self.snapshots_written,
                "segments_truncated": self.segments_truncated}
