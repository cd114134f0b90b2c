"""repro.durability — the persistence and replication layer.

Everything a served tenant needs to survive its process:

* :mod:`~repro.durability.codec` — the versioned wire format every durable
  artefact speaks (WAL records, snapshots, replication frames);
* :mod:`~repro.durability.wal` — the append-only, segmented, checksummed
  write-ahead log with torn-tail truncation;
* :mod:`~repro.durability.snapshot` — atomic periodic graph snapshots that
  bound WAL replay (and allow log truncation);
* :mod:`~repro.durability.recovery` — :class:`TenantDurability`, the
  WAL-before-ack commit sink, and :func:`recover`, the snapshot + exact-replay
  restore path;
* :mod:`~repro.durability.replication` — the changefeed streamed over a
  socket to cross-process :class:`ReadReplica` instances serving match
  traffic.

The service layer wires all of it behind two calls::

    service.serve("kg", graph, rules, durable=DurabilityConfig(dir=root))
    ...                                   # crash, restart
    service.restore("kg", rules, durable=DurabilityConfig(dir=root))
"""

from repro._lazy import lazy_exports

#: public name -> the module defining it.  Resolved on first access
#: (PEP 562): a durable tenant loads the log, snapshot and recovery
#: modules, and only :class:`ReadReplica` / :class:`ChangefeedServer` load
#: the socket stack.
_EXPORTS = {
    "codec": "repro.durability.codec",
    "DEFAULT_SEGMENT_BYTES": "repro.durability.wal",
    "WriteAheadLog": "repro.durability.wal",
    "latest_snapshot": "repro.durability.snapshot",
    "list_snapshots": "repro.durability.snapshot",
    "load_snapshot": "repro.durability.snapshot",
    "prune_snapshots": "repro.durability.snapshot",
    "write_snapshot": "repro.durability.snapshot",
    "DurabilityConfig": "repro.durability.recovery",
    "RecoveredTenant": "repro.durability.recovery",
    "TenantDurability": "repro.durability.recovery",
    "has_tenant_state": "repro.durability.recovery",
    "recover": "repro.durability.recovery",
    "ChangefeedServer": "repro.durability.replication",
    "ReadReplica": "repro.durability.replication",
    "replica_match_probe": "repro.durability.replication",
}

__all__ = list(_EXPORTS)
__getattr__, __dir__ = lazy_exports(__name__, _EXPORTS)
