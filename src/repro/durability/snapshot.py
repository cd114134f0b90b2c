"""Periodic graph snapshots — the recovery floor under the WAL.

A snapshot file holds one tenant's full graph state **as of** a global log
sequence; recovery loads the newest intact snapshot and replays only the WAL
suffix behind it, so restore cost is bounded by one snapshot plus
``snapshot_every`` records regardless of the tenant's age.

File format (``snapshot-<sequence>.snap``), two UTF-8 lines::

    {"v": 1, "sequence": 4031, "crc": 2859410117}
    {"v": 2, "name": "kg", "id_state": {...}, "labels": [...], "shapes": [...],
     "nodes": {"id": [...], ...}, "edges": {"id": [...], ...}, "values": [...]}

Line 1 is a small header carrying the log sequence and the CRC-32 of the
body line; line 2 is the columnar :func:`repro.durability.codec.encode_graph`
document (one line; wrapped here).  Bodies of format version 1, one object
per element, still load.  A snapshot is written to a ``.tmp`` sibling, fsync'd, and
**renamed into place** — readers can never observe a half-written snapshot
under the real name — then the directory entry is fsync'd.  The CRC guards
against the subtler failure of a snapshot that renamed fine but whose pages
were mangled later (bit rot, lost writes): :func:`latest_snapshot` verifies
and silently falls back to the next-older snapshot, which the pruning policy
(``keep`` ≥ 2) retains for exactly this reason.
"""

from __future__ import annotations

import os
import zlib
from pathlib import Path

from repro.exceptions import DurabilityError
from repro.graph.property_graph import PropertyGraph
from repro.durability import codec
from repro.durability.wal import _fsync_directory

_PREFIX = "snapshot-"
_SUFFIX = ".snap"
_SEQ_DIGITS = 12


def snapshot_path(directory: Path, sequence: int) -> Path:
    return directory / f"{_PREFIX}{sequence:0{_SEQ_DIGITS}d}{_SUFFIX}"


def snapshot_sequence(path: Path) -> int:
    name = path.name
    if not (name.startswith(_PREFIX) and name.endswith(_SUFFIX)):
        raise DurabilityError(f"not a snapshot file name: {name!r}")
    try:
        return int(name[len(_PREFIX):-len(_SUFFIX)])
    except ValueError:
        raise DurabilityError(f"unparsable snapshot name: {name!r}") from None


def list_snapshots(directory: Path) -> list[Path]:
    """Snapshot files in ``directory``, oldest first."""
    return sorted(directory.glob(f"{_PREFIX}*{_SUFFIX}"),
                  key=snapshot_sequence)


def write_snapshot(directory: str | Path, graph: PropertyGraph,
                   sequence: int, *, fsync: bool = True) -> Path:
    """Atomically write a snapshot of ``graph`` as of log ``sequence``."""
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    body = codec.dumps(codec.encode_graph(graph))
    header = codec.dumps({"v": codec.FORMAT_VERSION, "sequence": int(sequence),
                          "crc": zlib.crc32(body)})
    path = snapshot_path(directory, sequence)
    temp = path.with_suffix(path.suffix + ".tmp")
    with temp.open("wb") as handle:
        handle.write(header + b"\n" + body + b"\n")
        handle.flush()
        if fsync:
            os.fsync(handle.fileno())
    os.replace(temp, path)
    if fsync:
        _fsync_directory(directory)
    return path


def load_snapshot(path: str | Path) -> tuple[PropertyGraph, int]:
    """Load and verify one snapshot; returns ``(graph, sequence)``.

    Raises :class:`~repro.exceptions.DurabilityError` on any integrity
    failure (truncated file, CRC mismatch, undecodable body).
    """
    path = Path(path)
    raw = path.read_bytes()
    newline = raw.find(b"\n")
    if newline < 0:
        raise DurabilityError(f"{path.name}: truncated snapshot (no header)")
    header = codec.loads(raw[:newline])
    codec.check_version(header, kind="snapshot header")
    body = raw[newline + 1:].rstrip(b"\n")
    if zlib.crc32(body) != header.get("crc"):
        raise DurabilityError(f"{path.name}: snapshot body fails its checksum")
    graph = codec.decode_graph(codec.loads(body))
    return graph, int(header["sequence"])


def latest_snapshot(directory: str | Path,
                    ) -> tuple[PropertyGraph, int, Path] | None:
    """Newest *intact* snapshot of ``directory`` (graph, sequence, path).

    Corrupt candidates are skipped, newest-first, so a damaged latest
    snapshot degrades recovery to the previous one plus a longer WAL replay
    instead of failing it.  Returns ``None`` when no intact snapshot exists.
    """
    directory = Path(directory)
    for path in reversed(list_snapshots(directory)):
        try:
            graph, sequence = load_snapshot(path)
        except DurabilityError:
            continue
        return graph, sequence, path
    return None


def prune_snapshots(directory: str | Path, keep: int = 2) -> int:
    """Delete all but the newest ``keep`` snapshots; returns the count.

    ``keep`` below 2 is coerced up: the newest snapshot's fallback (see
    :func:`latest_snapshot`) must survive pruning.
    """
    keep = max(int(keep), 2)
    directory = Path(directory)
    snapshots = list_snapshots(directory)
    deleted = 0
    for path in snapshots[:-keep]:
        path.unlink()
        deleted += 1
    if deleted:
        _fsync_directory(directory)
    return deleted
