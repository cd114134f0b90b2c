"""The append-only, segmented write-ahead log.

One :class:`WriteAheadLog` holds the committed-delta history of one tenant as
a directory of **segment files**::

    wal-000000000001.seg     records 1..417
    wal-000000000418.seg     records 418..902
    wal-000000000903.seg     records 903..        (the open tail segment)

Segments are named by the global sequence of their first record, so ordering
and range queries need only the file names.  Inside a segment, each record is
length-prefixed and checksummed::

    [magic "RWAL1\\n" — once, at offset 0]
    [u32 payload length][u32 crc32(payload)][payload bytes]  × records

with the payload a compact-JSON record document from
:mod:`repro.durability.codec`.  Appends write the frame, flush, and
``fsync`` before returning (configurable off for tests/benchmarks) — the
*write-ahead* half of the contract: when a commit is acknowledged, its
record is on disk.

**Torn-tail truncation.**  A crash mid-append leaves a partial frame (short
length prefix, short payload, or a checksum mismatch) at the end of the last
segment only — earlier segments were sealed by a successful later append.
Opening the log scans the tail segment and truncates it back to the last
intact frame; a bad frame in a *non-tail* segment is real corruption and
raises :class:`~repro.exceptions.DurabilityError` instead of being silently
dropped.

**Rotation and truncation.**  When the tail segment exceeds
``segment_bytes`` the next append seals it and starts a fresh segment.  After
a snapshot at sequence *S*, :meth:`truncate_through` deletes every segment
whose records are **all** ≤ *S* — recovery cost stays bounded by one
snapshot plus the remaining suffix.
"""

from __future__ import annotations

import errno
import os
import struct
import zlib
from pathlib import Path
from typing import Any, Iterator

from repro.exceptions import DurabilityError
from repro.durability import codec
from repro.testing import faults as _faults

MAGIC = b"RWAL1\n"
_FRAME = struct.Struct("<II")  # payload length, crc32(payload)

#: default rotation threshold; small enough that truncation after a snapshot
#: frees space promptly, large enough that a segment amortises many records
DEFAULT_SEGMENT_BYTES = 4 * 1024 * 1024

_SEGMENT_PREFIX = "wal-"
_SEGMENT_SUFFIX = ".seg"
_SEQ_DIGITS = 12


def segment_path(directory: Path, first_sequence: int) -> Path:
    return directory / (f"{_SEGMENT_PREFIX}{first_sequence:0{_SEQ_DIGITS}d}"
                        f"{_SEGMENT_SUFFIX}")


def segment_first_sequence(path: Path) -> int:
    stem = path.name
    if not (stem.startswith(_SEGMENT_PREFIX) and stem.endswith(_SEGMENT_SUFFIX)):
        raise DurabilityError(f"not a WAL segment file name: {path.name!r}")
    try:
        return int(stem[len(_SEGMENT_PREFIX):-len(_SEGMENT_SUFFIX)])
    except ValueError:
        raise DurabilityError(f"unparsable WAL segment name: {path.name!r}") from None


def list_segments(directory: Path) -> list[Path]:
    """The segment files of ``directory``, in sequence order."""
    return sorted((path for path in directory.glob(
        f"{_SEGMENT_PREFIX}*{_SEGMENT_SUFFIX}")),
        key=segment_first_sequence)


def _fsync_directory(directory: Path) -> None:
    """Durably record directory-level changes (new/renamed/deleted files)."""
    try:
        fd = os.open(directory, os.O_RDONLY)
    except OSError:  # platforms without directory fds
        return
    try:
        os.fsync(fd)
    finally:
        os.close(fd)


def read_segment(path: Path, *, is_tail: bool = False, last_only: bool = False,
                 skip: int = 0) -> tuple[list[dict[str, Any]], int]:
    """Read every intact record of one segment.

    Returns ``(record documents, intact byte length)``.  With
    ``is_tail=True`` a torn or corrupt frame ends the scan quietly (the
    caller truncates to the returned length); otherwise it raises.  With
    ``last_only=True`` frames are checked by their checksums alone and only
    the last intact one is decoded, so the list holds at most that record:
    all that opening the log needs.  ``skip`` checks the first ``skip``
    frames by their checksums alone and leaves them out of the list.
    """
    data = path.read_bytes()
    if not data.startswith(MAGIC):
        if is_tail and len(data) < len(MAGIC):
            # the segment file itself was torn mid-creation
            return [], 0
        raise DurabilityError(f"{path.name}: bad WAL segment magic")
    records: list[dict[str, Any]] = []
    last = None
    offset = len(MAGIC)
    frames = 0
    while offset < len(data):
        frame_end = offset + _FRAME.size
        if frame_end > len(data):
            break  # torn length prefix
        length, crc = _FRAME.unpack_from(data, offset)
        payload_end = frame_end + length
        if payload_end > len(data):
            break  # torn payload
        payload = data[frame_end:payload_end]
        if zlib.crc32(payload) != crc:
            break  # corrupt (or torn-then-reused) frame
        if last_only:
            last = payload
        elif frames >= skip:
            try:
                records.append(codec.loads(payload))
            except DurabilityError:
                break
        frames += 1
        offset = payload_end
    if offset < len(data) and not is_tail:
        raise DurabilityError(
            f"{path.name}: corrupt record at byte {offset} in a sealed "
            "segment — the log is damaged beyond torn-tail repair")
    if last is not None:
        try:
            records.append(codec.loads(last))
        except DurabilityError:
            # a checksummed but undecodable frame (a zero-filled tail passes
            # the checksum): the decoding scan finds where the records end
            return read_segment(path, is_tail=is_tail)
    return records, offset


class WriteAheadLog:
    """One tenant's durable changefeed log (see module docstring).

    Not thread-safe by itself: the durability sink appends under the
    session's commit lock, which already serialises writers.
    """

    def __init__(self, directory: str | Path, *,
                 segment_bytes: int = DEFAULT_SEGMENT_BYTES,
                 fsync: bool = True, fault_plan=None) -> None:
        self.directory = Path(directory)
        self.directory.mkdir(parents=True, exist_ok=True)
        self.segment_bytes = segment_bytes
        self.fsync = fsync
        #: optional repro.testing.faults.FaultPlan; fires the "wal.append"
        #: site before each frame write and "wal.fsync" before each fsync
        self._fault_plan = fault_plan
        self._handle = None
        self._tail_path: Path | None = None
        self._tail_size = 0
        self._last_sequence = 0
        self._recover_tail()

    # ------------------------------------------------------------------
    # open / recover
    # ------------------------------------------------------------------

    def _recover_tail(self) -> None:
        """Scan existing segments; truncate a torn tail; position the writer."""
        segments = list_segments(self.directory)
        if not segments:
            return
        for path in segments[:-1]:
            records, _ = read_segment(path, is_tail=False, last_only=True)
            if records:
                self._last_sequence = int(records[-1]["seq"])
        tail = segments[-1]
        records, intact = read_segment(tail, is_tail=True, last_only=True)
        size = tail.stat().st_size
        if intact < size:
            if intact < len(MAGIC):
                # nothing durable ever made it into this segment
                tail.unlink()
                _fsync_directory(self.directory)
                self._tail_size = 0
                return self._recover_tail() if len(segments) > 1 else None
            with tail.open("rb+") as handle:
                handle.truncate(intact)
                handle.flush()
                os.fsync(handle.fileno())
        if records:
            self._last_sequence = int(records[-1]["seq"])
        self._tail_path = tail
        self._tail_size = intact

    # ------------------------------------------------------------------
    # appending
    # ------------------------------------------------------------------

    @property
    def last_sequence(self) -> int:
        """Global sequence of the newest durable record (0 when empty)."""
        return self._last_sequence

    def append(self, document: dict[str, Any]) -> int:
        """Durably append one record document; returns its sequence.

        Sequences must be dense and ascending — the log refuses gaps and
        replays, which turns a mis-wired feed subscription into an
        immediate, loud error instead of a silently unrecoverable log.  An
        *empty* log accepts any positive starting sequence: after snapshot
        truncation has released every segment, the next record legitimately
        resumes mid-history.
        """
        sequence = int(document.get("seq", 0))
        if self._last_sequence == 0 and self._tail_path is None:
            if sequence < 1:
                raise DurabilityError(
                    f"WAL sequences start at 1, got {sequence}")
            self._last_sequence = sequence - 1
        if sequence != self._last_sequence + 1:
            raise DurabilityError(
                f"out-of-order WAL append: expected sequence "
                f"{self._last_sequence + 1}, got {sequence}")
        payload = codec.dumps(document)
        frame = _FRAME.pack(len(payload), zlib.crc32(payload)) + payload
        try:
            handle = self._writer_for(sequence)
            if self._fault_plan is not None:
                self._inject(self._fault_plan.take("wal.append"), handle,
                             frame)
            handle.write(frame)
            handle.flush()
            if self.fsync:
                if self._fault_plan is not None:
                    self._inject(self._fault_plan.take("wal.fsync"), handle,
                                 frame)
                os.fsync(handle.fileno())
        except OSError as exc:
            # an I/O failure (ENOSPC, EIO, a yanked disk) must surface as a
            # loud commit failure, not an anonymous OSError swallowed
            # somewhere above the ack; the handle position is now suspect,
            # so force a reopen (and a tail re-scan on recovery)
            self._seal_broken_tail()
            raise DurabilityError(
                f"WAL append failed at sequence {sequence} in "
                f"{self.directory}: {exc}", sequence=sequence) from exc
        self._tail_size += len(frame)
        self._last_sequence = sequence
        return sequence

    def _seal_broken_tail(self) -> None:
        """Drop the open handle after a failed write; best-effort truncate
        the tail back to its last intact length (a partial frame may be on
        disk).  Failures here stay quiet — the original write error is
        already on its way up, and the next open's torn-tail recovery
        re-does this truncation from a clean scan anyway."""
        if self._handle is not None:
            try:
                self._handle.close()
            except OSError:  # silent-ok: surfacing the write error instead
                pass
            self._handle = None
        if self._tail_path is None or not self._tail_path.exists():
            return
        try:
            if self._tail_size < self._tail_path.stat().st_size:
                with self._tail_path.open("rb+") as handle:
                    handle.truncate(self._tail_size)
                    handle.flush()
                    os.fsync(handle.fileno())
        except OSError:  # silent-ok: next open re-truncates from a scan
            pass

    def _inject(self, fault, handle, frame: bytes) -> None:
        """Honour one injected WAL fault (see repro.testing.faults).

        ``torn`` writes (and syncs) a partial frame before raising — the
        on-disk image a power cut mid-append leaves, which the next open's
        torn-tail truncation must repair.
        """
        if fault is None:
            return
        if fault.kind == "torn":
            handle.write(frame[:max(1, len(frame) // 2)])
            handle.flush()
            os.fsync(handle.fileno())
            raise OSError(errno.EIO, "injected fault: torn WAL frame")
        _faults.perform(fault)

    def _writer_for(self, sequence: int):
        """The open tail handle, rotating to a fresh segment when full."""
        if self._handle is not None and self._tail_size >= self.segment_bytes:
            self._seal_tail()
        if self._handle is None:
            if self._tail_path is not None \
                    and self._tail_size < self.segment_bytes:
                self._handle = self._tail_path.open("ab")
            else:
                self._tail_path = segment_path(self.directory, sequence)
                if self._tail_path.exists():
                    raise DurabilityError(
                        f"segment {self._tail_path.name} already exists")
                self._handle = self._tail_path.open("ab")
                self._handle.write(MAGIC)
                self._handle.flush()
                if self.fsync:
                    os.fsync(self._handle.fileno())
                    _fsync_directory(self.directory)
                self._tail_size = len(MAGIC)
        return self._handle

    def _seal_tail(self) -> None:
        if self._handle is not None:
            self._handle.close()
            self._handle = None
        self._tail_path = None
        self._tail_size = self.segment_bytes  # force a fresh segment next

    # ------------------------------------------------------------------
    # reading
    # ------------------------------------------------------------------

    def records(self, after: int = 0) -> Iterator[dict[str, Any]]:
        """Record documents with ``seq > after``, in sequence order.

        Segments wholly below the cut are skipped by file name alone.  A
        segment's records are dense from the sequence its name gives, so in
        the segment that holds the cut the frames up to ``after`` are checked
        by checksum alone and never decoded.  ``recover()`` checks the
        sequences it replays dense, so a segment whose records do not start
        where its name says fails there.
        """
        segments = list_segments(self.directory)
        for index, path in enumerate(segments):
            if index + 1 < len(segments) \
                    and segment_first_sequence(segments[index + 1]) <= after + 1:
                continue  # every record here is <= after
            is_tail = index == len(segments) - 1
            skip = max(0, after + 1 - segment_first_sequence(path))
            records, _ = read_segment(path, is_tail=is_tail, skip=skip)
            yield from records

    # ------------------------------------------------------------------
    # truncation / lifecycle
    # ------------------------------------------------------------------

    def truncate_through(self, sequence: int) -> int:
        """Delete segments whose records are all ≤ ``sequence``.

        Called after a snapshot at ``sequence`` — those records can never be
        needed again.  The segment *containing* ``sequence`` survives unless
        its successor starts at ``sequence + 1`` or below.  Returns the
        number of segments deleted.
        """
        segments = list_segments(self.directory)
        deleted = 0
        for index, path in enumerate(segments):
            if index + 1 >= len(segments):
                break  # never delete the open tail segment
            if segment_first_sequence(segments[index + 1]) > sequence + 1:
                break
            path.unlink()
            deleted += 1
        if deleted:
            _fsync_directory(self.directory)
        return deleted

    def close(self) -> None:
        if self._handle is not None:
            self._handle.close()
            self._handle = None

    def __enter__(self) -> "WriteAheadLog":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()
