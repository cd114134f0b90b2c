"""``repro.ingest`` — the asynchronous ingestion front.

The layer between edit producers and the
:class:`~repro.service.GraphRepairService`:

* :class:`IngestFront` — per-tenant bounded edit queues with admission
  control (block / reject / shed-oldest), a background repair scheduler
  that coalesces queued deltas into single commits and repairs the
  dirtiest tenants first (staleness/SLA priority, flood-proof
  fairness), and read-your-writes via ``wait_for_repair``;
* :class:`AsyncRepairService` — the asyncio facade multiplexing any
  number of event-loop clients over the thread-backed front;
* :class:`TenantQuota` / :class:`IngestConfig` — the admission and
  scheduling knobs;
* :class:`SubmitAck` — the per-delta commit acknowledgement;
* :class:`BufferedFeed` — the bounded changefeed subscriber buffer (a
  stuck consumer sheds its own oldest records instead of stalling
  commits).

See ``docs/INGEST.md`` for the scheduling policy, the backpressure
contract, and the asyncio usage shape.
"""

from repro._lazy import lazy_exports

#: public name -> the module defining it.  Resolved on first access
#: (PEP 562): the scheduler, queues and feed are all a thread-backed front
#: needs, and only :class:`AsyncRepairService` loads asyncio.
_EXPORTS = {
    "ADMISSION_POLICIES": "repro.ingest.config",
    "AdmissionError": "repro.exceptions",
    "AsyncRepairService": "repro.ingest.aio",
    "BufferedFeed": "repro.ingest.feed",
    "EditQueue": "repro.ingest.queues",
    "IngestConfig": "repro.ingest.config",
    "IngestError": "repro.exceptions",
    "IngestFront": "repro.ingest.scheduler",
    "SubmitAck": "repro.ingest.queues",
    "TenantQuota": "repro.ingest.config",
}

__all__ = list(_EXPORTS)
__getattr__, __dir__ = lazy_exports(__name__, _EXPORTS)
