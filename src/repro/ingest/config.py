"""Configuration for the ingestion front and the background scheduler.

Two dataclasses, both plain values:

* :class:`TenantQuota` — per-tenant admission knobs: queue bound, what to
  do when the bound is hit (``block`` / ``reject`` / ``shed_oldest``),
  the staleness SLA the scheduler orders work by, and a scheduling
  weight.
* :class:`IngestConfig` — front-wide knobs: the default quota, how many
  tenants one scheduling pass may repair, and the repair backoff.

Everything is validated eagerly in ``__post_init__`` so a typo'd policy
string fails at construction, not at the first full queue.
"""

from __future__ import annotations

from dataclasses import dataclass, field

#: Admission policies accepted by :class:`TenantQuota`.
ADMISSION_POLICIES = ("block", "reject", "shed_oldest")


@dataclass(frozen=True)
class TenantQuota:
    """Admission-control knobs for one tenant's edit queue.

    ``max_pending`` bounds the number of queued (not yet committed)
    deltas.  When the bound is reached, ``policy`` decides the outcome of
    the next submit:

    * ``"block"`` — the submitter waits up to ``block_timeout`` seconds
      for space, then gets :class:`~repro.exceptions.AdmissionError`
      (reason ``"timeout"``);
    * ``"reject"`` — the submit raises immediately (reason ``"full"``);
    * ``"shed_oldest"`` — the oldest queued delta is dropped (its ack
      fails with reason ``"shed"``) and the new one is admitted.

    ``sla_seconds`` is the staleness budget the scheduler scores against:
    a tenant whose last repair was ``sla_seconds`` ago has priority 1.0
    from staleness alone.  ``weight`` scales a tenant's priority (2.0 =
    twice as urgent at equal staleness).  ``max_coalesce`` caps how many
    queued deltas one scheduler pass folds into a single commit.
    """

    max_pending: int = 1024
    policy: str = "block"
    block_timeout: float = 5.0
    sla_seconds: float = 1.0
    weight: float = 1.0
    max_coalesce: int = 256

    def __post_init__(self) -> None:
        if self.policy not in ADMISSION_POLICIES:
            raise ValueError(
                f"unknown admission policy {self.policy!r}; expected one of "
                f"{', '.join(ADMISSION_POLICIES)}")
        if self.max_pending < 1:
            raise ValueError("max_pending must be >= 1")
        if self.block_timeout < 0:
            raise ValueError("block_timeout must be >= 0")
        if self.sla_seconds <= 0:
            raise ValueError("sla_seconds must be > 0")
        if self.weight <= 0:
            raise ValueError("weight must be > 0")
        if self.max_coalesce < 1:
            raise ValueError("max_coalesce must be >= 1")


@dataclass(frozen=True)
class IngestConfig:
    """Front-wide configuration for :class:`~repro.ingest.IngestFront`.

    ``max_repairs_per_tick`` bounds how many tenants one scheduling pass
    repairs (the rest wait for the next pass, which follows at once,
    keeping a single pass short).  ``default_quota`` applies to tenants
    registered without an explicit :class:`TenantQuota`.

    ``repair_backoff_base`` / ``repair_backoff_max`` govern retry backoff
    for *failing* repairs: a tenant whose repair raised is skipped by the
    scheduler for ``base * 2**(failures - 1)`` seconds (capped at ``max``)
    instead of burning a slot in every pass; the first success resets it.
    ``repair_backoff_base = 0`` disables backoff: a failing tenant is then
    retried on the scheduler's next wake-up.
    """

    max_repairs_per_tick: int = 4
    default_quota: TenantQuota = field(default_factory=TenantQuota)
    repair_backoff_base: float = 0.1
    repair_backoff_max: float = 5.0

    def __post_init__(self) -> None:
        if self.max_repairs_per_tick < 1:
            raise ValueError("max_repairs_per_tick must be >= 1")
        if self.repair_backoff_base < 0:
            raise ValueError("repair_backoff_base must be >= 0")
        if self.repair_backoff_max < self.repair_backoff_base:
            raise ValueError(
                "repair_backoff_max must be >= repair_backoff_base")
