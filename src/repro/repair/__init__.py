"""Repair algorithms: detection, planning, execution, provenance, the
naive / fast repairers behind the session backends, and the
:class:`RepairConfig` they all read (system S5 in DESIGN.md)."""

from repro.repair.config import RepairConfig
from repro.repair.cost import DEFAULT_COST_MODEL, CostModel
from repro.repair.detector import DetectionResult, ViolationDetector, detect_violations
from repro.repair.events import MaintenanceEvent, RepairEvents
from repro.repair.executor import ExecutionOutcome, RepairExecutor
from repro.repair.fast import AppliedRepair, FastRepairCore, FastRepairer
from repro.repair.naive import NaiveRepairer
from repro.repair.provenance import RepairAction, RepairLog
from repro.repair.report import RepairReport
from repro.repair.violation import Violation, ViolationStatus

__all__ = [
    "Violation",
    "ViolationStatus",
    "RepairConfig",
    "RepairEvents",
    "MaintenanceEvent",
    "FastRepairCore",
    "ViolationDetector",
    "DetectionResult",
    "detect_violations",
    "CostModel",
    "DEFAULT_COST_MODEL",
    "RepairExecutor",
    "ExecutionOutcome",
    "RepairAction",
    "RepairLog",
    "RepairReport",
    "NaiveRepairer",
    "FastRepairer",
    "AppliedRepair",
]
