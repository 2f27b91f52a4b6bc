"""Durability for the schema manager: evolution log, snapshots, recovery.

The paper's evolution session (BES … EES) is the atomic unit of schema
change; this package makes that atomicity crash-proof.  See
:mod:`repro.storage.wal` for the log format, :mod:`repro.storage.store`
for recovery and checkpointing, and :mod:`repro.storage.faults` for the
deterministic crash-injection harness that proves it all works.
"""

from repro.storage.faults import CRASH_POINTS, CrashPoint, FaultInjector, NO_FAULTS
from repro.storage.store import DurableStore, RecoveryReport
from repro.storage.wal import (
    LogScan,
    WalRecord,
    WriteAheadLog,
    group_operations,
    read_log,
)

__all__ = [
    "CRASH_POINTS",
    "CrashPoint",
    "FaultInjector",
    "NO_FAULTS",
    "DurableStore",
    "RecoveryReport",
    "LogScan",
    "WalRecord",
    "WriteAheadLog",
    "group_operations",
    "read_log",
]
