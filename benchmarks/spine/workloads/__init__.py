"""The five fixed-work workloads, by name, in reporting order."""

from workloads.evolve_session import EvolveSession
from workloads.farm_commit import FarmCommit
from workloads.read_under_churn import ReadUnderChurn
from workloads.repair_cure import RepairCure
from workloads.replicated_commit import ReplicatedCommit

WORKLOADS = {cls.name: cls for cls in (
    EvolveSession, RepairCure, ReadUnderChurn, ReplicatedCommit, FarmCommit)}
